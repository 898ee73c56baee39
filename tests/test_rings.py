import copy
import dataclasses
import functools
import math
import operator
import pickle
import random
import time
from fractions import Fraction

import pytest

from egsplines import kronecker, rings
from egsplines.graph import LabeledGraph
from egsplines.rings import (
    QQ,
    ZZ,
    Congruence,
    DescriptorMismatchError,
    IncompatibleCongruencesError,
    ParseError,
    RingDescriptor,
    RingElement,
    UnsupportedRingError,
    associate_unit,
    canonical_associate,
    crt,
    format_element,
    parse_element,
    polynomial_ring,
)
from egsplines.splines import spline_violations

from conftest import QX, QXY, ZX, ZXY, qx, qxy, zxy, zz
from test_acceptance import _check_lcm_gcd_identities


class TestDescriptor:
    def test_kinds(self):
        assert ZZ.kind == "integers" and not ZZ.is_polynomial
        assert QQ.kind == "rationals"
        assert ZXY.is_polynomial and ZXY.variables == ("x", "y")

    def test_invalid(self):
        with pytest.raises(ValueError):
            RingDescriptor("polynomial", (), "integers")
        with pytest.raises(ValueError):
            polynomial_ring("x", "x")
        with pytest.raises(ValueError):
            polynomial_ring("2bad")
        with pytest.raises(ValueError):
            RingDescriptor("gaussian")

    def test_pid_flags(self):
        assert ZZ.is_pid and QQ.is_pid and QX.is_pid
        assert not ZX.is_pid
        assert not QXY.is_pid
        assert not ZXY.is_pid

    def test_coefficient_ring(self):
        assert ZXY.coefficients == polynomial_ring("x")
        assert ZX.coefficients == ZZ
        assert QX.coefficients == QQ
        assert ZZ.coefficients is None and QQ.coefficients is None

    def test_one_object_per_ring(self):
        assert RingDescriptor("integers") is ZZ
        assert polynomial_ring("x", "y") is RingDescriptor("polynomial", ["x", "y"], "integers")
        assert polynomial_ring("x", "y").coefficients is polynomial_ring("x")
        assert polynomial_ring("x", base=QQ).coefficients is QQ
        assert copy.deepcopy(ZXY) is ZXY
        assert pickle.loads(pickle.dumps(QXY)) is QXY

    def test_attributes_cannot_be_assigned(self):
        names = RingDescriptor.__slots__ + ("extra",)
        for ring in (ZZ, QQ, ZX, QXY):
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(ring, name, None)

    def test_facts_fixed_at_construction(self):
        assert not dataclasses.is_dataclass(RingDescriptor)
        assert not any(isinstance(v, property) for v in vars(RingDescriptor).values())
        assert (ZZ.depth, QQ.depth, QX.depth, ZXY.depth) == (0, 0, 1, 2)
        assert QQ.rational_coefficients and QXY.rational_coefficients
        assert not ZZ.rational_coefficients and not ZXY.rational_coefficients
        assert ZXY.zero == parse_element("0", ZXY) and ZXY.one == parse_element("1", ZXY)
        assert QX.one.value == (Fraction(1),)
        assert ZZ.one is ZZ.one

    def test_operations_fixed_at_construction(self):
        assert (ZZ.add, ZZ.mul, ZZ.gcd, QQ.mul) == (operator.add, operator.mul, math.gcd, rings._qq_mul)
        # a whole rational is an int, a true fraction a Fraction
        assert type(QQ.mul(Fraction(2, 3), 3)) is int and QQ.mul(Fraction(2, 3), 3) == 2
        assert type(QQ.mul(Fraction(2, 3), 2)) is Fraction
        assert ZXY.coefficients is ZX and ZX.coefficients is ZZ and ZZ.coefficients is None
        for ring in (ZZ, QQ, QX):
            assert ring.is_pid and callable(ring.divmod) and callable(ring.size)
            assert callable(ring.xgcd)
        for ring in (ZX, ZXY, QXY):
            assert not ring.is_pid and ring.divmod is None and ring.size is None
            assert ring.xgcd is None
        g, s, t = ZZ.xgcd(30, -18)
        assert g == 6 and 30 * s - 18 * t == 6
        # lcm on raw values: canonical, 0 absorbs, 1 returns the other operand's associate
        assert (ZZ.lcm(-4, 6), ZZ.lcm(0, 5), ZZ.lcm(1, -7)) == (12, 0, 7)
        assert QQ.lcm(Fraction(-2, 3), Fraction(5)) == 1
        assert QX.lcm(QX.one.value, qx("-2*x+1").value) == qx("x-1/2").value
        assert ZXY.lcm(zxy("-x*y").value, zxy("2*y^2").value) == zxy("2*x*y^2").value
        assert ZZ.primitive is None and QX.primitive(qx("2*x+4").value) == (2, (2, 1))
        assert ZXY.mul(zxy("x+y").value, zxy("x-y").value) == zxy("x^2-y^2").value

    def test_variable_limit(self):
        names = [f"x{i}" for i in range(rings._MAX_VARIABLES + 1)]
        assert polynomial_ring(*names[:-1]).depth == rings._MAX_VARIABLES
        with pytest.raises(ValueError):
            polynomial_ring(*names)
        with pytest.raises(ValueError):
            RingDescriptor("polynomial", names, "rationals")

    def test_mixing_rings_raises(self):
        with pytest.raises(DescriptorMismatchError):
            ZZ.one + QQ.one


class TestCopyPickle:
    @pytest.mark.parametrize(
        "element",
        [zz(-7), parse_element("-3/4", QQ), qx("1/3*x^2-2"), zxy("x^2*y-3*y+1"), ZXY.zero],
        ids=str,
    )
    def test_element_round_trip(self, element):
        for copied in (
            copy.copy(element),
            copy.deepcopy(element),
            pickle.loads(pickle.dumps(element)),
        ):
            assert copied == element and hash(copied) == hash(element)
            assert copied.descriptor is element.descriptor

    def test_deep_copied_graph(self, t4):
        from egsplines.splines import key_element

        key = key_element(t4)
        g = copy.deepcopy(t4)
        assert g is not t4 and g.ring is t4.ring
        assert (g.vertex_labels, g.edges, g.names) == (t4.vertex_labels, t4.edges, t4.names)
        assert key_element(g) == key

    def test_pickled_flow_up_basis(self, c3_int):
        from egsplines.pid import flow_up_basis

        basis = flow_up_basis(c3_int)
        copied = pickle.loads(pickle.dumps(basis))
        assert copied.leading_terms() == basis.leading_terms()
        for ours, theirs in zip(copied.classes, basis.classes):
            assert ours.index == theirs.index
            assert ours.spline.components == theirs.spline.components
            assert ours.spline.graph is copied.graph
        assert copied.graph.vertex_labels == c3_int.vertex_labels


class TestParseFormat:
    def test_literal_polynomial(self):
        assert zxy("x^2+y") == ZXY.variable("x") ** 2 + ZXY.variable("y")

    def test_zero(self):
        assert parse_element("0", ZZ).is_zero
        assert format_element(ZZ.zero) == "0"
        assert format_element(ZXY.zero) == "0"

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_element("x^(-1)", QX)
        with pytest.raises(ParseError, match="negative exponent"):
            parse_element("x^-1", QX)

    def test_rational_literal_rules(self):
        assert qx("3/2").value == (Fraction(3, 2),)
        with pytest.raises(ParseError, match="integer-based"):
            parse_element("3/2", ZX)
        with pytest.raises(ParseError, match="integer-based"):
            parse_element("1/2", ZZ)
        with pytest.raises(ParseError):
            parse_element("x/2", QX)  # '/' only in a rational literal

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_element("z+1", ZXY)
        with pytest.raises(ParseError, match="unknown variable"):
            parse_element("x", ZZ)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_element("2x", ZX)
        with pytest.raises(ParseError):
            parse_element("x y", ZXY)

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_element("x++", ZX)
        assert info.value.position >= 0
        with pytest.raises(ParseError):
            parse_element("(x+1", ZX)
        with pytest.raises(ParseError):
            parse_element("", ZX)

    def test_nesting_limit(self):
        # 100 levels of parentheses and unary minus, counted together, parse
        assert parse_element("(" * 100 + "x" + ")" * 100, ZX) == ZX.variable("x")
        assert parse_element("-" * 100 + "7", ZZ) == zz(7)
        assert parse_element("(-" * 50 + "7" + ")" * 50, ZZ) == zz(7)
        # the limit is on depth, not on the number of parentheses
        assert parse_element("+".join(["(-(1))"] * 150), ZZ) == zz(-150)
        # one level more is a ParseError, not a RecursionError
        for text in ("(" * 101 + "x" + ")" * 101, "-" * 101 + "x", "(-" * 51 + "x" + ")" * 51):
            with pytest.raises(ParseError, match="deeper than 100"):
                parse_element(text, ZX)

    def test_literal_digit_limit(self):
        # past the interpreter's 4300-digit int <-> str limit, in both directions
        text = "7" * 5000
        assert str(parse_element(text, ZZ)) == text
        assert str(parse_element(f"-{text}/3", QQ)) == f"-{text}/3"
        assert parse_element("9" * 100_000 + "+1", ZZ) == zz(10**100_000)
        for literal in ("1" * 100_001, "x^" + "1" * 100_001, "1/" + "1" * 100_001):
            with pytest.raises(ParseError, match="longer than 100000 digits"):
                parse_element(literal, QX)

    def test_power_limit(self):
        assert parse_element("2^500000", ZZ) == zz(2) ** 500_000
        assert parse_element("x^100000", ZX).value[-1] == 1
        assert parse_element("0^99999999999", ZZ) == ZZ.zero
        # a power whose estimate passes 2^20 bits is refused before it is computed
        for text in ("2^50000000", "(2^5000)^5000", "2^600000", "(x+1)^1000", "(x+y+1)^200"):
            with pytest.raises(ParseError, match="power larger than 1048576 bits"):
                parse_element(text, polynomial_ring("x", "y"))

    def test_power_by_squaring(self):
        assert zxy("x+y") ** 13 == zxy("x+y") ** 6 * zxy("x+y") ** 7
        assert parse_element("(x+y)^13", ZXY).value[7][6] == 1716  # x^6*y^7
        assert qx("1/2*x-1") ** 10 == qx("(1/2*x-1)^5") * qx("(1/2*x-1)^5")
        assert zz(3) ** 1000 == ZZ.from_int(3**1000)

    def test_only_ascii_digits(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_element("2\u00b2", ZZ)
        with pytest.raises(ParseError, match="unexpected character"):
            parse_element("\u0663+1", ZZ)

    def test_parenthesized_exponent(self):
        assert parse_element("x^(3)", ZX) == parse_element("x^3", ZX)
        assert parse_element("(x+1)^( 2 )", QX) == qx("x^2+2*x+1")

    def test_zero_denominator_at_its_position(self):
        with pytest.raises(ParseError, match="zero denominator") as info:
            parse_element("1/0", QQ)
        assert info.value.position == 2

    def test_precedence_and_unary_minus(self):
        assert parse_element("2+3*4", ZZ) == zz(14)
        assert parse_element("-2^2", ZZ) == zz(-4)  # '-' factor, factor = 2^2
        assert parse_element("(2+3)*4", ZZ) == zz(20)
        assert zxy("-x*y") == -(ZXY.variable("x") * ZXY.variable("y"))

    def test_format_examples(self):
        assert format_element(zz(-24)) == "-24"
        assert format_element(zxy("x^2+y")) == "x^2+y"
        assert str(qx("3/2*x-1/2")) == "3/2*x-1/2"

    def test_graded_lex_term_order(self):
        assert format_element(zxy("y^2 + x*y + x^2 + y + x + 1")) == "x^2+x*y+y^2+x+y+1"

    def test_round_trip_corpus(self):
        rng = random.Random(7)
        for ring in (ZZ, QQ, ZX, QX, ZXY, QXY):
            for _ in range(60):
                element = _random_element(rng, ring)
                text = format_element(element)
                assert parse_element(text, ring) == element, (ring, text)


def _random_element(rng, ring):
    if ring.kind == "integers":
        return ring.from_int(rng.randint(-40, 40))
    if ring.kind == "rationals":
        return rings.RingElement(ring, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
    out = ring.zero
    for _ in range(rng.randint(0, 5)):
        term = ring.from_int(rng.randint(-9, 9))
        for name in ring.variables:
            term = term * ring.variable(name) ** rng.randint(0, 3)
        out = out + term
    return out


# The character-loop tokenizer that one regular expression replaced, with
# the character sets it read, verbatim: the reference of TestTokenizer.
_DIGITS = set("0123456789")
_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_REST = _IDENT_FIRST | _DIGITS | {"_"}
_TOKEN_OPS = set("+-*^()/")


def _loop_tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in _IDENT_FIRST:
            j = i
            while j < n and text[j] in _IDENT_REST:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


class TestTokenizer:
    # characters the grammar reads, and ASCII and Unicode white space
    TOKEN_CHARS = "0123456789" "abcxyzXYZ_" "+-*^()/" " \t\n" "\u00a0\u2003\x1c"
    # non-ASCII letters, Unicode digits and other symbols, each refused
    OTHER_CHARS = "\u00e9\u00df\u03a9\u0436\u0663\u00b2\u00bd.,$#!~=\u20ac\U0001f600"

    def test_matches_the_character_loop(self):
        rng = random.Random("tokenizer")
        outcomes = {True: 0, False: 0}
        for _ in range(2400):
            text = "".join(
                rng.choice(self.OTHER_CHARS if rng.random() < 0.04 else self.TOKEN_CHARS)
                for _ in range(rng.randint(0, 24))
            )
            expected = _tokens_or_error(_loop_tokenize, text)
            assert _tokens_or_error(rings._tokenize, text) == expected, text
            outcomes[isinstance(expected, list)] += 1
        # both token lists and refusals are compared, many of each
        assert min(outcomes.values()) >= 600, outcomes

    def test_variable_names_are_name_tokens(self):
        for name in ("x", "X1", "y_2", "abc_DEF_09"):
            assert rings._is_identifier(name)
            assert rings._tokenize(name) == [("name", name, 0), ("end", "", len(name))]
        for name in ("", "_x", "1x", "x-y", "x ", "\u00e9", "x\n"):
            assert not rings._is_identifier(name)


class TestRawEvaluation:
    """The parser and crt run on raw values and wrap only their results."""

    @pytest.fixture
    def built(self, monkeypatch):
        values = []
        init = rings.RingElement.__init__

        def counting_init(self, descriptor, value):
            values.append(value)
            init(self, descriptor, value)

        monkeypatch.setattr(rings.RingElement, "__init__", counting_init)
        return values

    def test_parse_builds_one_element(self, built):
        cases = [
            ("-(2+3)*4^2-7", ZZ),
            ("3/4-1/4*(2/3)^3", QQ),
            ("(x+1)^5-x*(-x)", ZX),
            ("1/2*x^(2)-(x-1/3)^3", QX),
            ("(x-y)^(3)*(x+2*y)-y^2", ZXY),
            ("1/2*x*y^2-(x+1/3)^2*y", QXY),
            ("0", ZXY),
        ]
        for text, ring in cases:
            built.clear()
            element = parse_element(text, ring)
            assert built == [element.value], text

    def test_crt_builds_only_its_results(self, built):
        systems = [
            [Congruence(zz(1), zz(4)), Congruence(zz(3), zz(6)), Congruence(zz(7), zz(10))],
            [Congruence(qx("1"), qx("x")), Congruence(qx("2"), qx("x-1"))],
            [Congruence(QQ.from_int(3), QQ.from_int(5))],
        ]
        for congruences in systems:
            built.clear()
            x, modulus = crt(congruences)
            assert built == [x.value, modulus.value]
        incompatible = [Congruence(zz(1), zz(4)), Congruence(zz(2), zz(6))]
        built.clear()
        with pytest.raises(IncompatibleCongruencesError):
            crt(incompatible)
        assert built == []


class TestArithmetic:
    def test_add_mul(self):
        x, y = ZXY.variable("x"), ZXY.variable("y")
        assert x + y == zxy("x+y")
        assert zxy("x^3+x*y") * ZXY.one == zxy("x^3+x*y")

    def test_pow_zero(self):
        assert zxy("(x+y)^0") == ZXY.one
        assert (zxy("x+y")) ** 0 == ZXY.one
        with pytest.raises(ValueError):
            zxy("x") ** -1

    def test_descriptor_mismatch(self):
        with pytest.raises(DescriptorMismatchError):
            zz(1) + QQ.one
        with pytest.raises(DescriptorMismatchError):
            zxy("x") * qxy("x")

    def test_immutability_and_hash(self):
        a = zxy("x+y")
        with pytest.raises(AttributeError):
            a.value = ()
        assert hash(zxy("x+y")) == hash(a)
        assert len({zz(3), zz(3), zz(4)}) == 2


class TestExactDiv:
    def test_examples(self):
        assert ZXY.divide(zxy("x^3+x*y").value, zxy("x").value) == zxy("x^2+y").value
        assert ZZ.divide(6, 4) is None
        a = zxy("x^2*y - 3")
        assert ZXY.divide(a.value, ZXY.one.value) == a.value

    def test_multiply_back_random(self):
        rng = random.Random(11)
        for ring in (ZZ, ZX, QX, ZXY, QXY):
            for _ in range(50):
                b = _random_element(rng, ring)
                if b.is_zero:
                    continue
                q = _random_element(rng, ring)
                assert ring.divide((q * b).value, b.value) == q.value

    def test_nondivisible_polynomials(self):
        assert ZXY.divide(zxy("x+y").value, zxy("x").value) is None
        assert ZXY.divide(zxy("x^2+y^2").value, zxy("x+y").value) is None
        # same quotient exists over QQ coefficients but not over ZZ
        assert ZX.divide(parse_element("2*x+2", ZX).value, parse_element("4", ZX).value) is None
        assert QX.divide(qx("2*x+2").value, qx("4").value) == qx("1/2*x+1/2").value


ZXYZ = polynomial_ring("x", "y", "z")


def _random_value(rng, ring, degree, density):
    """A raw value of ring with up to degree + 1 coefficients per level, a
    fraction density of them nonzero: small and negative, or past 2^64, and
    over QQ with mixed denominators."""

    def build(depth):
        if depth == 0:
            if rng.random() > density:
                return 0
            c = rng.choice([rng.randint(-9, 9), rng.randint(-(2**70), 2**70), -(2**64) - 1]) or 1
            return Fraction(c, rng.choice([1, 2, 3, 10**20])) if ring.rational_coefficients else c
        return kronecker.strip([build(depth - 1) for _ in range(rng.randint(0, degree) + 1)])

    return build(ring.depth)


def _is_canonical(value, depth):
    """No trailing zero at any level, zero coefficients of polynomial
    coefficients written as (), and integral scalars written as ints."""
    if depth == 0:
        return not isinstance(value, Fraction) or value.denominator > 1
    return (
        isinstance(value, tuple)
        and (not value or bool(value[-1]))
        and all(_is_canonical(x, depth - 1) for x in value)
    )


def _spy(monkeypatch, name):
    """Replace kronecker.<name> by a wrapper; returns the list of whether
    each call returned a packed result."""
    real, outcomes = getattr(kronecker, name), []

    def spy(*args):
        out = real(*args)
        outcomes.append(out is not None)
        return out

    monkeypatch.setattr(kronecker, name, spy)
    return outcomes


class TestPackedKernels:
    # (ring, degrees per level): the small degrees stay under the ring's
    # packing cutoff, the large ones pass it
    CASES = [(ZX, (2, 6, 30)), (QX, (1, 2, 8)), (ZXY, (1, 3, 8)), (QXY, (1, 2, 5)), (ZXYZ, (1, 2, 3))]

    def test_products_match_schoolbook(self, monkeypatch):
        rng = random.Random(2026)
        for ring, degrees in self.CASES:
            product = kronecker.product
            least = kronecker.MIN_PAIRS[ring.rational_coefficients, ring.depth > 1]
            dispatched, sides = _spy(monkeypatch, "product"), set()
            for trial in range(36):
                degree = degrees[trial % 3]
                density = (1.0, 0.6)[trial % 2]
                a = _random_value(rng, ring, degree, density)
                b = _random_value(rng, ring, degree, density)
                got = rings.RingElement(ring, ring.mul(a, b))
                with monkeypatch.context() as schoolbook:
                    schoolbook.setattr(kronecker, "product", lambda *args: None)
                    expected = rings.RingElement(ring, ring.mul(a, b))
                assert got == expected and hash(got) == hash(expected)
                assert _is_canonical(got.value, ring.depth)
                if a and b:
                    sides.add(kronecker.dense(a, ring.depth) * kronecker.dense(b, ring.depth) >= least)
                    # packed on any size, under the cutoff too
                    forced = product(a, b, ring.depth, ring.rational_coefficients, 10**9)
                    if forced is not None:
                        assert forced == expected.value and _is_canonical(forced, ring.depth)
                        assert hash(forced) == hash(expected.value)
            # both sides of the cutoff were reached, and the dispatch packed
            assert sides == {False, True} and True in dispatched, ring
            monkeypatch.undo()

    def test_quotients_match_long_division(self):
        rng = random.Random(2027)
        for ring, degree in ((ZXY, 10), (ZXYZ, 5)):
            for trial in range(30):
                q = _random_value(rng, ring, degree, (1.0, 0.7)[trial % 2])
                b = _random_value(rng, ring, 1 + trial % 3, 1.0)
                if not b or ring.canon(b) == ring.one.value:
                    continue
                a = ring.mul(q, b)
                not_multiple = ring.add(a, ring.one.value)
                assert ring.divide(a, b) == q
                assert ring.divide(not_multiple, b) is None

    def test_divisor_with_wider_coefficients_than_the_dividend(self):
        # a dividend of 100 dense slots with coefficients 1, and divisors
        # whose coefficients are far wider than the dividend's
        a = zxy("*".join("(" + "+".join(f"{v}^{i}" for i in range(10)) + ")" for v in "xy"))
        for b in (zxy(f"{2**40}*x + y"), zxy(f"x - {2**100}*y")):
            assert ZXY.divide(a.value, b.value) is None
            assert ZXY.divide((a * b).value, b.value) == a.value
            g = LabeledGraph(ZXY, [ZXY.one, ZXY.one], [(0, 1, b)])
            assert spline_violations(g, [a, ZXY.zero]) == [
                f"edge 1 (v1,v2): difference is not a multiple of {b}"
            ]
            assert spline_violations(g, [a * b, ZXY.zero]) == []

    def test_sparse_product_in_many_variables(self):
        # the dense box of (1 + x0 + ... + x7)^2 squared has 5^8 slots
        # against 45 * 45 term pairs: it must stay on the schoolbook path
        names = [f"x{i}" for i in range(8)]
        ring = polynomial_ring(*names)
        s = parse_element("(1+" + "+".join(names) + ")^2", ring)
        assert kronecker.product(s.value, s.value, 8, False, 10**9) is None
        start = time.perf_counter()
        p = s * s
        assert time.perf_counter() - start < 0.1
        terms = dict(ring.terms(p.value))
        assert len(terms) == math.comb(12, 4)  # monomials of degree <= 4 in 8 variables
        assert terms[(0,) * 8] == 1 and terms[(1, 1, 1, 1, 0, 0, 0, 0)] == 24
        assert terms[(0, 0, 0, 0, 0, 0, 0, 4)] == 1


def _term_product(ring, a, b):
    """The product of two raw values of ring term by term: its nonzero
    terms as a dict from exponents to coefficients."""
    out = {}
    for ea, ca in ring.terms(a):
        for eb, cb in ring.terms(b):
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * cb
    return {e: c for e, c in out.items() if c}


class TestScalingProduct:
    """A product with an operand of one coefficient in the outer variable
    is a scaling of the other operand, in either order."""

    @pytest.mark.parametrize("ring", [ZX, QX, ZXY, QXY], ids=str)
    def test_matches_the_schoolbook_product(self, ring):
        rng = random.Random(f"scaling:{ring}")
        scaled = 0
        for trial in range(80):
            # every other operand has interior zeros; QQ bases draw true fractions
            a = _random_value(rng, ring, 6, (1.0, 0.5)[trial % 2])
            c = ring.coefficients.zero.value
            while not c:
                c = _random_value(rng, ring.coefficients, 4, (1.0, 0.6)[trial % 2])
            for x, y in ((a, (c,)), ((c,), a)):
                got = ring.mul(x, y)
                assert dict(ring.terms(got)) == _term_product(ring, x, y)
                assert _is_canonical(got, ring.depth)
            scaled += bool(a)
        assert scaled > 60


def _literal_terms(value, depth):
    """The nonzero terms by recursion on the outer variable, whose exponent
    goes last."""
    if depth == 0:
        return [((), value)] if value else []
    return [
        (exps + (i,), c)
        for i, x in enumerate(value)
        for exps, c in _literal_terms(x, depth - 1)
    ]


class TestTerms:
    def test_matches_literal_recursion_in_order(self):
        rng = random.Random(61)
        zxyz = polynomial_ring("x", "y", "z")
        for ring in (ZX, QX, ZXY, QXY, zxyz):
            for _ in range(60):
                value = _random_value(rng, ring, 6, rng.choice([0.3, 0.7, 1.0]))
                expected = _literal_terms(value, ring.depth)
                assert rings._terms(value, ring.depth) == expected
                assert ring.terms(value) == expected
            assert ring.terms(ring.zero.value) == []

    def test_scalar_rings(self):
        assert ZZ.terms(-3) == [((), -3)] and ZZ.terms(0) == []
        assert QQ.terms(Fraction(1, 2)) == [((), Fraction(1, 2))] and QQ.terms(Fraction(0)) == []


def _graded_lex_key(term):
    return sum(term[0]), term[0]


class TestLeadingTerm:
    def test_canon_matches_the_term_list_definition(self):
        # canon(a) is a over its graded-lex leading coefficient over a
        # rational base and over that coefficient's sign over an integer
        # one, the leading term being the largest (total degree, exponents)
        # in the list of all terms
        rng = random.Random(67)
        zxyz, qxyz = polynomial_ring("x", "y", "z"), polynomial_ring("x", "y", "z", base=QQ)
        for ring in (ZX, QX, ZXY, QXY, zxyz, qxyz):
            negative = fractional = 0
            for _ in range(80):
                value = _random_value(rng, ring, 4, rng.choice([0.3, 0.7, 1.0]))
                if not value:
                    continue
                terms = _literal_terms(value, ring.depth)
                exps, lead = max(terms, key=_graded_lex_key)
                assert rings._lead(value, ring.depth) == (sum(exps), exps, lead)
                if ring.rational_coefficients:
                    expected = [(e, c / lead) for e, c in terms]
                    fractional += lead.denominator != 1
                else:
                    expected = [(e, c if lead > 0 else -c) for e, c in terms]
                negative += lead < 0
                assert ring.terms(ring.canon(value)) == expected
            assert negative >= 10
            assert fractional >= 10 or not ring.rational_coefficients


def _decimal(n):
    """Decimal text of an int in 1000-digit pieces, clear of the
    interpreter's limit on int to str conversion."""
    if n < 0:
        return "-" + _decimal(-n)
    pieces = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        pieces.append(str(low).zfill(1000))
    return str(n) + "".join(reversed(pieces))


def _format_by_term_sort(a):
    """format_element by its earlier algorithm: every term, sorted by the
    graded-lex key, each coefficient printed from its absolute value."""
    d = a.descriptor
    terms = sorted(d.terms(a.value), key=_graded_lex_key, reverse=True)
    if not terms:
        return "0"

    def scalar(c):
        c = Fraction(c)
        if c.denominator == 1:
            return _decimal(c.numerator)
        return f"{_decimal(c.numerator)}/{_decimal(c.denominator)}"

    parts = []
    for exps, c in terms:
        factors = []
        for name, e in zip(d.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = scalar(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([scalar(abs(c))] + factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


class TestFormatReference:
    def test_matches_the_term_sort(self):
        rng = random.Random(71)
        zxyz, qxyz = polynomial_ring("x", "y", "z"), polynomial_ring("x", "y", "z", base=QQ)
        long_int = "1" + "0" * 4399 + "7"
        texts = [
            "0", "1", "-1", "7", "-7", "3/2", "-1/3", long_int, "-" + long_int,
            "x", "-x", "x-1", "-x^2*y+1", "y^2+x*y+x^2+y+x+1", "-1/2*x*y+2/3",
            f"{long_int}*x*y-{long_int}", f"x-{long_int}/3*y^2",
        ]
        elements = []
        for ring in (ZZ, QQ, ZX, QX, ZXY, QXY, zxyz, qxyz):
            for text in texts:
                if ("y" in text and ring.depth < 2) or ("x" in text and not ring.depth):
                    continue
                if "/" in text and not ring.rational_coefficients:
                    continue
                elements.append(parse_element(text, ring))
            if ring.depth:
                for _ in range(60):
                    value = _random_value(rng, ring, 4, rng.choice([0.3, 0.7, 1.0]))
                    elements.append(rings.RingElement(ring, value))
        for element in elements:
            text = format_element(element)
            assert text == _format_by_term_sort(element)
            assert parse_element(text, element.descriptor) == element
        assert any(len(format_element(e)) > 4400 for e in elements)


class TestGcdLcm:
    def test_integer_examples(self):
        assert ZZ.gcd(12, 18) == 6
        assert ZZ.gcd(-12, 18) == 6
        assert ZZ.lcm(4, 6) == 12
        assert ZZ.gcd(7, 0) == 7
        assert ZZ.gcd(-7, 0) == 7

    def test_polynomial_examples(self):
        assert QXY.gcd(qxy("x^2*y+x*y^2").value, qxy("x*y").value) == qxy("x*y").value
        assert QXY.lcm(qxy("x").value, qxy("x+y").value) == qxy("x^2+x*y").value
        assert ZXY.gcd(zxy("2*x+2").value, zxy("4*x+4").value) == zxy("2*x+2").value

    def test_normalization(self):
        # positive graded-lex lead over ZZ bases, monic over QQ bases
        assert ZXY.gcd(zxy("-2*x").value, zxy("-4*x").value) == zxy("2*x").value
        assert QX.gcd(qx("2*x+2").value, qx("4*x+4").value) == qx("x+1").value
        assert ZZ.lcm(-4, 6) == 12
        assert canonical_associate(qxy("2*x*y+4")) == qxy("x*y+2")

    def test_aggregates_mixed_rings_raise(self):
        # a fold unwraps its elements first, and each one's ring is checked
        with pytest.raises(DescriptorMismatchError):
            ZZ.values([zz(2), QQ.one])
        with pytest.raises(DescriptorMismatchError):
            ZZ.values([zz(2), zz(4), ZX.one])
        with pytest.raises(TypeError):
            ZZ.values([zz(2), 3])

    def test_aggregates(self):
        assert functools.reduce(ZZ.gcd, [12, 18, 8], ZZ.zero.value) == 2
        assert functools.reduce(ZZ.lcm, [2, 3, 4], ZZ.one.value) == 12
        assert ZZ.lcm(0, 5) == 0
        assert functools.reduce(ZZ.lcm, [-7], ZZ.one.value) == 7

    def test_gcd_divides_both_and_is_greatest(self):
        rng = random.Random(3)
        for ring in (ZZ, ZX, QX, ZXY):
            for _ in range(40):
                d = _random_element(rng, ring).value
                a = ring.mul(d, _random_element(rng, ring).value)
                b = ring.mul(d, _random_element(rng, ring).value)
                g = ring.gcd(a, b)
                if a or b:
                    assert ring.divide(a, g) is not None and ring.divide(b, g) is not None
                if d:
                    assert ring.divide(g, d) is not None

    @pytest.mark.parametrize("a", [zxy("-2*x^2*y+4*y-6"), qx("2*x^2-3/2*x+4")], ids=str)
    def test_gcd_is_the_first_cofactor_and_pays_no_packed_gcd(self, a, monkeypatch):
        # a polynomial ring's gcd reads cofactors, whose zero, one and
        # equal-operand shortcuts answer these pairs without packing them
        ring = a.descriptor
        calls = _spy(monkeypatch, "gcd")
        a, one, zero = a.value, ring.one.value, ring.zero.value
        canon = ring.canon(a)
        assert canon != a
        for x, y, expected in [
            (a, one, one), (one, a, one), (a, a, canon), (zero, a, canon), (a, zero, canon),
        ]:
            assert ring.gcd(x, y) == expected == ring.cofactors(x, y)[0]
        assert calls == []
        # a pair that needs a gcd packs it once, in cofactors
        b = ring.mul(a, ring.add(a, one))
        assert ring.gcd(a, b) == canon
        assert len(calls) == 1

    def test_gcd_lcm_product_identity(self):
        rng = random.Random(5)
        for ring in (ZZ, ZX, QXY):
            for _ in range(30):
                a, b = _random_element(rng, ring), _random_element(rng, ring)
                if a.is_zero or b.is_zero:
                    continue
                product = RingElement(ring, ring.mul(ring.gcd(a.value, b.value), ring.lcm(a.value, b.value)))
                assert associate_unit(product, a * b) is not None

    def test_lcm_matches_sympy(self):
        # an operand equal to one takes a shortcut; both paths must agree
        # with sympy, and the fold of lcm with sympy's fold
        sympy = pytest.importorskip("sympy")
        rng = random.Random(71)
        for ring, units in (
            (ZZ, ["1", "-1"]),
            (QX, ["1", "-1", "3", "1/2"]),
            (ZXY, ["1", "-1"]),
        ):
            gens = sympy.symbols(ring.variables) if ring.variables else ()

            def to_sympy(e):
                return sympy.sympify(format_element(e).replace("^", "**"))

            def sympy_lcm(x, y):
                if x == 0 or y == 0:
                    return sympy.Integer(0)
                if not ring.variables:
                    return sympy.ilcm(x, y)
                domain = "QQ" if ring.rational_coefficients else "ZZ"
                out = sympy.Poly(x, *gens, domain=domain).lcm(
                    sympy.Poly(y, *gens, domain=domain)
                )
                if ring.rational_coefficients and not out.is_zero:
                    out = out.monic()
                return out.as_expr()

            def pick():
                if rng.random() < 0.4:
                    return parse_element(rng.choice(units), ring)
                return _random_element(rng, ring)

            for _ in range(40):
                elements = [pick() for _ in range(rng.randint(1, 4))]
                expected = sympy.Integer(1)
                for e in elements:
                    expected = sympy_lcm(expected, to_sympy(e))
                values = ring.values(elements)
                pair_lcm = RingElement(ring, ring.lcm(values[0], values[-1]))
                fold_lcm = RingElement(ring, functools.reduce(ring.lcm, values, ring.one.value))
                for got in (pair_lcm, fold_lcm):
                    assert canonical_associate(got) == got
                pair = sympy_lcm(to_sympy(elements[0]), to_sympy(elements[-1]))
                for got, want in ((pair_lcm, pair), (fold_lcm, expected)):
                    diff = sympy.expand(to_sympy(got) - want)
                    total = sympy.expand(to_sympy(got) + want)
                    assert diff == 0 or (ring is ZXY and total == 0), (elements, got, want)


    def test_aggregates_with_repeats_match_sympy(self):
        # lists with repeated values and with associates of one value: the
        # folds of lcm and gcd must agree with sympy's fold over the list
        sympy = pytest.importorskip("sympy")
        rng = random.Random(73)
        for ring, units in ((ZZ, ["-1"]), (QX, ["-1", "3", "1/2"]), (ZXY, ["-1"])):
            gens = sympy.symbols(ring.variables) if ring.variables else ()
            domain = "QQ" if ring.rational_coefficients else "ZZ"

            def to_sympy(e):
                return sympy.sympify(format_element(e).replace("^", "**"))

            def fold(name, elements):
                if not ring.variables:
                    op = sympy.ilcm if name == "lcm" else sympy.igcd
                    out = sympy.Integer(int(to_sympy(elements[0])))
                    for e in elements[1:]:
                        out = op(out, int(to_sympy(e)))
                    return abs(out)
                polys = [sympy.Poly(to_sympy(e), *gens, domain=domain) for e in elements]
                out = polys[0]
                for p in polys[1:]:
                    out = getattr(out, name)(p)
                if ring.rational_coefficients and not out.is_zero:
                    out = out.monic()
                return out.as_expr()

            checked = repeated = 0
            for _ in range(30):
                pool = [_random_element(rng, ring) for _ in range(rng.randint(1, 3))]
                pool = [e for e in pool if not e.is_zero]
                if not pool:
                    continue
                elements = []
                for _ in range(len(pool) + rng.randint(1, 4)):
                    e = rng.choice(pool)
                    if rng.random() < 0.3:
                        e = e * parse_element(rng.choice(units), ring)
                    elements.append(e)
                repeated += len(set(elements)) < len(elements)
                values = ring.values(elements)
                for name, start in (("lcm", ring.one.value), ("gcd", ring.zero.value)):
                    got = RingElement(ring, functools.reduce(getattr(ring, name), values, start))
                    assert canonical_associate(got) == got
                    want = fold(name, elements)
                    diff = sympy.expand(to_sympy(got) - want)
                    total = sympy.expand(to_sympy(got) + want)
                    assert diff == 0 or (ring is ZXY and total == 0), (name, elements, got)
                checked += 1
            assert checked >= 20 and repeated >= 10


class TestUnitsAssociates:
    def test_units(self):
        # a unit is an associate of 1
        for unit in (zz(-1), zz(1), qx("3/2"), zxy("-1")):
            assert associate_unit(unit, unit.descriptor.one) == unit
        for other in (zz(2), ZZ.zero, qx("x"), zxy("2")):
            assert associate_unit(other, other.descriptor.one) is None

    def test_associates(self):
        ok = associate_unit(qx("2*x+2"), qx("x+1"))
        assert ok == qx("2")
        assert associate_unit(parse_element("2*x+2", ZX), parse_element("x+1", ZX)) is None
        a = zxy("x*y-3")
        assert associate_unit(a, a) == ZXY.one
        assert associate_unit(ZZ.zero, ZZ.zero) is not None
        assert associate_unit(ZZ.zero, zz(2)) is None


class TestContent:
    def test_examples(self):
        assert ZX.primitive(parse_element("2*x+4", ZX).value) == (2, parse_element("x+2", ZX).value)
        # already primitive in univariate rings
        x = parse_element("x", ZX).value
        assert ZX.primitive(x) == (1, x)
        assert QX.primitive(qx("x").value) == (1, qx("x").value)
        # recursive view: (ZZ[x])[y], so the y-free part is all content
        zx_ring = ZXY.coefficients
        c, p = ZXY.primitive(zxy("x^2*y^2+x^2*y").value)
        assert c == parse_element("x^2", zx_ring).value
        assert p == zxy("y^2+y").value
        c, p = ZXY.primitive(zxy("x").value)
        assert c == parse_element("x", zx_ring).value and p == ZXY.one.value

    def test_zero_and_reconstruction(self):
        assert ZXY.primitive(ZXY.zero.value) == (ZXY.coefficients.zero.value, ZXY.zero.value)
        rng = random.Random(13)
        for ring in (ZX, QX, ZXY, QXY):
            for _ in range(40):
                element = _random_element(rng, ring)
                c, p = ring.primitive(element.value)
                embedded = _embed_coefficient(c, ring)
                assert ring.mul(embedded, p) == element.value


def _embed_coefficient(c, ring):
    """View a raw value of the coefficient ring inside the full polynomial ring."""
    return (c,) if c else ()


class TestEuclidean:
    def test_divmod_integers(self):
        assert ZZ.divmod(-7, 3) == (-3, 2)
        q, r = ZZ.divmod(7, -3)
        assert q * -3 + r == 7 and 0 <= r < 3

    def test_divmod_polynomials(self):
        assert QX.divmod(qx("x^3+1").value, qx("x^2").value) == (qx("x").value, qx("1").value)

    def test_xgcd(self):
        g, s, t = ZZ.xgcd(30, 18)
        assert g == 6 and s * 30 + t * 18 == g
        a, b = qx("x^2-1"), qx("x+1")
        g, s, t = (RingElement(QX, v) for v in QX.xgcd(a.value, b.value))
        assert g == b and s * a + t * b == g


class TestCrt:
    def test_example(self):
        x, modulus = crt([
            Congruence(zz(1), zz(4)),
            Congruence(zz(3), zz(6)),
        ])
        assert (x.value, modulus.value) == (9, 12)

    def test_single(self):
        x, modulus = crt([Congruence(ZZ.zero, zz(7))])
        assert x.is_zero and modulus == zz(7)

    def test_incompatible_names_pair(self):
        with pytest.raises(IncompatibleCongruencesError) as info:
            crt([Congruence(zz(1), zz(4)), Congruence(zz(2), zz(6))])
        assert (info.value.i, info.value.j) == (0, 1)

    def test_polynomial_system(self):
        x, modulus = crt([
            Congruence(qx("1"), qx("x")),
            Congruence(qx("2"), qx("x-1")),
        ])
        assert QX.divide((x - qx("1")).value, qx("x").value) is not None
        assert QX.divide((x - qx("2")).value, qx("x-1").value) is not None
        assert modulus == qx("x^2-x")

    def test_unsupported_rings(self):
        with pytest.raises(UnsupportedRingError):
            crt([Congruence(zxy("x"), zxy("y"))])
        zx1 = parse_element("1", ZX)
        with pytest.raises(UnsupportedRingError):
            crt([Congruence(zx1, parse_element("x", ZX))])

    def test_matches_exhaustive_search(self):
        rng = random.Random(17)
        for _ in range(200):
            count = rng.randint(1, 3)
            moduli = [rng.randint(2, 12) for _ in range(count)]
            residues = [rng.randint(0, 20) for _ in range(count)]
            product = 1
            for m in moduli:
                product *= m
            solutions = [
                x for x in range(product)
                if all((x - a) % b == 0 for a, b in zip(residues, moduli))
            ]
            congruences = [
                Congruence(zz(a), zz(b)) for a, b in zip(residues, moduli)
            ]
            if solutions:
                x, modulus = crt(congruences)
                assert x.value in solutions
                assert all((s - x.value) % modulus.value == 0 for s in solutions)
            else:
                with pytest.raises(IncompatibleCongruencesError):
                    crt(congruences)


class TestLcmGcdIdentities:
    """The four lcm/gcd identities used throughout the aggregate formulas."""

    @staticmethod
    def _tuples_zz(rng, count):
        return [zz(rng.randint(1, 60) * rng.choice((1, -1))) for _ in range(count)]

    def test_identities_integer_smoke(self):
        rng = random.Random(23)
        for _ in range(200):
            a = self._tuples_zz(rng, 3)
            b = self._tuples_zz(rng, 1)[0]
            _check_lcm_gcd_identities(a, b)

    def test_identities_rational_poly_smoke(self):
        rng = random.Random(29)
        for _ in range(25):
            a = [_nonzero(rng, QX) for _ in range(3)]
            b = _nonzero(rng, QX)
            _check_lcm_gcd_identities(a, b)


def _nonzero(rng, ring):
    while True:
        e = _random_element(rng, ring)
        if not e.is_zero:
            return e

