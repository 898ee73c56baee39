"""Property tests of the ring layer against sympy.

Ring arithmetic, the canonical associate, gcd, exact division and the
parse/format round trip over ZZ, QQ[x], ZZ[x,y] and QQ[x,y], gcd and lcm
over ZZ[x,y,z] too, and division with remainder and the extended gcd over
the Euclidean rings ZZ and QQ[x], with sympy as a second implementation
that shares no code with egsplines.rings.  gcd and lcm are checked with
and without the packed heuristic gcd in front of the PRS.  The operands
of each check are built in separately constructed but equal descriptors,
so the checks also exercise rings being one object each: mixing the two
constructions must never raise.
"""

import contextlib
import random
import time
from fractions import Fraction
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from egsplines import kronecker, rings
from egsplines.rings import (
    RingDescriptor,
    RingElement,
    canonical_associate,
    format_element,
    parse_element,
    polynomial_ring,
)

X, Y, Z = sympy.symbols("x y z")

# name -> (two separately constructed descriptors, sympy generators, sympy domain)
RINGS = {
    "ZZ": ((RingDescriptor("integers"), rings.ZZ), (), sympy.ZZ),
    "QQ[x]": (
        (
            RingDescriptor("polynomial", ["x"], "rationals"),
            polynomial_ring("x", "y", base=rings.QQ).coefficients,
        ),
        (X,),
        sympy.QQ,
    ),
    "ZZ[x,y]": (
        (RingDescriptor("polynomial", ("x", "y"), "integers"), polynomial_ring("x", "y")),
        (X, Y),
        sympy.ZZ,
    ),
    "QQ[x,y]": (
        (RingDescriptor("polynomial", ("x", "y"), "rationals"), polynomial_ring("x", "y", base=rings.QQ)),
        (X, Y),
        sympy.QQ,
    ),
    "ZZ[x,y,z]": (
        (RingDescriptor("polynomial", ("x", "y", "z"), "integers"), polynomial_ring("x", "y", "z")),
        (X, Y, Z),
        sympy.ZZ,
    ),
}

nonzero = st.integers(-20, 20).filter(bool)
TERMS = {
    "ZZ": st.dictionaries(st.just(()), st.integers(-10**30, 10**30).filter(bool), max_size=1),
    "QQ[x]": st.dictionaries(
        st.tuples(st.integers(0, 5)), st.builds(Fraction, nonzero, st.integers(1, 6)), max_size=5
    ),
    "ZZ[x,y]": st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), nonzero, max_size=5),
    "QQ[x,y]": st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.builds(Fraction, nonzero, st.integers(1, 6)),
        max_size=4,
    ),
    "ZZ[x,y,z]": st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), nonzero, max_size=4),
}
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def pair(name):
    """(ring name, terms of a, terms of b): two elements of one ring."""
    return st.tuples(st.just(name), TERMS[name], TERMS[name])


pairs = st.sampled_from(["QQ[x]", "QQ[x,y]", "ZZ", "ZZ[x,y]"]).flatmap(pair)
# ZZ[x,y,z] only in the gcd and lcm tests: depth 3 runs the PRS over
# ZZ[x,y] coefficients
gcd_pairs = st.sampled_from(sorted(RINGS)).flatmap(pair)
euclidean_pairs = st.sampled_from(["QQ[x]", "ZZ"]).flatmap(pair)


def text(terms, ring):
    """Expression text of {exponents: coefficient}, written out independently."""
    if not terms:
        return "0"
    parts = []
    for exps, c in terms.items():
        c = Fraction(c)
        scalar = f"({c.numerator}/{c.denominator})" if ring.rational_coefficients else f"({c.numerator})"
        parts.append("*".join([scalar] + [f"{v}^{e}" for v, e in zip(ring.variables, exps)]))
    return "+".join(parts)


def to_sympy(name, terms):
    _, gens, domain = RINGS[name]
    if not gens:
        return domain(terms.get((), 0))
    return sympy.Poly.from_dict(dict(terms) or {(0,) * len(gens): 0}, *gens, domain=domain)


def terms_of(element):
    """{exponents: coefficient} of an element, read from its nested-tuple value."""

    def walk(value, depth):
        if depth == 0:
            return {(): value} if value else {}
        out = {}
        for i, c in enumerate(value):
            for exps, s in walk(c, depth - 1).items():
                out[exps + (i,)] = s
        return out

    return walk(element.value, element.descriptor.depth)


def sympy_terms(p):
    if isinstance(p, sympy.Poly):
        return {exps: Fraction(int(c.p), int(c.q)) for exps, c in p.terms() if c}
    return {(): int(p)} if p else {}


def graded_lex_normal(p):
    """p divided by the unit that egsplines normalises away: its graded-lex
    leading coefficient over QQ, that coefficient's sign over ZZ."""
    if p.is_zero:
        return p
    lead = p.LC(order="grlex")
    return p.quo_ground(lead) if p.get_domain() == sympy.QQ else p * sympy.sign(lead)


def build(name, terms_a, terms_b):
    (first, second), _, _ = RINGS[name]
    return parse_element(text(terms_a, first), first), parse_element(text(terms_b, second), second)


def expanded(name, expression):
    """{exponents: coefficient} of a sympy expression in the generators of ring name."""
    _, gens, domain = RINGS[name]
    return sympy_terms(sympy.Poly(expression, *gens, domain=domain))


# operands with a common factor, over ZZ[x,y,z]
COMMON_FACTOR = (
    "ZZ[x,y,z]",
    expanded("ZZ[x,y,z]", (X * Z + Y) * (Z**2 - 2 * X * Y)),
    expanded("ZZ[x,y,z]", (X * Z + Y) * (3 * Y * Z + 2)),
)


def prs_only():
    """kronecker.gcd refusing every pair, so that gcd runs its PRS."""
    return mock.patch.object(kronecker, "gcd", lambda *args: None)


@PROPERTY
@given(case=gcd_pairs)
@example(case=COMMON_FACTOR)
def test_gcd_matches_sympy(case):
    check_gcd(case)


@PROPERTY
@given(case=gcd_pairs)
@example(case=COMMON_FACTOR)
def test_gcd_matches_sympy_on_the_prs(case):
    with prs_only():
        check_gcd(case)


def check_gcd(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    ring = a.descriptor
    got = terms_of(RingElement(ring, ring.gcd(a.value, b.value)))
    expected = sympy.gcd(to_sympy(name, terms_a), to_sympy(name, terms_b))
    if name == "QQ[x]":
        expected = expected.monic() if not expected.is_zero else expected
        assert got == sympy_terms(expected)
    elif name == "QQ[x,y]":
        assert got == sympy_terms(graded_lex_normal(expected))
    else:
        # sympy and egsplines normalise the sign by different term orders
        options = (sympy_terms(expected), sympy_terms(-expected))
        assert got in options


@PROPERTY
@given(case=gcd_pairs)
@example(case=COMMON_FACTOR)
def test_lcm_matches_sympy(case):
    check_lcm(case)


@PROPERTY
@given(case=gcd_pairs)
@example(case=COMMON_FACTOR)
def test_lcm_matches_sympy_on_the_prs(case):
    with prs_only():
        check_lcm(case)


def check_lcm(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    ring = a.descriptor
    got = RingElement(ring, ring.lcm(a.value, b.value))
    if a.is_zero or b.is_zero:
        # sympy's lcm divides by zero over QQ here
        assert got.is_zero
        return
    expected = sympy.lcm(to_sympy(name, terms_a), to_sympy(name, terms_b))
    expected = abs(expected) if name == "ZZ" else graded_lex_normal(expected)
    assert terms_of(got) == sympy_terms(expected)


# an operand that is its gcd with the other up to a negative constant, so
# that the packed path takes its cofactor from the contents, with no division
NEGATIVE_DIVISOR = [
    ("ZZ[x,y]", expanded("ZZ[x,y]", -6 * (X + Y)), expanded("ZZ[x,y]", 4 * (X + Y) * (X - 2))),
    ("QQ[x,y]", expanded("QQ[x,y]", -(X + Y / 2) / 9), expanded("QQ[x,y]", (X + Y / 2) * (Y + 7) / 4)),
]


@PROPERTY
@given(case=gcd_pairs)
@example(case=COMMON_FACTOR)
@example(case=NEGATIVE_DIVISOR[0])
@example(case=NEGATIVE_DIVISOR[1])
def test_cofactors_match_sympy(case):
    check_cofactor_case(case)


@PROPERTY
@given(case=gcd_pairs)
@example(case=COMMON_FACTOR)
def test_cofactors_match_sympy_on_the_prs(case):
    with prs_only():
        check_cofactor_case(case)


def check_cofactor_case(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    if name == "ZZ":
        # ZZ keeps math.gcd and math.lcm
        assert a.descriptor.cofactors is None
        return
    check_cofactors(a, b, to_sympy(name, terms_a), to_sympy(name, terms_b))


def check_cofactors(a, b, pa, pb):
    """ring.cofactors(a, b) = (g, a/g, b/g): g is gcd(a, b), which is
    sympy's gcd in graded-lex normal form, and the quotients are exact, in
    egsplines and in sympy's division."""
    ring = a.descriptor
    g, qa, qb = ring.cofactors(a.value, b.value)
    assert g == ring.gcd(a.value, b.value)
    assert ring.mul(g, qa) == a.value and ring.mul(g, qb) == b.value
    if not g:
        assert a.is_zero and b.is_zero
        return
    expected = graded_lex_normal(sympy.gcd(pa, pb))
    assert terms_of(RingElement(ring, g)) == sympy_terms(expected)
    for p, q in ((pa, qa), (pb, qb)):
        quotient, remainder = sympy.div(p, expected)
        assert remainder.is_zero
        assert terms_of(RingElement(ring, q)) == sympy_terms(quotient)


# (a, b) over ZZ[x,y] and QQ[x,y] for the PRS; y is the outer variable
PRS_CASES = [
    # deg a < deg b, with a common content
    ((X + 1) * (Y + X), (X + 1) * (Y**3 + 2 * X * Y - 1)),
    # b divides a
    ((3 * X * Y**2 - Y + X**2) * (2 * X * Y + 5), 2 * X * Y + 5),
    # non-monic leading coefficients in y, degrees 3 and 4
    (((X**2 + 3) * Y**2 - 2) * ((2 * X + 1) * Y + X), ((X**2 + 3) * Y**2 - 2) * ((X - 4) * Y**2 + 7)),
    # degrees 7 and 4: lc(b)^4 scales a
    ((X * Y**3 + 2) * ((2 * X + 3) * Y**4 - X), (X * Y**3 + 2) * (5 * X * Y + 1)),
    # nontrivial integer and polynomial contents
    (6 * (X**2 - 1) * (Y**2 + X * Y + 2), 4 * (X - 1) * (X * Y - 3) * (Y**2 + X * Y + 2)),
]


@pytest.mark.parametrize("name", ["ZZ[x,y]", "QQ[x,y]"])
@pytest.mark.parametrize("case", range(len(PRS_CASES)))
def test_pseudo_remainder_sequence_cases(name, case):
    terms_a, terms_b = (expanded(name, e) for e in PRS_CASES[case])
    a, b = build(name, terms_a, terms_b)
    ring = a.descriptor
    pa, pb = to_sympy(name, terms_a), to_sympy(name, terms_b)
    expected = sympy_terms(graded_lex_normal(sympy.gcd(pa, pb)))
    for x, y in ((a, b), (b, a)):
        assert terms_of(RingElement(ring, ring.gcd(x.value, y.value))) == expected
    lcm = RingElement(ring, ring.lcm(a.value, b.value))
    assert terms_of(lcm) == sympy_terms(graded_lex_normal(sympy.lcm(pa, pb)))
    q, r = sympy.div(pa, pb)
    got = ring.divide(a.value, b.value)
    assert (got is not None) == r.is_zero
    if got is not None:
        assert terms_of(RingElement(ring, got)) == sympy_terms(q)


@PROPERTY
@given(case=pairs)
def test_exact_division_of_a_product(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    if b.is_zero:
        return
    product = to_sympy(name, terms_a) * to_sympy(name, terms_b)
    ring = RINGS[name][0][1]
    c = parse_element(text(sympy_terms(product), ring), ring)
    quotient = RingElement(ring, ring.divide(c.value, b.value))
    assert quotient == a
    assert terms_of(quotient) == terms_a


@PROPERTY
@given(case=pairs)
@example(case=("ZZ[x,y]", {(1, 0): 1}, {(1, 0): 2}))  # x / 2x: divisible over QQ only
@example(case=("QQ[x]", {(2,): Fraction(1)}, {(1,): Fraction(1), (0,): Fraction(1)}))
@example(case=("ZZ", {(): 7}, {(): 3}))
def test_exact_division_agrees_with_sympy(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    if b.is_zero:
        return
    pa, pb = to_sympy(name, terms_a), to_sympy(name, terms_b)
    if name == "ZZ":
        divisible, quotient = pa % pb == 0, sympy_terms(pa // pb)
    else:
        q, r = sympy.div(pa.set_domain(sympy.QQ), pb.set_domain(sympy.QQ))
        quotient = sympy_terms(q)
        divisible = r.is_zero and (
            RINGS[name][2] == sympy.QQ or all(c.denominator == 1 for c in quotient.values())
        )
    got = a.descriptor.divide(a.value, b.value)
    assert (got is not None) == divisible
    if divisible:
        assert terms_of(RingElement(a.descriptor, got)) == quotient


@PROPERTY
@given(case=pairs)
def test_parse_format_round_trip(case):
    name, terms_a, _ = case
    (first, second), gens, _ = RINGS[name]
    a = parse_element(text(terms_a, first), first)
    written = format_element(a)
    assert parse_element(written, second) == a
    # sympy reads the printed text as the same polynomial
    if gens:
        read = sympy.Poly(sympy.sympify(written.replace("^", "**")), *gens, domain=RINGS[name][2])
        assert sympy_terms(read) == terms_a
    else:
        assert int(written) == terms_a.get((), 0)


@PROPERTY
@given(case=pairs)
def test_arithmetic_matches_sympy(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    pa, pb = to_sympy(name, terms_a), to_sympy(name, terms_b)
    assert terms_of(a + b) == sympy_terms(pa + pb)
    assert terms_of(a - b) == sympy_terms(pa - pb)
    assert terms_of(a * b) == sympy_terms(pa * pb)


@PROPERTY
@given(case=pairs)
def test_canonical_associate_matches_sympy(case):
    name, terms_a, _ = case
    a, _ = build(name, terms_a, {})
    pa = to_sympy(name, terms_a)
    expected = abs(pa) if name == "ZZ" else graded_lex_normal(pa)
    assert terms_of(canonical_associate(a)) == sympy_terms(expected)


@PROPERTY
@given(case=euclidean_pairs)
@example(case=("ZZ", {(): -7}, {(): 3}))
@example(case=("ZZ", {(): 7}, {(): -3}))
@example(case=("ZZ", {(): -7}, {(): -3}))
def test_euclidean_divmod_matches_sympy(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    if b.is_zero:
        return
    ring = a.descriptor
    q, r = (RingElement(ring, v) for v in ring.divmod(a.value, b.value))
    pa, pb = to_sympy(name, terms_a), to_sympy(name, terms_b)
    if name == "ZZ":
        # the remainder lies in [0, |b|), whatever the signs
        sa, sb = sympy.Integer(int(pa)), sympy.Integer(int(pb))
        expected_r = sympy.Mod(sa, abs(sb))
        expected_q = (sa - expected_r) / sb
        assert (terms_of(q), terms_of(r)) == (sympy_terms(expected_q), sympy_terms(expected_r))
    else:
        expected_q, expected_r = sympy.div(pa, pb)
        assert (terms_of(q), terms_of(r)) == (sympy_terms(expected_q), sympy_terms(expected_r))


@PROPERTY
@given(case=euclidean_pairs)
def test_euclidean_xgcd_matches_sympy(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    ring = a.descriptor
    g, s, t = (RingElement(ring, v) for v in ring.xgcd(a.value, b.value))
    pa, pb = to_sympy(name, terms_a), to_sympy(name, terms_b)
    ps, pt = to_sympy(name, terms_of(s)), to_sympy(name, terms_of(t))
    # Bezout identity, and g is the canonical gcd
    assert sympy_terms(ps * pa + pt * pb) == terms_of(g)
    expected = sympy.gcd(pa, pb)
    expected = abs(expected) if name == "ZZ" else graded_lex_normal(expected)
    assert terms_of(g) == sympy_terms(expected)


# name -> (ring, sympy generators, sympy domain, term counts per operand on
# each side of the ring's packing cutoff)
PACKED = {
    "ZZ[x]": (polynomial_ring("x"), (X,), sympy.ZZ, (5, 40)),
    "QQ[x]": (polynomial_ring("x", base=rings.QQ), (X,), sympy.QQ, (2, 12)),
    "ZZ[x,y]": (polynomial_ring("x", "y"), (X, Y), sympy.ZZ, (3, 30)),
    "QQ[x,y]": (polynomial_ring("x", "y", base=rings.QQ), (X, Y), sympy.QQ, (2, 20)),
    "ZZ[x,y,z]": (polynomial_ring("x", "y", "z"), (X, Y, Z), sympy.ZZ, (3, 25)),
}


def random_terms(rng, ring, count):
    """{exponents: coefficient} with count terms of degree at most 2*count
    in one variable and 6 per variable in more: negative coefficients,
    coefficients past 2^64, gaps between exponents, and over QQ mixed
    denominators."""
    degree = 2 * count if ring.depth == 1 else 6
    terms = {}
    while len(terms) < count:
        exps = tuple(rng.randint(0, degree) for _ in ring.variables)
        c = rng.choice([rng.randint(-9, 9), rng.randint(-(2**80), 2**80)]) or 1
        terms[exps] = Fraction(c, rng.choice([1, 4, 9, 3**41])) if ring.rational_coefficients else c
    return terms


@pytest.mark.parametrize("name", sorted(PACKED))
def test_products_and_quotients_on_both_sides_of_the_cutoff(name):
    ring, gens, domain, sizes = PACKED[name]
    rng = random.Random(name)
    for trial in range(12):
        terms_a = random_terms(rng, ring, sizes[trial % 2])
        terms_b = random_terms(rng, ring, sizes[trial // 2 % 2])
        a, b = parse_element(text(terms_a, ring), ring), parse_element(text(terms_b, ring), ring)
        pa = sympy.Poly.from_dict(terms_a, *gens, domain=domain)
        pb = sympy.Poly.from_dict(terms_b, *gens, domain=domain)
        product = a * b
        assert terms_of(product) == sympy_terms(pa * pb)
        assert product == parse_element(format_element(product), ring)
        assert ring.divide(product.value, b.value) == a.value
        assert ring.divide((product + ring.one).value, b.value) is None


def test_power_of_a_trinomial_is_fast():
    ring = polynomial_ring("x", "y", base=rings.QQ)
    start = time.perf_counter()
    power = parse_element("(x+y+1)^50", ring)
    elapsed = time.perf_counter() - start
    expected = sympy.Poly((X + Y + 1) ** 50, X, Y, domain=sympy.QQ)
    assert terms_of(power) == sympy_terms(expected)
    assert elapsed < 0.2


# (ring, a, b, integer gcds that kronecker.gcd takes, whether it answers)
PACKED_GCD_CASES = [
    # with x -> t and y -> t^2 the images share a factor that the operands
    # do not, t for the first pair and t - 1 for the second: the second
    # slot width reads back the first candidate, so refused after 2
    ("ZZ[x,y]", X - Y, X**2 - Y, 2, False),
    ("ZZ[x,y]", X * Y - 1, X - Y, 2, False),
    # gcd 13x+4: xi = 2^8 gives x^2+17x+84, xi = 2^16 gives 3*(13x+4)
    ("ZZ[x]", -26 * X**3 - 47 * X**2 + 14 * X + 8, 13 * X**3 + 30 * X**2 - 31 * X - 12, 2, True),
    # integer contents 3*2^100 and 5*2^90
    ("ZZ[x,y]", 3 * 2**100 * (X + Y) * (X - 2), 5 * 2**90 * (X + Y) * (Y + 7), 1, True),
    ("QQ[x,y]", (X + Y / 2) * (X - 2) / 3**40, (X + Y / 2) * (Y + 7) * 2**90, 1, True),
]


@pytest.mark.parametrize("case", range(len(PACKED_GCD_CASES)))
def test_packed_gcd_cases(case, monkeypatch):
    name, ea, eb, tries, answers = PACKED_GCD_CASES[case]
    ring, gens, domain, _ = PACKED[name]
    pa, pb = (sympy.Poly(e, *gens, domain=domain) for e in (ea, eb))
    a, b = (parse_element(text(sympy_terms(p), ring), ring) for p in (pa, pb))
    unpacked, unpack = [], kronecker._unpack
    monkeypatch.setattr(kronecker, "_unpack", lambda *args: unpacked.append(args) or unpack(*args))
    got = kronecker.gcd(a.value, b.value, ring.depth, ring.rational_coefficients, ring.divide)
    assert (len(unpacked), got is not None) == (tries, answers)
    expected = sympy_terms(graded_lex_normal(sympy.gcd(pa, pb)))
    for x, y in ((a, b), (b, a)):
        assert terms_of(RingElement(ring, ring.gcd(x.value, y.value))) == expected
    lcm = RingElement(ring, ring.lcm(a.value, b.value))
    assert terms_of(lcm) == sympy_terms(graded_lex_normal(sympy.lcm(pa, pb)))


@pytest.mark.parametrize("prs", [False, True], ids=["packed", "prs"])
@pytest.mark.parametrize("case", range(len(PACKED_GCD_CASES)))
def test_packed_gcd_case_cofactors(case, prs):
    # the packed path's cofactors come from its check divisions, from an
    # operand whose image is the gcd's, or from the contents alone
    name, ea, eb, _, _ = PACKED_GCD_CASES[case]
    ring, gens, domain, _ = PACKED[name]
    pa, pb = (sympy.Poly(e, *gens, domain=domain) for e in (ea, eb))
    a, b = (parse_element(text(sympy_terms(p), ring), ring) for p in (pa, pb))
    with prs_only() if prs else contextlib.nullcontext():
        check_cofactors(a, b, pa, pb)
        check_cofactors(b, a, pb, pa)


def test_repeated_candidate_takes_one_check_division():
    # the images of 3x+y-4 and x+3y-4 share a factor that the operands do
    # not, and every slot width reads back the same candidate: after its
    # one failed check the pair goes to the PRS (three checks before)
    ring, gens, domain, _ = PACKED["ZZ[x,y]"]
    pa, pb = (sympy.Poly(e, *gens, domain=domain) for e in (3 * X + Y - 4, X + 3 * Y - 4))
    a, b = (parse_element(text(sympy_terms(p), ring), ring) for p in (pa, pb))
    divisions = []

    def divide(x, y):
        divisions.append(y)
        return ring.divide(x, y)

    assert kronecker.gcd(a.value, b.value, ring.depth, False, divide) is None
    assert len(divisions) == 1
    check_cofactors(a, b, pa, pb)
    check_cofactors(b, a, pb, pa)


def test_packed_gcd_refuses_a_sparse_box(monkeypatch):
    # 5001^2 slots against 2 * 2 term pairs: refused before anything is packed
    ring = PACKED["ZZ[x,y]"][0]
    a, b = parse_element("x^5000*y^5000+1", ring), parse_element("x^5000+y^5000", ring)
    monkeypatch.setattr(kronecker, "_pack", lambda *args: pytest.fail("packed a sparse box"))
    start = time.perf_counter()
    assert kronecker.gcd(a.value, b.value, 2, False, ring.divide) is None
    assert time.perf_counter() - start < 0.05


def test_packed_gcd_refuses_past_gcd_bytes(monkeypatch):
    # x^50+100 and y^50+100 fill a box of 51^2 = 2,601 slots, which
    # _flatten accepts, but need 2-byte slots: 5,202 bytes, past GCD_BYTES
    # for 4 term pairs, so the packed gcd refuses before it packs; the
    # same after multiplying both by x+y (52^2 slots, 16 term pairs)
    # (the PRS that follows packs gcds of univariate contents)
    ring, gens, domain, _ = PACKED["ZZ[x,y]"]
    flatten = kronecker._flatten
    for slots, common in ((51, 1), (52, X + Y)):
        pa, pb = (sympy.Poly(e * common, *gens, domain=domain) for e in (X**50 + 100, Y**50 + 100))
        a, b = (parse_element(text(sympy_terms(p), ring), ring) for p in (pa, pb))
        boxes = []
        with monkeypatch.context() as patch:
            patch.setattr(kronecker, "_flatten", lambda *args: boxes.append(flatten(*args)) or boxes[-1])
            patch.setattr(kronecker, "_pack", lambda *args: pytest.fail("packed past GCD_BYTES"))
            assert kronecker.gcd(a.value, b.value, 2, False, ring.divide) is None
        assert [box[3] for box in boxes] == [slots**2]
        assert slots**2 * 2 > kronecker.GCD_BYTES
        check_cofactors(a, b, pa, pb)
        check_cofactors(b, a, pb, pa)


def test_rational_gcd_with_a_common_factor_is_fast():
    # operands of degrees (6, 7) and (12, 16) in (x, y) with a common factor
    # of degree (3, 4), coefficients up to 9 over denominators 2 or 3: the
    # PRS alone took over a minute here, swelling rational coefficients
    ring, gens, domain, _ = PACKED["QQ[x,y]"]
    rng = random.Random("rational gcd")

    def poly(dx, dy):
        terms = {
            (i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([2, 3]))
            for i in range(dx + 1)
            for j in range(dy + 1)
        }
        return sympy.Poly.from_dict(terms, *gens, domain=domain)

    common = poly(3, 4)
    pa, pb = common * poly(3, 3), common * poly(9, 12)
    a, b = (parse_element(text(sympy_terms(p), ring), ring) for p in (pa, pb))
    start = time.perf_counter()
    g = RingElement(ring, ring.gcd(a.value, b.value))
    assert time.perf_counter() - start < 3.0
    assert terms_of(g) == sympy_terms(graded_lex_normal(sympy.gcd(pa, pb)))
