"""Property tests of the ring layer against sympy.

Ring arithmetic, the canonical associate, gcd, exact division and the
parse/format round trip over ZZ, QQ[x], ZZ[x,y] and QQ[x,y], and division
with remainder and the extended gcd over the Euclidean rings ZZ and QQ[x],
with sympy as a second implementation that shares no code with
egsplines.rings.  The operands of each check are built in separately
constructed but equal descriptors, so the checks also exercise rings being
one object each: mixing the two constructions must never raise.
"""

import random
import time
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from egsplines import rings
from egsplines.rings import (
    RingDescriptor,
    canonical_associate,
    euclidean_divmod,
    euclidean_xgcd,
    exact_div,
    format_element,
    gcd,
    parse_element,
    polynomial_ring,
    try_exact_div,
)

X, Y = sympy.symbols("x y")

# name -> (two separately constructed descriptors, sympy generators, sympy domain)
RINGS = {
    "ZZ": ((RingDescriptor("integers"), rings.ZZ), (), sympy.ZZ),
    "QQ[x]": (
        (
            RingDescriptor("polynomial", ["x"], "rationals"),
            polynomial_ring("x", "y", base=rings.QQ).coefficient_ring(),
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
}
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def pair(name):
    """(ring name, terms of a, terms of b): two elements of one ring."""
    return st.tuples(st.just(name), TERMS[name], TERMS[name])


pairs = st.sampled_from(sorted(RINGS)).flatmap(pair)
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


@PROPERTY
@given(case=pairs)
def test_gcd_matches_sympy(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    got = terms_of(gcd(a, b))
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
@given(case=pairs)
def test_exact_division_of_a_product(case):
    name, terms_a, terms_b = case
    a, b = build(name, terms_a, terms_b)
    if b.is_zero:
        return
    product = to_sympy(name, terms_a) * to_sympy(name, terms_b)
    ring = RINGS[name][0][1]
    c = parse_element(text(sympy_terms(product), ring), ring)
    assert exact_div(c, b) == a
    assert terms_of(exact_div(c, b)) == terms_a


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
    got = try_exact_div(a, b)
    assert (got is not None) == divisible
    if divisible:
        assert terms_of(got) == quotient
    else:
        with pytest.raises(rings.NotDivisibleError):
            exact_div(a, b)


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
    q, r = euclidean_divmod(a, b)
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
    g, s, t = euclidean_xgcd(a, b)
    pa, pb = to_sympy(name, terms_a), to_sympy(name, terms_b)
    ps, pt = to_sympy(name, terms_of(s)), to_sympy(name, terms_of(t))
    # Bezout identity, and g is the canonical gcd
    assert sympy_terms(ps * pa + pt * pb) == terms_of(g)
    expected = sympy.gcd(pa, pb)
    expected = abs(expected) if name == "ZZ" else graded_lex_normal(expected)
    assert terms_of(g) == sympy_terms(expected)


Z = sympy.symbols("z")
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
        assert exact_div(product, b) == a
        assert try_exact_div(product + ring.one, b) is None


def test_power_of_a_trinomial_is_fast():
    ring = polynomial_ring("x", "y", base=rings.QQ)
    start = time.perf_counter()
    power = parse_element("(x+y+1)^50", ring)
    elapsed = time.perf_counter() - start
    expected = sympy.Poly((X + Y + 1) ** 50, X, Y, domain=sympy.QQ)
    assert terms_of(power) == sympy_terms(expected)
    assert elapsed < 0.2
