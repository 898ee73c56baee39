"""Whole rationals are ints.

A scalar of QQ, alone or as a coefficient of a polynomial over QQ, is a
Fraction only when its denominator is above 1; an integral one is an int.
Seeded values go through every raw operation of QQ, QQ[x] and QQ[x,y], and
the bundled rational instances and seeded QQ[x] graphs through the key
element and the flow-up basis.  No result may hold a Fraction with
denominator 1, and the same computation on inputs whose every scalar is a
Fraction must give values that compare equal.
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import egsplines
from egsplines.cli import load_instance, load_spline_set
from egsplines.graph import LabeledGraph
from egsplines.kronecker import strip
from egsplines.pid import flow_up_basis, verify_flow_up
from egsplines.rings import QQ, RingElement, parse_element
from egsplines.splines import Spline, SplineMatrix, certify_basis, key_element

from conftest import QX, QXY

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import gen
finally:
    sys.path.remove(str(BENCH))

DATA = Path(egsplines.__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _whole_fractions(x) -> list:
    """The Fractions with denominator 1 anywhere in a nested result."""
    if isinstance(x, Fraction):
        return [x] if x.denominator == 1 else []
    if isinstance(x, RingElement):
        return _whole_fractions(x.value)
    if isinstance(x, Spline):
        return _whole_fractions(x.values)
    if isinstance(x, (tuple, list)):
        return [f for item in x for f in _whole_fractions(item)]
    if dataclasses.is_dataclass(x):
        return [
            f for field in dataclasses.fields(x) if field.name != "graph"
            for f in _whole_fractions(getattr(x, field.name))
        ]
    return []


def _as_fractions(value):
    """A raw value with every scalar made a Fraction, zeros included."""
    if isinstance(value, tuple):
        return tuple(map(_as_fractions, value))
    return Fraction(value)


def _fraction_graph(g: LabeledGraph) -> LabeledGraph:
    ring = g.ring
    return LabeledGraph(
        ring,
        [RingElement(ring, _as_fractions(m.value)) for m in g.vertex_labels],
        [(e.u, e.v, RingElement(ring, _as_fractions(e.label.value))) for e in g.edges],
        g.names,
    )


def _random_value(rng, ring):
    """A raw value of ring with small coefficients, about half of them
    integral, built through QQ's own division."""

    def build(depth):
        if depth == 0:
            return QQ.divide(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
        return strip([build(depth - 1) for _ in range(rng.randint(1, 3))])

    return build(ring.depth)


def _operations(ring, a, b) -> list:
    """Every raw operation of ring on a and b, in a fixed order."""
    out = [ring.add(a, b), ring.sub(a, b), ring.mul(a, b), ring.neg(a)]
    out += [ring.canon(a), ring.gcd(a, b), ring.lcm(a, b)]
    if b:
        out += [ring.divide(a, b), ring.divide(ring.mul(a, b), b)]
    if ring.cofactors is not None:
        out.append(ring.cofactors(a, b))
    if ring.primitive is not None:
        out.append(ring.primitive(a))
    if ring.divmod is not None:
        out.append(ring.xgcd(a, b))
        if b:
            out.append(ring.divmod(a, b))
    return out


@pytest.mark.parametrize("ring", [QQ, QX, QXY], ids=str)
def test_operations_return_no_whole_fraction(ring):
    rng = random.Random(f"whole:{ring}")
    for _ in range(150):
        a, b = _random_value(rng, ring), _random_value(rng, ring)
        # a divides a*b, so their gcd is a's associate
        for x, y in ((a, b), (a, ring.mul(a, b)), (ring.mul(b, a), a)):
            results = _operations(ring, x, y)
            assert not _whole_fractions(results), (ring, x, y)
            assert _operations(ring, _as_fractions(x), _as_fractions(y)) == results


def test_scalars_are_ints_when_integral():
    assert type(QQ.divide(4, 2)) is int and type(QQ.divide(Fraction(3, 2), Fraction(3, 4))) is int
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(1, 3), Fraction(4, 3))) is int
    assert type(QQ.divide(1, 2)) is Fraction and QQ.divide(1, 2) == Fraction(1, 2)
    assert QQ.divmod(3, 6) == (Fraction(1, 2), 0) and type(QQ.divmod(6, 3)[0]) is int
    assert (QQ.canon(Fraction(-2, 3)), QQ.canon(0)) == (1, 0)
    assert (QQ.gcd(0, Fraction(1, 2)), QQ.lcm(Fraction(1, 2), 0)) == (1, 0)
    assert all(type(v) is int for v in (QQ.one.value, QQ.from_int(5).value, QX.one.value[0]))


def _scalar(element):
    """The one scalar coefficient of a nonzero constant element."""
    (_, c), = element.descriptor.terms(element.value)
    return c


@pytest.mark.parametrize("ring", [QQ, QX, QXY], ids=str)
def test_parse_reduces_whole_literals_to_ints(ring):
    two, minus_two, half = (parse_element(t, ring) for t in ("4/2", "-6/3", "1/2"))
    assert not _whole_fractions([two, minus_two])
    assert _scalar(two) == 2 and type(_scalar(two)) is int
    assert _scalar(minus_two) == -2 and type(_scalar(minus_two)) is int
    assert _scalar(half) == Fraction(1, 2) and type(_scalar(half)) is Fraction
    text = "4/2*x^2-6/3*x+1/2" if ring.is_polynomial else "4/2-6/3+1/2"
    assert not _whole_fractions(parse_element(text, ring))


def _rational_graphs():
    graphs = [load_instance(str(DATA / "c3_rational.json"))]
    graphs += [load_instance(str(path)) for path in sorted(GOLDEN.glob("qx_*.json"))]
    for seed in range(12):
        data = gen.qx_data(random.Random(f"qx:{seed}"), 2 + seed % 5, 0.3)
        graphs.append(gen.qx_graph(egsplines, data))
    return graphs


@pytest.mark.parametrize("g", _rational_graphs(), ids=lambda g: f"{g.ring}-n{g.n}")
def test_key_element_and_flow_up_return_no_whole_fraction(g):
    twin = _fraction_graph(g)
    key = key_element(g)
    assert not _whole_fractions(key)
    assert key_element(twin) == key
    if not g.ring.is_pid:
        return
    basis = flow_up_basis(g)
    values = [c.spline.values for c in basis.classes]
    assert not _whole_fractions([values, basis.leading_terms()])
    assert verify_flow_up(g, basis).ok
    assert [c.spline.values for c in flow_up_basis(twin).classes] == values


def test_rational_certificate_returns_no_whole_fraction():
    g = load_instance(str(DATA / "c3_rational.json"))
    splines = load_spline_set(str(DATA / "c3_rational_basis.json"), g)
    cert = certify_basis(g, SplineMatrix(g, splines))
    assert not _whole_fractions([cert.determinant, cert.qhat, cert.unit])
