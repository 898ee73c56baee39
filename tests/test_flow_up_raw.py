"""Flow-up verification on raw values, and the Hermite layer's column steps.

verify_flow_up decides every check on raw values and builds a
FlowUpCheck record only for a check that fails.  Its failures must equal,
in order, the failed records of the eager loop that built a record for
every check, kept below as _eager_checks with its own record type, on
passing and tampered bases over ZZ and QQ[x].  ZZ's xgcd runs on ints,
and _merger and _normalize reduce their entries inline; the Hermite
forms and flow-up bases must equal those of the earlier column steps,
whose _reducer, _merger and _normalize are kept verbatim below, run with
ZZ's generic xgcd.
"""

import dataclasses
import functools
import math
import random
from collections import namedtuple
from importlib import resources

import pytest

from egsplines import pid, rings, splines
from egsplines.cli import main
from egsplines.graph import LabeledGraph
from egsplines.oracle import InstanceSpec, random_instance
from egsplines.pid import flow_up_basis, hermite_form, verify_flow_up
from egsplines.rings import QQ, ZZ, DescriptorMismatchError, RingDescriptor, RingElement
from egsplines.splines import Spline

from conftest import QX, qx, zz
from test_pid import _constraint_matrix


_EagerCheck = namedtuple("_EagerCheck", "name ok detail")


def _eager_checks(g, basis):
    """The records of verify_flow_up as its eager loop built them."""
    checks = []
    for cls in basis.classes:
        i, values = cls.index + 1, cls.spline.values
        violations = splines._violations(g, values)
        checks.append(
            _EagerCheck(f"column {i} is a spline", not violations, "; ".join(violations) or "ok")
        )
        ok = not any(values[: i - 1]) and bool(values[i - 1])
        detail = "ok" if ok else "shape violated"
        checks.append(_EagerCheck(f"column {i} is flow-up at index {i}", ok, detail))
    determinant = splines.spline_determinant(basis.matrix())
    key = splines.key_element(g)
    unit = rings.associate_unit(determinant, key.qhat)
    ok = unit is not None
    detail = "ok" if ok else f"det = {determinant}, key element = {key.qhat}"
    checks.append(_EagerCheck("determinant is a unit multiple of the key element", ok, detail))
    for cls, expected in zip(basis.classes, key.components):
        ok = rings.associate_unit(cls.leading_term, expected) is not None
        detail = "ok" if ok else f"leading term {cls.leading_term}, formula {expected}"
        checks.append(
            _EagerCheck(f"leading term {cls.index + 1} matches the formula value", ok, detail)
        )
    return tuple(checks)


def _failed(checks):
    return [(c.name, c.detail) for c in checks if not c.ok]


def _replace_class(basis, k, **changes):
    classes = list(basis.classes)
    classes[k] = dataclasses.replace(classes[k], **changes)
    return dataclasses.replace(basis, classes=tuple(classes))


PASSING = ("flow-up basis", "associate leading term")


def _variants(g):
    """(what, basis) for g's flow-up basis, a copy whose first leading term
    is another associate of it (-1 times it over ZZ, 3 times it over QQ[x];
    it still passes), and four broken copies: a column scaled by a non-unit
    (2 over ZZ, x over QQ[x]) with its leading term (the determinant and
    that leading term fail), a column that is no spline, a column with a
    nonzero entry above its index, a wrong leading term on an unchanged
    column, and several failures at once: the last column both no spline
    and nonzero above its index, and a wrong first leading term."""
    basis = flow_up_basis(g)
    ring, last = g.ring, g.n - 1
    factor = ring.variable("x") if ring.is_polynomial else ring.from_int(2)
    unit = ring.from_int(3 if ring.is_polynomial else -1)
    scaled = basis.classes[last].spline.scale(factor)
    values = list(basis.classes[last].spline.values)
    values[last] = ring.add(values[last], ring.one.value)
    shape = list(basis.classes[last].spline.values)
    shape[0] = basis.classes[0].spline.values[0]
    several = shape[:last] + values[last:]
    lead = basis.classes[0].leading_term
    wrong_lead = lead * factor + ring.one
    return [
        ("flow-up basis", basis),
        ("associate leading term", _replace_class(basis, 0, leading_term=lead * unit)),
        ("scaled column", _replace_class(
            basis, last, spline=scaled, leading_term=scaled.components[last]
        )),
        ("non-spline column", _replace_class(basis, last, spline=Spline._raw(g, values))),
        ("broken shape", _replace_class(basis, last, spline=Spline._raw(g, shape))),
        ("wrong leading term", _replace_class(basis, 0, leading_term=wrong_lead)),
        ("several failures", _replace_class(
            _replace_class(basis, last, spline=Spline._raw(g, several)), 0, leading_term=wrong_lead
        )),
    ]


def _p2():
    return LabeledGraph(ZZ, [zz(2), zz(3)], [(0, 1, zz(4))])


def _graphs():
    zz_graph = random_instance(InstanceSpec(seed=7, n=4, edge_density=0.5, label_bound=30))
    qx_graph = LabeledGraph(
        QX,
        [qx("2*x-1"), qx("x^2-1"), qx("1/2*x+3")],
        [(0, 1, qx("x-1")), (1, 2, qx("3*x+2")), (0, 2, qx("1/3*x^2-3"))],
    )
    return [_p2(), zz_graph, qx_graph]


class TestLazyRecords:
    @pytest.mark.parametrize("g", _graphs(), ids=["p2", "ZZ", "QQ[x]"])
    def test_records_equal_the_eager_loop(self, g):
        for what, basis in _variants(g):
            report = verify_flow_up(g, basis)
            failed = [(c.name, c.detail) for c in report.failures]
            assert failed == _failed(_eager_checks(g, basis)), what
            assert report.ok == (what in PASSING), what

    def test_p2_scaled_column(self):
        # the tampered basis of test_pid's test_tampered_basis_fails_determinant
        g = _p2()
        report = verify_flow_up(g, dict(_variants(g))["scaled column"])
        failed = [(c.name, c.detail) for c in report.failures]
        assert failed == [
            ("determinant is a unit multiple of the key element", "det = -48, key element = 24"),
            ("leading term 2 matches the formula value", "leading term 24, formula 12"),
        ]

    def test_p2_several_failures(self):
        # per column its spline and shape checks, the determinant, then per
        # column its leading term: column 2's fail before column 1's
        g = _p2()
        report = verify_flow_up(g, dict(_variants(g))["several failures"])
        assert [(c.name, c.detail) for c in report.failures] == [
            ("column 2 is a spline", "vertex v2: component is not a multiple of 3; "
             "edge 1 (v1,v2): difference is not a multiple of 4"),
            ("column 2 is flow-up at index 2", "shape violated"),
            ("determinant is a unit multiple of the key element", "det = -14, key element = 24"),
            ("leading term 1 matches the formula value", "leading term 5, formula 2"),
        ]

    def test_reading_ok_builds_no_record(self, monkeypatch):
        built, record = [], pid.FlowUpCheck

        def spy(*args):
            built.append(args)
            return record(*args)

        monkeypatch.setattr(pid, "FlowUpCheck", spy)
        for g in _graphs():
            for what, basis in _variants(g):
                built.clear()
                report = verify_flow_up(g, basis)
                report.ok
                # a passing basis builds none, a failing one one per failure
                assert len(built) == len(_failed(_eager_checks(g, basis))), what
                assert built == [(c.name, c.detail) for c in report.failures], what

    def test_leading_term_of_another_ring_rejected(self):
        g = _p2()
        basis = _replace_class(flow_up_basis(g), 1, leading_term=QQ.from_int(12))
        with pytest.raises(DescriptorMismatchError):
            verify_flow_up(g, basis)


def test_cli_flowup_prints_each_failed_check(capsys, monkeypatch):
    seen = []

    def tampered(g):
        basis = dict(_variants(g))["scaled column"]
        seen.append(_eager_checks(g, basis))
        return basis

    monkeypatch.setattr(pid, "flow_up_basis", tampered)
    code = main(["flowup", str(resources.files("egsplines").joinpath("data", "p2.json"))])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    (expected,) = seen
    failed = [f"  failed: {name} ({detail})" for name, detail in _failed(expected)]
    assert len(failed) == 2
    assert out[out.index("verification: FAILED") + 1:] == failed


# ---------------------------------------------------------------------------
# Int xgcd and inline reductions
# ---------------------------------------------------------------------------

_GENERIC_ZZ_XGCD = rings._extended_gcd(rings._SCALAR_OPERATIONS["integers"], 0, 1)


def test_int_xgcd_matches_the_generic_loop():
    assert ZZ.xgcd is rings._zz_xgcd
    rng = random.Random("zz-xgcd")
    special = [0, 1, -1, 2, -2, 6, -6, 35, -35, 2**70 + 3, -(2**65)]
    pairs = [(a, b) for a in special for b in special]
    for _ in range(3000):
        bits = rng.choice((3, 10, 40, 130))
        a, b = rng.randint(-(2**bits), 2**bits), rng.randint(-(2**bits), 2**bits)
        pairs += [(a, b), (a * b, b), (a, a), (a, -a)]
    for a, b in pairs:
        g, s, t = ZZ.xgcd(a, b)
        assert (g, s, t) == _GENERIC_ZZ_XGCD(a, b), (a, b)
        assert s * a + t * b == g == math.gcd(a, b) >= 0, (a, b)


def _reducer(ring: RingDescriptor, modulus):
    """x -> its remainder modulo the raw modulus, taken only once the size
    of x reaches the modulus's."""
    divmod_, size = ring.divmod, ring.size
    bound = size(modulus)

    def reduced(x):
        return divmod_(x, modulus)[1] if size(x) >= bound else x

    return reduced


def _merger(ring: RingDescriptor, modulus):
    """The one column step, merge(x, y, p, q, j), modulo the raw modulus D.

    With (d, s, t) = xgcd(p, q), it sets (x, y) to (s*x + t*y, (p/d)*y -
    (q/d)*x) in place on rows >= j and returns d.  The 2x2 transform has
    determinant 1.  Rows below j are reduced modulo D (_reducer); row j is
    not, since it holds the pivot.  When p is 1 the step is y -= q*x.
    """
    add, sub, mul, divide, xgcd = ring.add, ring.sub, ring.mul, ring.divide, ring.xgcd
    one = ring.one.value
    reduced = _reducer(ring, modulus)

    def merge(x, y, p, q, j):
        n = len(x)
        if p == one:
            if x[j]:
                y[j] = sub(y[j], mul(q, x[j]))
            for r in range(j + 1, n):
                if x[r]:
                    y[r] = reduced(sub(y[r], mul(q, x[r])))
            return one
        d, s, t = xgcd(p, q)
        a, b = divide(p, d), divide(q, d)
        u, w = x[j], y[j]
        x[j], y[j] = add(mul(s, u), mul(t, w)), sub(mul(a, w), mul(b, u))
        for r in range(j + 1, n):
            u, w = x[r], y[r]
            if u or w:
                x[r] = reduced(add(mul(s, u), mul(t, w)))
                y[r] = reduced(sub(mul(a, w), mul(b, u)))
        return d

    return merge


def _normalize(H, ring: RingDescriptor, modulus) -> None:
    """Turn the columns H of a lower triangular basis of a lattice that
    contains D*R^n, D the raw modulus, into its Hermite form, in place.

    Pivot p_i generates {x_i : x in the lattice, x_<i = 0}, which contains
    D; so p_i divides D and is never 0.  For i = 0 .. n-1, column i is
    scaled by the unit that makes its pivot p_i canonical, then each column
    j < i takes q, H_j[i] = divmod(H_j[i], p_i) and loses q*H_i below row i.
    Those column operations are unimodular, and reducing an entry below the
    diagonal modulo D subtracts a multiple of D*e_r, which lies in the
    lattice; so the columns stay a triangular basis of it.  Row i is final
    after step i, since later steps touch only the rows below, and the
    result is the unique Hermite form.
    """
    sub, mul, divide, divmod_ = ring.sub, ring.mul, ring.divide, ring.divmod
    canon, one = ring.canon, ring.one.value
    reduced = _reducer(ring, modulus)
    n = len(H)
    for i, col in enumerate(H):
        unit = divide(canon(col[i]), col[i])
        if unit != one:
            for r in range(i, n):
                col[r] = mul(unit, col[r])
        pivot = col[i]
        for left in H[:i]:
            if not left[i]:
                continue
            q, left[i] = divmod_(left[i], pivot)
            if q:
                for r in range(i + 1, n):
                    if col[r]:
                        left[r] = reduced(sub(left[r], mul(q, col[r])))


class _GenericXgcd:
    """A ring's operations, with ZZ's xgcd the generic Euclidean loop."""

    def __init__(self, ring):
        self._ring = ring
        self.xgcd = _GENERIC_ZZ_XGCD if ring is ZZ else ring.xgcd

    def __getattr__(self, name):
        return getattr(self._ring, name)


def _qx_graph(rng):
    """Connected QQ[x] graph with non-monic labels and true fractions."""

    def label():
        out = qx(f"{rng.choice((1, 2, -3))}/{rng.randint(1, 4)}")
        for _ in range(rng.randint(0, 2)):
            out = out * qx(f"{rng.randint(1, 3)}*x-{rng.randint(-3, 3)}")
        return out

    n = rng.randint(2, 4)
    edges = [(rng.randrange(v), v, label()) for v in range(1, n)]
    edges += [(u, v, label()) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return LabeledGraph(QX, [label() for _ in range(n)], edges)


def _outputs(g):
    basis = flow_up_basis(g)
    ring = g.ring
    labels = ring.values(list(g.vertex_labels) + [e.label for e in g.edges])
    modulus = RingElement(ring, functools.reduce(ring.lcm, labels, ring.one.value))
    form = hermite_form(_constraint_matrix(g), ring, modulus)
    return (
        repr([(cls.spline.values, cls.leading_term.value) for cls in basis.classes]),
        repr([[x.value for x in row] for row in form]),
    )


def test_hermite_layer_matches_the_earlier_steps(monkeypatch):
    rng = random.Random("earlier-steps")
    graphs = [
        random_instance(InstanceSpec(
            seed=seed, n=2 + seed % 5, edge_density=(0.3, 0.5)[seed % 2], label_bound=60
        ))
        for seed in range(300)
    ]
    graphs += [_qx_graph(rng) for _ in range(100)]
    with monkeypatch.context() as m:
        m.setattr(pid, "_merger", lambda ring, modulus: _merger(_GenericXgcd(ring), modulus))
        m.setattr(pid, "_normalize", lambda H, ring, modulus: _normalize(H, _GenericXgcd(ring), modulus))
        expected = [_outputs(g) for g in graphs]
    for g, want in zip(graphs, expected):
        assert _outputs(g) == want
