"""Flow-up bases over Euclidean PIDs, by edge-wise lattice intersection.

The spline module M = {f in (+) m_v R : f_u = f_v mod r_e on every edge} of
a graph over a PID is free of rank n and contains D*R^n, D the lcm of all
labels.  Its column Hermite form is a flow-up basis whose pivots are the
key-element components.  flow_up_basis cuts diag(m_v) down by one edge
congruence at a time (_intersect_edges, O(n^2) ring operations per edge)
to a lower triangular basis of M, then normalizes that triangle into
Hermite form.  Both run on raw values through the ring's own operations
(add, mul, divmod, xgcd, ...), wrapping RingElements only at exit.
hermite_form, the general column Hermite form modulo a lattice exponent,
is kept as a public tool and as the tests' independent reference.
verify_flow_up checks a basis against the key element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import rings, splines
from .graph import LabeledGraph, _raw_labels
from .rings import RingDescriptor, RingElement, UnsupportedRingError, lcm_many
from .splines import Spline, SplineMatrix


# ---------------------------------------------------------------------------
# Column Hermite form modulo a lattice exponent
# ---------------------------------------------------------------------------


def hermite_form(
    rows: Sequence[Sequence[RingElement]],
    ring: RingDescriptor,
    modulus: RingElement,
) -> List[List[RingElement]]:
    """Column Hermite form of the lattice spanned by the columns and modulus*R^N.

    N is the number of rows.  When the column lattice contains modulus*R^N,
    as the caller must ensure, the result is its Hermite form: lower
    triangular, canonical pivots (positive integers, monic polynomials), and
    in each pivot row the entries left of the pivot reduced modulo it.
    Euclidean descriptors only (ZZ, QQ and QQ[x]).

    One pass over the rows merges the columns nonzero in row i by xgcd.  The
    folded-in column modulus*e_i gives every row a pivot dividing the
    modulus, and lets every entry below the current row be reduced modulo
    it; an entry is reduced only once its size reaches the modulus's.
    Column operations touch only rows at or below the current row, since
    the rows above are zero in the columns still being worked on.

    The entries and the modulus are unwrapped once, each checked to lie in
    ring (DescriptorMismatchError otherwise); the pass runs on raw values
    through ring's operations and wraps only the result.
    """
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"hermite form needs a Euclidean ring, got {ring}"
        )
    (modulus,) = ring.values([modulus])
    if not modulus:
        raise ValueError("the modulus must be nonzero")
    values = [ring.values(row) for row in rows]
    nrows = len(values)
    ncols = len(values[0]) if nrows else 0
    work = [[values[r][c] for r in range(nrows)] for c in range(ncols)]
    add, sub, mul, neg = ring.add, ring.sub, ring.mul, ring.neg
    divide, divmod_, xgcd = ring.divide, ring.divmod, ring.xgcd
    zero, one = ring.zero.value, ring.one.value
    modulus = ring.canon(modulus)
    reduced = _reducer(ring, modulus)
    kept: List[list] = []
    for i in range(nrows):
        below = range(i + 1, nrows)
        pivot = None
        rest = []
        for col in work:
            if not col[i]:
                rest.append(col)
            elif pivot is None:
                pivot = col
            else:
                # (pivot, col) <- (s*pivot + t*col, a*col - b*pivot), det 1
                d, s, t = xgcd(pivot[i], col[i])
                a = divide(pivot[i], d)
                b = divide(col[i], d)
                for r in below:
                    x, y = pivot[r], col[r]
                    if x or y:
                        pivot[r] = reduced(add(mul(s, x), mul(t, y)))
                        col[r] = reduced(sub(mul(a, y), mul(b, x)))
                pivot[i] = d
                col[i] = zero
                if any(col[r] for r in below):
                    rest.append(col)
        # fold modulus*e_i into the pivot p: (pivot, modulus*e_i) <-
        # (s*pivot + t*modulus*e_i, (p/d)*modulus*e_i - (modulus/d)*pivot).
        # The second column is zero in row i and, modulo the modulus, reads
        # (modulus/d)*((-pivot) mod d) below; dropping it would lose part of
        # the lattice, since the modulus need not be a multiple of its index
        if pivot is None:
            pivot = [zero] * nrows
            d, s = modulus, one
        else:
            d, s, _ = xgcd(pivot[i], modulus)
            if d != one:
                cofactor = divide(modulus, d)
                extra = [zero] * nrows
                for r in below:
                    x = pivot[r]
                    if x:
                        extra[r] = mul(cofactor, divmod_(neg(x), d)[1])
                if any(extra[r] for r in below):
                    rest.append(extra)
        work = rest
        if s != one:
            for r in below:
                if pivot[r]:
                    pivot[r] = reduced(mul(s, pivot[r]))
        pivot[i] = d
        for col in kept:
            if not col[i]:
                continue
            q, col[i] = divmod_(col[i], d)
            if q:
                for r in below:
                    if pivot[r]:
                        col[r] = reduced(sub(col[r], mul(q, pivot[r])))
        kept.append(pivot)
    return [[RingElement(ring, col[r]) for col in kept] for r in range(nrows)]


def _reducer(ring: RingDescriptor, modulus):
    """x -> its remainder modulo the raw modulus, taken only once the size
    of x reaches the modulus's."""
    divmod_, size = ring.divmod, ring.size
    bound = size(modulus)

    def reduced(x):
        return divmod_(x, modulus)[1] if size(x) >= bound else x

    return reduced


# ---------------------------------------------------------------------------
# Flow-up bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowUpClass:
    """Spline with zero components below its index and a nonzero leading term."""

    spline: Spline
    index: int
    leading_term: RingElement


@dataclass(frozen=True)
class TriangularBasis:
    graph: LabeledGraph
    classes: Tuple[FlowUpClass, ...]

    def matrix(self) -> SplineMatrix:
        return SplineMatrix(self.graph, [c.spline for c in self.classes])

    def leading_terms(self) -> Tuple[RingElement, ...]:
        return tuple(c.leading_term for c in self.classes)


def flow_up_basis(g: LabeledGraph) -> TriangularBasis:
    """Flow-up basis of the spline module M over a PID descriptor: the
    column Hermite form of M, lower triangular, so column i is a flow-up
    class at i.

    _intersect_edges gives a lower triangular basis H of M.  Its pivot p_i
    generates {x_i : x in M, x_<i = 0}, which contains D (D*e_i lies in M,
    D the lcm of all labels); so p_i divides D and is never 0.  For i = 0
    .. n-1, column i is scaled by the unit that makes p_i canonical, then
    each column j < i takes q, H_j[i] = divmod(H_j[i], p_i) and loses
    q*H_i below row i.  Those column operations are unimodular, and
    reducing an entry below the diagonal modulo D subtracts a multiple of
    D*e_r, which lies in M; so the columns stay a triangular basis of M.
    Row i is final after step i, since later steps touch only the rows
    below, and the result is the unique Hermite form.
    """
    g.require_valid()
    ring = g.ring
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"flow-up synthesis requires a PID descriptor (ZZ, QQ or QQ[x]), "
            f"got {ring}; over general GCD domains a free spline module "
            f"may have no flow-up basis at all"
        )
    sub, mul, divide, divmod_ = ring.sub, ring.mul, ring.divide, ring.divmod
    canon, one = ring.canon, ring.one.value
    modulus = lcm_many([*g.vertex_labels, *(e.label for e in g.edges)], ring).value
    reduced = _reducer(ring, modulus)
    n = g.n
    H = _intersect_edges(g, modulus)
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
    classes = []
    for i, col in enumerate(H):
        components = [RingElement(ring, x) for x in col]
        classes.append(FlowUpClass(Spline(g, components), i, components[i]))
    return TriangularBasis(g, tuple(classes))


def _intersect_edges(g: LabeledGraph, modulus) -> List[list]:
    """Columns of an n x n lower triangular basis H of the spline module of
    g, with modulus D, the raw lcm of all labels.

    H starts as diag(m_v), a basis of (+) m_v R.  Edge {u, v}, u < v, with
    label r keeps the vectors H*x with c.x = 0 (mod r), where c_j = H_uj -
    H_vj.  H is lower triangular, so c_j = 0 for j > v, and j walks from v
    down to 0 with G = r, V = 0.  Where c_j != 0 (mod r): (d, s, t) =
    xgcd(G, c_j), column j becomes (G/d)*H_j - (c_j/d)*V, then V = s*V +
    t*H_j (the old H_j) and G = d.  Only rows >= j change, and row j only
    by the factor G/d, since V is zero there.  V = H*w with w zero up to j
    and c.w = G (mod r), which s*c.w + t*c_j = d keeps, so the new column
    H*x has c.x = (G/d)*c_j - (c_j/d)*c.w = 0 (mod r).  These x form a
    triangular matrix with diagonal entries G/d (1 where c_j = 0), whose
    product r/gcd(r, c) is the index of {x : c.x = 0 (mod r)} in R^n; so
    they generate it, and the new H is a basis of the old module cut by the
    congruence.  D*e_i lies in every module on the way (each r divides D),
    so an entry below the diagonal is reduced modulo D once its size
    reaches D's: that keeps the columns in the module and the determinant
    unchanged.  The diagonal is never reduced: it divides D (flow_up_basis),
    and reduced it would read 0 wherever it is an associate of D.
    """
    ring = g.ring
    add, sub, mul = ring.add, ring.sub, ring.mul
    divide, divmod_, xgcd, size = ring.divide, ring.divmod, ring.xgcd, ring.size
    zero, one = ring.zero.value, ring.one.value
    n = g.n
    reduced = _reducer(ring, modulus)
    vertex_labels, edge_labels = _raw_labels(g)
    H = [[m if i == j else zero for i in range(n)] for j, m in enumerate(vertex_labels)]
    for e, r in zip(g.edges, edge_labels):
        u, v = e.endpoints()
        G, V = r, [zero] * n
        for j in range(v, -1, -1):
            col = H[j]
            c = sub(col[u], col[v])
            if size(c) >= size(r):
                c = divmod_(c, r)[1]
            if not c:
                continue
            if G == one:
                # (d, s, t) = (1, 1, 0): column j loses c_j*V, V stays
                for i in range(j + 1, n):
                    if V[i]:
                        col[i] = reduced(sub(col[i], mul(c, V[i])))
                continue
            d, s, t = xgcd(G, c)
            a, b = divide(G, d), divide(c, d)
            x = col[j]
            col[j], V[j] = mul(a, x), mul(t, x)
            for i in range(j + 1, n):
                x, y = col[i], V[i]
                if x or y:
                    col[i] = reduced(sub(mul(a, x), mul(b, y)))
                    V[i] = reduced(add(mul(s, y), mul(t, x)))
            G = d
    return H


@dataclass(frozen=True)
class FlowUpCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class FlowUpReport:
    checks: Tuple[FlowUpCheck, ...]
    determinant: RingElement
    key: RingElement
    unit: Optional[RingElement]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_flow_up(g: LabeledGraph, basis: TriangularBasis) -> FlowUpReport:
    """Check a candidate flow-up basis against the PID-case equivalences.

    Columns must be splines of triangular shape, the determinant must be a
    unit multiple of the key element, and each leading term must be
    associate to the corresponding key-element component (over a PID, the
    minimal leading term at that index).  The report keeps the determinant,
    key element and unit it compared; unit is None when they do not match.
    ValueError("splines live on different graphs") unless the basis and
    its splines live on g itself, raised before any check.
    """
    if basis.graph is not g or any(c.spline.graph is not g for c in basis.classes):
        raise ValueError("splines live on different graphs")
    checks: List[FlowUpCheck] = []
    for cls in basis.classes:
        i, components = cls.index + 1, cls.spline.components
        violations = splines.spline_violations(g, components)
        checks.append(
            FlowUpCheck(f"column {i} is a spline", not violations, "; ".join(violations) or "ok")
        )
        ok = all(x.is_zero for x in components[: i - 1]) and not components[i - 1].is_zero
        detail = "ok" if ok else "shape violated"
        checks.append(FlowUpCheck(f"column {i} is flow-up at index {i}", ok, detail))
    determinant = splines.spline_determinant(basis.matrix())
    key = splines.key_element(g)
    unit = rings.associate_unit(determinant, key.qhat)
    ok = unit is not None
    detail = "ok" if ok else f"det = {determinant}, key element = {key.qhat}"
    checks.append(FlowUpCheck("determinant is a unit multiple of the key element", ok, detail))
    for cls, expected in zip(basis.classes, key.components):
        ok = rings.is_associate(cls.leading_term, expected)
        detail = "ok" if ok else f"leading term {cls.leading_term}, formula {expected}"
        checks.append(
            FlowUpCheck(f"leading term {cls.index + 1} matches the formula value", ok, detail)
        )
    return FlowUpReport(tuple(checks), determinant, key.qhat, unit)
