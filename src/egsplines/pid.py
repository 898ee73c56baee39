"""Flow-up bases over Euclidean PIDs, by edge-wise lattice intersection.

The spline module M = {f in (+) m_v R : f_u = f_v mod r_e on every edge} of
a graph over a PID is free of rank n and contains D*R^n, D the lcm of all
labels.  Its column Hermite form is a flow-up basis whose pivots are the
key-element components.  flow_up_basis cuts diag(m_v) down by one edge
congruence at a time (_intersect_edges, O(n^2) ring operations per edge)
to a lower triangular basis of M, then normalizes that triangle into
Hermite form (_normalize).  The triangle is built with one 2x2 unimodular
column step (_merger), and both run on raw values through the ring's own
operations (add, mul, divmod, xgcd, ...), wrapping RingElements only at
exit; ZZ's xgcd runs on ints.  _merger and _normalize reduce an entry
modulo the lcm of all labels in place, once its size reaches the
modulus's.  The independent check of flow_up_basis is the sympy
trailing-block test: over ZZ, the trailing n x n block of sympy's
hermite_normal_form of the stacked constraint matrix is the spline module
in Hermite form, and sympy shares no code with this module.

verify_flow_up checks a basis against the key element on raw values:
spline membership and shape per column, the determinant against Qhat,
and each leading term against its canonical key-element component by
comparing canonical associates.  Its FlowUpReport holds a FlowUpCheck
record for each failed check, the ones egs flowup prints, and none for a
check that passes.  A basis hands out one SplineMatrix
(TriangularBasis.matrix), and each Spline keeps its membership check, so
verify_flow_up, certify_basis and express_in_basis on one basis check
each column and compute the determinant once between them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import rings, splines
from .graph import LabeledGraph
from .rings import RingDescriptor, RingElement, UnsupportedRingError
from .splines import Spline, SplineMatrix


# ---------------------------------------------------------------------------
# The column step and the Hermite normalization
# ---------------------------------------------------------------------------


def _merger(ring: RingDescriptor, modulus):
    """The one column step, merge(x, y, p, q, j), modulo the raw modulus D.

    With (d, s, t) = xgcd(p, q), it sets (x, y) to (s*x + t*y, (p/d)*y -
    (q/d)*x) in place on rows >= j and returns d.  The 2x2 transform has
    determinant 1.  An entry below row j is reduced modulo D once its size
    reaches D's; row j is not, since it holds the pivot.  When p is 1 the
    step is y -= q*x.
    """
    add, sub, mul, divide, xgcd = ring.add, ring.sub, ring.mul, ring.divide, ring.xgcd
    divmod_, size = ring.divmod, ring.size
    bound = size(modulus)
    one = ring.one.value

    def merge(x, y, p, q, j):
        n = len(x)
        if p == one:
            if x[j]:
                y[j] = sub(y[j], mul(q, x[j]))
            for r in range(j + 1, n):
                if x[r]:
                    w = sub(y[r], mul(q, x[r]))
                    y[r] = divmod_(w, modulus)[1] if size(w) >= bound else w
            return one
        d, s, t = xgcd(p, q)
        a, b = divide(p, d), divide(q, d)
        u, w = x[j], y[j]
        x[j], y[j] = add(mul(s, u), mul(t, w)), sub(mul(a, w), mul(b, u))
        for r in range(j + 1, n):
            u, w = x[r], y[r]
            if u or w:
                u, w = add(mul(s, u), mul(t, w)), sub(mul(a, w), mul(b, u))
                x[r] = divmod_(u, modulus)[1] if size(u) >= bound else u
                y[r] = divmod_(w, modulus)[1] if size(w) >= bound else w
        return d

    return merge


def _normalize(H: List[list], ring: RingDescriptor, modulus) -> None:
    """Turn the columns H of a lower triangular basis of a lattice that
    contains D*R^n, D the raw modulus, into its Hermite form, in place.

    Pivot p_i generates {x_i : x in the lattice, x_<i = 0}, which contains
    D; so p_i divides D and is never 0.  For i = 0 .. n-1, column i is
    scaled by the unit that makes its pivot p_i canonical, then each column
    j < i takes q, H_j[i] = divmod(H_j[i], p_i) and loses q*H_i below row i,
    each entry reduced modulo D once its size reaches D's.  Those column
    operations are unimodular, and reducing an entry below the diagonal
    modulo D subtracts a multiple of D*e_r, which lies in the lattice; so
    the columns stay a triangular basis of it.  Row i is final after step
    i, since later steps touch only the rows below, and the result is the
    unique Hermite form.
    """
    sub, mul, divide, divmod_, size = ring.sub, ring.mul, ring.divide, ring.divmod, ring.size
    canon, one = ring.canon, ring.one.value
    bound = size(modulus)
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
                        w = sub(left[r], mul(q, col[r]))
                        left[r] = divmod_(w, modulus)[1] if size(w) >= bound else w


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

    @functools.cached_property
    def _matrix(self) -> SplineMatrix:
        return SplineMatrix(self.graph, [c.spline for c in self.classes])

    def matrix(self) -> SplineMatrix:
        """The SplineMatrix of the class splines, in order: one object,
        built on the first call, so its shape and determinant and its
        columns' membership are computed once for every caller."""
        return self._matrix

    def leading_terms(self) -> Tuple[RingElement, ...]:
        return tuple(c.leading_term for c in self.classes)


def flow_up_basis(g: LabeledGraph) -> TriangularBasis:
    """Flow-up basis of the spline module M over a PID descriptor: the
    column Hermite form of M, lower triangular, so column i is a flow-up
    class at i.

    _intersect_edges gives a lower triangular basis H of M, and _normalize
    turns it into the unique Hermite form.
    """
    ring = g.ring
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"flow-up synthesis requires a PID descriptor (ZZ, QQ or QQ[x]), "
            f"got {ring}; over general GCD domains a free spline module "
            f"may have no flow-up basis at all"
        )
    modulus = ring.canon(functools.reduce(ring.lcm, g.vertex_values + g.edge_values))
    H = _intersect_edges(g, modulus)
    _normalize(H, ring, modulus)
    return TriangularBasis(g, tuple(
        FlowUpClass(Spline._raw(g, col), i, RingElement(ring, col[i])) for i, col in enumerate(H)
    ))


def _intersect_edges(g: LabeledGraph, modulus) -> List[list]:
    """Columns of an n x n lower triangular basis H of the spline module of
    g, with modulus D, the raw lcm of all labels.

    H starts as diag(m_v), a basis of (+) m_v R.  Edge {u, v}, u < v, with
    label r keeps the vectors H*x with c.x = 0 (mod r), where c_j = H_uj -
    H_vj.  H is lower triangular, so c_j = 0 for j > v, and j walks from v
    down to 0 with G = r, V = 0.  Where c_j != 0 (mod r), G = merge(V,
    H_j, G, c_j, j) (_merger): with (d, s, t) = xgcd(G, c_j), column j
    becomes (G/d)*H_j - (c_j/d)*V, V becomes s*V + t*H_j (the old H_j) and
    G becomes d.  Only rows >= j change, and row j only by the factor G/d,
    since V is zero there.  V = H*w with w zero up to j
    and c.w = G (mod r), which s*c.w + t*c_j = d keeps, so the new column
    H*x has c.x = (G/d)*c_j - (c_j/d)*c.w = 0 (mod r).  These x form a
    triangular matrix with diagonal entries G/d (1 where c_j = 0), whose
    product r/gcd(r, c) is the index of {x : c.x = 0 (mod r)} in R^n; so
    they generate it, and the new H is a basis of the old module cut by the
    congruence.  D*e_i lies in every module on the way (each r divides D),
    so an entry below the diagonal is reduced modulo D once its size
    reaches D's: that keeps the columns in the module and the determinant
    unchanged.  The diagonal is never reduced: it divides D (_normalize),
    and reduced it would read 0 wherever it is an associate of D.
    """
    ring = g.ring
    sub, divmod_, size = ring.sub, ring.divmod, ring.size
    zero = ring.zero.value
    n = g.n
    merge = _merger(ring, modulus)
    H = [[m if i == j else zero for i in range(n)] for j, m in enumerate(g.vertex_values)]
    for e, r in zip(g.edges, g.edge_values):
        u, v = e.endpoints()
        G, V, bound = r, [zero] * n, size(r)
        for j in range(v, -1, -1):
            col = H[j]
            c = sub(col[u], col[v])
            if size(c) >= bound:
                c = divmod_(c, r)[1]
            if c:
                G = merge(V, col, G, c, j)
    return H


@dataclass(frozen=True)
class FlowUpCheck:
    """A failed check of verify_flow_up: its name and what went wrong."""

    name: str
    detail: str


@dataclass(frozen=True)
class FlowUpReport:
    """The outcome of verify_flow_up: the determinant, key element and unit
    it compared (unit is None when they do not match), and a FlowUpCheck
    for each failed check, in order: per class its spline and flow-up
    checks, then the determinant check, then per class its leading-term
    check.  ok when nothing failed."""

    determinant: RingElement
    key: RingElement
    unit: Optional[RingElement]
    failures: Tuple[FlowUpCheck, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_flow_up(g: LabeledGraph, basis: TriangularBasis) -> FlowUpReport:
    """Check a candidate flow-up basis against the PID-case equivalences.

    Columns must be splines of triangular shape (splines._flows_up), the
    determinant must be a unit multiple of the key element, and each
    leading term must be associate to the corresponding key-element
    component (over a PID, the minimal leading term at that index).  Every
    check runs on raw values.  The components are canonical, so a leading
    term is associate to its component exactly when its canonical
    associate equals it, which needs no division; a leading term of
    another ring raises DescriptorMismatchError.  Only a failed check gets
    a FlowUpCheck.  ValueError("splines live on different graphs") unless
    the basis and its splines live on g itself, and ValueError unless the
    class indices are 0..n-1 in order, so that check k names class k and
    compares it with component k; both are raised before any check.
    """
    classes = basis.classes
    if basis.graph is not g or any(c.spline.graph is not g for c in classes):
        raise ValueError("splines live on different graphs")
    if [c.index for c in classes] != list(range(g.n)):
        raise ValueError(f"class indices must be 0..{g.n - 1}, in order")
    failures: List[FlowUpCheck] = []
    for c in classes:
        i, values = c.index + 1, c.spline.values
        violations = c.spline._membership()
        if violations:
            failures.append(FlowUpCheck(f"column {i} is a spline", "; ".join(violations)))
        if not splines._flows_up(values, c.index):
            failures.append(FlowUpCheck(f"column {i} is flow-up at index {i}", "shape violated"))
    determinant = splines.spline_determinant(basis.matrix())
    key = splines.key_element(g)
    unit = rings.associate_unit(determinant, key.qhat)
    if unit is None:
        detail = f"det = {determinant}, key element = {key.qhat}"
        failures.append(FlowUpCheck("determinant is a unit multiple of the key element", detail))
    canon, terms = g.ring.canon, g.ring.values(c.leading_term for c in classes)
    for c, t, expected in zip(classes, terms, key.components):
        if canon(t) != expected.value:
            failures.append(FlowUpCheck(
                f"leading term {c.index + 1} matches the formula value",
                f"leading term {c.leading_term}, formula {expected}",
            ))
    return FlowUpReport(determinant, key.qhat, unit, tuple(failures))
