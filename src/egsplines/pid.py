"""Constructive spline-module machinery over Euclidean PID descriptors.

The spline module is cut out of R^(|V|+|E|) by one linear equation per edge;
its kernel is computed by Hermite-style column triangularization, projected
to vertex components, and triangularized a second time to produce a flow-up
basis whose leading terms and determinant are then cross-checked against the
key-element formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import rings, splines
from .graph import LabeledGraph
from .rings import (
    RingDescriptor,
    RingElement,
    UnsupportedRingError,
    canonical_associate,
    euclidean_divmod,
    euclidean_xgcd,
    exact_div,
)
from .splines import Spline, SplineMatrix


@dataclass(frozen=True)
class ConstraintMatrix:
    """|E| x (|V|+|E|) matrix whose kernel parameterizes the spline module.

    Columns: one coefficient a_v per vertex, then one b_e per edge.  The row
    of edge e = {v_a, v_b} with a < b reads m_a * a_{v_a} - m_b * a_{v_b}
    - r_e * b_e = 0, so splines are exactly the tuples (m_v * a_v) with
    (a, b) in the kernel.
    """

    graph: LabeledGraph
    rows: Tuple[Tuple[RingElement, ...], ...]


def assemble_constraint_matrix(g: LabeledGraph) -> ConstraintMatrix:
    g.require_valid()
    n = g.n
    k = len(g.edges)
    zero = g.ring.zero
    rows: List[Tuple[RingElement, ...]] = []
    for e_index, e in enumerate(g.edges):
        a, b = e.endpoints()
        row = [zero] * (n + k)
        row[a] = g.vertex_labels[a]
        row[b] = -g.vertex_labels[b]
        row[n + e_index] = -e.label
        rows.append(tuple(row))
    return ConstraintMatrix(g, tuple(rows))


# ---------------------------------------------------------------------------
# Hermite-style column triangularization
# ---------------------------------------------------------------------------


def hermite_triangularize(
    rows: Sequence[Sequence[RingElement]], ring: RingDescriptor
):
    """Column echelon form by unimodular column operations: M * U = H.

    Euclidean descriptors only.  Pivots are canonical (positive integers,
    monic polynomials); in each pivot row the entries of earlier pivot
    columns are reduced modulo the pivot, which makes the output unique and
    deterministic.  Returns (H, U) as lists of row lists; det(U) is a unit.
    """
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"hermite triangularization needs a Euclidean ring, got {ring}"
        )
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    h = [list(r) for r in rows]
    zero, one = ring.zero, ring.one
    u = [[one if i == j else zero for j in range(ncols)] for i in range(ncols)]

    def col_swap(c1: int, c2: int) -> None:
        for r in range(nrows):
            h[r][c1], h[r][c2] = h[r][c2], h[r][c1]
        for r in range(ncols):
            u[r][c1], u[r][c2] = u[r][c2], u[r][c1]

    def col_combine(cp: int, cc: int, s, t, nb, a) -> None:
        # (col_cp, col_cc) <- (s*col_cp + t*col_cc, nb*col_cp + a*col_cc);
        # the 2x2 block [[s, nb], [t, a]] has determinant 1
        for matrix, height in ((h, nrows), (u, ncols)):
            for r in range(height):
                x, y = matrix[r][cp], matrix[r][cc]
                matrix[r][cp] = s * x + t * y
                matrix[r][cc] = nb * x + a * y

    def col_scale(c: int, unit: RingElement) -> None:
        for r in range(nrows):
            h[r][c] = unit * h[r][c]
        for r in range(ncols):
            u[r][c] = unit * u[r][c]

    def col_subtract(c: int, cp: int, q: RingElement) -> None:
        for r in range(nrows):
            h[r][c] = h[r][c] - q * h[r][cp]
        for r in range(ncols):
            u[r][c] = u[r][c] - q * u[r][cp]

    next_col = 0
    for row in range(nrows):
        if next_col >= ncols:
            break
        pivot_col = None
        for c in range(next_col, ncols):
            if not h[row][c].is_zero:
                pivot_col = c
                break
        if pivot_col is None:
            continue
        if pivot_col != next_col:
            col_swap(next_col, pivot_col)
        for c in range(next_col + 1, ncols):
            if h[row][c].is_zero:
                continue
            g, s, t = euclidean_xgcd(h[row][next_col], h[row][c])
            a = exact_div(h[row][next_col], g)
            b = exact_div(h[row][c], g)
            col_combine(next_col, c, s, t, -b, a)
        pivot = h[row][next_col]
        canon = canonical_associate(pivot)
        if canon != pivot:
            col_scale(next_col, exact_div(canon, pivot))
        for c in range(next_col):
            if h[row][c].is_zero:
                continue
            q, _ = euclidean_divmod(h[row][c], h[row][next_col])
            if not q.is_zero:
                col_subtract(c, next_col, q)
        next_col += 1
    return h, u


def kernel_basis(matrix: ConstraintMatrix) -> List[Tuple[RingElement, ...]]:
    """Free-module basis of the kernel, from the zero columns of H via U."""
    g = matrix.graph
    ring = g.ring
    ncols = g.n + len(g.edges)
    if not matrix.rows:
        # no constraints: the kernel is everything
        zero, one = ring.zero, ring.one
        return [
            tuple(one if i == j else zero for i in range(ncols))
            for j in range(ncols)
        ]
    h, u = hermite_triangularize(matrix.rows, ring)
    out = []
    for c in range(ncols):
        if all(h[r][c].is_zero for r in range(len(matrix.rows))):
            vector = tuple(u[r][c] for r in range(ncols))
            for row in matrix.rows:
                residual = ring.zero
                for entry, x in zip(row, vector):
                    residual = residual + entry * x
                if not residual.is_zero:
                    raise rings.RingError("internal error: kernel vector fails M x = 0")
            out.append(vector)
    return out


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
    """Flow-up basis of the spline module over a PID descriptor.

    The kernel of the constraint matrix is projected to vertex components
    (f_v = m_v * a_v) and triangularized so column i has its first nonzero
    entry at vertex index i.  The projection is injective and onto the
    spline module, so the result is a genuine module basis; triangularity
    then makes each column a flow-up class.
    """
    g.require_valid()
    if not g.ring.is_pid:
        raise UnsupportedRingError(
            f"flow-up synthesis requires a PID descriptor, got {g.ring}; "
            f"over general GCD domains a free spline module may have no "
            f"flow-up basis at all"
        )
    kernel = kernel_basis(assemble_constraint_matrix(g))
    n = g.n
    if len(kernel) != n:
        raise rings.RingError(
            f"internal error: spline lattice rank {len(kernel)}, expected {n}"
        )
    # rows v_1 .. v_n (top to bottom), one column per kernel vector
    projected = [
        [g.vertex_labels[r] * kernel[c][r] for c in range(n)] for r in range(n)
    ]
    h, _ = hermite_triangularize(projected, g.ring)
    classes = []
    for i in range(n):
        components = [h[r][i] for r in range(n)]
        if any(not components[s].is_zero for s in range(i)) or components[i].is_zero:
            raise rings.RingError(
                "internal error: triangularized spline basis is not flow-up"
            )
        classes.append(
            FlowUpClass(Spline(g, components), i, components[i])
        )
    return TriangularBasis(g, tuple(classes))


def minimal_leading_entries(g: LabeledGraph) -> Tuple[RingElement, ...]:
    """The key-element component per vertex index.

    Identical to the per-vertex key-element computation; exposed separately
    because over a PID these values are exactly the minimal flow-up leading
    terms, which verify_flow_up checks against the synthesized basis.
    """
    return splines.qhat_components(g)


@dataclass(frozen=True)
class FlowUpCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class FlowUpReport:
    checks: Tuple[FlowUpCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_flow_up(g: LabeledGraph, basis: TriangularBasis) -> FlowUpReport:
    """Check a candidate flow-up basis against the PID-case equivalences.

    Columns must be splines of triangular shape, the determinant must be a
    unit multiple of the key element, and each leading term must be
    associate to the corresponding key-element component.
    """
    checks: List[FlowUpCheck] = []
    for cls in basis.classes:
        violations = splines.spline_violations(g, cls.spline.components)
        checks.append(
            FlowUpCheck(
                f"column {cls.index + 1} is a spline",
                not violations,
                "; ".join(violations) if violations else "ok",
            )
        )
        shape_ok = all(
            cls.spline.components[s].is_zero for s in range(cls.index)
        ) and not cls.spline.components[cls.index].is_zero
        checks.append(
            FlowUpCheck(
                f"column {cls.index + 1} is flow-up at index {cls.index + 1}",
                shape_ok,
                "ok" if shape_ok else "shape violated",
            )
        )
    determinant = splines.spline_determinant(basis.matrix())
    key = splines.qhat(g)
    unit = rings.associate_unit(determinant, key)
    checks.append(
        FlowUpCheck(
            "determinant is a unit multiple of the key element",
            unit is not None,
            f"det = {determinant}, key element = {key}",
        )
    )
    formula = minimal_leading_entries(g)
    for cls, expected in zip(basis.classes, formula):
        ok = rings.is_associate(cls.leading_term, expected)
        checks.append(
            FlowUpCheck(
                f"leading term {cls.index + 1} matches the formula value",
                ok,
                f"leading term {cls.leading_term}, formula {expected}",
            )
        )
    return FlowUpReport(tuple(checks))
