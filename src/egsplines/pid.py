"""Flow-up bases over Euclidean PIDs, from one modular Hermite pass.

Stack one row per edge, m_a*a_{v_a} - m_b*a_{v_b} - r_e*b_e, over one row per
vertex, m_v*a_v.  The columns of that matrix span a lattice L whose vectors
with a zero edge part are exactly (0, f) for the splines f.  One column
Hermite pass over L therefore yields the spline module in Hermite form,
which is a flow-up basis: the pivot columns of the edge rows are dropped as
they are formed, and the vertex rows' pivot columns are the basis.  L
contains D*R^(|E|+|V|) for D the lcm of all labels, so every entry is kept
reduced modulo D and no unimodular transform is tracked.  The pass runs on
raw values through the ring's own operations (add, mul, divmod, xgcd, ...),
wrapping RingElements only at entry and exit.  Over QQ[x], D bounds the
degrees but not the heights of rational coefficients, so the pass holds
each column as a primitive vector over ZZ[x] instead: the nonzero rationals
are the units of QQ[x], so scaling a whole column by one changes neither
the lattice nor its Hermite form, and Fractions appear only in the result.
The leading terms and determinant are cross-checked against the
key-element formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from . import rings, splines
from .graph import LabeledGraph
from .rings import RingDescriptor, RingElement, UnsupportedRingError, lcm_many
from .splines import Spline, SplineMatrix


def assemble_constraint_matrix(g: LabeledGraph) -> List[List[RingElement]]:
    """(|E|+|V|) x (|V|+|E|) matrix whose column lattice lifts the splines.

    Columns: one coefficient a_v per vertex, then one b_e per edge.  The row
    of edge e = {v_a, v_b} with a < b reads m_a * a_{v_a} - m_b * a_{v_b}
    - r_e * b_e; below the edge rows, the row of vertex v holds m_v in
    column v.  A column combination (a, b) has a zero edge part exactly when
    its vertex part (m_v * a_v) is a spline.
    """
    g.require_valid()
    n = g.n
    k = len(g.edges)
    zero = g.ring.zero
    rows: List[List[RingElement]] = []
    for e_index, e in enumerate(g.edges):
        a, b = e.endpoints()
        row = [zero] * (n + k)
        row[a] = g.vertex_labels[a]
        row[b] = -g.vertex_labels[b]
        row[n + e_index] = -e.label
        rows.append(row)
    for v in range(n):
        row = [zero] * (n + k)
        row[v] = g.vertex_labels[v]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Column Hermite form modulo a lattice exponent
# ---------------------------------------------------------------------------


def hermite_form(
    rows: Sequence[Sequence[RingElement]],
    ring: RingDescriptor,
    modulus: RingElement,
    skip: int = 0,
) -> List[List[RingElement]]:
    """Column Hermite form of the lattice spanned by the columns and modulus*R^N.

    N is the number of rows.  When the column lattice contains modulus*R^N,
    as the caller must ensure, the result is its Hermite form: lower
    triangular, canonical pivots (positive integers, monic polynomials), and
    in each pivot row the entries left of the pivot reduced modulo it.
    Euclidean descriptors only.  With skip = k the pivot columns of the
    first k rows are dropped as soon as they are formed, so the result is
    the Hermite form of the sublattice whose first k coordinates vanish,
    restricted to the other rows.

    ZZ and QQ run _euclidean_pass.  QQ[x] runs _primitive_pass, the same
    steps on primitive integer columns: a nonzero rational is a unit of
    QQ[x], so scaling a whole column by one changes neither the lattice
    nor, after each pivot is made monic, the unique Hermite form.

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
    run = _primitive_pass if ring.is_polynomial else _euclidean_pass
    kept = run(work, nrows, ring, ring.canon(modulus), skip)
    return [[RingElement(ring, col[r]) for col in kept] for r in range(skip, nrows)]


def _euclidean_pass(
    work: List[list], nrows: int, ring: RingDescriptor, modulus, skip: int
) -> List[list]:
    """The kept columns of hermite_form, by ring's Euclidean operations.

    The folded-in column modulus*e_i gives every row a pivot dividing the
    modulus, and lets every entry below the current row be reduced modulo
    it; an entry is reduced only once its size reaches the modulus's.
    Column operations touch only rows at or below the current row, since
    the rows above are zero in the columns still being worked on.
    """
    add, sub, mul, neg = ring.add, ring.sub, ring.mul, ring.neg
    divide, divmod_, xgcd, size = ring.divide, ring.divmod, ring.xgcd, ring.size
    zero, one = ring.zero.value, ring.one.value
    bound = size(modulus)

    def reduced(x):
        return divmod_(x, modulus)[1] if size(x) >= bound else x

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
        if i < skip:
            continue
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
    return kept


def _primitive_pass(
    work: List[list], nrows: int, ring: RingDescriptor, modulus, skip: int
) -> List[list]:
    """The kept columns of hermite_form over QQ[x], by _euclidean_pass's
    steps on primitive integer columns.

    Each column is held as the primitive ZZ[x] multiple of the column that
    _euclidean_pass would hold: the same vector up to a nonzero rational,
    which is a unit of QQ[x].  So a step may scale a whole column (never
    one entry) by a nonzero integer, and after each step the column is
    divided by the gcd of its integer coefficients:

    - a division by an integer polynomial of leading coefficient c first
      scales the whole column by a power of c, so that every leading
      division is exact (a pseudo-division; c = 1 when every label is
      monic with integer coefficients);
    - xgcd runs the extended Euclidean algorithm the same way on the
      columns (a, 1, 0) and (b, 0, 1), so its gcd is an integer multiple
      of the monic one;
    - the extra column of the fold is a remainder modulo the primitive
      gcd, times the modulus divided by it (exact in ZZ[x] by Gauss's
      lemma), and scaled by -1.

    Fractions are built only at the end, when each kept column is divided
    by the leading coefficient of its pivot.  That makes the pivot monic
    and keeps each reduced entry's degree below its pivot's.
    """
    zx = RingDescriptor("polynomial", ring.variables, "integers")
    add, sub, mul, divide = zx.add, zx.sub, zx.mul, zx.divide
    long_division = zx.long_division

    def exact_for(col, size, divisor):
        """col times the power of lc(divisor) that makes each leading
        division exact when an entry of this size is divided by divisor."""
        k = size - len(divisor) + 1
        if k <= 0 or divisor[-1] == 1:
            return col
        f = divisor[-1] ** k
        return [tuple(f * c for c in x) for x in col]

    def primitive(col):
        g = math.gcd(*chain.from_iterable(col))
        return [tuple(c // g for c in x) for x in col] if g > 1 else col

    def remainders(col, i, divisor):
        """col times lc(divisor)^k, then its entries below row i replaced
        by their remainders modulo divisor, k just large enough for that."""
        size = max(map(len, col[i + 1:]), default=0)
        if size < len(divisor):
            return col
        col = exact_for(col, size, divisor)
        return col[: i + 1] + [
            long_division(x, divisor)[1] if len(x) >= len(divisor) else x
            for x in col[i + 1:]
        ]

    def xgcd(a, b):
        """[g, s, t] with s*a + t*b = g, a nonzero integer multiple of gcd(a, b)."""
        u, v = [a, (1,), ()], [b, (), (1,)]
        while v[0]:
            if len(u[0]) >= len(v[0]):
                u = exact_for(u, len(u[0]), v[0])
                q, r = long_division(u[0], v[0])
                u = [r, sub(u[1], mul(q, v[1])), sub(u[2], mul(q, v[2]))]
            u, v = v, primitive(u)
        return u

    def cleared(col):
        """The primitive ZZ[x] multiple of a column of QQ[x] values."""
        den = math.lcm(*(c.denominator for x in col for c in x))
        col = [tuple(c.numerator * (den // c.denominator) for c in x) for x in col]
        return primitive(col)

    def reduced(col, i):
        return primitive(remainders(col, i, m))

    (m,) = cleared([modulus])
    work = [cleared(col) for col in work]
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
                d, s, t = xgcd(pivot[i], col[i])
                (g,) = primitive([d])
                a, b = divide(pivot[i], g), divide(col[i], g)
                for r in below:
                    x, y = pivot[r], col[r]
                    if x or y:
                        pivot[r] = add(mul(s, x), mul(t, y))
                        col[r] = sub(mul(a, y), mul(b, x))
                pivot[i] = d
                col[i] = ()
                pivot = reduced(pivot, i)
                col = reduced(col, i)
                if any(col[r] for r in below):
                    rest.append(col)
        if pivot is None:
            pivot = [()] * nrows
            pivot[i] = m
        else:
            d, s, _ = xgcd(pivot[i], m)
            if len(d) > 1:
                (g,) = primitive([d])
                cofactor = divide(m, g)
                extra = remainders(pivot, i, g)[i + 1:]
                if any(extra):
                    extra = [()] * (i + 1) + [mul(cofactor, x) for x in extra]
                    rest.append(primitive(extra))
            if i >= skip:
                pivot = reduced(pivot[:i] + [d] + [mul(s, x) for x in pivot[i + 1:]], i)
        work = rest
        if i < skip:
            continue
        p = pivot[i]
        for j, col in enumerate(kept):
            if len(col[i]) < len(p):
                continue
            col = exact_for(col, len(col[i]), p)
            q, col[i] = long_division(col[i], p)
            for r in below:
                if pivot[r]:
                    col[r] = sub(col[r], mul(q, pivot[r]))
            kept[j] = reduced(col, i)
        kept.append(pivot)
    return [
        [tuple(Fraction(c, col[skip + j][-1]) for c in x) for x in col]
        for j, col in enumerate(kept)
    ]


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

    The Hermite form of the spline module, from one pass over the stacked
    constraint matrix modulo the lcm of all labels (see hermite_form).  It
    is lower triangular, so column i has its first nonzero entry at vertex
    index i and is a flow-up class.
    """
    g.require_valid()
    if not g.ring.is_pid:
        raise UnsupportedRingError(
            f"flow-up synthesis requires a PID descriptor (ZZ, QQ or QQ[x]), "
            f"got {g.ring}; over general GCD domains a free spline module "
            f"may have no flow-up basis at all"
        )
    labels = list(g.vertex_labels) + [e.label for e in g.edges]
    h = hermite_form(
        assemble_constraint_matrix(g),
        g.ring,
        lcm_many(labels, g.ring),
        skip=len(g.edges),
    )
    classes = tuple(
        FlowUpClass(Spline(g, [row[i] for row in h]), i, h[i][i])
        for i in range(g.n)
    )
    return TriangularBasis(g, classes)


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
    key = splines.key_element(g)
    unit = rings.associate_unit(determinant, key.qhat)
    checks.append(
        FlowUpCheck(
            "determinant is a unit multiple of the key element",
            unit is not None,
            "ok" if unit is not None else f"det = {determinant}, key element = {key.qhat}",
        )
    )
    for cls, expected in zip(basis.classes, key.components):
        ok = rings.is_associate(cls.leading_term, expected)
        checks.append(
            FlowUpCheck(
                f"leading term {cls.index + 1} matches the formula value",
                ok,
                "ok" if ok else f"leading term {cls.leading_term}, formula {expected}",
            )
        )
    return FlowUpReport(tuple(checks), determinant, key.qhat, unit)
