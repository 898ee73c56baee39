"""Flow-up bases over Euclidean PIDs, by edge-wise lattice intersection.

The spline module {f in (+) m_v R : f_u = f_v mod r_e on every edge} of a
graph over a PID contains D*R^n, D the lcm of all labels, and its column
Hermite form is a flow-up basis whose leading terms are the key-element
components.  flow_up_basis cuts diag(m_v) down by one edge congruence at a
time (_intersect_edges, O(n^2) ring operations per edge), then takes one
Hermite pass modulo D (hermite_form).  Both run on raw values through the
ring's own operations (add, mul, divmod, xgcd, ...), wrapping RingElements
only at exit.  Over QQ[x] the Hermite pass holds each column as a primitive
ZZ[x] vector, which keeps coefficient heights down: a nonzero rational is a
unit, so scaling a whole column by one changes neither the lattice nor its
Hermite form.  verify_flow_up checks a basis against the key element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
    Euclidean descriptors only.

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
    kept = _hermite_columns(work, nrows, ring, modulus)
    return [[RingElement(ring, col[r]) for col in kept] for r in range(nrows)]


def _hermite_columns(work: List[list], nrows: int, ring: RingDescriptor, modulus) -> List[list]:
    """The columns of hermite_form, from raw columns and a raw modulus."""
    run = _primitive_pass if ring.is_polynomial else _euclidean_pass
    return run(work, nrows, ring, ring.canon(modulus))


def _euclidean_pass(
    work: List[list], nrows: int, ring: RingDescriptor, modulus
) -> List[list]:
    """The columns of hermite_form, by ring's Euclidean operations.

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
    work: List[list], nrows: int, ring: RingDescriptor, modulus
) -> List[list]:
    """The columns of hermite_form over QQ[x], by _euclidean_pass's
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
            pivot = reduced(pivot[:i] + [d] + [mul(s, x) for x in pivot[i + 1:]], i)
        work = rest
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
        [tuple(Fraction(c, col[j][-1]) for c in x) for x in col]
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
    """Flow-up basis of the spline module over a PID descriptor: the Hermite
    form of H*R^n + D*R^n for H from _intersect_edges and D the lcm of all
    labels.  It is lower triangular, so column i is a flow-up class at i.
    """
    g.require_valid()
    ring = g.ring
    if not ring.is_pid:
        raise UnsupportedRingError(
            f"flow-up synthesis requires a PID descriptor (ZZ, QQ or QQ[x]), "
            f"got {ring}; over general GCD domains a free spline module "
            f"may have no flow-up basis at all"
        )
    modulus = lcm_many([*g.vertex_labels, *(e.label for e in g.edges)], ring).value
    columns = _hermite_columns(_intersect_edges(g, modulus), g.n, ring, modulus)
    classes = []
    for i, col in enumerate(columns):
        components = [RingElement(ring, x) for x in col]
        classes.append(FlowUpClass(Spline(g, components), i, components[i]))
    return TriangularBasis(g, tuple(classes))


def _intersect_edges(g: LabeledGraph, modulus) -> List[list]:
    """Columns of an n x n lower triangular H with H*R^n + D*R^n the spline
    module of g, for D = modulus, the raw lcm of all labels.

    H starts as diag(m_v), which with D*R^n spans (+) m_v R.  Edge {u, v},
    u < v, with label r keeps the vectors H*x with c.x = 0 (mod r), where
    c_j = H_uj - H_vj; r divides D, so D*R^n stays.  H is lower triangular,
    so c_j = 0 for j > v, and j walks from v down to 0 with G = r, V = 0.
    Where c_j != 0 (mod r): (d, s, t) = xgcd(G, c_j), column j becomes
    (G/d)*H_j - (c_j/d)*V, then V = s*V + t*H_j (the old H_j) and G = d.
    Only rows >= j change.  V = H*w with w zero up to j and c.w = G (mod r),
    which s*c.w + t*c_j = d keeps, so the new column H*x has c.x =
    (G/d)*c_j - (c_j/d)*c.w = 0 (mod r).  These x form a triangular matrix
    with diagonal entries G/d (1 where c_j = 0), whose product r/gcd(r, c)
    is the index of {x : c.x = 0 (mod r)} in R^n; so they generate it, and
    the new H*R^n + D*R^n is exactly the old one cut by the congruence.
    Entries are reduced modulo D once their size reaches D's, which leaves
    that lattice unchanged.
    """
    ring = g.ring
    add, sub, mul = ring.add, ring.sub, ring.mul
    divide, divmod_, xgcd, size = ring.divide, ring.divmod, ring.xgcd, ring.size
    zero, one = ring.zero.value, ring.one.value
    n = g.n
    bound = size(modulus)

    def reduced(x):
        return divmod_(x, modulus)[1] if size(x) >= bound else x

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
                # (d, s, t) = (1, 1, 0): column j loses c_j*V, V stays;
                # V is zero in row j, being made of columns above j
                for i in range(j + 1, n):
                    if V[i]:
                        col[i] = reduced(sub(col[i], mul(c, V[i])))
                continue
            d, s, t = xgcd(G, c)
            a, b = divide(G, d), divide(c, d)
            for i in range(j, n):
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
    """
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
