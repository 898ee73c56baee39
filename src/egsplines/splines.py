"""The spline module layer: membership, key element, determinant certificates.

A spline assigns to each vertex v an element of m_v R such that the values
across every edge e agree modulo r_e.  Candidate splines are plain vertex
labelings; membership is checked explicitly, never assumed, so certificates
can refute non-spline columns.

Matrix convention: a set of candidates F_1..F_n is viewed as the n x n
matrix whose column k is F_k with rows ordered v_n (top) down to v_1
(bottom).  All determinants below use that fixed convention; associate
checks absorb the sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from . import graph, rings
from .graph import LabeledGraph
from .rings import (
    NotDivisibleError,
    RingElement,
    canonical_associate,
    exact_div,
    gcd,
    is_unit,
    try_exact_div,
)


class SplineError(Exception):
    pass


class NotInSpanError(SplineError):
    """The target is not an R-linear combination of the given columns.

    index is the first column (0-based) whose Cramer division fails;
    failed_indices lists every failing column.
    """

    def __init__(self, index: int, failed_indices: Tuple[int, ...]):
        cols = ", ".join(str(i + 1) for i in failed_indices)
        super().__init__(
            f"not in span: exact division fails first at column {index + 1} "
            f"(all failing columns: {cols})"
        )
        self.index = index
        self.failed_indices = failed_indices


class CoprimalityError(SplineError):
    """The witness construction needs pairwise coprime labels."""


class SpanHypothesisError(SplineError):
    """qhat_span_decomposition requires det associate to the key element."""


class Spline:
    """A vertex labeling of one graph; one component per vertex, in order.

    Not self-validating: use is_spline / spline_violations to check the
    membership conditions.
    """

    __slots__ = ("graph", "components")

    def __init__(self, graph: LabeledGraph, components: Sequence[RingElement]):
        if len(components) != graph.n:
            raise ValueError(
                f"expected {graph.n} components, got {len(components)}"
            )
        for c in components:
            if c.descriptor is not graph.ring:
                raise rings.DescriptorMismatchError(
                    "spline components must live in the graph's ring"
                )
        self.graph = graph
        self.components = tuple(components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spline):
            return NotImplemented
        return self.graph is other.graph and self.components == other.components

    def __hash__(self) -> int:
        return hash((id(self.graph), self.components))

    def __add__(self, other: "Spline") -> "Spline":
        if other.graph is not self.graph:
            raise ValueError("splines live on different graphs")
        return Spline(
            self.graph,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other: "Spline") -> "Spline":
        return self + (-other)

    def __neg__(self) -> "Spline":
        return Spline(self.graph, [-c for c in self.components])

    def scale(self, c: RingElement) -> "Spline":
        return Spline(self.graph, [c * f for f in self.components])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __repr__(self) -> str:
        return "Spline(" + ", ".join(str(c) for c in self.components) + ")"


def spline_violations(g: LabeledGraph, components: Sequence[RingElement]) -> List[str]:
    """All membership conditions the candidate fails (empty = spline).

    Runs on raw values through the ring's sub and divide; the components
    are unwrapped, and the labels read unwrapped once per graph
    (graph._raw_labels), each checked to lie in g's ring.
    """
    ring = g.ring
    values = ring.values(components)
    labels, edge_labels = graph._raw_labels(g)
    sub, divide = ring.sub, ring.divide

    def divides(a, b):  # with 0 | b only for b = 0
        return divide(b, a) is not None if a else not b

    out: List[str] = []
    for i, f in enumerate(values):
        if not divides(labels[i], f):
            out.append(
                f"vertex {g.vertex_name(i)}: component is not a multiple "
                f"of {g.vertex_labels[i]}"
            )
    for idx, e in enumerate(g.edges):
        if not divides(edge_labels[idx], sub(values[e.u], values[e.v])):
            out.append(
                f"edge {idx + 1} ({g.vertex_name(e.u)},{g.vertex_name(e.v)}): "
                f"difference is not a multiple of {e.label}"
            )
    return out


def is_spline(g: LabeledGraph, components: Sequence[RingElement]) -> bool:
    return not spline_violations(g, components)


class SplineMatrix:
    """Ordered list of n candidate splines, viewed as the n x n matrix."""

    __slots__ = ("graph", "columns")

    def __init__(self, graph: LabeledGraph, columns: Sequence[Spline]):
        if len(columns) != graph.n:
            raise ValueError(
                f"need exactly {graph.n} columns, got {len(columns)}"
            )
        for col in columns:
            if col.graph is not graph:
                raise ValueError("all columns must live on the same graph")
        self.graph = graph
        self.columns = tuple(columns)

    def rows(self) -> List[List[RingElement]]:
        """Matrix rows, v_n at the top down to v_1 at the bottom."""
        n = self.graph.n
        return [
            [self.columns[c].components[n - 1 - r] for c in range(n)]
            for r in range(n)
        ]


# ---------------------------------------------------------------------------
# Key element
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyElement:
    """Key-element components, Qhat, Q_G and H of one graph, all canonical."""

    components: Tuple[RingElement, ...]
    qhat: RingElement
    classical_qg: RingElement
    h_factor: RingElement


def key_element(g: LabeledGraph) -> KeyElement:
    """The key-element record, from one pass over the vertices, memoised on g.

    Per vertex index i, with T the trail aggregate: U_i is the lcm of m_i
    and gcd(m_j, T(j, i)) for the higher indices j, and L_i the lcm of
    T(s, i) for the lower indices s.  Component i is lcm(U_i, L_i) and Qhat
    their product; Q_G is the product of the L_i (all-ones labels make every
    U_i = 1) and H the product of U_i / gcd(U_i, L_i).

    The fold runs on raw values through the ring's operations, reading the
    raw aggregate table, and wraps only the components and the results.
    """
    if g._key is not None:
        return g._key
    g.require_valid()
    ring = g.ring
    lcm, gcd, mul, divide = ring.lcm, ring.gcd, ring.mul, ring.divide
    labels = graph._raw_labels(g)[0]
    table = graph._aggregate_table(g)
    one = ring.one.value
    components = []
    key = ring.one
    qg = h = one
    for i in range(g.n):
        row = table[i]  # the table is symmetric: row[j] = T(j, i)
        upper = labels[i]
        for j in range(i + 1, g.n):
            upper = lcm(upper, gcd(labels[j], row[j]))
        lower = one
        for s in range(i):
            lower = lcm(lower, row[s])
        component = RingElement(ring, lcm(upper, lower))
        components.append(component)
        key = key * component
        qg = mul(qg, lower)
        h = mul(h, divide(upper, gcd(upper, lower)))
    g._key = KeyElement(
        tuple(components),
        canonical_associate(key),
        RingElement(ring, ring.canon(qg)),
        RingElement(ring, ring.canon(h)),
    )
    return g._key


def qhat_components(g: LabeledGraph) -> Tuple[RingElement, ...]:
    return key_element(g).components


def qhat(g: LabeledGraph) -> RingElement:
    return key_element(g).qhat


def classical_qg(g: LabeledGraph) -> RingElement:
    return key_element(g).classical_qg


def h_factor(g: LabeledGraph) -> RingElement:
    return key_element(g).h_factor


# ---------------------------------------------------------------------------
# Determinants and Cramer numerators
# ---------------------------------------------------------------------------


def _bareiss(
    rows: List[List[RingElement]], rhs: Optional[Sequence[RingElement]] = None
) -> Tuple[RingElement, Optional[List[RingElement]]]:
    """(det M, y = adj(M)*f) from one fraction-free elimination of [M | f].

    Each Bareiss step divides exactly by the previous pivot (Sylvester's
    identity); the first step's divisor is 1 and is skipped.  y_k, the
    determinant of M with column k replaced by f, comes from
    back-substitution on the eliminated [U | b]: y_k = (det*b_k -
    sum_{j>k} U_kj*y_j) / U_kk, exact since y lies in the ring.  y is None
    without f or when det = 0.

    The entries of M and f are unwrapped once, each checked to lie in the
    ring of M's first entry (DescriptorMismatchError otherwise); the
    elimination runs on raw values through that ring's operations and wraps
    only det and y.  A failed exact division raises NotDivisibleError.
    """
    n = len(rows)
    ring = rows[0][0].descriptor
    m = [ring.values(row) for row in rows]
    if rhs is not None:
        for row, b in zip(m, ring.values(rhs)):
            row.append(b)
    sub, mul, neg, divide = ring.sub, ring.mul, ring.neg, ring.divide

    def quotient(a, b):
        q = divide(a, b)
        if q is None:
            raise NotDivisibleError(
                f"{RingElement(ring, a)} is not divisible by "
                f"{RingElement(ring, b)} in {ring}"
            )
        return q

    sign = 1
    previous = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero, None
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, len(top)):
                numerator = sub(mul(pivot, row[j]), mul(lead, top[j]))
                row[j] = numerator if previous is None else quotient(numerator, previous)
        previous = pivot
    det = m[n - 1][n - 1] if sign > 0 else neg(m[n - 1][n - 1])
    if rhs is None or not det:
        return RingElement(ring, det), None
    y: list = [None] * n
    # det = sign * U_{n-1,n-1}, so the last numerator needs no division
    y[n - 1] = m[n - 1][n] if sign > 0 else neg(m[n - 1][n])
    for k in range(n - 2, -1, -1):
        row = m[k]
        acc = mul(det, row[n])
        for j in range(k + 1, n):
            acc = sub(acc, mul(row[j], y[j]))
        y[k] = quotient(acc, row[k])
    return RingElement(ring, det), [RingElement(ring, v) for v in y]


def spline_determinant(ms: SplineMatrix) -> RingElement:
    """Exact determinant under the fixed row convention (v_n top .. v_1 bottom)."""
    return _bareiss(ms.rows())[0]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


class Verdict(Enum):
    CERTIFIED = "certified"
    REFUTED_NOT_SPLINES = "refuted: columns are not splines"
    REFUTED_DEPENDENT = "refuted: determinant is zero"
    REFUTED_BY_COPRIME_CONVERSE = "refuted by the coprime/PID converse"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BasisCertificate:
    verdict: Verdict
    determinant: RingElement
    qhat: RingElement
    unit: Optional[RingElement] = None
    failing_columns: Tuple[int, ...] = ()

    @property
    def is_certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


def coprime_label_violation(g: LabeledGraph) -> Optional[Tuple[str, str]]:
    """A pair of labels with non-unit gcd, or None when pairwise coprime."""
    labels = list(g.vertex_labels) + [e.label for e in g.edges]
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if not is_unit(gcd(labels[i], labels[j])):
                return str(labels[i]), str(labels[j])
    return None


def certify_basis(g: LabeledGraph, ms: SplineMatrix) -> BasisCertificate:
    """Determinant criterion for basis certification.

    Certified when the determinant is a unit multiple of the key element
    (sufficient over every GCD domain).  A mismatch refutes only when the
    converse is known to hold: pairwise coprime labels, or a PID ring.
    Otherwise the verdict is Inconclusive, because the general converse is
    an open question and is never assumed here.
    """
    g.require_valid()
    determinant = spline_determinant(ms)
    key = qhat(g)
    failing = tuple(
        idx
        for idx, col in enumerate(ms.columns)
        if not is_spline(g, col.components)
    )
    if failing:
        return BasisCertificate(
            Verdict.REFUTED_NOT_SPLINES, determinant, key, failing_columns=failing
        )
    if determinant.is_zero:
        return BasisCertificate(Verdict.REFUTED_DEPENDENT, determinant, key)
    unit = rings.associate_unit(determinant, key)
    if unit is not None:
        return BasisCertificate(Verdict.CERTIFIED, determinant, key, unit=unit)
    if coprime_label_violation(g) is None or g.ring.is_pid:
        return BasisCertificate(Verdict.REFUTED_BY_COPRIME_CONVERSE, determinant, key)
    return BasisCertificate(Verdict.INCONCLUSIVE, determinant, key)


# ---------------------------------------------------------------------------
# Expressing splines in a candidate basis
# ---------------------------------------------------------------------------


def _combination(
    g: LabeledGraph, ms: SplineMatrix, coefficients: Sequence[RingElement]
) -> list:
    """The components of sum(c_k F_k) as raw values of g's ring, computed
    through its mul and add."""
    if ms.graph is not g:
        raise ValueError("splines live on different graphs")
    ring = g.ring
    add, mul = ring.add, ring.mul
    out = [ring.zero.value] * g.n
    for c, col in zip(ring.values(coefficients), ms.columns):
        for v, x in enumerate(ring.values(col.components)):
            out[v] = add(out[v], mul(c, x))
    return out


def express_in_basis(
    g: LabeledGraph, ms: SplineMatrix, f: Spline
) -> Tuple[RingElement, ...]:
    """Coefficients c with sum(c_k F_k) = f, or NotInSpanError.

    Cramer's rule: the column-replaced determinants divided by the matrix
    determinant, all from one elimination (see _bareiss).  The output is
    verified by full reconstruction on raw values before it is returned,
    so an arithmetic fault cannot produce silent garbage.
    """
    determinant, numerators = _bareiss(ms.rows(), f.components[::-1])
    if determinant.is_zero:
        raise ZeroDivisionError("cannot express against a singular matrix")
    coefficients = [try_exact_div(y, determinant) for y in numerators]
    failed = [k for k, c in enumerate(coefficients) if c is None]
    if failed:
        raise NotInSpanError(failed[0], tuple(failed))
    if _combination(g, ms, coefficients) != g.ring.values(f.components) or f.graph is not g:
        raise SplineError("internal error: Cramer reconstruction mismatch")
    return tuple(coefficients)


def qhat_span_decomposition(
    g: LabeledGraph, ms: SplineMatrix, f: Spline
) -> Tuple[RingElement, ...]:
    """Ring elements x with sum(x_k F_k) = qhat * f, no division involved.

    Requires the matrix determinant to be associate to the key element; the
    x_k are the column-replaced determinants (see _bareiss), scaled by the
    inverse of the unit relating determinant and key element.
    """
    determinant, numerators = _bareiss(ms.rows(), f.components[::-1])
    key = qhat(g)
    unit = rings.associate_unit(determinant, key)
    if unit is None:
        raise SpanHypothesisError(
            "determinant is not a unit multiple of the key element"
        )
    unit_inverse = exact_div(g.ring.one, unit)
    xs = [unit_inverse * y for y in numerators]
    mul, k = g.ring.mul, key.value
    scaled = [mul(k, x) for x in g.ring.values(f.components)]
    if _combination(g, ms, xs) != scaled or f.graph is not g:
        raise SplineError("internal error: span decomposition mismatch")
    return tuple(xs)


# ---------------------------------------------------------------------------
# Witness matrices for the pairwise-coprime converse
# ---------------------------------------------------------------------------


def coprime_witness_matrices(g: LabeledGraph) -> List[SplineMatrix]:
    """The n + k witness matrices of the coprime converse argument.

    With labels l_1..l_{n+k} (vertex labels then edge labels) pairwise
    coprime and lhat_i the product omitting l_i: for a vertex index i the
    witness is diagonal with the key element in position i and lhat_i
    elsewhere; for an edge index the key element sits at the higher
    endpoint's column, the lower endpoint's column covers both endpoints,
    and the remaining columns are diagonal.  Every column is a spline and
    the determinant is associate to lhat_i^(n-1) times the key element.
    """
    g.require_valid()
    violation = coprime_label_violation(g)
    if violation is not None:
        raise CoprimalityError(
            f"labels {violation[0]} and {violation[1]} are not coprime"
        )
    n = g.n
    labels = list(g.vertex_labels) + [e.label for e in g.edges]
    key = qhat(g)

    def hat(skip: int) -> RingElement:
        product = g.ring.one
        for idx, label in enumerate(labels):
            if idx != skip:
                product = product * label
        return product

    zero = g.ring.zero
    out: List[SplineMatrix] = []
    for i in range(n):
        lhat = hat(i)
        columns = []
        for j in range(n):
            comp = [zero] * n
            comp[j] = key if j == i else lhat
            columns.append(Spline(g, comp))
        out.append(SplineMatrix(g, columns))
    for e_index, e in enumerate(g.edges):
        lhat = hat(n + e_index)
        a, b = e.endpoints()
        columns = []
        for j in range(n):
            comp = [zero] * n
            if j == a:
                comp[a] = lhat
                comp[b] = lhat
            elif j == b:
                comp[b] = key
            else:
                comp[j] = lhat
            columns.append(Spline(g, comp))
        out.append(SplineMatrix(g, columns))
    return out
