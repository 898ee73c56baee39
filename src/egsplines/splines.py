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

from . import rings
from .graph import LabeledGraph, trail_constraint
from .rings import RingElement, exact_div, gcd, is_unit, lcm_many, try_exact_div


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
            if c.descriptor != graph.ring:
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
    """All membership conditions the candidate fails (empty = spline)."""
    out: List[str] = []
    for i, f in enumerate(components):
        if not rings.divides(g.vertex_labels[i], f):
            out.append(
                f"vertex {g.vertex_name(i)}: component is not a multiple "
                f"of {g.vertex_labels[i]}"
            )
    for idx, e in enumerate(g.edges):
        diff = components[e.u] - components[e.v]
        if not rings.divides(e.label, diff):
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

    def replace_column(self, index: int, column: Spline) -> "SplineMatrix":
        cols = list(self.columns)
        cols[index] = column
        return SplineMatrix(self.graph, cols)


# ---------------------------------------------------------------------------
# Key element
# ---------------------------------------------------------------------------


def qhat_component(g: LabeledGraph, i: int) -> RingElement:
    """Component of the key element at vertex index i (0-based).

    lcm of: the vertex label m_i; gcd(m_j, trail aggregate from j) for each
    higher index j; the trail aggregate from s for each lower index s.  The
    aggregates are lookups in the graph's (lcm, gcd) closure table, built
    once per graph in O(n^3) ring operations (see trail_constraint).
    """
    g.require_valid()
    parts = [g.vertex_labels[i]]
    for j in range(i + 1, g.n):
        parts.append(gcd(g.vertex_labels[j], trail_constraint(g, j, i)))
    for s in range(i):
        parts.append(trail_constraint(g, s, i))
    return lcm_many(parts, g.ring)


def qhat_components(g: LabeledGraph) -> Tuple[RingElement, ...]:
    return tuple(qhat_component(g, i) for i in range(g.n))


def qhat(g: LabeledGraph) -> RingElement:
    """The key element: product of the per-vertex components, canonical."""
    result = g.ring.one
    for c in qhat_components(g):
        result = result * c
    return rings.canonical_associate(result)


def classical_qg(g: LabeledGraph) -> RingElement:
    """Key element of the graph with every vertex label replaced by 1."""
    ones = [g.ring.one] * g.n
    return qhat(g.with_vertex_labels(ones))


def h_factor(g: LabeledGraph) -> RingElement:
    """The cofactor H with qhat associate to H * classical_qg.

    Per vertex index i, H's factor is the lcm of m_i with the higher-index
    gcd corrections, divided by the gcd of that lcm with the lcm of the
    lower-index trail aggregates.
    """
    g.require_valid()
    result = g.ring.one
    for i in range(g.n):
        parts = [g.vertex_labels[i]]
        for j in range(i + 1, g.n):
            parts.append(gcd(g.vertex_labels[j], trail_constraint(g, j, i)))
        numerator = lcm_many(parts, g.ring)
        lower = lcm_many([trail_constraint(g, s, i) for s in range(i)], g.ring)
        result = result * exact_div(numerator, gcd(numerator, lower))
    return rings.canonical_associate(result)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def _bareiss_determinant(rows: List[List[RingElement]]) -> RingElement:
    """Fraction-free elimination; every division is exact by Sylvester's
    identity, so the result is the exact determinant over the ring."""
    n = len(rows)
    ring = rows[0][0].descriptor
    m = [list(r) for r in rows]
    sign = 1
    previous = ring.one
    for k in range(n - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, n):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = exact_div(numerator, previous)
            m[i][k] = ring.zero
        previous = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def spline_determinant(ms: SplineMatrix) -> RingElement:
    """Exact determinant under the fixed row convention (v_n top .. v_1 bottom)."""
    rows = ms.rows()
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return _bareiss_determinant(rows)


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


def labels_pairwise_coprime(g: LabeledGraph) -> bool:
    return coprime_label_violation(g) is None


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
    if labels_pairwise_coprime(g) or g.ring.is_pid:
        return BasisCertificate(Verdict.REFUTED_BY_COPRIME_CONVERSE, determinant, key)
    return BasisCertificate(Verdict.INCONCLUSIVE, determinant, key)


# ---------------------------------------------------------------------------
# Expressing splines in a candidate basis
# ---------------------------------------------------------------------------


def express_in_basis(
    g: LabeledGraph, ms: SplineMatrix, f: Spline
) -> Tuple[RingElement, ...]:
    """Coefficients c with sum(c_k F_k) = f, or NotInSpanError.

    Cramer's rule: the k-th replaced determinant divided by the matrix
    determinant.  The output is verified by full reconstruction before it
    is returned, so an arithmetic fault cannot produce silent garbage.
    """
    determinant = spline_determinant(ms)
    if determinant.is_zero:
        raise ZeroDivisionError("cannot express against a singular matrix")
    coefficients: List[Optional[RingElement]] = []
    failed: List[int] = []
    for k in range(g.n):
        replaced = spline_determinant(ms.replace_column(k, f))
        c = try_exact_div(replaced, determinant)
        coefficients.append(c)
        if c is None:
            failed.append(k)
    if failed:
        raise NotInSpanError(failed[0], tuple(failed))
    rebuilt = Spline(g, [g.ring.zero] * g.n)
    for c, col in zip(coefficients, ms.columns):
        rebuilt = rebuilt + col.scale(c)
    if rebuilt != f:
        raise SplineError("internal error: Cramer reconstruction mismatch")
    return tuple(coefficients)


def qhat_span_decomposition(
    g: LabeledGraph, ms: SplineMatrix, f: Spline
) -> Tuple[RingElement, ...]:
    """Ring elements x with sum(x_k F_k) = qhat * f, no division involved.

    Requires the matrix determinant to be associate to the key element; the
    x_k are the column-replaced determinants, scaled by the inverse of the
    unit relating determinant and key element.
    """
    determinant = spline_determinant(ms)
    key = qhat(g)
    unit = rings.associate_unit(determinant, key)
    if unit is None:
        raise SpanHypothesisError(
            "determinant is not a unit multiple of the key element"
        )
    unit_inverse = exact_div(g.ring.one, unit)
    xs = []
    for k in range(g.n):
        replaced = spline_determinant(ms.replace_column(k, f))
        xs.append(unit_inverse * replaced)
    combined = Spline(g, [g.ring.zero] * g.n)
    for x, col in zip(xs, ms.columns):
        combined = combined + col.scale(x)
    if combined != f.scale(key):
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
