"""The spline module layer: membership, key element, determinant certificates.

A spline assigns to each vertex v an element of m_v R such that the values
across every edge e agree modulo r_e.  Candidate splines are plain vertex
labelings; membership is checked explicitly, never assumed, so certificates
can refute non-spline columns.

Matrix convention: a set of candidates F_1..F_n is viewed as the n x n
matrix whose column k is F_k with rows ordered v_n (top) down to v_1
(bottom).  All determinants below use that fixed convention; associate
checks absorb the sign, and _solve applies the convention's one sign.

Flow-up bases and coprime witness matrices are lower triangular in vertex
order: column k is zero at the vertices before v_k and nonzero at v_k
(_triangular).  Such a matrix is solved without elimination: its
determinant is the product of the diagonal, and its coefficients come from
exact forward substitution (_forward), one division per column, which
decides every column of a target inside or outside the span.  Every other
matrix goes through the kernel (_bareiss), which takes the rows in vertex
order and gives the determinant and every Cramer numerator from one
fraction-free elimination.

Values are unwrapped once, at the boundary: Spline checks each component
to lie in the graph's ring and keeps its raw value, and SplineMatrix
checks that its columns share one graph.  Spline arithmetic, membership,
the elimination (_bareiss) and the Cramer divisions run on those raw
values through the ring's operations.  RingElements are built only for
Spline.components, on first read, and for results (determinants,
coefficients, key elements).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from . import graph, rings
from .graph import LabeledGraph
from .rings import NotDivisibleError, RingElement, canonical_associate


class SplineError(Exception):
    pass


class NotInSpanError(SplineError):
    """The target is not an R-linear combination of the given columns.

    index is the first column (0-based) whose coefficient over the fraction
    field lies outside the ring, that is, whose Cramer numerator det does
    not divide; failed_indices lists every failing column.
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


class Spline:
    """A vertex labeling of one graph; one component per vertex, in order,
    held as raw values (values) and wrapped on first read (components).

    Not self-validating: use is_spline / spline_violations to check the
    membership conditions.
    """

    __slots__ = ("graph", "values", "_components")

    def __init__(self, graph: LabeledGraph, components: Sequence[RingElement]):
        if len(components) != graph.n:
            raise ValueError(
                f"expected {graph.n} components, got {len(components)}"
            )
        self.graph = graph
        self.values = tuple(graph.ring.values(components))
        self._components = tuple(components)

    @classmethod
    def _raw(cls, graph: LabeledGraph, values) -> "Spline":
        """The spline of graph with these raw values of its ring, unchecked."""
        s = object.__new__(cls)
        s.graph, s.values, s._components = graph, tuple(values), None
        return s

    @property
    def components(self) -> Tuple[RingElement, ...]:
        if self._components is None:
            ring = self.graph.ring
            self._components = tuple(RingElement(ring, x) for x in self.values)
        return self._components

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spline):
            return NotImplemented
        return self.graph is other.graph and self.values == other.values

    def __hash__(self) -> int:
        return hash((id(self.graph), self.values))

    def __add__(self, other: "Spline") -> "Spline":
        if other.graph is not self.graph:
            raise ValueError("splines live on different graphs")
        return Spline._raw(self.graph, map(self.graph.ring.add, self.values, other.values))

    def __sub__(self, other: "Spline") -> "Spline":
        return self + (-other)

    def __neg__(self) -> "Spline":
        return Spline._raw(self.graph, map(self.graph.ring.neg, self.values))

    def scale(self, c: RingElement) -> "Spline":
        (c,), mul = self.graph.ring.values([c]), self.graph.ring.mul
        return Spline._raw(self.graph, [mul(c, x) for x in self.values])

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    def __repr__(self) -> str:
        return "Spline(" + ", ".join(str(c) for c in self.components) + ")"


def spline_violations(g: LabeledGraph, components: Sequence[RingElement]) -> List[str]:
    """All membership conditions the candidate fails (empty = spline); the
    components are unwrapped, each checked to lie in g's ring."""
    return _violations(g, g.ring.values(components))


def _violations(g: LabeledGraph, values: Sequence) -> List[str]:
    """spline_violations on raw values of g's ring, through its sub and
    divide; the labels are read unwrapped once per graph
    (graph._raw_labels), each checked to lie in g's ring."""
    labels, edge_labels = graph._raw_labels(g)
    sub, divide = g.ring.sub, g.ring.divide
    # 0 is a multiple of every label: a zero component and an edge with
    # equal endpoint values pass without a division.  A nonzero value is a
    # multiple of a label m when m is nonzero and divides it (0 | b only
    # for b = 0, on a graph not yet validated).
    out: List[str] = []
    for i, f in enumerate(values):
        m = labels[i]
        if f and (not m or divide(f, m) is None):
            out.append(
                f"vertex {g.vertex_name(i)}: component is not a multiple "
                f"of {g.vertex_labels[i]}"
            )
    for idx, (e, r) in enumerate(zip(g.edges, edge_labels)):
        a, b = values[e.u], values[e.v]
        if a != b and (not r or divide(sub(a, b), r) is None):
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
    Its gcd, lcm and cofactor U_i / gcd(U_i, L_i) are the ring's pair
    operations, shared with the closure and dropped on return, so over a
    polynomial ring each distinct pair of values costs one gcd.
    """
    if g._key is not None:
        return g._key
    g.require_valid()
    ring = g.ring
    pairs = ring.pair_operations()
    gcd, lcm, cofactor_of = pairs
    mul, canon = ring.mul, ring.canon
    labels = graph._raw_labels(g)[0]
    table = graph._aggregate_table(g, pairs)
    one = ring.one.value
    components = []
    qg = h = one
    for i in range(g.n):
        row = table[i]  # the table is symmetric: row[j] = T(j, i)
        upper = labels[i]
        for j in range(i + 1, g.n):
            upper = lcm(upper, gcd(labels[j], row[j]))
        lower = one
        for s in range(i):
            lower = lcm(lower, row[s])
        # lcm(U, L) = (U / gcd(U, L)) * L, taking the gcd that H needs once
        if lower == one:
            cofactor, component = upper, canon(upper)
        else:
            cofactor = cofactor_of(upper, lower)
            component = canon(mul(cofactor, lower))
        components.append(RingElement(ring, component))
        qg = mul(qg, lower)
        h = mul(h, cofactor)
    qg, h = RingElement(ring, canon(qg)), RingElement(ring, canon(h))
    # each component is canon(cofactor * lower), so Qhat = canon(Q_G * H)
    g._key = KeyElement(tuple(components), canonical_associate(qg * h), qg, h)
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
    ring: rings.RingDescriptor, rows: Sequence[Sequence], rhs: Optional[Sequence] = None
) -> Tuple[object, Optional[list]]:
    """(det M, y = adj(M)*f) over ring from one fraction-free elimination
    of [M | f] and back-substitution.  y is None without f or when det = 0.

    Each Bareiss step divides exactly by the previous pivot (Sylvester's
    identity; Bareiss, Math. Comp. 22 (1968)); the first step's divisor is
    1 and is skipped.  The numerators come from back-substitution on the
    eliminated [U | b]: y_k = (D*b_k - sum_{j>k} U_kj*y_j) / U_kk with D
    the last pivot, exact since y lies in the ring, and the last numerator
    is b's last entry, undivided.  The determinant is D times the row-swap
    sign, the one sign of the kernel, applied once at the end.

    M, f, det and y are raw values of ring, and the elimination runs
    through its operations; rows is only read.  A failed exact division
    raises NotDivisibleError.
    """
    n = len(rows)
    sub, mul, neg, divide, zero = ring.sub, ring.mul, ring.neg, ring.divide, ring.zero.value

    def quotient(a, b):
        q = divide(a, b)
        if q is None:
            raise NotDivisibleError(
                f"{RingElement(ring, a)} is not divisible by "
                f"{RingElement(ring, b)} in {ring}"
            )
        return q

    m = [list(row) + ([] if rhs is None else [rhs[i]]) for i, row in enumerate(rows)]
    sign = 1
    previous = None
    for p in range(n - 1):
        if not m[p][p]:
            for i in range(p + 1, n):
                if m[i][p]:
                    m[p], m[i] = m[i], m[p]
                    sign = -sign
                    break
            else:
                return zero, None
        top = m[p]
        pivot = top[p]
        for row in m[p + 1:]:
            lead = row[p]
            for j in range(p + 1, len(top)):
                numerator = sub(mul(pivot, row[j]), mul(lead, top[j]))
                row[j] = numerator if previous is None else quotient(numerator, previous)
        previous = pivot
    det = m[n - 1][n - 1]
    if not det:
        return zero, None
    if rhs is None:
        return det if sign > 0 else neg(det), None
    y: list = [None] * n
    y[n - 1] = m[n - 1][n]
    for p in range(n - 2, -1, -1):
        row = m[p]
        acc = mul(det, row[n])
        for j in range(p + 1, n):
            acc = sub(acc, mul(row[j], y[j]))
        y[p] = quotient(acc, row[p])
    return (det, y) if sign > 0 else (neg(det), [neg(v) for v in y])


def spline_determinant(ms: SplineMatrix) -> RingElement:
    """Exact determinant under the fixed row convention (v_n top .. v_1 bottom)."""
    return RingElement(ms.graph.ring, _solve(ms.graph, ms)[0])


def _solve(g: LabeledGraph, ms: SplineMatrix, f: Optional[Spline] = None) -> tuple:
    """The raw (det, c) of the matrix of ms and, when given, the target f:
    c_k is the k-th Cramer numerator divided by det, None where that
    division fails, and c is None without f or when det = 0.

    The entry of spline_determinant, certify_basis and the non-triangular
    branch of express_in_basis: ValueError("splines live on different
    graphs") unless ms and f live on g (_check_graph), raised before any
    arithmetic.  A matrix lower triangular in vertex order (_triangular)
    has det = M[c][c]*det for c from n-1 down to 0, with no elimination
    and no division, and c from _forward.  Otherwise the columns' and f's
    values go to _bareiss in vertex order (v_1 first).
    The row convention (v_n top .. v_1 bottom) reverses the n rows,
    n(n-1)/2 swaps, so det is negated once when that count is odd; c, a
    quotient of two determinants that share the sign, keeps it.
    """
    _check_graph(g, ms, f)
    ring = g.ring
    if _triangular(ms):
        det = ring.one.value
        for k in range(g.n - 1, -1, -1):
            det = ring.mul(ms.columns[k].values[k], det)
        c = None if f is None else _forward(ring, ms, f.values)
    else:
        rows = list(zip(*(col.values for col in ms.columns)))
        det, y = _bareiss(ring, rows, None if f is None else f.values)
        c = None if y is None else [ring.divide(v, det) for v in y]
    if det and g.n * (g.n - 1) // 2 % 2:
        det = ring.neg(det)
    return det, c


def _check_graph(g: LabeledGraph, ms: SplineMatrix, f: Optional[Spline] = None) -> None:
    if ms.graph is not g or (f is not None and f.graph is not g):
        raise ValueError("splines live on different graphs")


def _triangular(ms: SplineMatrix) -> bool:
    """Whether each column k is zero at the vertices before v_k and nonzero
    at v_k: the matrix is lower triangular in vertex order with a nonzero
    diagonal, as every flow-up basis and coprime witness matrix is."""
    return all(col.values[k] and not any(col.values[:k]) for k, col in enumerate(ms.columns))


def _forward(ring: rings.RingDescriptor, ms: SplineMatrix, target: Sequence) -> list:
    """The raw c with sum(c_k F_k) = target for a matrix ms that is
    _triangular, by exact forward substitution, one division per column;
    c_k is None where the coefficient lies outside the ring.

    The solution x over the fraction field is unique, so the failing
    columns are those of Cramer's rule.  rest is D*(target - sum_{j<k}
    x_j F_j), with D the product of the pivots a_j = F_j[j] of the columns
    that failed so far, so x_k = rest_k / (D*a_k).  A column whose
    division succeeds subtracts D*c_k*F_k from rest; one that fails sets
    rest to a_k*rest - rest_k*F_k and D to D*a_k, without a division.
    Only the entries after k are updated.  D is None while no column has
    failed, so a member is substituted as over a unit D.
    """
    sub, mul, divide = ring.sub, ring.mul, ring.divide
    rest = list(target)
    scale = None
    out = []
    for k, col in enumerate(ms.columns):
        values = col.values
        pivot = values[k]
        c = divide(rest[k], pivot if scale is None else mul(scale, pivot))
        out.append(c)
        if c is None:
            step = rest[k]
            for v in range(k + 1, len(rest)):
                grown = mul(pivot, rest[v])
                rest[v] = sub(grown, mul(step, values[v])) if values[v] else grown
            scale = pivot if scale is None else mul(scale, pivot)
        elif c:
            step = c if scale is None else mul(scale, c)
            for v in range(k + 1, len(rest)):
                if values[v]:
                    rest[v] = sub(rest[v], mul(step, values[v]))
    return out


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
    values, gcd, one = sum(graph._raw_labels(g), []), g.ring.gcd, g.ring.one.value
    # the gcd is canonical, so a unit gcd is exactly one
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if gcd(values[i], values[j]) != one:
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
    determinant = RingElement(g.ring, _solve(g, ms)[0])
    key = qhat(g)
    failing = tuple(idx for idx, col in enumerate(ms.columns) if _violations(g, col.values))
    if failing:
        return BasisCertificate(
            Verdict.REFUTED_NOT_SPLINES, determinant, key, failing_columns=failing
        )
    if determinant.is_zero:
        return BasisCertificate(Verdict.REFUTED_DEPENDENT, determinant, key)
    unit = rings.associate_unit(determinant, key)
    if unit is not None:
        return BasisCertificate(Verdict.CERTIFIED, determinant, key, unit=unit)
    if g.ring.is_pid or coprime_label_violation(g) is None:
        return BasisCertificate(Verdict.REFUTED_BY_COPRIME_CONVERSE, determinant, key)
    return BasisCertificate(Verdict.INCONCLUSIVE, determinant, key)


# ---------------------------------------------------------------------------
# Expressing splines in a candidate basis
# ---------------------------------------------------------------------------


def _combination(g: LabeledGraph, ms: SplineMatrix, coefficients: Sequence) -> tuple:
    """The values of sum(c_k F_k) for raw coefficients c_k of g's ring,
    computed through its mul and add."""
    add, mul = g.ring.add, g.ring.mul
    out = [g.ring.zero.value] * g.n
    for c, col in zip(coefficients, ms.columns):
        for v, x in enumerate(col.values):
            if x:
                out[v] = add(out[v], mul(c, x))
    return tuple(out)


def express_in_basis(
    g: LabeledGraph, ms: SplineMatrix, f: Spline
) -> Tuple[RingElement, ...]:
    """Coefficients c with sum(c_k F_k) = f; NotInSpanError when f is not in
    the span, ZeroDivisionError when the columns are dependent (det 0),
    ValueError when ms or f lives on another graph than g (see _solve).

    A matrix lower triangular in vertex order (_triangular) is solved by
    exact forward substitution (_forward), n divisions, without computing
    its determinant.  Any other matrix goes through Cramer's rule: the
    column-replaced determinants divided by the matrix determinant, all
    from one elimination (see _solve).  Either way NotInSpanError lists
    every failing column.  The output is verified by full reconstruction
    on raw values before it is returned, so an arithmetic fault cannot
    produce silent garbage.
    """
    _check_graph(g, ms, f)
    ring = g.ring
    if _triangular(ms):
        coefficients = _forward(ring, ms, f.values)
    else:
        determinant, coefficients = _solve(g, ms, f)
        if not determinant:
            raise ZeroDivisionError("cannot express against a singular matrix")
    if None in coefficients:
        failed = tuple(k for k, c in enumerate(coefficients) if c is None)
        raise NotInSpanError(failed[0], failed)
    if _combination(g, ms, coefficients) != f.values:
        raise SplineError("internal error: Cramer reconstruction mismatch")
    return tuple(RingElement(ring, c) for c in coefficients)


# ---------------------------------------------------------------------------
# Witness matrices for the pairwise-coprime converse
# ---------------------------------------------------------------------------


def coprime_witness_matrices(g: LabeledGraph) -> List[SplineMatrix]:
    """The n + k witness matrices of the coprime converse argument.

    With labels l_1..l_{n+k} (vertex labels then edge labels) pairwise
    coprime, their product is taken once and lhat_i, the product omitting
    l_i, is one exact division of it.  Witness i is the diagonal matrix of
    lhat_i with lhat_i written at (a, b) and the key element at (b, b),
    indexed (column, vertex): (a, b) = (i, i) for a vertex index i, and the
    edge's endpoints a < b for an edge index.  So an edge witness's column
    a covers both endpoints.  Every column is a spline and the determinant
    is associate to lhat_i^(n-1) times the key element.
    """
    g.require_valid()
    violation = coprime_label_violation(g)
    if violation is not None:
        raise CoprimalityError(
            f"labels {violation[0]} and {violation[1]} are not coprime"
        )
    n, ring = g.n, g.ring
    vertex_labels, edge_labels = graph._raw_labels(g)
    labels = vertex_labels + edge_labels
    positions = [(i, i) for i in range(n)] + [e.endpoints() for e in g.edges]
    key, zero = qhat(g).value, ring.zero.value
    product = functools.reduce(ring.mul, labels, ring.one.value)
    out: List[SplineMatrix] = []
    for label, (a, b) in zip(labels, positions):
        lhat = ring.divide(product, label)
        columns = [[lhat if v == j else zero for v in range(n)] for j in range(n)]
        columns[a][b] = lhat
        columns[b][b] = key
        out.append(SplineMatrix(g, [Spline._raw(g, comp) for comp in columns]))
    return out
