"""Edge-labeled graphs and the pairwise aggregate behind the key element.

A labeled graph carries one nonzero ring element per vertex and per edge,
plus a fixed vertex ordering that the flow-up and key-element computations
refer to.  Graphs are immutable and never relabeled; the validation result,
the aggregate table and the key-element record are cached on each graph.

The key element is built from one pairwise aggregate: the lcm over s-t
trails of the gcd of each trail's edge labels.  Divisibility classes of a
GCD domain form a distributive lattice, so the aggregate for every pair at
once is the algebraic-path closure over the semiring (lcm, gcd), computed
by Floyd-Warshall in O(n^3) ring operations, once per graph.  The closure
runs on raw values through the ring's pair operations (see
RingDescriptor.pair_operations) and keeps its table raw; the key element
(splines.key_element) reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .rings import RingDescriptor, RingElement


class GraphError(Exception):
    pass


class GraphValidationError(GraphError):
    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid graph: " + "; ".join(violations))
        self.violations = tuple(violations)


@dataclass(frozen=True)
class Edge:
    """Undirected edge between vertex indices u and v with a ring label."""

    u: int
    v: int
    label: RingElement

    def endpoints(self) -> Tuple[int, int]:
        return (self.u, self.v) if self.u <= self.v else (self.v, self.u)

    def other(self, vertex: int) -> int:
        return self.v if vertex == self.u else self.u


class LabeledGraph:
    """Finite graph with vertex labels m_i and edge labels r_e in one ring.

    The vertex ordering is part of the object: index 0 is the first vertex
    of the flow-up ordering.  Parallel edges are allowed, self-loops are not.
    """

    def __init__(
        self,
        ring: RingDescriptor,
        vertex_labels: Sequence[RingElement],
        edges: Iterable,
        names: Optional[Sequence[str]] = None,
    ):
        self.ring = ring
        self.vertex_labels = tuple(vertex_labels)
        built = []
        for e in edges:
            if isinstance(e, Edge):
                built.append(e)
            else:
                u, v, label = e
                built.append(Edge(u, v, label))
        self.edges = tuple(built)
        if names is None:
            names = tuple(f"v{i + 1}" for i in range(len(self.vertex_labels)))
        self.names = tuple(names)
        self._violations: Optional[Tuple[str, ...]] = None
        self._table: Optional[list] = None  # raw values, see _aggregate_table
        self._labels: Optional[tuple] = None  # raw values, see _raw_labels
        self._key = None  # the record of splines.key_element
        adjacency: List[List[int]] = [[] for _ in self.vertex_labels]
        for idx, e in enumerate(self.edges):
            if 0 <= e.u < len(adjacency) and 0 <= e.v < len(adjacency):
                adjacency[e.u].append(idx)
                if e.v != e.u:
                    adjacency[e.v].append(idx)
        self.adjacency = tuple(tuple(a) for a in adjacency)

    @property
    def n(self) -> int:
        return len(self.vertex_labels)

    def vertex_name(self, i: int) -> str:
        """The name of vertex i, or v{i+1} when names is too short."""
        return self.names[i] if i < len(self.names) else f"v{i + 1}"

    def validate(self) -> List[str]:
        """Return all invariant violations (empty list when valid)."""
        if self._violations is not None:
            return list(self._violations)
        v: List[str] = []
        n = self.n
        if n < 1:
            v.append("graph has no vertices")
        if len(self.names) != n:
            v.append("vertex name count does not match vertex count")
        elif len(set(self.names)) != n:
            v.append("vertex names are not unique")
        for i, label in enumerate(self.vertex_labels):
            name = self.vertex_name(i)
            if label.descriptor is not self.ring:
                v.append(f"vertex {name}: label ring mismatch")
            elif label.is_zero:
                v.append(f"vertex {name}: zero label")
        for idx, e in enumerate(self.edges):
            where = f"edge {idx + 1}"
            if not (0 <= e.u < n and 0 <= e.v < n):
                v.append(f"{where}: endpoint out of range")
                continue
            if e.u == e.v:
                v.append(f"{where}: self-loop at {self.vertex_name(e.u)}")
            if e.label.descriptor is not self.ring:
                v.append(f"{where}: label ring mismatch")
            elif e.label.is_zero:
                v.append(f"{where}: zero label")
        if n >= 1 and not v:
            seen = {0}
            frontier = [0]
            while frontier:
                current = frontier.pop()
                for idx in self.adjacency[current]:
                    other = self.edges[idx].other(current)
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
            if len(seen) != n:
                missing = sorted(set(range(n)) - seen)
                names = ", ".join(self.names[i] for i in missing)
                v.append(f"disconnected: no path from {self.names[0]} to {names}")
        self._violations = tuple(v)
        return list(v)

    def require_valid(self) -> "LabeledGraph":
        violations = self.validate()
        if violations:
            raise GraphValidationError(violations)
        return self

    def __repr__(self) -> str:
        return f"<LabeledGraph {self.n} vertices, {len(self.edges)} edges over {self.ring}>"


def _raw_labels(g: LabeledGraph) -> tuple:
    """(vertex labels, edge labels) of g as lists of raw values of g.ring,
    unwrapped once per graph; a label of another ring raises
    DescriptorMismatchError."""
    if g._labels is None:
        ring = g.ring
        g._labels = (ring.values(g.vertex_labels), ring.values(e.label for e in g.edges))
    return g._labels


def _aggregate_table(g: LabeledGraph, pairs: tuple) -> list:
    """The trail aggregate of every vertex pair, as a symmetric n x n table
    of raw canonical values of g.ring.

    Every trail contains a simple path whose gcd it divides, so the
    aggregate equals the lcm over simple paths, which is what the closure
    computes: Floyd-Warshall over (lcm, gcd), on raw values, through the
    gcd and lcm of pairs, the (gcd, lcm, cofactor) of
    g.ring.pair_operations() that the caller folds with too.  Over a
    polynomial ring they share one cache, so a pair met again, in the
    closure or in the fold, costs no second gcd.  Entries start at 1, the
    lcm identity, which also absorbs under gcd; each edge seeds its pair
    with the lcm of the parallel labels.  The labels are read through
    _raw_labels, unwrapped once per graph, so a vertex or edge label of
    another ring raises DescriptorMismatchError.  Relaxations that cannot
    change an entry (a unit gcd, or one that already divides the entry,
    that is, is its gcd with the entry) skip the lcm.  The diagonal is
    never read.
    """
    if g._table is not None:
        return g._table
    n = g.n
    ring = g.ring
    gcd, lcm, _ = pairs
    one = ring.one.value
    table = [[one] * n for _ in range(n)]
    for e, label in zip(g.edges, _raw_labels(g)[1]):
        if e.u != e.v and 0 <= e.u < n and 0 <= e.v < n:
            table[e.u][e.v] = table[e.v][e.u] = lcm(table[e.u][e.v], label)
    for k in range(n):
        row_k = table[k]
        for i in range(n):
            through = row_k[i]
            if i == k or through == one:
                continue
            row_i = table[i]
            for j in range(i + 1, n):
                onward = row_k[j]
                if j == k or onward == one:
                    continue
                candidate = gcd(through, onward)
                if candidate == one:
                    continue
                # candidate is canonical, so it divides the entry when it
                # is their gcd; 0 divides only 0, and lcm(entry, 0) = 0
                if not candidate or gcd(candidate, row_i[j]) != candidate:
                    row_i[j] = table[j][i] = lcm(row_i[j], candidate)
    g._table = table
    return table

