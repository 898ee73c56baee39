"""Edge-labeled graphs and the pairwise aggregate behind the key element.

A labeled graph carries one nonzero ring element per vertex and per edge,
plus a fixed vertex ordering that the flow-up and key-element computations
refer to.  A graph is checked once, when it is built: an invalid one
raises GraphValidationError, so every LabeledGraph is connected, has
nonzero labels of its ring and one name per vertex, and keeps its raw
labels (vertex_values, edge_values).  Graphs are immutable and never
relabeled; the key-element record, not the aggregate table that the record
is folded from, is cached on each graph.

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
    """Finite connected graph with vertex labels m_i and edge labels r_e,
    nonzero elements of one ring.

    The vertex ordering is part of the object: index 0 is the first vertex
    of the flow-up ordering.  Parallel edges are allowed, self-loops are not.
    Construction runs every check and raises GraphValidationError with all
    violations, so a LabeledGraph is valid; its labels are also kept as raw
    values of its ring, vertex_values and edge_values, in order.
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
        self.n = len(self.vertex_labels)
        self.edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        if names is None:
            names = tuple(f"v{i + 1}" for i in range(self.n))
        self.names = tuple(names)
        violations = self._check()
        if violations:
            raise GraphValidationError(violations)
        self.vertex_values = tuple(label.value for label in self.vertex_labels)
        self.edge_values = tuple(e.label.value for e in self.edges)
        self._key = None  # the record of splines.key_element

    def _check(self) -> List[str]:
        """Every invariant violation, in order: the vertex count and names,
        each vertex label, each edge; then, only when all of those pass,
        connectivity, which builds adjacency.  A vertex past the end of a
        short names list is called v{i+1}.  A label that is not a
        RingElement and an endpoint that is not an int are violations too."""
        v: List[str] = []
        n = self.n
        names = [*self.names, *(f"v{i + 1}" for i in range(len(self.names), n))]
        if n < 1:
            v.append("graph has no vertices")
        if len(self.names) != n:
            v.append("vertex name count does not match vertex count")
        elif len(set(self.names)) != n:
            v.append("vertex names are not unique")
        for name, label in zip(names, self.vertex_labels):
            if not isinstance(label, RingElement):
                v.append(f"vertex {name}: label is not a RingElement")
            elif label.descriptor is not self.ring:
                v.append(f"vertex {name}: label ring mismatch")
            elif label.is_zero:
                v.append(f"vertex {name}: zero label")
        for idx, e in enumerate(self.edges):
            where = f"edge {idx + 1}"
            if not (isinstance(e.u, int) and isinstance(e.v, int)):
                v.append(f"{where}: endpoint is not a vertex index")
                continue
            if not (0 <= e.u < n and 0 <= e.v < n):
                v.append(f"{where}: endpoint out of range")
                continue
            if e.u == e.v:
                v.append(f"{where}: self-loop at {names[e.u]}")
            if not isinstance(e.label, RingElement):
                v.append(f"{where}: label is not a RingElement")
            elif e.label.descriptor is not self.ring:
                v.append(f"{where}: label ring mismatch")
            elif e.label.is_zero:
                v.append(f"{where}: zero label")
        if v:
            return v
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for idx, e in enumerate(self.edges):
            adjacency[e.u].append(idx)
            adjacency[e.v].append(idx)
        self.adjacency = tuple(tuple(a) for a in adjacency)
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
            missing = ", ".join(self.names[i] for i in range(n) if i not in seen)
            v.append(f"disconnected: no path from {self.names[0]} to {missing}")
        return v

    def require_valid(self) -> "LabeledGraph":
        """self: every LabeledGraph was checked when it was built.  Kept
        for callers that chain it, such as bench/gen.py."""
        return self

    def __repr__(self) -> str:
        return f"<LabeledGraph {self.n} vertices, {len(self.edges)} edges over {self.ring}>"


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
    with the lcm of the parallel labels.  Relaxations that cannot
    change an entry (a unit gcd, or one that already divides the entry,
    that is, is its gcd with the entry) skip the lcm.  The diagonal is
    never read.
    """
    n = g.n
    ring = g.ring
    gcd, lcm, _ = pairs
    one = ring.one.value
    table = [[one] * n for _ in range(n)]
    for e, label in zip(g.edges, g.edge_values):
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
                # candidate is canonical, so it divides the entry when it
                # is their gcd
                if candidate != one and gcd(candidate, row_i[j]) != candidate:
                    row_i[j] = table[j][i] = lcm(row_i[j], candidate)
    return table

