import functools
import random

import pytest

from egsplines.graph import GraphValidationError, LabeledGraph, _aggregate_table
from egsplines.oracle import InstanceSpec, random_instance
from egsplines.rings import QQ, ZZ, RingElement

from conftest import QX, ZXY, qx, random_graph, zxy, zz
from refs import trails_between


def _rejected(*args, **kwargs):
    """The violations that LabeledGraph(*args, **kwargs) raises."""
    with pytest.raises(GraphValidationError) as info:
        LabeledGraph(*args, **kwargs)
    return info.value.violations


class TestValidate:
    def test_t4_valid(self, t4):
        assert t4.require_valid() is t4
        assert t4.vertex_values == tuple(ZXY.values(t4.vertex_labels))
        assert t4.edge_values == tuple(ZXY.values(e.label for e in t4.edges))

    def test_single_vertex_valid(self, single_vertex):
        assert (single_vertex.vertex_values, single_vertex.edge_values) == ((5,), ())
        assert single_vertex.adjacency == ((),)

    def test_disconnected(self):
        assert _rejected(ZZ, [zz(1), zz(1)], []) == ("disconnected: no path from v1 to v2",)

    def test_self_loop(self):
        violations = _rejected(ZZ, [zz(1), zz(1)], [(0, 0, zz(2)), (0, 1, zz(2))])
        assert violations == ("edge 1: self-loop at v1",)

    def test_self_loop_beyond_short_names(self):
        # the loop's vertex has no name: it gets the fallback name v2
        assert _rejected(ZZ, [zz(1), zz(2)], [(1, 1, zz(3))], names=["a"]) == (
            "vertex name count does not match vertex count",
            "edge 1: self-loop at v2",
        )

    def test_zero_labels_named(self):
        violations = _rejected(ZZ, [zz(0), zz(1)], [(0, 1, zz(0))], names=("a", "b"))
        assert violations == ("vertex a: zero label", "edge 1: zero label")

    def test_ring_mismatch(self):
        violations = _rejected(ZZ, [zz(1), zxy("x")], [(0, 1, zz(2))])
        assert violations == ("vertex v2: label ring mismatch",)

    def test_edge_endpoint_out_of_range(self):
        violations = _rejected(ZZ, [zz(1), zz(1)], [(0, 1, zz(2)), (0, 5, zz(3))])
        assert violations == ("edge 2: endpoint out of range",)

    def test_edge_ring_mismatch(self):
        violations = _rejected(ZZ, [zz(1), zz(1)], [(0, 1, zxy("x"))])
        assert violations == ("edge 1: label ring mismatch",)

    def test_label_not_a_ring_element(self):
        # plain ints as labels: each is a violation, not an AttributeError
        assert _rejected(ZZ, [2, 3], [(0, 1, 4)]) == (
            "vertex v1: label is not a RingElement",
            "vertex v2: label is not a RingElement",
            "edge 1: label is not a RingElement",
        )

    def test_endpoint_not_an_int(self):
        # a float endpoint is a violation, not a TypeError from indexing
        violations = _rejected(ZZ, [zz(2), zz(3)], [(0, 1.0, zz(4)), (0, 1, zz(5))])
        assert violations == ("edge 1: endpoint is not a vertex index",)

    def test_n_is_the_vertex_count(self, t4):
        assert t4.n == len(t4.vertex_labels) == 4
        assert "n" in vars(t4)

    def test_duplicate_names(self):
        violations = _rejected(ZZ, [zz(1), zz(1)], [(0, 1, zz(2))], names=("a", "a"))
        assert violations == ("vertex names are not unique",)

    def test_name_count_mismatch(self):
        violations = _rejected(ZZ, [zz(1), zz(1)], [(0, 1, zz(2))], names=("a",))
        assert violations == ("vertex name count does not match vertex count",)

    def test_entry_points_raise_the_violations(self):
        # the constructor is the one entry point that checks a graph: a
        # disconnected graph is never built, so no computation receives one
        assert _rejected(ZZ, [zz(1), zz(2)], []) == ("disconnected: no path from v1 to v2",)

    def test_no_vertices(self):
        assert _rejected(ZZ, [], []) == ("graph has no vertices",)

    def test_parallel_edges_allowed(self):
        g = LabeledGraph(ZZ, [zz(1), zz(1)], [(0, 1, zz(2)), (0, 1, zz(3))])
        assert g.edge_values == (2, 3)
        assert g.adjacency == ((0, 1), (0, 1))


class TestTrails:
    def test_c3_two_trails(self, c3_int):
        trails = trails_between(c3_int, 1, 0)
        assert [t.edges for t in trails] == [(0,), (1, 2)]
        assert trails[0].vertices == (1, 0)
        assert trails[1].vertices == (1, 2, 0)

    def test_path_single_trail(self, p2):
        trails = trails_between(p2, 1, 0)
        assert len(trails) == 1 and trails[0].edges == (0,)

    def test_t4_star(self, t4):
        trails = trails_between(t4, 0, 1)
        assert len(trails) == 1 and trails[0].edges == (0, 1)

    def test_same_endpoint_rejected(self, p2):
        with pytest.raises(ValueError):
            trails_between(p2, 0, 0)

    def test_edge_reversal_symmetry(self):
        rng = random.Random(2)
        for seed in range(25):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.6, label_bound=9))
            i, j = rng.sample(range(g.n), 2)
            forward = sorted(tuple(sorted(t.edges)) for t in trails_between(g, i, j))
            backward = sorted(tuple(sorted(t.edges)) for t in trails_between(g, j, i))
            assert forward == backward

    def test_trees_have_unique_trails(self):
        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=5, edge_density=0.0, label_bound=9))
            assert len(g.edges) == g.n - 1
            for i in range(g.n):
                for j in range(g.n):
                    if i != j:
                        assert len(trails_between(g, i, j)) == 1

    def test_trail_invariants(self):
        for seed in range(10):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.7, label_bound=9))
            for t in trails_between(g, 0, g.n - 1):
                assert len(t.vertices) == len(t.edges) + 1
                assert len(set(t.edges)) == len(t.edges)
                for k, idx in enumerate(t.edges):
                    e = g.edges[idx]
                    assert {t.vertices[k], t.vertices[k + 1]} == {e.u, e.v}


def _table(g):
    return _aggregate_table(g, g.ring.pair_operations())


class TestTrailConstraint:
    """The trail aggregate of each vertex pair, read from the aggregate
    table as raw values, against trails_between."""

    def test_c3_symbolic_shape(self):
        g = LabeledGraph(
            ZXY,
            [zxy("x"), zxy("x"), zxy("x")],
            [(0, 1, zxy("x*y")), (1, 2, zxy("y^2")), (0, 2, zxy("y^3"))],
        )
        # lcm(r1, gcd(r2, r3)) for the two v2 -> v1 trails
        expected = ZXY.lcm(zxy("x*y").value, ZXY.gcd(zxy("y^2").value, zxy("y^3").value))
        assert _table(g)[1][0] == expected

    def test_single_edge(self, p2):
        assert _table(p2)[1][0] == 4

    def test_c3_integers(self, c3_int):
        table = _table(c3_int)
        assert table[1][0] == 2  # lcm(2, gcd(3, 5))
        assert table[2][0] == 5
        assert table[2][1] == 3

    def test_every_trail_gcd_divides_aggregate(self):
        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            table = _table(g)
            for j in range(g.n):
                for i in range(g.n):
                    if i == j:
                        continue
                    for t in trails_between(g, j, i):
                        trail_gcd = functools.reduce(ZZ.gcd, ZZ.values(t.edge_labels(g)))
                        assert ZZ.divide(table[j][i], trail_gcd) is not None

    def test_pruned_matches_literal_enumeration(self):
        # the closure table against literal trail enumeration, every ordered
        # pair, on ZZ, QQ[x] and ZZ[x,y] graphs with up to 6 vertices; a
        # trail's gcd depends only on its edge set, so each set counts once
        graphs = [
            random_instance(InstanceSpec(seed=seed, n=2 + seed % 5, edge_density=0.4, label_bound=30))
            for seed in range(40)
        ]
        # one label per pool with a rational or negative leading
        # coefficient, so the closure's canonical associates do work
        qx_pool = [qx("x"), qx("x+1"), qx("2*x-1"), qx("x^2+1"), qx("3"), qx("-1/2*x+3")]
        zxy_pool = [zxy("x"), zxy("y"), zxy("x+y"), zxy("2"), zxy("x*y+1"), zxy("-3*x+y")]
        for seed in range(12):
            graphs.append(random_graph(QX, qx_pool, seed, 2 + seed % 5))
            graphs.append(random_graph(ZXY, zxy_pool, seed, 2 + seed % 5))
        graphs = [g for g in graphs if len(g.edges) <= 9]
        assert sum(_has_parallel_edges(g) for g in graphs) >= 5
        for g in graphs:
            ring, table = g.ring, _table(g)
            labels = ring.values(e.label for e in g.edges)
            for j in range(g.n):
                for i in range(g.n):
                    if i == j:
                        continue
                    edge_sets = {frozenset(t.edges) for t in trails_between(g, j, i)}
                    values = [
                        functools.reduce(ring.gcd, [labels[idx] for idx in edges], ring.zero.value)
                        for edges in edge_sets
                    ]
                    expected = functools.reduce(ring.lcm, values, ring.one.value)
                    assert table[j][i] == expected, (g, j, i)

    def test_maximal_only_can_differ(self):
        # three parallel edges: the lcm of the parallel labels, since each
        # single-edge trail counts and a longer trail's gcd divides them
        g = LabeledGraph(
            ZZ, [zz(1), zz(1)], [(0, 1, zz(4)), (0, 1, zz(6)), (0, 1, zz(10))]
        )
        assert _table(g)[1][0] == 60  # lcm(4, 6, 10, gcd)

    def test_same_endpoint_rejected(self, c3_int):
        # on a cycle the search would come back to the source
        with pytest.raises(ValueError, match="must differ"):
            trails_between(c3_int, 1, 1)

    def test_endpoint_out_of_range_rejected(self, c3_int):
        # -1 would otherwise start from the last vertex, and an index past
        # the vertices would find no trail at all
        for source, target in [(-1, 0), (0, -1), (3, 0), (0, 3), (0, 7)]:
            with pytest.raises(ValueError, match="0..2"):
                trails_between(c3_int, source, target)
        assert [t.edges for t in trails_between(c3_int, 0, 2)] == [(0, 1), (2,)]

    def test_foreign_label_rejected(self):
        # an edge label or a vertex label of another ring: the graph is
        # rejected when it is built, before any closure
        for vertex_labels, edge_label, violation in [
            ([zz(2), zz(3)], QQ.from_int(2), "edge 1: label ring mismatch"),
            ([QQ.from_int(2), zz(3)], zz(4), "vertex v1: label ring mismatch"),
        ]:
            assert _rejected(ZZ, vertex_labels, [(0, 1, edge_label)]) == (violation,)

    def test_zero_edge_label_rejected(self):
        # a zero edge label is rejected when the graph is built, so no
        # closure seeds a pair with 0
        edges = [(0, 1, zz(0)), (1, 2, zz(6)), (0, 2, zz(4))]
        assert _rejected(ZZ, [zz(2), zz(3), zz(5)], edges) == ("edge 1: zero label",)

    def test_table_is_built_once_without_wrapping(self, monkeypatch):
        # the closure runs on raw values: building the table wraps nothing
        g = random_instance(InstanceSpec(seed=4, n=10, edge_density=0.5, label_bound=30))
        built = []
        original = RingElement.__init__

        def counting(self, descriptor, value):
            built.append(value)
            original(self, descriptor, value)

        monkeypatch.setattr(RingElement, "__init__", counting)
        _table(g)
        assert built == []


def _has_parallel_edges(g):
    pairs = [e.endpoints() for e in g.edges]
    return len(set(pairs)) < len(pairs)
