import random

import pytest

from egsplines.graph import LabeledGraph, trail_constraint
from egsplines.oracle import InstanceSpec, random_instance, trails_between
from egsplines.rings import ZZ, gcd_many, lcm_many

from conftest import QX, ZXY, qx, zxy, zz


class TestValidate:
    def test_t4_valid(self, t4):
        assert t4.validate() == []
        t4.require_valid()

    def test_single_vertex_valid(self, single_vertex):
        assert single_vertex.validate() == []

    def test_disconnected(self):
        g = LabeledGraph(ZZ, [zz(1), zz(1)], [])
        assert any("disconnected" in v for v in g.validate())

    def test_self_loop(self):
        g = LabeledGraph(ZZ, [zz(1), zz(1)], [(0, 0, zz(2)), (0, 1, zz(2))])
        assert any("self-loop" in v for v in g.validate())

    def test_zero_labels_named(self):
        g = LabeledGraph(ZZ, [zz(0), zz(1)], [(0, 1, zz(0))], names=("a", "b"))
        violations = g.validate()
        assert any("vertex a" in v for v in violations)
        assert any("edge 1" in v for v in violations)

    def test_ring_mismatch(self):
        g = LabeledGraph(ZZ, [zz(1), zxy("x")], [(0, 1, zz(2))])
        assert any("ring mismatch" in v for v in g.validate())

    def test_duplicate_names(self):
        g = LabeledGraph(ZZ, [zz(1), zz(1)], [(0, 1, zz(2))], names=("a", "a"))
        assert any("unique" in v for v in g.validate())

    def test_no_vertices(self):
        g = LabeledGraph(ZZ, [], [])
        assert any("no vertices" in v for v in g.validate())

    def test_parallel_edges_allowed(self):
        g = LabeledGraph(ZZ, [zz(1), zz(1)], [(0, 1, zz(2)), (0, 1, zz(3))])
        assert g.validate() == []


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


class TestTrailConstraint:
    def test_c3_symbolic_shape(self):
        g = LabeledGraph(
            ZXY,
            [zxy("x"), zxy("x"), zxy("x")],
            [(0, 1, zxy("x*y")), (1, 2, zxy("y^2")), (0, 2, zxy("y^3"))],
        )
        # lcm(r1, gcd(r2, r3)) for the two v2 -> v1 trails
        expected = lcm_many(
            [zxy("x*y"), gcd_many([zxy("y^2"), zxy("y^3")], ZXY)], ZXY
        )
        assert trail_constraint(g, 1, 0) == expected

    def test_single_edge(self, p2):
        assert trail_constraint(p2, 1, 0) == zz(4)

    def test_c3_integers(self, c3_int):
        assert trail_constraint(c3_int, 1, 0) == zz(2)  # lcm(2, gcd(3, 5))
        assert trail_constraint(c3_int, 2, 0) == zz(5)
        assert trail_constraint(c3_int, 2, 1) == zz(3)

    def test_every_trail_gcd_divides_aggregate(self):
        from egsplines.rings import divides

        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=4, edge_density=0.5, label_bound=30))
            for j in range(g.n):
                for i in range(g.n):
                    if i == j:
                        continue
                    aggregate = trail_constraint(g, j, i)
                    for t in trails_between(g, j, i):
                        assert divides(gcd_many(t.edge_labels(g), g.ring), aggregate)

    def test_pruned_matches_literal_enumeration(self):
        # the closure table against literal trail enumeration, every ordered
        # pair, on ZZ, QQ[x] and ZZ[x,y] graphs with up to 6 vertices; a
        # trail's gcd depends only on its edge set, so each set counts once
        graphs = [
            random_instance(InstanceSpec(seed=seed, n=2 + seed % 5, edge_density=0.4, label_bound=30))
            for seed in range(40)
        ]
        qx_pool = [qx("x"), qx("x+1"), qx("2*x-1"), qx("x^2+1"), qx("3")]
        zxy_pool = [zxy("x"), zxy("y"), zxy("x+y"), zxy("2"), zxy("x*y+1")]
        for seed in range(12):
            graphs.append(_random_graph(QX, qx_pool, seed, 2 + seed % 5))
            graphs.append(_random_graph(ZXY, zxy_pool, seed, 2 + seed % 5))
        graphs = [g for g in graphs if len(g.edges) <= 9]
        assert sum(_has_parallel_edges(g) for g in graphs) >= 5
        for g in graphs:
            for j in range(g.n):
                for i in range(g.n):
                    if i == j:
                        continue
                    edge_sets = {frozenset(t.edges) for t in trails_between(g, j, i)}
                    values = [
                        gcd_many([g.edges[idx].label for idx in edges], g.ring)
                        for edges in edge_sets
                    ]
                    assert trail_constraint(g, j, i) == lcm_many(values, g.ring), (g, j, i)

    def test_maximal_only_can_differ(self):
        # three parallel edges: the lcm of the parallel labels, since each
        # single-edge trail counts and a longer trail's gcd divides them
        g = LabeledGraph(
            ZZ, [zz(1), zz(1)], [(0, 1, zz(4)), (0, 1, zz(6)), (0, 1, zz(10))]
        )
        assert trail_constraint(g, 1, 0) == zz(60)  # lcm(4, 6, 10, gcd)

    def test_same_endpoint_rejected(self, c3_int):
        with pytest.raises(ValueError):
            trail_constraint(c3_int, 1, 1)


def _random_graph(ring, pool, seed, n):
    """Connected graph whose labels are products of 1-3 pool elements.

    A random spanning tree plus random extra pairs, repeats allowed, so
    parallel edges occur; shared pool factors make gcds nontrivial.
    """
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [rng.sample(range(n), 2) for _ in range(rng.randrange(n + 2))]

    def label():
        out = ring.one
        for f in rng.choices(pool, k=rng.randint(1, 3)):
            out = out * f
        return out

    return LabeledGraph(ring, [label() for _ in range(n)], [(u, v, label()) for u, v in pairs])


def _has_parallel_edges(g):
    pairs = [e.endpoints() for e in g.edges]
    return len(set(pairs)) < len(pairs)
