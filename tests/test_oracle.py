import itertools
import math
import time

import pytest

from egsplines.graph import LabeledGraph
from egsplines.oracle import (
    InstanceSpec,
    brute_minimal_leading_entry,
    enumerate_small_splines,
    random_instance,
    trails_between,
)
from egsplines.rings import ZZ
from egsplines.splines import coprime_label_violation, is_spline

from conftest import zz


class TestBruteMinimalLeadingEntry:
    def test_p2(self, p2):
        assert brute_minimal_leading_entry(p2, 0, 48) == 2
        assert brute_minimal_leading_entry(p2, 1, 48) == 12

    def test_single_vertex(self, single_vertex):
        assert brute_minimal_leading_entry(single_vertex, 0, 20) == 5

    def test_c3(self, c3_int):
        assert brute_minimal_leading_entry(c3_int, 0, 180) == 4
        assert brute_minimal_leading_entry(c3_int, 1, 180) == 6
        assert brute_minimal_leading_entry(c3_int, 2, 180) == 45

    def test_not_found_within_bound(self, c3_int):
        assert brute_minimal_leading_entry(c3_int, 2, 40) is None

    def test_rejects_polynomial_rings(self, t4):
        with pytest.raises(ValueError):
            brute_minimal_leading_entry(t4, 0, 10)

    def test_index_out_of_range_rejected(self):
        # -1 would otherwise read the last vertex's labels: 5 here, where
        # the entry at index 2 is 30
        g = LabeledGraph(ZZ, [zz(2), zz(3), zz(5)], [(0, 1, zz(4)), (1, 2, zz(6))])
        for index in (-1, 3):
            with pytest.raises(ValueError, match="0..2"):
                brute_minimal_leading_entry(g, index, 1000)
        assert brute_minimal_leading_entry(g, 2, 1000) == 30

    def test_witness_exists_at_answer(self, c3_int):
        # a flow-up spline with the reported leading value must exist among
        # bounded candidates: exhibit one by enumeration at the right scale
        found = [
            s
            for s in enumerate_small_splines(c3_int, 45)
            if s.components[0].value == 0
            and s.components[1].value == 0
            and s.components[2].value == 45
        ]
        assert found


class TestLeastEntryByEnumeration:
    """brute_minimal_leading_entry against its literal definition: the least
    positive value at `index` among the splines that vanish below it.

    With L the lcm of all labels, L at `index` and 0 elsewhere is a spline,
    and adding a multiple of L to one component keeps a spline, so a witness
    with every component in [-L, L] exists: enumeration to L is complete.
    """

    def test_matches_enumeration(self):
        checked = beyond_forced = 0
        for seed in range(100):
            spec = InstanceSpec(seed=seed, n=3 + seed % 2, edge_density=0.5, label_bound=8)
            g = random_instance(spec)
            labels = [x.value for x in g.vertex_labels] + [e.label.value for e in g.edges]
            bound = math.lcm(*labels)
            if bound > 60:  # keeps the enumeration small
                continue
            small = enumerate_small_splines(g, bound)
            for index in range(g.n):
                least = min(
                    s.values[index]
                    for s in small
                    if s.values[index] > 0 and not any(s.values[:index])
                )
                assert brute_minimal_leading_entry(g, index, bound) == least
                assert brute_minimal_leading_entry(g, index, least) == least
                assert brute_minimal_leading_entry(g, index, least - 1) is None
                down = [e.label.value for e in g.edges if min(e.u, e.v) < index == max(e.u, e.v)]
                beyond_forced += least != math.lcm(labels[index], *down)
                checked += 1
        # the cases where the answer is not the lcm of the forced labels
        # are the ones the residue search decides
        assert (checked, beyond_forced) == (83, 18)


class TestLargePrimePower:
    """Vertex labels 1, 1, 1 and edges v1-v3, v2-v3 labelled 2^40: at v2
    nothing is forced, and the least leading entry is 2^40."""

    @pytest.fixture
    def graph(self):
        return LabeledGraph(ZZ, [zz(1)] * 3, [(0, 2, zz(2**40)), (1, 2, zz(2**40))])

    def test_least_entries(self, graph):
        assert [brute_minimal_leading_entry(graph, i, 2**40) for i in range(3)] == [
            1,
            2**40,
            2**40,
        ]

    def test_bound_not_reached(self, graph):
        assert brute_minimal_leading_entry(graph, 1, 2**40 - 1) is None
        assert brute_minimal_leading_entry(graph, 1, 0) is None


class TestEnumerateSmallSplines:
    def test_p2_bound_six(self, p2):
        values = [[c.value for c in s.components] for s in enumerate_small_splines(p2, 6)]
        assert [4, 0] in values
        assert [2, 6] in values
        assert [-2, -6] in values
        assert [0, 12] not in values  # excluded by the bound

    def test_bound_zero(self, p2):
        assert [
            [c.value for c in s.components] for s in enumerate_small_splines(p2, 0)
        ] == [[0, 0]]

    def test_single_vertex(self, single_vertex):
        values = sorted(
            s.components[0].value for s in enumerate_small_splines(single_vertex, 11)
        )
        assert values == [-10, -5, 0, 5, 10]

    def test_deterministic_order(self, p2):
        first = enumerate_small_splines(p2, 8)
        second = enumerate_small_splines(p2, 8)
        assert [s.components for s in first] == [s.components for s in second]

    def test_complete_within_bound(self, p2):
        bound = 12
        enumerated = {
            tuple(c.value for c in s.components)
            for s in enumerate_small_splines(p2, bound)
        }
        for f1 in range(-bound, bound + 1):
            for f2 in range(-bound, bound + 1):
                candidate = (f1, f2)
                ok = is_spline(p2, [zz(f1), zz(f2)])
                assert (candidate in enumerated) == ok

    def test_all_enumerated_are_splines(self, c3_int):
        for s in enumerate_small_splines(c3_int, 20):
            assert is_spline(c3_int, s.components)


def _negated(g):
    return LabeledGraph(
        g.ring, [-m for m in g.vertex_labels], [(e.u, e.v, -e.label) for e in g.edges]
    )


class TestLongPath:
    """A 1,100-vertex path, deeper than Python's default recursion limit:
    the searches keep their own stacks, so their depth does not grow with
    the graph."""

    N = 1100

    @pytest.fixture(scope="class")
    def path(self):
        edges = [(v, v + 1, zz(3 if v % 2 == 0 else 2)) for v in range(self.N - 1)]
        return LabeledGraph(ZZ, [zz(1)] * self.N, edges)

    def test_residue_search(self, path):
        assert brute_minimal_leading_entry(path, 0, 1) == 1

    def test_bound_below_forced_step(self, path):
        # past v1 every forced step is 2 or 3, so no search is needed
        start = time.perf_counter()
        found = [brute_minimal_leading_entry(path, i, 1) for i in range(self.N)]
        assert time.perf_counter() - start < 2.0
        assert found == [1] + [None] * (self.N - 1)

    def test_enumeration(self, path):
        (spline,) = enumerate_small_splines(path, 0)
        assert all(x.is_zero for x in spline.components)

    def test_trails(self, path):
        (trail,) = trails_between(path, 0, self.N - 1)
        assert trail.edges == tuple(range(self.N - 1))
        assert trail.vertices == tuple(range(self.N))


class TestNegativeLabels:
    # m*ZZ = (-m)*ZZ, so negating every label changes no answer
    def test_two_vertex(self):
        pos = LabeledGraph(ZZ, [zz(1), zz(4)], [(0, 1, zz(2))])
        neg = _negated(pos)
        assert [brute_minimal_leading_entry(neg, i, 16) for i in range(2)] == [2, 4]
        splines = [s.components for s in enumerate_small_splines(neg, 8)]
        assert len(splines) == 45
        assert splines == [s.components for s in enumerate_small_splines(pos, 8)]

    def test_c3(self, c3_int):
        neg = _negated(c3_int)
        assert [brute_minimal_leading_entry(neg, i, 180) for i in range(3)] == [4, 6, 45]
        assert [s.components for s in enumerate_small_splines(neg, 18)] == [
            s.components for s in enumerate_small_splines(c3_int, 18)
        ]


class TestRandomInstance:
    def test_deterministic(self):
        spec = InstanceSpec(seed=1, n=1, label_bound=10)
        g1, g2 = random_instance(spec), random_instance(spec)
        assert [a.value for a in g1.vertex_labels] == [a.value for a in g2.vertex_labels]
        assert len(g1.edges) == len(g2.edges) == 0

    def test_validates_and_in_bounds(self):
        for seed in range(30):
            spec = InstanceSpec(seed=seed, n=5, edge_density=0.5, label_bound=13)
            g = random_instance(spec)  # built, so valid
            for label in list(g.vertex_labels) + [e.label for e in g.edges]:
                assert 1 <= label.value <= 13

    def test_coprime_mode(self):
        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=5, edge_density=0.6, coprime=True))
            assert coprime_label_violation(g) is None
            labels = [x.value for x in g.vertex_labels] + [e.label.value for e in g.edges]
            for a, b in itertools.combinations(labels, 2):
                assert ZZ.gcd(a, b) == 1
