import itertools

import pytest

from egsplines.graph import LabeledGraph
from egsplines.oracle import (
    InstanceSpec,
    brute_minimal_leading_entry,
    enumerate_small_splines,
    random_instance,
)
from egsplines.rings import ZZ, gcd
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
            g = random_instance(spec)
            assert g.validate() == []
            for label in list(g.vertex_labels) + [e.label for e in g.edges]:
                assert 1 <= label.value <= 13

    def test_coprime_mode(self):
        for seed in range(20):
            g = random_instance(InstanceSpec(seed=seed, n=5, edge_density=0.6, coprime=True))
            assert g.validate() == []
            assert coprime_label_violation(g) is None
            labels = [x.value for x in g.vertex_labels] + [e.label.value for e in g.edges]
            for a, b in itertools.combinations(labels, 2):
                assert gcd(zz(a), zz(b)) == ZZ.one
