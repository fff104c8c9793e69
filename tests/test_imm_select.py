"""Tests for greedy seed selection (repro.imm.select)."""

import itertools

import numpy as np
import pytest

from repro.imm import select_seeds
from repro.sampling import HypergraphRRRCollection, SortedRRRCollection


def build(sets, n, layout):
    coll = (SortedRRRCollection if layout == "sorted" else HypergraphRRRCollection)(n)
    for s in sets:
        coll.append(np.asarray(sorted(s), np.int32))
    return coll


def brute_force_cover(sets, n, k):
    """Optimal max-coverage by exhaustive search (small instances only)."""
    best = -1
    for combo in itertools.combinations(range(n), k):
        chosen = set(combo)
        covered = sum(1 for s in sets if chosen & set(s))
        best = max(best, covered)
    return best


SETS = [
    {0, 1, 2},
    {1, 2},
    {2, 3},
    {3},
    {4},
    {0, 4},
]


class TestGreedyCorrectness:
    def test_first_pick_is_max_count(self):
        coll = build(SETS, 5, "sorted")
        sel = select_seeds(coll, 5, 1)
        # vertex 2 appears in 3 sets — the unique max
        assert sel.seeds.tolist() == [2]
        assert sel.covered_samples == 3

    def test_coverage_counts_match_manual(self):
        coll = build(SETS, 5, "sorted")
        sel = select_seeds(coll, 5, 2)
        # after 2: remaining sets {3}, {4}, {0,4}; best second = 4 (covers 2)
        assert sel.seeds.tolist() == [2, 4]
        assert sel.covered_samples == 5

    def test_greedy_achieves_63_percent_of_optimum(self):
        """(1 - 1/e) guarantee of greedy max-coverage, checked against
        brute force on random small instances."""
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = 8
            sets = [
                set(rng.choice(n, size=rng.integers(1, 4), replace=False).tolist())
                for _ in range(12)
            ]
            k = 3
            coll = build(sets, n, "sorted")
            sel = select_seeds(coll, n, k)
            optimum = brute_force_cover(sets, n, k)
            assert sel.covered_samples >= (1 - 1 / np.e) * optimum - 1e-9

    def test_ties_break_to_smallest_id(self):
        coll = build([{3}, {1}], 5, "sorted")
        sel = select_seeds(coll, 5, 1)
        assert sel.seeds.tolist() == [1]

    def test_k_larger_than_useful_vertices(self):
        coll = build([{0}, {1}], 3, "sorted")
        sel = select_seeds(coll, 3, 3)
        assert len(sel.seeds) == 3
        assert len(set(sel.seeds.tolist())) == 3  # no duplicate seeds
        assert sel.covered_samples == 2


class TestLayoutEquivalence:
    def test_identical_seeds_on_random_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            n = 20
            sets = [
                set(rng.choice(n, size=rng.integers(1, 6), replace=False).tolist())
                for _ in range(40)
            ]
            a = select_seeds(build(sets, n, "sorted"), n, 5)
            b = select_seeds(build(sets, n, "hypergraph"), n, 5)
            assert a.seeds.tolist() == b.seeds.tolist()
            assert a.covered_samples == b.covered_samples

    def test_dispatch_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            select_seeds([], 5, 1)


class TestMetering:
    def test_per_rank_entries_sum_to_total_work(self):
        coll = build(SETS, 5, "sorted")
        one = select_seeds(coll, 5, 2, num_ranks=1)
        four = select_seeds(build(SETS, 5, "sorted"), 5, 2, num_ranks=4)
        assert four.per_rank_entries.sum() == one.per_rank_entries.sum()
        assert four.num_ranks == 4

    def test_counting_pass_work_equals_entries(self):
        coll = build(SETS, 5, "sorted")
        sel = select_seeds(coll, 5, 1)
        # counting pass scans every incidence once at minimum
        assert sel.entries_scanned >= coll.total_entries
        assert sel.counter_updates >= coll.total_entries

    def test_argmax_scans(self):
        coll = build(SETS, 5, "sorted")
        sel = select_seeds(coll, 5, 3)
        assert sel.argmax_scans == 3 * 5

    def test_coverage_fraction(self):
        coll = build(SETS, 5, "sorted")
        sel = select_seeds(coll, 5, 2)
        assert sel.coverage_fraction(len(coll)) == pytest.approx(5 / 6)
        assert sel.coverage_fraction(0) == 0.0


class TestTieBreakContract:
    """Equal membership counts must resolve to the smallest vertex id in
    *every* selector — the cross-implementation contract the equivalence
    oracle (repro.validate) relies on."""

    # counts: vertex 2 -> 2, vertex 4 -> 2 (tied); all others 0 or less.
    TIED_SETS = [{2}, {2, 4}, {4}]
    N = 6

    def _run_dist(self, partitions, n, k):
        """Drive _dist_select via the real SPMD harness, one partition of
        the sample space per rank."""
        from repro.mpi.comm import run_spmd
        from repro.mpi.distributed import _dist_select

        out = {}

        def program(rank, size):
            coll = build(partitions[rank], n, "sorted")
            seeds, covered, _ = yield from _dist_select(coll, n, k)
            out[rank] = (seeds.tolist(), covered)
            return rank

        run_spmd(len(partitions), program)
        return out

    def test_sorted_breaks_tie_to_smallest(self):
        sel = select_seeds(build(self.TIED_SETS, self.N, "sorted"), self.N, 2)
        assert sel.seeds.tolist() == [2, 4]

    def test_hypergraph_breaks_tie_to_smallest(self):
        sel = select_seeds(
            build(self.TIED_SETS, self.N, "hypergraph"), self.N, 2
        )
        assert sel.seeds.tolist() == [2, 4]

    def test_dist_breaks_tie_to_smallest_single_rank(self):
        out = self._run_dist([self.TIED_SETS], self.N, 2)
        assert out[0] == ([2, 4], 3)

    def test_dist_breaks_tie_to_smallest_two_ranks(self):
        # Split the tied sets across ranks: the tie now only exists in the
        # All-Reduced global counters, never in any local view.
        parts = [[{2}, {4}], [{2, 4}]]
        out = self._run_dist(parts, self.N, 2)
        assert out[0][0] == [2, 4]
        assert out[1][0] == [2, 4]  # every rank agrees on the argmax
        assert out[0][1] == 3  # global covered total is All-Reduced too

    def test_all_three_selectors_agree_on_random_ties(self):
        """Random instances engineered to be tie-rich (tiny vertex range,
        many duplicate sets)."""
        rng = np.random.default_rng(11)
        for trial in range(6):
            n = 6
            sets = [
                set(rng.choice(n, size=rng.integers(1, 3), replace=False).tolist())
                for _ in range(10)
            ]
            a = select_seeds(build(sets, n, "sorted"), n, 3).seeds.tolist()
            b = select_seeds(
                build(sets, n, "hypergraph"), n, 3
            ).seeds.tolist()
            parts = [sets[0::2], sets[1::2]]
            out = self._run_dist(parts, n, 3)
            assert a == b == out[0][0] == out[1][0]


class TestValidation:
    def test_bad_k(self):
        coll = build(SETS, 5, "sorted")
        with pytest.raises(ValueError):
            select_seeds(coll, 5, 0)
        with pytest.raises(ValueError):
            select_seeds(coll, 5, 6)

    def test_bad_ranks(self):
        coll = build(SETS, 5, "sorted")
        with pytest.raises(ValueError):
            select_seeds(coll, 5, 1, num_ranks=0)

    def test_hypergraph_bad_k(self):
        coll = build(SETS, 5, "hypergraph")
        with pytest.raises(ValueError):
            select_seeds(coll, 5, 0)
