"""Tests for checkpoint state and ownership algebra (repro.mpi.checkpoint)."""

import numpy as np
import pytest

from repro.mpi import (
    DistCheckpoint,
    imm_dist,
    initial_deals,
    live_count,
    owned_indices,
    rebuild_partition,
    shrink_deals,
)
from repro.mpi.checkpoint import _epochs
from repro.sampling import BatchedRRRSampler, SortedRRRCollection


class TestDealsAlgebra:
    def test_initial_deals_is_one_strided_epoch(self):
        assert initial_deals(4) == ((0, (0, 1, 2, 3)),)
        with pytest.raises(ValueError):
            initial_deals(0)

    def test_owned_indices_stride(self):
        deals = initial_deals(3)
        assert owned_indices(deals, 1, 0, 10).tolist() == [1, 4, 7]
        assert owned_indices(deals, 0, 4, 10).tolist() == [6, 9]
        assert owned_indices(deals, 2, 0, 0).tolist() == []

    def test_ownership_partitions_every_index(self):
        deals = shrink_deals(initial_deals(4), 7, (0, 2, 3))
        claimed = np.concatenate(
            [owned_indices(deals, r, 0, 30) for r in range(4)]
        )
        assert sorted(claimed.tolist()) == list(range(30))

    def test_shrink_freezes_history_and_redeals_tail(self):
        deals = shrink_deals(initial_deals(4), 8, (0, 2, 3))
        assert deals == ((0, (0, 1, 2, 3)), (8, (0, 2, 3)))
        # dead rank 1 keeps only its pre-cursor indices
        assert owned_indices(deals, 1, 0, 20).tolist() == [1, 5]
        # the tail is strided over the survivors: owner of j is
        # ranks[j % 3] with ranks = (0, 2, 3), so 0 owns 9 and 12 here
        assert owned_indices(deals, 0, 8, 14).tolist() == [9, 12]

    def test_shrink_at_zero_loses_nothing(self):
        deals = shrink_deals(initial_deals(4), 0, (0, 2))
        assert deals == ((0, (0, 2)),)
        assert live_count(deals, (0, 2), 100) == 100

    def test_shrink_to_zero_ranks_rejected(self):
        with pytest.raises(ValueError, match="zero ranks"):
            shrink_deals(initial_deals(2), 5, ())

    def test_live_count(self):
        deals = initial_deals(4)
        assert live_count(deals, (0, 1, 2, 3), 100) == 100  # fast path
        # rank 1 owned indices 1, 5, 9, ... -> 3 of the first 10 are dead
        assert live_count(deals, (0, 2, 3), 10) == 7
        shrunk = shrink_deals(deals, 10, (0, 2, 3))
        assert live_count(shrunk, (0, 2, 3), 10) == 7
        # everything past the cursor is owned by survivors again
        assert live_count(shrunk, (0, 2, 3), 22) == 19

    def test_epoch_clipping(self):
        deals = ((0, (0, 1)), (6, (0,)))
        segs = list(_epochs(deals, 4, 9))
        assert segs == [(4, 6, (0, 1)), (6, 9, (0,))]


class TestDistCheckpoint:
    @staticmethod
    def _make(**over):
        base = dict(
            stage="estimate",
            round=2,
            next_global=40,
            lb=123.5,
            theta=None,
            rounds_done=1,
            coverage_history=((20, 0.25),),
            deals=((0, (0, 1)),),
            alive=(0, 1),
            lost_samples=0,
            num_nodes=2,
            seed=7,
            k=5,
            eps=0.5,
            model="IC",
            n=300,
            rng_scheme="per-sample",
        )
        base.update(over)
        return DistCheckpoint(**base)

    def test_dict_round_trip(self):
        ck = self._make(stage="final", theta=160)
        assert DistCheckpoint.from_dict(ck.to_dict()) == ck

    def test_json_serializable(self):
        import json

        text = json.dumps(self._make().to_dict())
        assert DistCheckpoint.from_dict(json.loads(text)) == self._make()

    def test_key_identifies_state(self):
        assert self._make().key() == self._make().key()
        assert self._make().key() != self._make(next_global=41).key()

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            self._make(stage="halfway")


class TestRebuildPartition:
    def test_matches_direct_sampling(self, ba_graph):
        deals = initial_deals(3)
        seed = 11
        coll, js, per = rebuild_partition(ba_graph, "IC", deals, 1, 30, seed)
        assert js.tolist() == owned_indices(deals, 1, 0, 30).tolist()
        ref = SortedRRRCollection(ba_graph.n)
        ref_per = BatchedRRRSampler(ba_graph, "IC").sample_into(ref, js, seed)
        a_flat, a_indptr = coll.flattened()
        b_flat, b_indptr = ref.flattened()
        np.testing.assert_array_equal(a_flat, b_flat)
        np.testing.assert_array_equal(a_indptr, b_indptr)
        np.testing.assert_array_equal(per, ref_per)

    def test_empty_slice(self, ba_graph):
        coll, js, per = rebuild_partition(
            ba_graph, "IC", ((0, (0,)),), 1, 30, seed=0
        )
        assert len(coll) == 0 and len(js) == 0 and len(per) == 0


class TestImmDistCheckpointing:
    def test_sink_collects_deduped_trail(self, ba_graph):
        sink = []
        imm_dist(
            ba_graph, k=4, eps=0.5, num_nodes=2, seed=3, theta_cap=120,
            checkpoint_sink=sink,
        )
        keys = [(c["stage"], c["round"], c["next_global"]) for c in sink]
        assert len(keys) == len(set(keys))  # deduplicated
        assert keys[0][0] == "estimate" and keys[0][2] == 0
        assert sink[-1]["stage"] == "final"
        assert sink[-1]["theta"] == 120

    def test_resume_from_final_checkpoint_is_bitexact(self, ba_graph):
        sink = []
        base = imm_dist(
            ba_graph, k=4, eps=0.5, num_nodes=2, seed=3, theta_cap=120,
            checkpoint_sink=sink,
        )
        resumed = imm_dist(
            ba_graph, k=4, eps=0.5, num_nodes=2, seed=3, theta_cap=120,
            resume_from=sink[-1],
        )
        np.testing.assert_array_equal(base.seeds, resumed.seeds)
        assert base.theta == resumed.theta
        assert (
            base.extra["coverage_history"] == resumed.extra["coverage_history"]
        )

    @pytest.mark.parametrize("round_", [1, 2, 3])
    def test_resume_from_estimate_checkpoint_is_bitexact(self, ba_graph, round_):
        """Every estimate-stage checkpoint resumes to the uninterrupted
        run: the recorded rounds' fractions are fed back into the same
        search, which goes on from the checkpointed round."""
        sink = []
        base = imm_dist(
            ba_graph, k=4, eps=0.5, num_nodes=2, seed=3, checkpoint_sink=sink
        )
        estimates = [c for c in sink if c["stage"] == "estimate"]
        assert [c["round"] for c in estimates] == [1, 2, 3]
        trail = []
        resumed = imm_dist(
            ba_graph, k=4, eps=0.5, num_nodes=2, seed=3,
            resume_from=estimates[round_ - 1], checkpoint_sink=trail,
        )
        np.testing.assert_array_equal(base.seeds, resumed.seeds)
        assert (base.theta, base.lb, base.coverage) == (
            resumed.theta, resumed.lb, resumed.coverage
        )
        assert base.extra["coverage_history"] == resumed.extra["coverage_history"]
        assert trail == sink[round_:]  # every later checkpoint, rewritten as is

    def test_incompatible_resume_rejected(self, ba_graph):
        sink = []
        imm_dist(
            ba_graph, k=4, eps=0.5, num_nodes=2, seed=3, theta_cap=120,
            checkpoint_sink=sink,
        )
        with pytest.raises(ValueError, match="checkpoint"):
            imm_dist(
                ba_graph, k=4, eps=0.5, num_nodes=2, seed=4, theta_cap=120,
                resume_from=sink[-1],
            )
        with pytest.raises(ValueError, match="checkpoint"):
            imm_dist(
                ba_graph, k=5, eps=0.5, num_nodes=2, seed=3, theta_cap=120,
                resume_from=sink[-1],
            )
