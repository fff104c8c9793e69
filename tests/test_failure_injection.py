"""Failure-injection tests: how the runtime behaves when things break.

The policy suites at the bottom pin the end-to-end recovery contract of
``imm_dist``: retry exhaustion surfaces the typed error, respawn is
bit-exact, shrink degrades honestly and conserves the work meters.
"""

import numpy as np
import pytest

from repro.mpi import (
    Allreduce,
    RankFailedError,
    SimulatedOOMError,
    TransientCommError,
    imm_dist,
    run_spmd,
)
from repro.sampling import SortedRRRCollection


class TestSpmdFailurePropagation:
    def test_rank_exception_aborts_job(self):
        """A raising rank kills the whole SPMD run (like mpirun abort),
        not just its own generator."""

        def program(rank, size):
            if rank == 2:
                raise RuntimeError("rank 2 exploded")
            yield Allreduce(np.array([rank]))
            return rank

        with pytest.raises(RuntimeError, match="rank 2 exploded"):
            run_spmd(4, program)

    def test_exception_after_collective(self):
        def program(rank, size):
            total = yield Allreduce(np.array([1]))
            if rank == 0 and int(total[0]) == 3:
                raise ValueError("post-collective failure")
            return rank

        with pytest.raises(ValueError, match="post-collective"):
            run_spmd(3, program)

    def test_oom_aborts_distributed_run_cleanly(self, ba_graph):
        """A simulated OOM inside one rank's sampling surfaces as the
        typed error (the experiment harness records a missing point)."""
        with pytest.raises(SimulatedOOMError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=4, seed=1, mem_per_node=10)

    def test_run_usable_after_failure(self, ba_graph):
        """A failed run leaves no residue: the same call with a sane
        limit succeeds afterwards (no global state)."""
        with pytest.raises(SimulatedOOMError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, seed=1, mem_per_node=10)
        res = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, seed=1)
        assert len(res.seeds) == 5


class TestCollectionMisuse:
    def test_flattened_view_consistent_after_interleaved_use(self):
        """Alternating reads and appends must never serve a stale cache
        (the EstimateTheta loop does exactly this)."""
        coll = SortedRRRCollection(10)
        coll.append(np.array([1, 2], np.int32))
        flat1, _ = coll.flattened()
        counters1 = coll.counters()
        coll.append(np.array([2, 3], np.int32))
        flat2, _ = coll.flattened()
        counters2 = coll.counters()
        assert len(flat2) == 4
        assert counters2[2] == counters1[2] + 1

    def test_generator_program_type_error(self):
        """A non-generator 'program' fails loudly, not silently."""

        def not_a_generator(rank, size):
            return rank  # forgot to yield

        with pytest.raises((TypeError, AttributeError)):
            run_spmd(2, not_a_generator)

    def test_generators_closed_after_injected_abort(self):
        """An aborted SPMD run delivers GeneratorExit to every rank
        program — no dangling generators holding buffers."""
        closed = []

        def program(rank, size):
            try:
                yield Allreduce(np.array([rank]))
                yield Allreduce(np.array([rank]))
            finally:
                closed.append(rank)

        with pytest.raises(RankFailedError):
            run_spmd(3, program, faults=_plan("crash:1@1"))
        assert sorted(closed) == [0, 1, 2]


def _plan(spec):
    from repro.mpi import FaultPlan

    return FaultPlan.parse(spec)


def _dist(graph, **kw):
    kw.setdefault("k", 4)
    kw.setdefault("eps", 0.5)
    kw.setdefault("num_nodes", 3)
    kw.setdefault("seed", 2)
    kw.setdefault("theta_cap", 120)
    return imm_dist(graph, **kw)


class TestAbortPolicy:
    def test_crash_propagates_by_default(self, ba_graph):
        with pytest.raises(RankFailedError, match="rank 1"):
            _dist(ba_graph, fault_plan="crash:1@3")

    def test_transient_propagates_by_default(self, ba_graph):
        with pytest.raises(TransientCommError):
            _dist(ba_graph, fault_plan="transient:@2")

    def test_unknown_policy_rejected(self, ba_graph):
        with pytest.raises(ValueError, match="policy"):
            _dist(ba_graph, policy="hope")


class TestRetryPolicy:
    def test_transient_healed_and_metered(self, ba_graph):
        base = _dist(ba_graph)
        res = _dist(ba_graph, fault_plan="transient:@2x2", policy="retry")
        np.testing.assert_array_equal(base.seeds, res.seeds)
        assert res.theta == base.theta
        rec = res.extra["recovery"]
        assert rec["retries"] == 2
        calls, _ = res.extra["comm_by_label"]["retry"]
        assert calls == 2
        assert res.extra["recovery_seconds"] > 0

    def test_exhaustion_surfaces_typed_error(self, ba_graph):
        with pytest.raises(TransientCommError, match="still failing"):
            _dist(
                ba_graph, fault_plan="transient:@2x9", policy="retry",
                max_retries=2,
            )


class TestRespawnPolicy:
    def test_bitexact_and_work_conserved(self, ba_graph):
        base = _dist(ba_graph)
        res = _dist(ba_graph, fault_plan="crash:2@4", policy="respawn")
        np.testing.assert_array_equal(base.seeds, res.seeds)
        assert res.theta == base.theta
        assert res.extra["coverage_history"] == base.extra["coverage_history"]
        assert not res.extra["degraded"]
        rec = res.extra["recovery"]
        assert rec["respawns"] == 1 and rec["respawned_ranks"] == [2]
        # first-time sampling work is identical; the respawn surcharge
        # is carried separately in the modeled time
        assert res.num_samples == base.num_samples
        assert res.extra["recovery_seconds"] > 0

    def test_phase_addressed_crash(self, ba_graph):
        base = _dist(ba_graph)
        res = _dist(
            ba_graph, fault_plan="crash:0@phase=SelectSeeds", policy="respawn"
        )
        np.testing.assert_array_equal(base.seeds, res.seeds)
        assert res.extra["recovery"]["respawns"] == 1

    def test_leapfrog_scheme_can_respawn(self, ba_graph):
        # generic history replay does not need counter-addressable RNG
        base = _dist(ba_graph, rng_scheme="leapfrog")
        res = _dist(
            ba_graph, rng_scheme="leapfrog", fault_plan="crash:1@3",
            policy="respawn",
        )
        np.testing.assert_array_equal(base.seeds, res.seeds)


class TestShrinkPolicy:
    def test_late_crash_degrades_honestly(self, ba_graph):
        res = _dist(
            ba_graph, fault_plan="crash:2@phase=SelectSeeds", policy="shrink"
        )
        ex = res.extra
        assert ex["degraded"]
        assert ex["alive_ranks"] == [0, 1]
        assert ex["theta_effective"] + ex["lost_samples"] == res.theta
        assert ex["epsilon_effective"] > res.epsilon
        # the work meters account exactly for the surviving samples
        assert res.num_samples == ex["theta_effective"]

    def test_early_crash_redeals_losslessly(self, ba_graph):
        base = _dist(ba_graph)
        res = _dist(ba_graph, fault_plan="crash:0@0", policy="shrink")
        assert not res.extra["degraded"]
        np.testing.assert_array_equal(base.seeds, res.seeds)
        assert res.theta == base.theta

    def test_oom_absorbed_by_shrink(self, ba_graph):
        res = _dist(ba_graph, fault_plan="oom:1@3", policy="shrink")
        assert res.extra["recovery"]["dead_ranks"] == [1]
        assert 1 not in res.extra["alive_ranks"]

    def test_leapfrog_shrink_rejected(self, ba_graph):
        with pytest.raises(ValueError, match="per-sample"):
            _dist(
                ba_graph, rng_scheme="leapfrog", fault_plan="crash:0@0",
                policy="shrink",
            )


class TestStragglerPricing:
    def test_straggler_slows_but_does_not_change_output(self, ba_graph):
        base = _dist(ba_graph)
        res = _dist(ba_graph, fault_plan="straggler:1x8")
        np.testing.assert_array_equal(base.seeds, res.seeds)
        assert res.breakdown.total > base.breakdown.total
