"""Tests for the recovery-enabled SPMD runtime (repro.mpi.resilient)."""

import numpy as np
import pytest

from repro.mpi import (
    Allreduce,
    Barrier,
    Bcast,
    CommStats,
    FaultPlan,
    RankFailedError,
    SimulatedOOMError,
    TransientCommError,
    run_spmd,
    run_spmd_resilient,
)


def _program(rank, size):
    """Deterministic multi-collective program with per-rank local state."""
    local = np.array([rank + 1], dtype=np.int64)
    a = yield Allreduce(local)
    local = local * int(a[0])
    b = yield Allreduce(local, op="max")
    yield Barrier()
    c = yield Bcast(int(b[0]) if rank == 0 else None, root=0)
    return int(a[0]) * 1000 + c


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            run_spmd_resilient(2, _program, policy="pray")

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError, match="at least one rank"):
            run_spmd_resilient(0, _program)


class TestFaultFree:
    def test_matches_plain_runtime(self):
        base, base_stats = run_spmd(4, _program)
        for policy in ("abort", "retry", "respawn", "shrink"):
            results, stats, rlog = run_spmd_resilient(4, _program, policy=policy)
            assert results == base
            assert stats.calls == base_stats.calls
            assert stats.payload_bytes == base_stats.payload_bytes
            assert rlog.retries == rlog.respawns == rlog.shrinks == 0


class TestRetry:
    def test_transient_recovered_with_metered_backoff(self):
        base, _ = run_spmd(3, _program)
        results, stats, rlog = run_spmd_resilient(
            3, _program, policy="retry", faults=FaultPlan.parse("transient:@1x2")
        )
        assert results == base
        assert rlog.retries == 2
        assert rlog.backoff_seconds > 0
        retried = [c for c in stats.per_call if c.label == "retry"]
        assert len(retried) == 2

    def test_exhaustion_raises_typed_error(self):
        with pytest.raises(TransientCommError, match="after 3 attempt"):
            run_spmd_resilient(
                3,
                _program,
                policy="retry",
                faults=FaultPlan.parse("transient:@1x9"),
                max_retries=2,
            )

    def test_all_policies_absorb_transients(self):
        base, _ = run_spmd(3, _program)
        for policy in ("respawn", "shrink"):
            results, _, rlog = run_spmd_resilient(
                3, _program, policy=policy, faults=FaultPlan.parse("transient:@0")
            )
            assert results == base
            assert rlog.retries == 1

    def test_retry_does_not_absorb_crashes(self):
        with pytest.raises(RankFailedError):
            run_spmd_resilient(
                3, _program, policy="retry", faults=FaultPlan.parse("crash:1@1")
            )


class TestRespawn:
    def test_bitexact_after_crash(self):
        base, base_stats = run_spmd(4, _program)
        results, stats, rlog = run_spmd_resilient(
            4, _program, policy="respawn", faults=FaultPlan.parse("crash:2@2")
        )
        assert results == base
        assert rlog.respawns == 1
        assert rlog.respawned_ranks == [2]
        # the dead rank replayed its 2 completed collectives
        assert rlog.replayed_calls == 2
        replays = [c for c in stats.per_call if c.label == "replay"]
        assert len(replays) == 2
        # first-time traffic is unchanged; replay rides on top
        assert stats.calls == base_stats.calls + 2

    def test_multiple_crashes_multiple_respawns(self):
        base, _ = run_spmd(4, _program)
        results, _, rlog = run_spmd_resilient(
            4,
            _program,
            policy="respawn",
            faults=FaultPlan.parse("crash:0@1;crash:3@2"),
        )
        assert results == base
        assert rlog.respawns == 2
        assert sorted(rlog.respawned_ranks) == [0, 3]

    def test_oom_not_absorbed_by_respawn(self):
        # Respawning onto the same too-small node would just die again.
        with pytest.raises(SimulatedOOMError):
            run_spmd_resilient(
                3, _program, policy="respawn", faults=FaultPlan.parse("oom:1@1")
            )


class TestShrink:
    def test_survivors_restart_and_dead_rank_yields_none(self):
        shrink_calls = []
        results, _, rlog = run_spmd_resilient(
            4,
            _program,
            policy="shrink",
            faults=FaultPlan.parse("crash:1@2"),
            on_shrink=lambda dead, alive: shrink_calls.append((dead, alive)),
        )
        assert shrink_calls == [((1,), (0, 2, 3))]
        assert rlog.shrinks == 1 and rlog.dead_ranks == [1]
        assert results[1] is None
        # survivors re-ran the program with collectives combining only
        # over the alive set {0, 2, 3}: a = 1+3+4 = 8, b = max(4*8) = 32,
        # so every survivor returns 8*1000 + 32.
        assert [results[r] for r in (0, 2, 3)] == [8032] * 3
        # and the shrunken run is itself deterministic
        again, _, _ = run_spmd_resilient(
            4, _program, policy="shrink", faults=FaultPlan.parse("crash:1@2")
        )
        assert again == results

    def test_shrink_absorbs_oom(self):
        results, _, rlog = run_spmd_resilient(
            3, _program, policy="shrink", faults=FaultPlan.parse("oom:2@0")
        )
        assert rlog.dead_ranks == [2]
        assert results[2] is None

    def test_shrink_to_zero_ranks_propagates(self):
        with pytest.raises(RankFailedError):
            run_spmd_resilient(
                1, _program, policy="shrink", faults=FaultPlan.parse("crash:0@1")
            )


class TestGeneratorHygiene:
    def test_all_generators_closed_on_abort(self):
        closed = []

        def program(rank, size):
            try:
                yield Allreduce(np.array([rank]))
                yield Allreduce(np.array([rank]))
            finally:
                closed.append(rank)

        with pytest.raises(RankFailedError):
            run_spmd_resilient(
                3, program, policy="retry", faults=FaultPlan.parse("crash:1@1")
            )
        assert sorted(closed) == [0, 1, 2]

    def test_respawned_generator_closed_too(self):
        closed = []

        def program(rank, size):
            try:
                a = yield Allreduce(np.array([rank + 1], dtype=np.int64))
                b = yield Allreduce(a)
                return int(b[0])
            finally:
                closed.append(rank)

        results, _, rlog = run_spmd_resilient(
            3, program, policy="respawn", faults=FaultPlan.parse("crash:0@1")
        )
        assert rlog.respawns == 1
        # the crashed incarnation was closed plus every finished rank
        assert sorted(closed) == [0, 0, 1, 2]
        assert results == run_spmd(3, program)[0]

    def test_stats_phase_labels_survive_recovery(self):
        stats = CommStats()

        def program(rank, size):
            stats.set_phase("EstimateTheta")
            yield Allreduce(np.array([rank]))
            yield Allreduce(np.array([rank]))
            return None

        run_spmd_resilient(
            2,
            program,
            policy="respawn",
            faults=FaultPlan.parse("crash:1@1"),
            stats=stats,
        )
        labels = {c.label for c in stats.per_call}
        assert labels == {"EstimateTheta", "replay"}
