"""Tests for the fault-injection layer (repro.mpi.faults)."""

import numpy as np
import pytest

from repro.mpi import (
    Allreduce,
    Barrier,
    CommStats,
    CorruptReduce,
    FaultPlan,
    OOMKill,
    RankCrash,
    RankFailedError,
    SimulatedOOMError,
    Straggler,
    TransientCommError,
    TransientFault,
    run_spmd,
)


class TestPlanGrammar:
    def test_crash_at_step(self):
        plan = FaultPlan.parse("crash:1@3")
        assert plan.events == (RankCrash(rank=1, at_call=3),)

    def test_crash_at_phase(self):
        plan = FaultPlan.parse("crash:1@phase=Sample")
        assert plan.events == (RankCrash(rank=1, at_phase="Sample"),)

    def test_oom(self):
        (event,) = FaultPlan.parse("oom:2@4").events
        assert isinstance(event, OOMKill)
        assert (event.rank, event.at_call) == (2, 4)

    def test_straggler_with_and_without_factor(self):
        plan = FaultPlan.parse("straggler:2x4.0; straggler:1")
        assert plan.events == (Straggler(2, 4.0), Straggler(1, 2.0))

    def test_transient_with_and_without_count(self):
        plan = FaultPlan.parse("transient:@5, transient:@6x2")
        assert plan.events == (TransientFault(5, 1), TransientFault(6, 2))

    def test_corrupt(self):
        plan = FaultPlan.parse("corrupt:0@1")
        assert plan.events == (CorruptReduce(0, 1),)

    def test_mixed_separators_and_whitespace(self):
        plan = FaultPlan.parse(" crash:0@1 ; straggler:1x3 , transient:@2 ")
        assert len(plan.events) == 3

    @pytest.mark.parametrize(
        "bad",
        ["crash:1", "crash@3", "oom:1@phase=Sample", "wobble:1@2", "crash:x@3"],
    )
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_describe_round_trips_the_intent(self):
        text = FaultPlan.parse("crash:1@3;straggler:0x4").describe()
        assert "crash rank 1 at step 3" in text
        assert "straggler rank 0 x4" in text
        assert FaultPlan().describe() == "no faults"


class TestEventValidation:
    def test_crash_needs_exactly_one_address(self):
        with pytest.raises(ValueError, match="exactly one"):
            RankCrash(rank=0)
        with pytest.raises(ValueError, match="exactly one"):
            RankCrash(rank=0, at_call=1, at_phase="Sample")

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            RankCrash(rank=0, at_call=-1)

    def test_straggler_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            Straggler(0, 0.5)

    def test_transient_needs_positive_failures(self):
        with pytest.raises(ValueError, match=">= 1"):
            TransientFault(0, 0)

    def test_plan_rejects_non_events(self):
        with pytest.raises(TypeError, match="not a fault event"):
            FaultPlan(("crash:0@1",))


class TestInjectorSemantics:
    def test_crash_is_one_shot(self):
        inj = FaultPlan((RankCrash(rank=1, at_call=0),)).injector()
        with pytest.raises(RankFailedError) as exc:
            inj.check_rank(1)
        assert (exc.value.rank, exc.value.step) == (1, 0)
        inj.check_rank(1)  # consumed: must not re-fire

    def test_crash_fires_at_or_after_step(self):
        # A rank that is silent at the addressed step dies at its next
        # collective, mirroring "node died somewhere in this window".
        inj = FaultPlan((RankCrash(rank=0, at_call=2),)).injector()
        inj.check_rank(0)
        inj.advance_step()
        inj.check_rank(0)
        inj.advance_step()
        with pytest.raises(RankFailedError):
            inj.check_rank(0)

    def test_phase_crash_needs_matching_nonempty_phase(self):
        inj = FaultPlan((RankCrash(rank=0, at_phase="Sample"),)).injector()
        inj.check_rank(0, phase="")
        inj.check_rank(0, phase="EstimateTheta")
        with pytest.raises(RankFailedError) as exc:
            inj.check_rank(0, phase="Sample")
        assert exc.value.phase == "Sample"

    def test_other_ranks_unaffected(self):
        inj = FaultPlan((RankCrash(rank=1, at_call=0),)).injector()
        inj.check_rank(0)
        inj.check_rank(2)

    def test_transient_countdown(self):
        inj = FaultPlan((TransientFault(0, failures=2),)).injector()
        assert inj.transient_failure()
        assert inj.transient_failure()
        assert not inj.transient_failure()
        inj.advance_step()
        assert not inj.transient_failure()

    def test_corrupt_copies_rather_than_mutates(self):
        inj = FaultPlan((CorruptReduce(0, 0, delta=7),)).injector()
        original = np.array([1, 2, 3], dtype=np.int64)
        bad = inj.corrupt_buffer(0, original)
        assert bad.tolist() == [1, 2, 10]
        assert original.tolist() == [1, 2, 3]
        # one-shot: the next call passes through untouched
        assert inj.corrupt_buffer(0, original) is original

    def test_slowdown_compounds(self):
        plan = FaultPlan((Straggler(1, 2.0), Straggler(1, 3.0)))
        inj = plan.injector()
        assert inj.slowdown(1) == pytest.approx(6.0)
        assert inj.slowdown(0) == 1.0


class TestRunSpmdWithFaults:
    @staticmethod
    def _program(rank, size):
        a = yield Allreduce(np.array([rank], dtype=np.int64))
        b = yield Allreduce(a)
        yield Barrier()
        return int(b[0])

    def test_crash_surfaces_typed_error(self):
        with pytest.raises(RankFailedError, match="rank 1 failed at collective step 1"):
            run_spmd(3, self._program, faults=FaultPlan.parse("crash:1@1"))

    def test_oom_surfaces_typed_error(self):
        with pytest.raises(SimulatedOOMError, match="rank 2"):
            run_spmd(3, self._program, faults=FaultPlan.parse("oom:2@0"))

    def test_transient_aborts_plain_runtime(self):
        # run_spmd has no retry loop: the first transient failure kills it,
        # at its step and first attempt, with no retry traffic metered.
        stats = CommStats()
        with pytest.raises(TransientCommError) as exc:
            run_spmd(3, self._program, stats=stats, faults=FaultPlan.parse("transient:@1x2"))
        assert (exc.value.step, exc.value.attempts) == (1, 1)
        assert "retry" not in stats.label_totals()

    def test_corruption_changes_the_result(self):
        clean, _ = run_spmd(3, self._program)
        dirty, _ = run_spmd(3, self._program, faults=FaultPlan.parse("corrupt:0@0"))
        assert clean != dirty

    def test_empty_plan_is_inert(self):
        clean, _ = run_spmd(3, self._program)
        planned, _ = run_spmd(3, self._program, faults=FaultPlan())
        assert clean == planned


class TestSwitchOutage:
    """``switch:<lo>-<hi>@<step>``: a contiguous rank group dies at once."""

    def test_grammar(self):
        from repro.mpi import SwitchOutage

        plan = FaultPlan.parse("switch:1-3@2")
        assert plan.events == (SwitchOutage(lo=1, hi=3, at_call=2),)
        assert plan.events[0].ranks == (1, 2, 3)

    def test_single_rank_group(self):
        from repro.mpi import SwitchOutage

        (event,) = FaultPlan.parse("switch:2-2@0").events
        assert event.ranks == (2,)

    @pytest.mark.parametrize(
        "bad", ["switch:1-3", "switch:3-1@2", "switch:1@2", "switch:a-b@2"]
    )
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_describe(self):
        assert "switch outage: ranks 1-3 die at step 2" in FaultPlan.parse(
            "switch:1-3@2"
        ).describe()

    def test_whole_group_fails_once(self):
        inj = FaultPlan.parse("switch:1-2@0").injector()
        for rank in (1, 2):
            with pytest.raises(RankFailedError):
                inj.check_rank(rank)
        # one-shot per member: no re-fire, and rank 0 is never touched
        inj.check_rank(0)
        inj.check_rank(1)
        inj.check_rank(2)

    def test_fires_at_or_after_step(self):
        inj = FaultPlan.parse("switch:0-1@2").injector()
        inj.check_rank(0)  # step 0: too early
        inj.step = 2
        with pytest.raises(RankFailedError) as exc:
            inj.check_rank(1)
        assert exc.value.step == 2

    def test_group_crash_aborts_plain_runtime(self):
        with pytest.raises(RankFailedError):
            run_spmd(
                4,
                TestRunSpmdWithFaults._program,
                faults=FaultPlan.parse("switch:1-2@1"),
            )
