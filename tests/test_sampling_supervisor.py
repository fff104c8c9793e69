"""Tests for the self-healing sampling runtime (repro.sampling.supervisor).

The supervisor's contract, each leg exercised here:

* **bit-identity under recovery** — injected SIGKILLs (single worker or
  a whole group), injected stragglers, and checkpoint/resume all
  reproduce the serial engine's bytes exactly: the counter-addressed
  streams make sample ``j`` a pure function of ``(graph, model, seed,
  j)``, so replay re-derives exactly what was lost.
* **honest degradation** — an expired run deadline raises
  :class:`DeadlineExceededError` with the landed prefix intact, and the
  ``imm`` driver surfaces it as a flagged
  :class:`~repro.imm.result.DegradedResult` (never a silent full-θ
  result); an exhausted crash budget raises
  :class:`CrashBudgetExhaustedError` with the engine fully cleaned up.
* **durable checkpoints** — the block spill survives process death
  (write-ahead data + atomic cursor), rejects mismatched identities,
  and truncates torn tails on reopen.

The chaos test (`TestChaosKill`) SIGKILLs a *live* worker pid mid-run
from outside the fault-plan machinery — the real-world event, not the
simulated one.  Pool tests carry ``@pytest.mark.parallel`` so the
conftest SIGALRM watchdog converts a wedged pool into a failure.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest
from multiprocessing import shared_memory as _shm

from repro.imm import DegradedResult, imm
from repro.imm.imm import build_sampler
from repro.sampling import (
    BatchedRRRSampler,
    BlockCheckpointSink,
    CheckpointError,
    SortedRRRCollection,
)
from repro.sampling.supervisor import (
    CrashBudgetExhaustedError,
    DeadlineExceededError,
    SupervisedSamplingEngine,
)

THETA = 300


def _reference(graph, model, theta, seed):
    coll = SortedRRRCollection(graph.n)
    indices = np.arange(theta, dtype=np.int64)
    edges = BatchedRRRSampler(graph, model).sample_into(coll, indices, seed)
    flat, indptr = coll.flattened()
    return flat, indptr, edges


def _drive(engine, graph, theta, seed, chunk_size=None):
    coll = SortedRRRCollection(graph.n)
    indices = np.arange(theta, dtype=np.int64)
    edges = engine.sample_into(coll, indices, seed, chunk_size=chunk_size)
    flat, indptr = coll.flattened()
    return flat, indptr, edges


def _assert_bitwise(got, ref):
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


class TestSerialSupervised:
    """workers=1: no pool, but deadline + checkpoint must still work."""

    def test_bitwise_equal(self, ba_graph):
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with SupervisedSamplingEngine(ba_graph, "IC", workers=1) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
        _assert_bitwise(got, ref)

    def test_checkpoint_then_resume(self, ba_graph, tmp_path):
        ck = tmp_path / "run"
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=1, checkpoint_dir=ck
        ) as eng:
            coll = SortedRRRCollection(ba_graph.n)
            eng.sample_into(coll, np.arange(120, dtype=np.int64), 3)
            assert eng.stats.checkpoint_bytes > 0
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=1, resume_from=ck
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
            assert eng.stats.resumed_samples == 120
        _assert_bitwise(got, ref)

    def test_deadline_raises_with_prefix(self, ba_graph):
        eng = SupervisedSamplingEngine(ba_graph, "IC", workers=1, deadline=1e-4)
        try:
            time.sleep(0.002)
            coll = SortedRRRCollection(ba_graph.n)
            with pytest.raises(DeadlineExceededError):
                eng.sample_into(coll, np.arange(THETA, dtype=np.int64), 3)
            assert eng.stats.deadline_expired
            assert len(coll) < THETA
        finally:
            eng.close()

    def test_factory(self, ba_graph):
        eng = build_sampler(ba_graph, "IC", workers=1, supervise=True)
        assert isinstance(eng, SupervisedSamplingEngine)
        eng.close()
        assert isinstance(build_sampler(ba_graph, "IC", workers=1), BatchedRRRSampler)
        with pytest.raises(ValueError, match="supervise=True"):
            build_sampler(ba_graph, "IC", workers=1, supervisor_opts={"spares": 2})
        with pytest.raises(ValueError, match="at least one worker"):
            build_sampler(ba_graph, "IC", workers=0)

    def test_rejects_unmappable_fault_classes(self, ba_graph):
        for plan in ("transient:@2", "corrupt:0@1", "oom:1@2",
                     "crash:0@phase=Sample"):
            with pytest.raises(ValueError):
                SupervisedSamplingEngine(
                    ba_graph, "IC", workers=1, fault_plan=plan
                )


@pytest.mark.parallel
class TestInjectedFaults:
    """The fault grammar drives real OS events against the pool."""

    def test_crash_replay_bitexact(self, ba_graph):
        # The straggler pins block 8 in flight (speculation disabled), so
        # at the kill point at least one block is provably un-landed and
        # must be replayed — the assertion cannot race run completion.
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, backoff_base=0.0,
            fault_plan="crash:0@2;straggler:8x2", straggler_factor=None,
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
            assert eng.stats.injected_crashes == 1
            assert eng.stats.rebuilds >= 1
            assert eng.stats.promotions >= 1  # the spare pool was used
            assert eng.stats.blocks_replayed >= 1
        _assert_bitwise(got, ref)

    def test_switch_group_kill_bitexact(self, ba_graph):
        """Correlated failure: every worker in the pool dies at once."""
        ref = _reference(ba_graph, "IC", THETA, seed=5)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, backoff_base=0.0,
            fault_plan="switch:0-1@3",
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=5)
            assert eng.stats.injected_crashes == 2
            assert eng.stats.rebuilds >= 1
        _assert_bitwise(got, ref)

    def test_straggler_speculation_bitexact(self, ba_graph):
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, backoff_base=0.0,
            fault_plan="straggler:3x4", straggler_sleep=0.15,
            straggler_floor=0.02, straggler_factor=2.0,
            straggler_min_history=2,
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
            assert eng.stats.injected_sleeps == 1
            assert eng.stats.speculative_launched >= 1
        _assert_bitwise(got, ref)

    def test_arena_growth_under_crash_replay_bitexact(self, ba_graph):
        """A 4 KiB first arena segment plus a mid-run kill: replayed
        blocks land from freshly reserved extents, bytes unchanged."""
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, backoff_base=0.0,
            arena_bytes=4096, fault_plan="crash:0@2",
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
            assert eng.stats.arena_segments >= 2
            assert eng.stats.injected_crashes == 1
        _assert_bitwise(got, ref)

    def test_crash_budget_exhaustion_cleans_up(self, ba_graph, tmp_path):
        ck = tmp_path / "run"
        eng = SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, backoff_base=0.0,
            crash_budget=0, fault_plan="crash:0@1", checkpoint_dir=ck,
        )
        arena_names: list[str] = []
        new_segment = eng._new_arena_segment

        def spy(min_bytes):
            out = new_segment(min_bytes)
            arena_names.append(eng._arena[-1]["seg"].name)
            return out

        eng._new_arena_segment = spy
        coll = SortedRRRCollection(ba_graph.n)
        with pytest.raises(CrashBudgetExhaustedError, match="budget"):
            eng.sample_into(coll, np.arange(THETA, dtype=np.int64), 3)
        assert eng.closed  # exhaustion closes pools, spares, and shm
        assert arena_names  # the run really allocated output arena
        for name in arena_names:  # unlinked on the typed-error path too
            with pytest.raises(FileNotFoundError):
                _shm.SharedMemory(name=name)
        # the checkpoint directory survives, consistent, no temp litter
        assert not list(ck.glob("*.tmp"))
        sink = BlockCheckpointSink(ck, n=ba_graph.n, model="IC", seed=3,
                                   readonly=True)
        assert sink.landed == len(coll)
        sink.close()

    def test_kill_then_resume_bitexact(self, ba_graph, tmp_path):
        """Process-death recovery: checkpoint, crash out, resume on disk."""
        ck = tmp_path / "run"
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        eng = SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, backoff_base=0.0,
            crash_budget=0, fault_plan="crash:0@4", checkpoint_dir=ck,
        )
        coll = SortedRRRCollection(ba_graph.n)
        with pytest.raises(CrashBudgetExhaustedError):
            eng.sample_into(coll, np.arange(THETA, dtype=np.int64), 3)
        landed = len(coll)
        assert 0 < landed < THETA
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, resume_from=ck
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
            assert eng.stats.resumed_samples == landed
        _assert_bitwise(got, ref)

    def test_pool_deadline_prefix(self, ba_graph):
        ref_flat, ref_indptr, _ = _reference(ba_graph, "IC", THETA, seed=3)
        eng = SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, deadline=1e-4
        )
        try:
            coll = SortedRRRCollection(ba_graph.n)
            with pytest.raises(DeadlineExceededError):
                eng.sample_into(coll, np.arange(THETA, dtype=np.int64), 3)
            flat, indptr = coll.flattened()
            assert np.array_equal(flat, ref_flat[: len(flat)])
            assert np.array_equal(indptr, ref_indptr[: len(coll) + 1])
        finally:
            eng.close()

    def test_progress_refreshes_task_watchdog(self, ba_graph):
        """task_timeout is per-submission: steady landings must never
        trip it even when the whole run takes longer than the budget."""
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=29, task_timeout=0.6,
            backoff_base=0.0, fault_plan="straggler:2x2;straggler:5x2",
            straggler_sleep=0.2, straggler_factor=None,
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
            # ~0.8s of injected sleep > 0.6s budget, but per-block
            # progress kept resetting the watchdog: no recovery happened
            assert eng.stats.crashes_observed == 0
        _assert_bitwise(got, ref)


@pytest.mark.parallel
class TestChaosKill:
    """A live worker pid is SIGKILLed mid-run from outside the engine."""

    def test_external_sigkill_bitexact(self, ba_graph):
        ref = _reference(ba_graph, "IC", 1200, seed=7)
        with SupervisedSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=17, backoff_base=0.0
        ) as eng:
            pids = eng.worker_pids()  # pings: forces lazy worker spawn
            assert pids

            def assassin():
                time.sleep(0.02)
                try:
                    os.kill(pids[0], signal.SIGKILL)
                except ProcessLookupError:  # worker already rotated
                    pass

            t = threading.Thread(target=assassin)
            t.start()
            got = _drive(eng, ba_graph, 1200, seed=7)
            t.join()
        _assert_bitwise(got, ref)


@pytest.mark.parallel
class TestSupervisedDrivers:
    def test_imm_supervised_bitexact_under_crash(self, ba_graph):
        base = imm(ba_graph, k=5, eps=0.5, seed=2, theta_cap=400)
        res = imm(
            ba_graph, k=5, eps=0.5, seed=2, theta_cap=400,
            workers=2, supervise=True,
            supervisor_opts={
                "fault_plan": "crash:0@2", "chunk_size": 29,
                "backoff_base": 0.0,
            },
        )
        assert np.array_equal(base.seeds, res.seeds)
        assert base.theta == res.theta
        assert res.extra["supervised"]
        assert res.extra["supervisor"]["injected_crashes"] == 1

    def test_imm_deadline_returns_degraded_result(self, ba_graph):
        res = imm(
            ba_graph, k=5, eps=0.5, seed=2, theta_cap=400,
            workers=2, supervise=True, supervisor_opts={"deadline": 1e-4},
        )
        assert isinstance(res, DegradedResult)
        assert res.degraded and res.extra["degraded"]
        assert res.extra["theta_effective"] == res.num_samples
        assert res.epsilon_effective > res.epsilon
        assert "DEGRADED" in res.summary()

    def test_hypergraph_layout_rejects_supervision(self, ba_graph):
        with pytest.raises(ValueError, match="sorted"):
            imm(
                ba_graph, k=5, eps=0.5, seed=2, theta_cap=200,
                layout="hypergraph", supervise=True,
            )


class TestCheckpointSink:
    def _fill(self, sink, blocks, seed=3):
        """Append synthetic contiguous blocks of 1-vertex samples."""
        for lo, hi in blocks:
            idx = np.arange(lo, hi, dtype=np.int64)
            flat = (idx % 7).astype(np.int32)
            sizes = np.ones(hi - lo, dtype=np.int64)
            edges = np.full(hi - lo, 2, dtype=np.int64)
            sink.append_block(idx, flat, sizes, edges)

    def test_roundtrip(self, tmp_path):
        sink = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3)
        self._fill(sink, [(0, 10), (10, 25)])
        assert sink.landed == 25
        sink.close()
        back = BlockCheckpointSink(
            tmp_path / "run", n=7, model="IC", seed=3, readonly=True
        )
        flat, sizes, edges = back.load_range(5, 20)
        assert np.array_equal(flat, (np.arange(5, 20) % 7).astype(np.int32))
        assert sizes.sum() == 15 and edges.sum() == 30
        back.close()

    def test_identity_mismatch_rejected(self, tmp_path):
        sink = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3)
        self._fill(sink, [(0, 10)])
        sink.close()
        for kw in (dict(n=8, model="IC", seed=3),
                   dict(n=7, model="LT", seed=3),
                   dict(n=7, model="IC", seed=4)):
            with pytest.raises(CheckpointError):
                BlockCheckpointSink(tmp_path / "run", readonly=True, **kw)

    def test_non_contiguous_append_rejected(self, tmp_path):
        sink = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3)
        self._fill(sink, [(0, 10)])
        with pytest.raises(CheckpointError, match="contiguous"):
            self._fill(sink, [(11, 20)])
        sink.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        """Bytes appended after the last durable cursor are discarded."""
        sink = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3)
        self._fill(sink, [(0, 10)])
        sink.close()
        # simulate a crash between the data append and the cursor write
        with open(tmp_path / "run" / "flat.i32.bin", "ab") as fh:
            fh.write(b"\x01\x02\x03\x04" * 5)
        back = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3)
        assert back.landed == 10
        self._fill(back, [(10, 20)])  # appending after repair still works
        flat, _, _ = back.load_range(0, 20)
        assert len(flat) == 20
        back.close()

    def test_cursor_fold_detects_foreign_data(self, tmp_path):
        """A cursor whose stream fold disagrees with the identity is
        rejected — the spill belongs to a different sample sequence."""
        import json

        sink = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3)
        self._fill(sink, [(0, 10)])
        sink.close()
        cursor = tmp_path / "run" / "cursor.json"
        state = json.loads(cursor.read_text())
        state["stream_fold"] ^= 1
        cursor.write_text(json.dumps(state))
        with pytest.raises(CheckpointError, match="fingerprint"):
            BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=3,
                                readonly=True)
