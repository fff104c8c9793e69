"""Self-healing supervision for the process-pool sampling engine.

:class:`~repro.sampling.parallel_engine.ParallelSamplingEngine` treats a
worker death as job death: unlink the shared memory, raise
``WorkerCrashError``, lose everything landed so far.  That is the wrong
economics for θ-scale runs — the paper's big-graph workloads sample for
hours, and the determinism contract makes every lost block *free to
re-derive*: sample ``j`` is a pure function of ``(graph, model, seed,
j)``, so no state of the dead worker is needed to reproduce its work
bit-exactly.  This module turns that observation into a supervisor:

Crash → rebuild → replay
    On ``BrokenProcessPool`` (a worker SIGKILLed, OOM-killed, or
    segfaulted) or a wedged-pool timeout, the supervisor rebuilds the
    pool and resubmits exactly the blocks that have not landed yet.
    Blocks are addressed by global sample index and land strictly in
    index order, so the healed run's collection is bit-identical to a
    fault-free one.  Recovery cost is bounded by a **spare pool** —
    pre-spawned idle worker pools already attached to the shared CSR,
    promoted on crash so healing costs a promotion, not fork +
    shm-reattach — a per-run **crash budget**, and capped exponential
    backoff between rebuilds.

Straggler speculation
    The supervisor keeps a running median of block service times; when
    the head block overstays ``straggler_factor x median`` (with a
    floor), a speculative duplicate is submitted and the first
    checksum-valid result lands.  Both executions sample the same
    counter-addressed streams, so the race cannot change the output.

Run deadline → graceful degradation
    An overall ``deadline=`` turns budget expiry into a typed
    :class:`DeadlineExceededError` carrying the landed prefix size; the
    ``imm`` driver converts that into a ``DegradedResult`` whose
    ``theta_effective``/``epsilon_effective`` are recomputed exactly the
    way the MPI shrink policy recomputes them — the run never silently
    reports full-θ guarantees it did not earn.

Checkpoint / resume
    With ``checkpoint_dir=``, every landed block is spilled through the
    write-ahead :class:`~repro.sampling.checkpoint.BlockCheckpointSink`;
    a killed process restarts with ``resume_from=`` and reloads the
    certified prefix instead of re-sampling it.

Real fault injection
    The same :class:`~repro.mpi.faults.FaultPlan` grammar that drives
    the simulated MPI runtime drives *real* OS events here:
    ``crash:r@N`` SIGKILLs a live worker pid when the engine is about to
    land its ``N``-th block (victim index ``r``), ``switch:lo-hi@N``
    kills the whole group at once, and ``straggler:b xF`` makes block
    ``b``'s first execution sleep ``F x straggler_sleep`` seconds inside
    the worker.  Phase-addressed and collective-only events (transient,
    corrupt, oom) have no process-pool analog and are rejected.

Three mutation hooks exist so the oracle's mutation suite can prove it
would catch the characteristic supervisor bugs: ``_mutate_replay_overlap``
(recovery re-lands the last already-landed block), ``_mutate_resume_skip``
(resume drops the first sample past the cursor), and
``_mutate_spec_order`` (a speculative win lands behind its successor
block).
"""

from __future__ import annotations

import logging
import math
import os
import signal
import statistics
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..rng.streams import fold_stream_seeds, stream_seeds_array
from .checkpoint import BlockCheckpointSink, CheckpointError
from .collection import RRRCollection
from .parallel_engine import (
    AdaptiveChunkPolicy,
    EngineProtocolError,
    EngineStats,
    ParallelEngineError,
    ParallelSamplingEngine,
)

__all__ = [
    "SupervisedSamplingEngine",
    "SupervisorStats",
    "CrashBudgetExhaustedError",
    "DeadlineExceededError",
    "build_sampling_engine",
]

_log = logging.getLogger(__name__)


class CrashBudgetExhaustedError(ParallelEngineError):
    """The pool kept dying past the per-run crash budget.

    Raised only after cleanup: shared memory is unlinked, spare pools
    shut down, and checkpoint temporaries removed (the checkpoint run
    directory itself survives — it is the resume vehicle).
    """

    def __init__(self, budget: int, reason: str) -> None:
        super().__init__(
            f"crash budget exhausted ({budget} recoveries spent; last: {reason}); "
            "shared memory unlinked, checkpoint directory left consistent for resume"
        )
        self.budget = budget
        self.reason = reason


class DeadlineExceededError(ParallelEngineError):
    """The overall run deadline expired mid-θ.

    The collection holds the landed in-order prefix (``landed_total``
    samples); drivers convert this into a ``DegradedResult`` with
    honestly recomputed ``theta_effective``/``epsilon_effective``.
    """

    def __init__(self, landed_total: int, deadline: float | None) -> None:
        super().__init__(
            f"run deadline ({deadline}s) expired with {landed_total} samples "
            "landed; the collection holds a valid in-order prefix"
        )
        self.landed_total = landed_total
        self.deadline = deadline


@dataclass
class SupervisorStats(EngineStats):
    """Engine counters plus everything the supervisor did to stay alive."""

    crashes_observed: int = 0
    rebuilds: int = 0
    promotions: int = 0
    spares_spawned: int = 0
    blocks_replayed: int = 0
    backoff_seconds: float = 0.0
    speculative_launched: int = 0
    speculative_wins: int = 0
    injected_crashes: int = 0
    injected_sleeps: int = 0
    resumed_samples: int = 0
    checkpoint_bytes: int = 0
    checkpoint_seconds: float = 0.0
    deadline_expired: bool = False

    def as_dict(self) -> dict:
        out = super().as_dict()
        out.update(
            crashes_observed=self.crashes_observed,
            rebuilds=self.rebuilds,
            promotions=self.promotions,
            spares_spawned=self.spares_spawned,
            blocks_replayed=self.blocks_replayed,
            backoff_seconds=self.backoff_seconds,
            speculative_launched=self.speculative_launched,
            speculative_wins=self.speculative_wins,
            injected_crashes=self.injected_crashes,
            injected_sleeps=self.injected_sleeps,
            resumed_samples=self.resumed_samples,
            checkpoint_bytes=self.checkpoint_bytes,
            checkpoint_seconds=self.checkpoint_seconds,
            deadline_expired=self.deadline_expired,
        )
        return out


class SupervisedSamplingEngine(ParallelSamplingEngine):
    """A :class:`ParallelSamplingEngine` that survives its own workers.

    Drop-in wherever the plain engine goes (``sample_batch``,
    ``estimate_theta``, ``select_seeds`` all accept it via the
    same isinstance dispatch); the output is bit-identical to the serial
    sampler under any mix of worker crashes, stragglers, and resumes —
    only wall-clock and ``stats`` change.

    Supervision parameters
    ----------------------
    spares:
        Pre-spawned warm standby pools (each ``workers`` wide) promoted
        on crash.  ``0`` falls back to cold respawn on every rebuild.
    crash_budget:
        Pool rebuilds allowed per engine lifetime before
        :class:`CrashBudgetExhaustedError`.
    backoff_base, backoff_cap:
        Capped exponential backoff (seconds) between consecutive
        rebuilds: ``min(cap, base * 2**rebuilds)``.
    deadline:
        Overall wall-clock budget (seconds) for the engine's lifetime;
        expiry raises :class:`DeadlineExceededError` at the next block
        boundary.  ``None`` disables.
    straggler_factor, straggler_floor, straggler_min_history:
        Speculative re-execution triggers once the head block has waited
        ``max(floor, factor x running-median-service-time)`` seconds and
        at least ``min_history`` blocks have landed.
        ``straggler_factor=None`` disables speculation.
    checkpoint_dir, resume_from:
        Spill landed blocks to / reload a certified prefix from a
        :class:`BlockCheckpointSink` run directory.  Passing the same
        path for both (or an existing directory as ``checkpoint_dir``)
        continues it in place.
    fault_plan:
        :class:`~repro.mpi.faults.FaultPlan` (or its CLI grammar) driving
        *real* injection: SIGKILL and in-worker sleeps, addressed by
        global landed-block ordinal.
    straggler_sleep:
        Base seconds one injected straggler factor unit sleeps.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: DiffusionModel | str,
        *,
        workers: int,
        spares: int = 1,
        chunk_size: int | None = None,
        max_cohort: int | None = None,
        start_method: str | None = None,
        task_timeout: float | None = 300.0,
        arena_bytes: int | None = None,
        crash_budget: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        deadline: float | None = None,
        straggler_factor: float | None = 4.0,
        straggler_floor: float = 0.25,
        straggler_min_history: int = 5,
        straggler_sleep: float = 0.3,
        checkpoint_dir: str | Path | None = None,
        resume_from: str | Path | None = None,
        fault_plan: FaultPlan | str | None = None,
        _mutate_replay_overlap: bool = False,
        _mutate_resume_skip: bool = False,
        _mutate_spec_order: bool = False,
    ) -> None:
        # close() can run from the parent constructor's error path before
        # these exist; seed them first.
        self._spares: deque = deque()
        self._sink: BlockCheckpointSink | None = None
        self._resume: BlockCheckpointSink | None = None
        if spares < 0:
            raise ValueError("spares must be >= 0")
        if crash_budget < 0:
            raise ValueError("crash_budget must be >= 0")
        super().__init__(
            graph,
            model,
            workers=workers,
            chunk_size=chunk_size,
            max_cohort=max_cohort,
            start_method=start_method,
            task_timeout=task_timeout,
            arena_bytes=arena_bytes,
            # Every pool this engine may ever run — the initial one, the
            # pre-spawned spares, cold rebuilds and replenished spares up
            # to the crash budget — claims fresh counter rows through the
            # shared slot cursor; size the matrix so no healthy lifetime
            # runs out of rows (running out just means unfused blocks).
            _counter_rows=workers * (2 + spares + 2 * crash_budget),
        )
        self.stats = SupervisorStats()
        self.spares = spares
        self.crash_budget = crash_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self.straggler_factor = straggler_factor
        self.straggler_floor = straggler_floor
        self.straggler_min_history = straggler_min_history
        self.straggler_sleep = straggler_sleep
        self._mutate_replay_overlap = _mutate_replay_overlap
        self._mutate_resume_skip = _mutate_resume_skip
        self._mutate_spec_order = _mutate_spec_order
        self._deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        self._service_times: deque[float] = deque(maxlen=63)
        self._fault_clock = 0  # global ordinal of the next block to land
        self._need_spare = 0
        self._checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self._resume_dir = Path(resume_from) if resume_from else None
        self._sink_seed: int | None = None
        self._compile_fault_plan(fault_plan)
        try:
            if self._pool is not None:
                for _ in range(spares):
                    self._spares.append(self.spawn_pool(warm=True))
                    self.stats.spares_spawned += 1
        except BaseException:
            self.close()
            raise

    # -- fault-plan translation ---------------------------------------------

    def _compile_fault_plan(self, plan) -> None:
        """Map the MPI fault grammar onto real process-pool events.

        ``crash``/``switch`` become SIGKILLs of live worker pids fired
        when the engine is about to land the addressed block ordinal;
        ``straggler`` becomes an in-worker sleep on that block's first
        execution (replays and speculative copies run clean — the sleep
        models a slow worker, not slow work).
        """
        # Imported here, not at module top: repro.mpi's package __init__
        # reaches back into repro.sampling (circular at import time).
        from ..mpi.faults import FaultPlan, RankCrash, Straggler, SwitchOutage

        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.fault_plan = plan
        self._kill_events: list[dict] = []
        self._sleep_factors: dict[int, float] = {}
        self._slept_blocks: set[int] = set()
        if plan is None:
            return
        for event in plan.events:
            if isinstance(event, RankCrash):
                if event.at_call is None:
                    raise ValueError(
                        "phase-addressed crashes have no process-pool analog; "
                        "address the block ordinal: crash:<victim>@<block>"
                    )
                self._kill_events.append(
                    {"at": event.at_call, "ranks": (event.rank,), "fired": False}
                )
            elif isinstance(event, SwitchOutage):
                self._kill_events.append(
                    {"at": event.at_call, "ranks": event.ranks, "fired": False}
                )
            elif isinstance(event, Straggler):
                self._sleep_factors[event.rank] = (
                    self._sleep_factors.get(event.rank, 1.0) * event.factor
                )
            else:
                raise ValueError(
                    f"{type(event).__name__} events only exist in the simulated "
                    "MPI runtime; the pool supports crash/switch/straggler"
                )

    def _sleep_for_block(self, ordinal: int) -> float:
        factor = self._sleep_factors.get(ordinal)
        if factor is None or ordinal in self._slept_blocks:
            return 0.0
        self._slept_blocks.add(ordinal)
        self.stats.injected_sleeps += 1
        return self.straggler_sleep * factor

    def _fire_due_kills(self, ordinal: int) -> bool:
        """SIGKILL real worker pids for every kill event now due.

        Returns True when at least one kill was delivered so the caller
        can wait for the pool break instead of racing run completion —
        on a fast run every block may already be computed by the time
        the kill lands, and the executor would only notice the corpse
        at close().
        """
        if self._pool is None:
            return False
        fired = False
        for event in self._kill_events:
            if event["fired"] or ordinal < event["at"]:
                continue
            event["fired"] = True
            pids = sorted(self._pool._processes.keys())
            if not pids:
                continue
            victims = {pids[r % len(pids)] for r in event["ranks"]}
            for pid in victims:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):  # pragma: no cover
                    continue
                self.stats.injected_crashes += 1
                fired = True
            _log.warning(
                "injected SIGKILL of worker pid(s) %s at block %d",
                sorted(victims),
                ordinal,
            )
        return fired

    def _await_pool_break(self, timeout: float = 10.0) -> None:
        """Block until the executor notices an injected worker death.

        The victim pid is really dead, so the management thread is
        guaranteed to flag the pool broken (it waits on the process
        sentinels); pausing here makes injected crashes exercise the
        recovery path deterministically.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._pool is None or getattr(self._pool, "_broken", False):
                return
            time.sleep(0.005)

    # -- checkpoint plumbing -------------------------------------------------

    def _ensure_sinks(self, seed: int) -> None:
        """Open checkpoint/resume sinks lazily, bound to the run's seed."""
        if self._sink_seed is not None:
            if seed != self._sink_seed:
                raise CheckpointError(
                    f"checkpoint is bound to seed {self._sink_seed}, "
                    f"this call uses seed {seed}"
                )
            return
        if self._checkpoint_dir is None and self._resume_dir is None:
            self._sink_seed = seed  # nothing to open, but pin the seed check
            return
        ident = dict(n=self.graph.n, model=self.model.value, seed=seed)
        if self._checkpoint_dir is not None:
            self._sink = BlockCheckpointSink(self._checkpoint_dir, **ident)
        if self._resume_dir is not None:
            if (
                self._checkpoint_dir is not None
                and self._resume_dir.resolve() == self._checkpoint_dir.resolve()
            ):
                self._resume = self._sink  # continue the same run directory
            else:
                self._resume = BlockCheckpointSink(
                    self._resume_dir, readonly=True, **ident
                )
        elif self._sink is not None and self._sink.landed > 0:
            # checkpoint_dir pointed at an existing run: implicit resume
            self._resume = self._sink
        self._sink_seed = seed

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        # wait=True: a freshly spawned spare may still be running its
        # shm-attach initializer, and unlinking segments under it races
        # the resource-tracker registration (stale entries at shutdown).
        # Idle spares join immediately, so this costs nothing.
        for pool in getattr(self, "_spares", ()):
            pool.shutdown(wait=True, cancel_futures=True)
        if getattr(self, "_spares", None) is not None:
            self._spares.clear()
        for sink in {id(s): s for s in (getattr(self, "_sink", None),
                                        getattr(self, "_resume", None))}.values():
            if sink is not None:
                sink.close()
        super().close()

    # -- degradation / exhaustion endpoints ----------------------------------

    def _degrade(self, landed_total: int) -> None:
        """Deadline expired: surface the typed error (engine stays open —
        the driver owns the close, and the collection's landed prefix is
        exactly what ``DegradedResult`` will account for).

        Abandoned in-flight blocks may still have been accumulated by
        their workers without ever landing, so the fused counters are
        invalidated — the degraded run counts via the fallback paths.
        """
        self._invalidate_fused("deadline degradation abandoned in-flight blocks")
        self.stats.deadline_expired = True
        _log.warning(
            "run deadline (%ss) expired with %d samples landed; degrading",
            self.deadline,
            landed_total,
        )
        raise DeadlineExceededError(landed_total, self.deadline)

    def _exhausted(self, reason: str) -> None:
        """Crash budget gone: clean everything up, then raise typed."""
        budget = self.crash_budget
        self.close()  # spares down, sinks consistent, shm unlinked
        raise CrashBudgetExhaustedError(budget, reason)

    def _check_deadline(self, landed_total: int) -> None:
        if self._deadline_at is not None and time.monotonic() >= self._deadline_at:
            self._degrade(landed_total)

    # -- sampling ------------------------------------------------------------

    def sample_into(
        self,
        collection: RRRCollection,
        sample_indices: np.ndarray,
        seed: int,
        *,
        edge_flip: str = "stream",
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Supervised version of the engine's ordered block landing.

        Same contract and bit-identical output; additionally survives
        worker deaths (replay), overstaying blocks (speculation), and
        process kills (checkpoint/resume), and honors the run deadline.
        """
        self._require_open()
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        per_sample = np.empty(len(sample_indices), dtype=np.int64)
        if len(sample_indices) == 0:
            return per_sample
        self._check_deadline(len(collection))
        self._ensure_sinks(seed)
        self._maybe_reset_fused(collection, sample_indices)
        self._maybe_reset_arena(len(sample_indices))
        # -- resume: satisfy the certified prefix from the spill ------------
        pos = 0
        first = int(sample_indices[0])
        src = self._resume
        if src is not None and src.landed > first:
            hi = min(src.landed, first + len(sample_indices))
            flat, sizes, edges = src.load_range(first, hi)
            collection.append_batch(flat, sizes)
            # The prefix never passed through a worker: account it in the
            # parent-side fused row so the books can still balance.
            self._note_parent_landing(np.asarray(flat))
            pos = hi - first
            per_sample[:pos] = edges
            self.stats.resumed_samples += pos
            if self._sink is not None and self._sink is not src:
                self._sink.append_block(sample_indices[:pos], flat, sizes, edges)
                self._refresh_checkpoint_stats()
        remaining = sample_indices[pos:]
        if self._mutate_resume_skip and pos > 0 and len(remaining) > 0:
            per_sample[pos] = 0  # the injected cursor-skip bug
            pos += 1
            remaining = remaining[1:]
        if len(remaining) == 0:
            return per_sample
        if self._pool is None:
            return self._sample_serial(
                collection, remaining, seed, edge_flip, per_sample, pos
            )
        return self._sample_pool(
            collection, remaining, seed, edge_flip, per_sample, pos, chunk_size
        )

    def _refresh_checkpoint_stats(self) -> None:
        if self._sink is not None:
            self.stats.checkpoint_bytes = self._sink.bytes_written
            self.stats.checkpoint_seconds = self._sink.write_seconds

    def _chunk(self, count: int, chunk_size: int | None) -> int:
        chunk = chunk_size or self.chunk_size
        if chunk is None:
            chunk = max(
                self._local.max_cohort, math.ceil(count / (4 * self.workers))
            )
        return chunk

    # -- serial (workers=1) path: deadline + checkpoint still apply ----------

    def _sample_block_local(
        self, block: np.ndarray, seed: int, edge_flip: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        flats, sizes, edges = [], [], []
        for lo in range(0, len(block), self._local.max_cohort):
            v, s, e = self._local.sample_cohort(
                block[lo : lo + self._local.max_cohort], seed, edge_flip=edge_flip
            )
            flats.append(v)
            sizes.append(s)
            edges.append(e)
        return (
            np.concatenate(flats) if flats else np.empty(0, dtype=np.int32),
            np.concatenate(sizes) if sizes else np.empty(0, dtype=np.int64),
            np.concatenate(edges) if edges else np.empty(0, dtype=np.int64),
        )

    def _sample_serial(
        self,
        collection: RRRCollection,
        indices: np.ndarray,
        seed: int,
        edge_flip: str,
        per_sample: np.ndarray,
        pos: int,
    ) -> np.ndarray:
        chunk = self._chunk(len(indices), None)
        for lo in range(0, len(indices), chunk):
            self._check_deadline(len(collection))
            block = indices[lo : lo + chunk]
            flat, sizes, edges = self._sample_block_local(block, seed, edge_flip)
            collection.append_batch(flat, sizes)
            per_sample[pos : pos + len(edges)] = edges
            pos += len(edges)
            if self._sink is not None:
                self._sink.append_block(block, flat, sizes, edges)
                self._refresh_checkpoint_stats()
            self.stats.blocks_landed += 1
            self._fault_clock += 1
        return per_sample

    # -- supervised pool path ------------------------------------------------

    def _sample_pool(
        self,
        collection: RRRCollection,
        indices: np.ndarray,
        seed: int,
        edge_flip: str,
        per_sample: np.ndarray,
        pos: int,
        chunk_size: int | None,
    ) -> np.ndarray:
        total = len(indices)
        chunk = chunk_size or self.chunk_size
        policy = (
            None if chunk is not None else AdaptiveChunkPolicy(total, self.workers)
        )
        self.stats.chunk_initial = chunk if chunk is not None else policy.initial
        # Batched checksum handshake: every block's expected checksum is a
        # fold over one vectorized stream-seed pass; the worker's answer
        # rides back in its descriptor.
        seeds_arr = stream_seeds_array(seed, indices)
        base = self._fault_clock  # global ordinal of blocks[0]
        window = 2 * self.workers + 2  # planned-but-unlanded block bound
        blocks: list[np.ndarray] = []
        expected: list[int] = []
        primary: list[Future | None] = []
        spec: list[Future | None] = []
        planned = 0  # samples planned into blocks so far
        next_land = 0
        landed_before = False  # any block landed this call (for replay stats)
        last_landed: tuple | None = None  # _mutate_replay_overlap stash
        task_deadline = (
            time.monotonic() + self.task_timeout
            if self.task_timeout is not None
            else None
        )

        def plan_more() -> None:
            """Lazily extend the block plan behind the submission window.

            With an adaptive policy the next block's size reflects every
            block landed so far; a static chunk plans the same spans the
            eager version did.  Planning is append-only, so replay and
            fault addressing by block ordinal stay stable.
            """
            nonlocal planned
            while planned < total and len(blocks) - next_land < window:
                size = chunk if chunk is not None else policy.next_size()
                stop = min(total, planned + size)
                blocks.append(indices[planned:stop])
                expected.append(fold_stream_seeds(seeds_arr[planned:stop]))
                primary.append(None)
                spec.append(None)
                # the policy's settled size, not the clipped tail block
                self.stats.chunk_final = size
                planned = stop

        def usable(fut: Future | None) -> bool:
            return fut is not None and fut.done() and fut.exception() is None

        def submit(bi: int, *, clean: bool = False) -> Future:
            sleep_s = 0.0 if clean else self._sleep_for_block(base + bi)
            return self.submit_block(
                blocks[bi], seed, edge_flip, sleep_s=sleep_s
            )

        def submit_new() -> None:
            """Submit planned blocks that have no primary execution yet."""
            for bi in range(next_land, len(blocks)):
                if primary[bi] is None:
                    primary[bi] = submit(bi)

        def resubmit_lost() -> None:
            """(Re)submit every un-landed block whose result is gone.

            Completed futures survive a pool break with their results —
            those blocks are not re-run; everything else is replayed
            deterministically into *fresh* arena extents (same indices,
            same streams, same bytes).
            """
            for bi in range(next_land, len(blocks)):
                if not usable(primary[bi]):
                    was_lost = primary[bi] is not None
                    primary[bi] = submit(bi)
                    if was_lost or landed_before or self.stats.rebuilds > 0:
                        self.stats.blocks_replayed += 1
                if spec[bi] is not None and not usable(spec[bi]):
                    spec[bi] = None

        def recover(reason: str) -> None:
            nonlocal last_landed
            self.stats.crashes_observed += 1
            _log.warning(
                "supervised pool failure (%s): crash %d against budget %d",
                reason,
                self.stats.crashes_observed,
                self.crash_budget,
            )
            if self.stats.crashes_observed > self.crash_budget:
                self._exhausted(reason)
            delay = min(self.backoff_cap, self.backoff_base * (2**self.stats.rebuilds))
            if delay > 0:
                time.sleep(delay)
                self.stats.backoff_seconds += delay
            promoted = None
            if self._spares:
                promoted = self._spares.popleft()
                self.stats.promotions += 1
            self.rebuild_pool(promoted)
            self.stats.rebuilds += 1
            self._need_spare += 1
            if self._mutate_replay_overlap and last_landed is not None:
                # the injected replay-overlap bug: recovery re-lands the
                # block that already landed before the crash
                collection.append_batch(*last_landed)

        def replenish_spares() -> None:
            while self._need_spare > 0:
                self._need_spare -= 1
                try:
                    self._spares.append(self.spawn_pool(warm=True))
                    self.stats.spares_spawned += 1
                except Exception as exc:  # pragma: no cover - fork pressure
                    _log.warning("could not replenish spare pool: %s", exc)
                    break

        need_submit = True
        while next_land < len(blocks) or planned < total:
            plan_more()
            try:
                if need_submit:
                    resubmit_lost()
                    replenish_spares()
                    need_submit = False
                else:
                    submit_new()
            except BrokenProcessPool:
                recover("submission hit a broken pool")
                need_submit = True
                continue
            bi = next_land
            if self._fire_due_kills(base + bi):
                self._await_pool_break()
                recover("injected worker kill broke the pool")
                need_submit = True
                continue
            wait_start = time.monotonic()
            while True:
                cands = [f for f in (primary[bi], spec[bi]) if f is not None]
                now = time.monotonic()
                waits = []
                if self._deadline_at is not None:
                    waits.append(self._deadline_at - now)
                if task_deadline is not None:
                    waits.append(task_deadline - now)
                spec_at = None
                if (
                    spec[bi] is None
                    and self.straggler_factor is not None
                    and len(self._service_times) >= self.straggler_min_history
                ):
                    threshold = max(
                        self.straggler_floor,
                        self.straggler_factor
                        * statistics.median(self._service_times),
                    )
                    spec_at = wait_start + threshold
                    waits.append(spec_at - now)
                timeout = max(0.0, min(waits)) if waits else None
                done, _ = _futures_wait(
                    cands, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    now = time.monotonic()
                    if self._deadline_at is not None and now >= self._deadline_at:
                        self._degrade(len(collection))
                    if spec_at is not None and now >= spec_at and spec[bi] is None:
                        # Whichever copy loses still accumulated its
                        # samples into a worker counter row — the fused
                        # books cannot balance after a duplicate.
                        self._invalidate_fused("speculative duplicate launched")
                        try:
                            spec[bi] = submit(bi, clean=True)
                        except BrokenProcessPool:
                            recover("speculative submission hit a broken pool")
                            need_submit = True
                            break
                        self.stats.speculative_launched += 1
                        continue
                    if task_deadline is not None and now >= task_deadline:
                        recover(
                            f"no progress for {self.task_timeout}s (pool wedged)"
                        )
                        task_deadline = time.monotonic() + self.task_timeout
                        need_submit = True
                        break
                    continue  # woke before any of our own deadlines
                # Prefer a cleanly completed candidate; a checksum check
                # below decides whether it may land.
                winner = next((f for f in done if f.exception() is None), None)
                if winner is None:
                    exc = next(iter(done)).exception()
                    if isinstance(exc, BrokenProcessPool) or isinstance(
                        exc, OSError
                    ):
                        recover(f"worker died mid-block ({type(exc).__name__})")
                        need_submit = True
                        break
                    self.close()
                    raise ParallelEngineError(
                        f"worker raised while sampling block {bi}"
                    ) from exc
                flat, sizes, edges, checksum, sample_s = self._materialize(winner)
                spec_won = winner is spec[bi]
                if checksum != expected[bi]:
                    # first *checksum-valid* result wins: drop this
                    # candidate and keep waiting on the other, if any
                    self._invalidate_fused("checksum-invalid candidate dropped")
                    if spec_won:
                        spec[bi] = None
                    else:
                        primary[bi], spec[bi] = spec[bi], None
                    if primary[bi] is None:
                        self.close()
                        raise EngineProtocolError(
                            f"block {bi} stream-checksum mismatch from every "
                            "candidate: workers did not sample the indices sent"
                        )
                    continue
                if spec_won:
                    self.stats.speculative_wins += 1
                if (
                    self._mutate_spec_order
                    and spec[bi] is not None  # a speculative copy raced
                    and bi + 1 < len(blocks)
                    and self._sink is None
                    and usable(primary[bi + 1])
                ):
                    # the injected race bug: the speculative win lands
                    # *behind* its successor block
                    flat2, sizes2, edges2, _, _ = self._materialize(
                        primary[bi + 1]
                    )
                    collection.append_batch(flat2, sizes2)
                    collection.append_batch(flat, sizes)
                    per_sample[pos : pos + len(edges)] = edges
                    pos += len(edges)
                    per_sample[pos : pos + len(edges2)] = edges2
                    pos += len(edges2)
                    primary[bi] = spec[bi] = None
                    primary[bi + 1] = spec[bi + 1] = None
                    self.stats.blocks_landed += 2
                    self._fault_clock += 2
                    next_land = bi + 2
                    break
                t0 = time.perf_counter()
                collection.append_batch(flat, sizes, total=len(flat))
                self.stats.landing_seconds += time.perf_counter() - t0
                per_sample[pos : pos + len(edges)] = edges
                pos += len(edges)
                if self._sink is not None:
                    self._sink.append_block(blocks[bi], flat, sizes, edges)
                    self._refresh_checkpoint_stats()
                if self._mutate_replay_overlap:
                    # arena extents are recycled between calls: stash a
                    # private copy, not the zero-copy landing views
                    last_landed = (flat.copy(), sizes.copy())
                if policy is not None:
                    policy.observe(len(blocks[bi]), sample_s)
                self._service_times.append(time.monotonic() - wait_start)
                self.stats.blocks_landed += 1
                self._fault_clock += 1
                landed_before = True
                primary[bi] = spec[bi] = None
                next_land = bi + 1
                if task_deadline is not None:  # progress resets the watchdog
                    task_deadline = time.monotonic() + self.task_timeout
                break
        return per_sample


def build_sampling_engine(
    graph: CSRGraph,
    model: DiffusionModel | str,
    *,
    workers: int,
    start_method: str | None = None,
    supervise: bool = False,
    supervisor_opts: dict | None = None,
) -> ParallelSamplingEngine:
    """Engine factory shared by the ``imm``/``estimate_theta``/``imm_sweep``
    drivers: a plain pool engine, or a supervised one when asked.

    ``supervisor_opts`` passes through any :class:`SupervisedSamplingEngine`
    keyword (``spares``, ``deadline``, ``checkpoint_dir``, ``resume_from``,
    ``fault_plan``, crash-budget and straggler knobs, ...).
    """
    if supervise:
        return SupervisedSamplingEngine(
            graph,
            model,
            workers=workers,
            start_method=start_method,
            **(supervisor_opts or {}),
        )
    if supervisor_opts:
        raise ValueError("supervisor_opts requires supervise=True")
    return ParallelSamplingEngine(
        graph, model, workers=workers, start_method=start_method
    )
