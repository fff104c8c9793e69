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

The supervisor owns no landing loop: it runs inside the plain engine's
one loop (:meth:`ParallelSamplingEngine.sample_into`) and overrides the
steps that loop names — ``_open_run`` (the run deadline, the checkpoint
sinks, the resumed prefix), ``_injected_sleep`` (a fault plan's
straggler sleeps), ``_before_wait`` (spare replenishment, the run
deadline, a fault plan's kills), ``_speculate_at`` (the straggler
threshold), ``_recover`` (a rebuild within the crash budget, after
which the loop re-runs every lost execution) and ``_land`` (the
checkpoint spill and the block's service time).  Without a pool
(``workers=1``) the same loop samples each block in the parent, so the
deadline and the checkpoint still apply.
"""

from __future__ import annotations

import logging
import os
import signal
import statistics
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from .checkpoint import BlockCheckpointSink, CheckpointError
from .collection import RRRCollection
from .parallel_engine import (
    EngineStats,
    ParallelEngineError,
    ParallelSamplingEngine,
    _Block,
)

__all__ = [
    "SupervisedSamplingEngine",
    "SupervisorStats",
    "CrashBudgetExhaustedError",
    "DeadlineExceededError",
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
    backoff_seconds: float = 0.0
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
            backoff_seconds=self.backoff_seconds,
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

    Drop-in wherever the plain engine goes (``sample_batch`` and
    ``estimate_theta`` accept it as ``sampler=``); the output is
    bit-identical to the serial sampler under any mix of worker crashes,
    stragglers, and resumes — only wall-clock and ``stats`` change.

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
        self._deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        self._service_times: deque[float] = deque(maxlen=63)
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

    def _injected_sleep(self, ordinal: int) -> float:
        """A straggler event's sleep, on the block's first execution only."""
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
        exactly what ``DegradedResult`` will account for)."""
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

    def _refresh_checkpoint_stats(self) -> None:
        if self._sink is not None:
            self.stats.checkpoint_bytes = self._sink.bytes_written
            self.stats.checkpoint_seconds = self._sink.write_seconds

    def _replenish_spares(self) -> None:
        while self._need_spare > 0:
            self._need_spare -= 1
            try:
                self._spares.append(self.spawn_pool(warm=True))
                self.stats.spares_spawned += 1
            except Exception as exc:  # pragma: no cover - fork pressure
                _log.warning("could not replenish spare pool: %s", exc)
                break

    # -- the landing loop's steps --------------------------------------------

    def _open_run(
        self,
        collection: RRRCollection,
        indices: np.ndarray,
        seed: int,
        per_sample: np.ndarray,
    ) -> int:
        """Honour the deadline, open the sinks, then satisfy the certified
        prefix from the resume spill; return its length."""
        self._check_deadline(len(collection))
        self._ensure_sinks(seed)
        super()._open_run(collection, indices, seed, per_sample)
        first = int(indices[0])
        src = self._resume
        if src is None or src.landed <= first:
            return 0
        hi = min(src.landed, first + len(indices))
        flat, sizes, edges = src.load_range(first, hi)
        collection.append_batch(flat, sizes)
        pos = hi - first
        per_sample[:pos] = edges
        self.stats.resumed_samples += pos
        if self._sink is not None and self._sink is not src:
            self._sink.append_block(indices[:pos], flat, sizes, edges)
            self._refresh_checkpoint_stats()
        return pos

    def _before_wait(self, ordinal: int, landed_total: int) -> bool:
        """Replenish spares, honour the run deadline, and fire the fault
        plan's kills due at ``ordinal`` (then rebuild the broken pool)."""
        self._replenish_spares()
        self._check_deadline(landed_total)
        if not self._fire_due_kills(ordinal):
            return False
        self._await_pool_break()
        self._recover("injected worker kill broke the pool")
        return True

    def _speculate_at(self, started: float) -> float | None:
        """Speculate once a block overstays ``straggler_factor`` x the
        running median service time (never below ``straggler_floor``)."""
        if (
            self.straggler_factor is None
            or len(self._service_times) < self.straggler_min_history
        ):
            return None
        median = statistics.median(self._service_times)
        return started + max(self.straggler_floor, self.straggler_factor * median)

    def _recover(self, reason: str) -> None:
        """Rebuild the pool within the crash budget: back off, promote a
        spare (or spawn cold), and leave the replay to the loop."""
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

    def _land(
        self,
        collection: RRRCollection,
        block: _Block,
        flat: np.ndarray,
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> None:
        """Land, spill the block to the checkpoint sink, and record how
        long it was waited on (the straggler median's history)."""
        super()._land(collection, block, flat, sizes, edges)
        if self._sink is not None:
            self._sink.append_block(block.indices, flat, sizes, edges)
            self._refresh_checkpoint_stats()
        self._service_times.append(time.monotonic() - block.started)
