"""Real multicore RRR sampling: a shared-memory process-pool engine.

Everything above this module so far *modeled* parallel time; this module
actually uses the cores.  The design follows the shared-memory scaling
recipe of Ripples/HBMax (read-only CSR + embarrassingly parallel sample
blocks), adapted to a Python substrate where the unit of parallelism
must be a *process* (the GIL rules out threads for NumPy-dispatch-bound
kernels).  The engine only samples: selection takes its initial counts
from the hit index it builds over the landed collection
(:meth:`~repro.imm.select.FlatView.counts`), so no counting pass runs
in the pool.

* The graph's reverse-CSR arrays (``in_indptr``/``in_indices``/
  ``in_probs``) — plus, for LT, the precomputed per-vertex cumulative
  weight table — are placed in :mod:`multiprocessing.shared_memory`
  **once** at engine construction.  Workers attach zero-copy NumPy views;
  no graph bytes are pickled per task.
* **Output arena** — results travel the same way.  The parent reserves a
  shared-memory *output arena* (sized from the requested θ, with a
  growable-segment escape hatch) and assigns every submitted block a
  disjoint *extent* ``(segment, offset, capacity)`` from a parent-side
  cursor — no shared allocator lock exists that a SIGKILLed worker could
  die holding.  The worker writes the block's payload
  ``[flat int32 | pad to 8 | sizes int64 | edges int64]`` directly into
  its extent and returns only a tiny descriptor
  ``(wrote_arena, flat_len, num_samples, checksum, sample_s, write_s,
  inline)``; the parent lands the block by passing zero-copy NumPy
  views over the extent straight into ``append_batch``.  A block that
  outgrows its extent rides back inline (counted in
  ``stats.arena_overflows``) and bumps the parent's bytes-per-sample
  estimate so follow-on segments are sized honestly.
* **Adaptive chunking** — with no explicit ``chunk_size`` the engine
  starts with small probe blocks and grows them geometrically toward a
  target block latency (:data:`ADAPTIVE_TARGET_BLOCK_SECONDS`), driven
  by the worker-reported per-block sampling time.  Blocks are planned
  lazily behind a bounded submission window, so the policy can react
  while the run is still in flight.  Chunking affects scheduling only —
  never the bytes.

Determinism contract
--------------------
Sample ``j`` is a pure function of ``(graph, model, seed, j)`` (the
counter-addressed stream discipline of :mod:`repro.rng.streams`), and the
parent lands blocks in index order — so the produced collection is
**bit-identical** to the serial and batched engines for every worker
count, chunk policy, and start method.  ``repro-imm validate`` enforces
this.

One landing loop
----------------
:meth:`ParallelSamplingEngine.sample_into` is the only block-landing
loop of :mod:`repro.sampling`.  It plans blocks behind a
``2·workers+2`` window, submits them, waits on each block's candidates
(the primary execution and at most one speculative copy), checks the
batched stream checksum, lands the block through ``append_batch`` in
index order, and refreshes the ``task_timeout`` watchdog.  At a few
named private steps it calls methods whose versions here fail fast:

``_open_run``
    rewind the arena; no sample is landed yet;
``_injected_sleep``
    seconds a block's worker stalls first (none);
``_before_wait``
    act before, and on every wake while, waiting on a block (nothing);
``_speculate_at``
    when to launch a speculative copy of a slow block (never);
``_recover``
    a broken pool or an expired watchdog: close and raise
    :class:`WorkerCrashError`;
``_land``
    append a checksum-valid block to the collection, and nothing after.

:class:`~repro.sampling.supervisor.SupervisedSamplingEngine` overrides
these steps to heal instead of failing; it owns no loop of its own.
Without a pool (``workers=1``) the parent samples each block itself,
with the same block function the workers run.  The function a pool
worker runs per block is the class attribute ``_block_task``.

Cleanup discipline
------------------
The parent owns every shared-memory segment — the CSR and all arena
segments: ``close()`` (idempotent, also invoked by ``__exit__``,
``__del__``, and every error path) shuts the pool down and unlinks all
segments.  Pool workers share the parent's ``resource_tracker`` process
(its fd rides along under both ``fork`` and ``spawn``), and the
tracker's cache is a set — so a worker's attach-time re-registration is
a no-op and the parent's single unlink-time unregistration leaves the
cache clean.  Workers must therefore *not* unregister segments
themselves (that would race the parent's cleanup); the test suite
asserts the net effect — no ``resource_tracker`` warnings or "leaked
shared_memory" messages — by scanning a subprocess's stderr.

Failure modes raise typed errors, never hang: a dead worker surfaces as
:class:`WorkerCrashError` (via the executor's broken-pool detection or
the per-block ``task_timeout``), and a stream-addressing disagreement as
:class:`EngineProtocolError`.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm
from typing import Iterator

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..rng.streams import fold_stream_seeds, stream_checksum, stream_seeds_array
from .batched import BatchedRRRSampler
from .collection import RRRCollection
from .rrr import in_edge_cumweights

__all__ = [
    "ParallelSamplingEngine",
    "ParallelEngineError",
    "WorkerCrashError",
    "EngineProtocolError",
    "EngineStats",
    "AdaptiveChunkPolicy",
]

#: Floor for the first arena segment when no override is given.
ARENA_MIN_BYTES = 1 << 20
#: Ceiling for the first arena segment (growth covers anything larger).
ARENA_MAX_INITIAL_BYTES = 256 << 20
#: Hard cap on arena segments per engine; past it blocks ride inline.
ARENA_MAX_SEGMENTS = 64
#: Starting guess for arena sizing, refined from landed blocks.  RRR
#: payloads are heavy-tailed (soc-LiveJournal1 IC blocks run ~1.5 KiB
#: per sample), and the first submission window (2*workers+2 blocks) is
#: reserved before any landed-block feedback exists, so guess generously
#: to keep that window out of the inline-overflow path.  shm pages are
#: only committed when actually written, so an oversized extent tail
#: costs address space, not memory.
ARENA_BYTES_PER_SAMPLE_GUESS = 4096

#: Adaptive chunking: target per-block sampling latency (seconds) ...
ADAPTIVE_TARGET_BLOCK_SECONDS = 0.25
#: ... smallest probe block ...
ADAPTIVE_PROBE_FLOOR = 32
#: ... per-step geometric growth cap.
ADAPTIVE_GROWTH = 2.0

#: Per-landed-block IPC budget (bytes) the regression harness gates on:
#: a descriptor is a handful of scalars; payload bytes sneaking back
#: into the result pickle blow straight through this.
DESCRIPTOR_BYTE_BUDGET = 512


def _align8(nbytes: int) -> int:
    return (nbytes + 7) & ~7


def _extent_need(flat_len: int, num_samples: int) -> int:
    """Bytes one block payload occupies in its extent."""
    return _align8(flat_len * 4) + 16 * num_samples


class ParallelEngineError(RuntimeError):
    """Base class for process-pool sampling-engine failures."""


class WorkerCrashError(ParallelEngineError):
    """A worker died (or timed out) mid-block; the engine is closed."""


class EngineProtocolError(ParallelEngineError):
    """Parent and worker disagree on a block's stream identities."""


@dataclass
class EngineStats:
    """Operational counters of one engine instance.

    The supervisor (:mod:`repro.sampling.supervisor`) extends these with
    recovery counters; the plain engine tracks the work it routed and
    the per-phase cost breakdown the regression harness records (arena
    writes, landing, IPC descriptor bytes).
    """

    blocks_landed: int = 0
    tasks_submitted: int = 0
    #: Arena bookkeeping: segments allocated, bytes reserved across
    #: them, and blocks that outgrew their extent and rode back inline.
    arena_segments: int = 0
    arena_bytes: int = 0
    arena_overflows: int = 0
    #: Per-phase seconds (workers' sampling + arena writes are summed
    #: across workers; landing is parent wall-clock).
    sample_seconds: float = 0.0
    arena_write_seconds: float = 0.0
    landing_seconds: float = 0.0
    #: Total pickled bytes of every result the parent consumed — the
    #: IPC payload the arena exists to keep descriptor-sized.
    ipc_descriptor_bytes: int = 0
    #: Adaptive chunking: first probe size and last size of the most
    #: recent ``sample_into`` call (equal when a static chunk is used).
    chunk_initial: int = 0
    chunk_final: int = 0
    #: Executions the landing loop ran beyond one per block: lost blocks
    #: re-run after a pool rebuild, speculative copies launched, and the
    #: copies that landed first.  Only a supervisor rebuilds or
    #: speculates, so the plain engine reads 0.
    blocks_replayed: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0

    def as_dict(self) -> dict:
        return {
            "blocks_landed": self.blocks_landed,
            "tasks_submitted": self.tasks_submitted,
            "arena_segments": self.arena_segments,
            "arena_bytes": self.arena_bytes,
            "arena_overflows": self.arena_overflows,
            "sample_seconds": round(self.sample_seconds, 6),
            "arena_write_seconds": round(self.arena_write_seconds, 6),
            "landing_seconds": round(self.landing_seconds, 6),
            "ipc_descriptor_bytes": self.ipc_descriptor_bytes,
            "chunk_initial": self.chunk_initial,
            "chunk_final": self.chunk_final,
            "blocks_replayed": self.blocks_replayed,
            "speculative_launched": self.speculative_launched,
            "speculative_wins": self.speculative_wins,
            # Always zero (the pool does not count); perfbench's traced solve reads both keys.
            "count_fallbacks": 0,
            "count_merge_seconds": 0.0,
        }


class AdaptiveChunkPolicy:
    """Probe-then-grow block sizing toward a target block latency.

    Starts with small probe blocks (fast feedback, fine-grained load
    balance while the per-sample cost is unknown), then grows the block
    size geometrically toward :data:`ADAPTIVE_TARGET_BLOCK_SECONDS`
    using the worker-reported sampling seconds of landed blocks.  Sizes
    are monotone non-decreasing (no oscillation) and capped at an even
    ``total / workers`` split so late planning still spans the pool.

    Scheduling only: the landed bytes are independent of every size this
    policy ever picks.
    """

    def __init__(
        self,
        total: int,
        workers: int,
        *,
        floor: int = ADAPTIVE_PROBE_FLOOR,
        target_seconds: float = ADAPTIVE_TARGET_BLOCK_SECONDS,
        growth: float = ADAPTIVE_GROWTH,
    ) -> None:
        if total < 0 or workers < 1:
            raise ValueError("need total >= 0 and workers >= 1")
        self.cap = max(1, math.ceil(total / workers))
        probe = max(floor, total // (16 * workers))
        self.size = max(1, min(self.cap, probe))
        self.initial = self.size
        self.target_seconds = target_seconds
        self.growth = growth

    def next_size(self) -> int:
        return self.size

    def observe(self, num_samples: int, seconds: float) -> None:
        """Feed one landed block's (size, worker sampling seconds)."""
        if num_samples <= 0 or seconds <= 0.0:
            return
        want = int(num_samples / seconds * self.target_seconds)
        grown = int(self.size * self.growth)
        self.size = min(self.cap, max(self.size, min(want, grown)))


# ---------------------------------------------------------------------------
# worker-side code (module-level so every start method can pickle it)
# ---------------------------------------------------------------------------

#: Per-worker state installed by :func:`_worker_init`.
_WORKER: dict | None = None


def _worker_init(payload: dict) -> None:
    """Pool initializer: attach the shared CSR and build the sampler.

    Attaching re-registers each segment with the resource tracker the
    worker shares with the parent — a set-insert no-op.  Ownership stays
    with the parent (create + unlink); workers only hold views.
    """
    global _WORKER
    views: dict[str, np.ndarray] = {}
    segments: list[_shm.SharedMemory] = []
    for key, (name, shape, dtype) in payload["arrays"].items():
        seg = _shm.SharedMemory(name=name)
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        arr.flags.writeable = False  # the CSR is read-only by contract
        views[key] = arr
        segments.append(seg)
    # The sampler only touches the in-direction and ``n``; aliasing the
    # out-direction to the same arrays satisfies the CSRGraph constructor
    # without shipping bytes the kernels never read.
    graph = CSRGraph(
        payload["n"],
        views["in_indptr"],
        views["in_indices"],
        views["in_probs"],
        views["in_indptr"],
        views["in_indices"],
        views["in_probs"],
    )
    sampler = BatchedRRRSampler(
        graph, payload["model"], max_cohort=payload["max_cohort"]
    )
    if "lt_cum" in views:
        sampler._lt_cum = views["lt_cum"]  # shared, bit-equal to a local build
    _WORKER = {
        "sampler": sampler,
        "segments": segments,
        "arena": {},  # arena segment name -> attached SharedMemory
    }


def _attach_arena(name: str) -> _shm.SharedMemory:
    assert _WORKER is not None
    seg = _WORKER["arena"].get(name)
    if seg is None:
        seg = _shm.SharedMemory(name=name)
        _WORKER["arena"][name] = seg
    return seg


def _sample_block(
    sampler: BatchedRRRSampler, indices: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample a non-empty block cohort by cohort: ``(flat, sizes, edges)``.

    The block function of both sides: a pool worker runs it behind
    :func:`_worker_block`, and a pool-less engine runs it in the parent.
    """
    cohorts = sampler.cohorts(indices, seed)
    flat, sizes, edges = (np.concatenate(parts) for parts in zip(*cohorts))
    return flat, sizes, edges


def _worker_block(
    indices: np.ndarray,
    seed: int,
    extent: tuple[str, int, int] | None,
    sleep_s: float = 0.0,
) -> tuple:
    """Sample one block of global indices into its arena extent.

    Returns the block *descriptor* ``(wrote_arena, flat_len,
    num_samples, checksum, sample_s, write_s, inline)`` — a handful of
    scalars when the payload fit the extent, or the payload itself in
    ``inline`` when it did not (the parent then grows its sizing
    estimate).
    """
    if sleep_s > 0.0:  # injected straggler: the worker stalls, then answers
        time.sleep(sleep_s)
    assert _WORKER is not None, "worker initializer did not run"
    checksum = stream_checksum(seed, indices)
    t0 = time.perf_counter()
    flat, size_arr, edge_arr = _sample_block(_WORKER["sampler"], indices, seed)
    t1 = time.perf_counter()
    sample_s = t1 - t0
    flat_len, ns = len(flat), len(size_arr)
    need = _extent_need(flat_len, ns)
    wrote = False
    if extent is not None and need <= extent[2]:
        seg = _attach_arena(extent[0])
        off = extent[1]
        np.ndarray(flat_len, dtype=np.int32, buffer=seg.buf, offset=off)[:] = flat
        off_sz = off + _align8(flat_len * 4)
        np.ndarray(ns, dtype=np.int64, buffer=seg.buf, offset=off_sz)[:] = size_arr
        np.ndarray(
            ns, dtype=np.int64, buffer=seg.buf, offset=off_sz + ns * 8
        )[:] = edge_arr
        wrote = True
    write_s = time.perf_counter() - t1
    inline = None if wrote else (flat, size_arr, edge_arr)
    return (wrote, flat_len, ns, checksum, sample_s, write_s, inline)


def _worker_ping() -> int:
    """Identify the answering worker (used to pre-spawn and enumerate)."""
    return os.getpid()


# ---------------------------------------------------------------------------
# parent-side engine
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Block:
    """One planned block of a ``sample_into`` call and its executions."""

    indices: np.ndarray  # the block's global sample indices
    lo: int  # position of its first sample within the call
    expected: int  # the stream checksum its executions must answer with
    primary: Future | None = None
    spec: Future | None = None  # at most one speculative copy
    started: float = 0.0  # when the loop began waiting on it

    def candidates(self) -> list[Future]:
        return [f for f in (self.primary, self.spec) if f is not None]


def _usable(fut: Future | None) -> bool:
    """A finished execution whose result survives (even a pool break)."""
    return (
        fut is not None
        and fut.done()
        and not fut.cancelled()
        and fut.exception() is None
    )


class ParallelSamplingEngine:
    """Process-pool RRR sampling over a shared-memory CSR.

    Drop-in alternative to :class:`BatchedRRRSampler` for the batch
    drivers: it exposes the same ``sample_into`` interface (and
    :func:`~repro.sampling.sampler.sample_batch` accepts it as
    ``sampler=``).

    Parameters
    ----------
    graph, model:
        The input graph and diffusion model.
    workers:
        Pool size.  ``workers=1`` runs without a pool: the parent samples
        each block itself — no shared memory, no IPC.
    chunk_size:
        Samples per fan-out block.  ``None`` (the default) enables
        :class:`AdaptiveChunkPolicy` — probe blocks growing toward a
        target block latency.  An explicit size pins static blocks
        (tests and the oracle use this to address block ordinals).
        Results never depend on it.
    max_cohort:
        Forwarded to every worker's :class:`BatchedRRRSampler`.
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"`` or ``None`` for the
        platform default.  Output is bit-identical across all of them.
    task_timeout:
        Seconds to wait for any single block before declaring the pool
        wedged (:class:`WorkerCrashError`).  ``None`` waits forever.
    arena_bytes:
        Size of the *first* output-arena segment.  ``None`` sizes it
        from the first call's sample count; tests pass tiny values to
        force the growable-segment path.
    """

    #: The function a pool worker runs per block.  Module-level, so every
    #: start method pickles it by reference.
    _block_task = staticmethod(_worker_block)
    #: Overall run deadline (``time.monotonic()`` seconds) the landing
    #: loop also wakes for, so :meth:`_before_wait` can act on it; the
    #: plain engine has none.
    _deadline_at: float | None = None

    def __init__(
        self,
        graph: CSRGraph,
        model: DiffusionModel | str,
        *,
        workers: int,
        chunk_size: int | None = None,
        max_cohort: int | None = None,
        start_method: str | None = None,
        task_timeout: float | None = 300.0,
        arena_bytes: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if arena_bytes is not None and arena_bytes < 1:
            raise ValueError("arena_bytes must be positive")
        self.graph = graph
        self.model = DiffusionModel.parse(model)
        self.workers = workers
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self._closed = False
        self._segments: list[_shm.SharedMemory] = []
        self._pool: ProcessPoolExecutor | None = None
        self._payload: dict | None = None
        self._mp_ctx = None
        self.stats = EngineStats()
        # -- output arena state (all parent-side; no shared locks) ----------
        self._arena_override = arena_bytes
        self._arena: list[dict] = []  # {"seg", "size", "cursor"} per segment
        self._arena_active = 0
        self._arena_hint = 0  # samples the current call wants room for
        self._bytes_per_sample = ARENA_BYTES_PER_SAMPLE_GUESS
        self._inflight: set[Future] = set()
        #: Pools replaced by :meth:`rebuild_pool` whose worker processes
        #: may not have exited yet.  A surviving worker of a broken pool
        #: can still be executing an abandoned block — writing to its
        #: arena extent and attach-registering segments with the
        #: resource tracker — so arena cursors must not rewind and
        #: segments must not unlink until these are reaped.
        self._retired_pools: list[ProcessPoolExecutor] = []
        # LT: one cumulative-weight table, built once and shared with
        # every worker (bit-equal to what each would build locally).
        self._lt_cum = (
            in_edge_cumweights(graph) if self.model is DiffusionModel.LT else None
        )
        self._local = BatchedRRRSampler(graph, self.model, max_cohort=max_cohort)
        if self._lt_cum is not None:
            self._local._lt_cum = self._lt_cum
        if workers == 1:
            return  # in-process degenerate mode: nothing else to set up
        arrays = {
            "in_indptr": graph.in_indptr,
            "in_indices": graph.in_indices,
            "in_probs": graph.in_probs,
        }
        if self._lt_cum is not None:
            arrays["lt_cum"] = self._lt_cum
        spec: dict[str, tuple[str, tuple, str]] = {}
        try:
            self._mp_ctx = get_context(start_method)
            for key, arr in arrays.items():
                seg = _shm.SharedMemory(create=True, size=max(1, arr.nbytes))
                self._segments.append(seg)
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
                view[:] = arr
                spec[key] = (seg.name, tuple(arr.shape), arr.dtype.str)
            self._payload = {
                "arrays": spec,
                "n": graph.n,
                "model": self.model.value,
                "max_cohort": self._local.max_cohort,
            }
            self._pool = self.spawn_pool()
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment (idempotent).

        This covers the CSR segments and every output-arena segment — on
        success paths and on every typed-error path alike.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        # Retired (replaced) pools' survivors may still touch the arena;
        # join them before any segment goes away.
        self._reap_retired_pools(wait=True)
        for rec in getattr(self, "_arena", ()):
            self._segments.append(rec["seg"])
        self._arena = []
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    def __enter__(self) -> "ParallelSamplingEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _require_open(self) -> None:
        if self._closed:
            raise ParallelEngineError("engine is closed")

    # -- pool lifecycle (the supervisor's recovery primitives) ---------------

    def spawn_pool(self, *, warm: bool = False) -> ProcessPoolExecutor:
        """A fresh worker pool attached to this engine's shared segments.

        The pool is *not* installed — it is returned for the caller to
        hold (the supervisor keeps pre-spawned spares this way) or to
        pass to :meth:`rebuild_pool`.  ``warm=True`` forces the worker
        processes to actually start (and run the shm-attach initializer)
        before returning, so a later promotion costs no fork.
        """
        if self._payload is None:
            raise ParallelEngineError("single-worker engine has no pool to spawn")
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._mp_ctx,
            initializer=_worker_init,
            initargs=(self._payload,),
        )
        if warm:
            # One submit makes the executor fork all max_workers at once;
            # waiting on it guarantees at least one initializer finished.
            pool.submit(_worker_ping).result()
        return pool

    def rebuild_pool(self, pool: ProcessPoolExecutor | None = None) -> None:
        """Replace the current (possibly broken) pool.

        The dead pool is shut down without touching the shared segments —
        ownership of those never moves — and ``pool`` (or a freshly
        spawned one) is installed in its place.  Outstanding futures of
        the old pool are cancelled; the caller re-submits whatever it
        still needs (deterministic replay makes that safe).
        """
        self._require_open()
        if self._payload is None:
            raise ParallelEngineError("single-worker engine has no pool to rebuild")
        old, self._pool = self._pool, None
        if old is not None:
            # wait=False keeps recovery responsive (a wedged straggler in
            # the dead pool must not stall the rebuild), so the old pool
            # is retired instead of forgotten: its survivors may still be
            # running abandoned blocks against the arena.
            old.shutdown(wait=False, cancel_futures=True)
            self._retired_pools.append(old)
        self._pool = pool if pool is not None else self.spawn_pool()

    # -- output arena (parent-assigned extents, no shared locks) -------------

    def _maybe_reset_arena(self, hint_samples: int) -> None:
        """Rewind the arena cursors for a fresh call, if quiescent.

        Extents are handed out monotonically within a call; between
        calls the whole arena is reusable **unless** futures are still
        in flight (a speculative loser, an abandoned post-deadline
        block) — those may still write to their extents, so the cursors
        stay put and the arena simply keeps growing forward.
        """
        self._arena_hint = max(self._arena_hint, hint_samples)
        if self._inflight or not self._reap_retired_pools(wait=False):
            return
        for rec in self._arena:
            rec["cursor"] = 0
        self._arena_active = 0

    def _reap_retired_pools(self, *, wait: bool) -> bool:
        """Drop retired pools whose workers have all exited.

        ``wait=True`` joins them (used by :meth:`close` before segments
        unlink); ``wait=False`` only polls, so callers can fall back to
        growing the arena forward instead of blocking recovery.  Returns
        ``True`` when no retired worker process remains alive.
        """
        still_live: list[ProcessPoolExecutor] = []
        for pool in self._retired_pools:
            if wait:
                pool.shutdown(wait=True, cancel_futures=True)
                continue
            procs = getattr(pool, "_processes", None) or {}
            if any(p.is_alive() for p in procs.values()):
                still_live.append(pool)
        self._retired_pools = still_live
        return not still_live

    def _new_arena_segment(self, min_bytes: int) -> dict | None:
        if len(self._arena) >= ARENA_MAX_SEGMENTS:
            return None
        if not self._arena:
            if self._arena_override is not None:
                size = max(self._arena_override, min_bytes)
            else:
                size = min(
                    ARENA_MAX_INITIAL_BYTES,
                    max(
                        ARENA_MIN_BYTES,
                        min_bytes,
                        2 * self._arena_hint * self._bytes_per_sample,
                    ),
                )
        else:
            size = max(2 * self._arena[-1]["size"], 4 * min_bytes)
        seg = _shm.SharedMemory(create=True, size=max(1, size))
        rec = {"seg": seg, "size": size, "cursor": 0}
        self._arena.append(rec)
        self.stats.arena_segments = len(self._arena)
        self.stats.arena_bytes += size
        return rec

    def _reserve_extent(self, num_samples: int):
        """Assign a disjoint arena extent for a block of ``num_samples``.

        Parent-side bump allocation only: no lock exists for a killed
        worker to die holding.  Returns ``None`` when the arena is at
        its segment cap — the block then rides back inline.
        """
        cap = _align8(self._bytes_per_sample * max(1, num_samples) + 64)
        i = self._arena_active
        while True:
            if i >= len(self._arena):
                rec = self._new_arena_segment(cap)
                if rec is None:
                    return None
                i = len(self._arena) - 1
            rec = self._arena[i]
            if rec["cursor"] + cap <= rec["size"]:
                off = rec["cursor"]
                rec["cursor"] = off + cap
                self._arena_active = i
                return (i, off, cap)
            i += 1

    def _note_block_size(self, num_samples: int, need: int) -> None:
        """Refine the bytes-per-sample estimate from a landed block."""
        if num_samples > 0:
            observed = math.ceil(1.5 * need / num_samples)
            if observed > self._bytes_per_sample:
                self._bytes_per_sample = observed

    # -- block submission / materialization ----------------------------------

    def submit_block(
        self,
        block: np.ndarray,
        seed: int,
        *,
        sleep_s: float = 0.0,
    ) -> Future:
        """Start one non-empty block of global sample indices.

        The primitive the landing loop submits through.  With a pool the
        block is assigned an output-arena extent and fanned out to a
        worker; the returned future resolves to the block *descriptor* —
        pass it to :meth:`_materialize` to obtain the zero-copy
        ``(flat, sizes, edges)`` views plus checksum.  Without a pool the
        parent samples the block itself, now, with the block function
        the workers run.  ``sleep_s`` stalls the execution first (an
        injected straggler).
        """
        self._require_open()
        self.stats.tasks_submitted += 1
        if self._pool is None:
            fut: Future = Future()
            if sleep_s > 0.0:
                time.sleep(sleep_s)
            t0 = time.perf_counter()
            flat, sizes, edges = _sample_block(self._local, block, seed)
            sample_s = time.perf_counter() - t0
            fut.set_result((flat, sizes, edges, stream_checksum(seed, block), sample_s))
            return fut
        extent = self._reserve_extent(len(block))
        wire = (
            None
            if extent is None
            else (self._arena[extent[0]]["seg"].name, extent[1], extent[2])
        )
        fut = self._pool.submit(self._block_task, block, seed, wire, sleep_s)
        fut._arena_extent = extent
        self._inflight.add(fut)
        fut.add_done_callback(self._inflight.discard)
        return fut

    def _materialize(self, fut: Future):
        """Resolve a finished block future into ``(flat, sizes, edges,
        checksum, sample_s)`` — zero-copy views over the block's arena
        extent, or the inline payload on overflow (which also grows the
        sizing estimate for future extents)."""
        desc = fut.result()
        if self._pool is None:  # the parent sampled it: no descriptor
            self.stats.sample_seconds += desc[4]
            return desc
        wrote, flat_len, ns, checksum, sample_s, write_s, inline = desc
        st = self.stats
        st.ipc_descriptor_bytes += len(pickle.dumps(desc, protocol=-1))
        st.sample_seconds += sample_s
        st.arena_write_seconds += write_s
        self._note_block_size(ns, _extent_need(flat_len, ns))
        if wrote:
            seg_idx, off, _cap = fut._arena_extent
            buf = self._arena[seg_idx]["seg"].buf
            flat = np.ndarray(flat_len, dtype=np.int32, buffer=buf, offset=off)
            off_sz = off + _align8(flat_len * 4)
            sizes = np.ndarray(ns, dtype=np.int64, buffer=buf, offset=off_sz)
            edges = np.ndarray(
                ns, dtype=np.int64, buffer=buf, offset=off_sz + ns * 8
            )
        else:
            st.arena_overflows += 1
            flat, sizes, edges = inline
        return flat, sizes, edges, checksum, sample_s

    def worker_pids(self) -> list[int]:
        """Live worker pids of the current pool (spawning it if lazy).

        Real fault injection needs actual victims: the supervisor sends
        SIGKILL to one of these.  ``ProcessPoolExecutor`` starts all
        workers on the first submit, so after one ping the private
        ``_processes`` map is fully populated.
        """
        self._require_open()
        if self._pool is None:
            return []
        self._pool.submit(_worker_ping).result()
        return sorted(self._pool._processes.keys())

    # -- sampling: the one landing loop ---------------------------------------

    def sample_into(
        self,
        collection: RRRCollection,
        sample_indices: np.ndarray,
        seed: int,
        *,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Generate the given global sample indices into ``collection``.

        Same contract as :meth:`BatchedRRRSampler.sample_into`; returns
        the per-sample examined-edge counts aligned with
        ``sample_indices``.  Blocks land in index order, so the
        collection is bit-identical to the serial engines' output.  The
        module docstring lists the steps a supervisor overrides.
        """
        self._require_open()
        indices = np.asarray(sample_indices, dtype=np.int64)
        total = len(indices)
        per_sample = np.empty(total, dtype=np.int64)
        if total == 0:
            return per_sample
        pos = self._open_run(collection, indices, seed, per_sample)
        if pos == total:
            return per_sample
        # Batched checksum handshake: one vectorized pass derives every
        # block's expected checksum; the worker's answer rides back in
        # the block descriptor — no separate round trip.
        seeds_arr = stream_seeds_array(seed, indices)
        chunk = chunk_size or self.chunk_size
        policy = (
            None
            if chunk is not None
            else AdaptiveChunkPolicy(total - pos, self.workers)
        )
        self.stats.chunk_initial = chunk if chunk is not None else policy.initial
        spans = self._plan(pos, total, chunk, policy)
        # Without a pool the parent samples a block as it submits it, so
        # planning ahead would only hold payloads.
        window = 2 * self.workers + 2 if self._pool is not None else 1
        first = self.stats.blocks_landed  # global ordinal of blocks[0]
        blocks: list[_Block] = []
        planning = True
        next_land = 0
        replay = False  # the pool was rebuilt: re-run every lost execution
        # Per-submission deadline: the watchdog clock starts when the work
        # is submitted and is refreshed only by *progress* (a block
        # landing), so each wait sees the remaining budget — a hung block
        # ``i`` cannot consume ``i x task_timeout`` wall-clock.
        watchdog = (
            None if self.task_timeout is None else time.monotonic() + self.task_timeout
        )
        while True:
            while planning and len(blocks) - next_land < window:
                span = next(spans, None)
                if span is None:
                    planning = False
                else:
                    lo, hi = span
                    blocks.append(
                        _Block(indices[lo:hi], lo, fold_stream_seeds(seeds_arr[lo:hi]))
                    )
            if next_land == len(blocks):
                return per_sample
            try:
                for bi in range(next_land, len(blocks)):
                    block = blocks[bi]
                    lost = replay and block.primary is not None and not _usable(block.primary)
                    if replay and not _usable(block.spec):
                        block.spec = None
                    if block.primary is None or lost:
                        block.primary = self.submit_block(
                            block.indices, seed, sleep_s=self._injected_sleep(first + bi)
                        )
                        self.stats.blocks_replayed += lost
                replay = False
            except BrokenProcessPool:
                self._recover("worker pool broke during block submission")
                replay = True
                continue
            bi = next_land
            block = blocks[bi]
            block.started = time.monotonic()
            while True:
                if self._before_wait(first + bi, len(collection)):
                    replay = True  # the pool was rebuilt under this block
                    break
                now = time.monotonic()
                spec_at = (
                    self._speculate_at(block.started) if block.spec is None else None
                )
                if spec_at is not None and now >= spec_at:
                    try:
                        block.spec = self.submit_block(block.indices, seed)
                    except BrokenProcessPool:
                        self._recover("speculative submission hit a broken pool")
                        replay = True
                        break
                    self.stats.speculative_launched += 1
                    continue
                if watchdog is not None and now >= watchdog:
                    self._recover(
                        f"block {bi} exhausted the remaining task_timeout budget "
                        f"(task_timeout={self.task_timeout}s since last progress); "
                        "pool shut down"
                    )
                    watchdog = time.monotonic() + self.task_timeout
                    replay = True
                    break
                wake = [t for t in (watchdog, spec_at, self._deadline_at) if t is not None]
                done, _ = _futures_wait(
                    block.candidates(),
                    timeout=max(0.0, min(wake) - now) if wake else None,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    continue  # one of the deadlines above came up
                winner = next((f for f in done if _usable(f)), None)
                if winner is None:
                    exc = next(iter(done)).exception()
                    if not isinstance(exc, (BrokenProcessPool, OSError)):
                        self.close()
                        raise ParallelEngineError(
                            f"worker raised while sampling block {bi}"
                        ) from exc
                    hi = block.lo + len(block.indices)
                    self._recover(f"worker died while sampling block {bi} [{block.lo}, {hi})")
                    replay = True
                    break
                flat, sizes, edges, checksum, sample_s = self._materialize(winner)
                if checksum != block.expected:
                    # The first checksum-valid result wins: drop this
                    # candidate and keep waiting on the other, if any.
                    if winner is block.primary:
                        block.primary = block.spec
                    block.spec = None
                    if block.primary is None:
                        self.close()
                        raise EngineProtocolError(
                            f"block {bi} stream-checksum mismatch: the worker did "
                            "not sample the global indices it was sent"
                        )
                    continue
                if winner is block.spec:
                    self.stats.speculative_wins += 1
                self._land(collection, block, flat, sizes, edges)
                per_sample[block.lo : block.lo + len(edges)] = edges
                self.stats.blocks_landed += 1
                if policy is not None:
                    policy.observe(len(block.indices), sample_s)
                if watchdog is not None:  # progress resets the watchdog
                    watchdog = time.monotonic() + self.task_timeout
                block.primary = block.spec = None
                next_land += 1
                break

    def _plan(
        self, lo: int, hi: int, chunk: int | None, policy: AdaptiveChunkPolicy | None
    ) -> Iterator[tuple[int, int]]:
        """Block spans over call positions ``[lo, hi)``, in index order.

        Lazy, so an adaptive ``policy`` sizes each block from every block
        landed before it is planned; a static ``chunk`` plans fixed spans.
        """
        while lo < hi:
            size = chunk if chunk is not None else policy.next_size()
            # the policy's settled size, not the clipped tail block
            self.stats.chunk_final = size
            yield lo, min(hi, lo + size)
            lo += size

    # -- the loop's steps (a supervisor heals where these fail fast) ---------

    def _open_run(
        self,
        collection: RRRCollection,
        indices: np.ndarray,
        seed: int,
        per_sample: np.ndarray,
    ) -> int:
        """Prepare a call; return how many leading samples are landed.

        The plain engine lands every sample itself: it rewinds the arena
        and returns 0.
        """
        self._maybe_reset_arena(len(indices))
        return 0

    def _injected_sleep(self, ordinal: int) -> float:
        """Seconds the execution of the block at global landing
        ``ordinal`` stalls before sampling (none here)."""
        return 0.0

    def _before_wait(self, ordinal: int, landed_total: int) -> bool:
        """Act before, and on every wake while, waiting on the block at
        global ``ordinal``; True means the pool was rebuilt, so the loop
        re-runs every lost execution.  The plain engine does nothing."""
        return False

    def _speculate_at(self, started: float) -> float | None:
        """When (``time.monotonic()``) to launch a speculative copy of a
        block waited on since ``started``; the plain engine never does."""
        return None

    def _recover(self, reason: str) -> None:
        """A broken pool or an expired watchdog.  The plain engine cannot
        heal: it closes, unlinking shared memory, and raises."""
        self.close()
        raise WorkerCrashError(f"{reason}; shared memory unlinked")

    def _land(
        self,
        collection: RRRCollection,
        block: _Block,
        flat: np.ndarray,
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> None:
        """Append one checksum-valid block to the collection."""
        t0 = time.perf_counter()
        collection.append_batch(flat, sizes, total=len(flat))
        self.stats.landing_seconds += time.perf_counter() - t0
