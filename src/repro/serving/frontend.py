"""Traffic-hardened async front end over the frozen-index serving layer.

:class:`ServingFrontend` is the piece that stands between many
concurrent callers and one :class:`~repro.serving.cache.IndexCache`.
The query engine underneath is bit-identical but *trusting*: a slow
``tighten`` re-enters the sampling path, a graph republish invalidates
the open memmaps, and nothing bounds how many callers pile onto one
index.  The front end adds the traffic contracts:

**Admission control.**  At most ``max_pending`` queries are in flight
(queued + executing); the next one is shed with a typed
:class:`~repro.serving.errors.AdmissionRejected` carrying a
``retry_after`` estimate — never an unbounded pileup.  A query whose
deadline expires while still queued is shed with
:class:`~repro.serving.errors.QueryDeadlineExceeded` rather than run for
nobody.

**Remembered answers take no worker thread.**  Every query holds one of
``concurrency`` worker slots while it runs, so queueing, deadlines and
injected stragglers treat all reads alike.  A ``top_k`` whose replay
rounds and final pick the engine already remembers is a lookup: in its
slot it is answered on the event loop, without a thread hop.  Any other
read, and a ``top_k`` the memo cannot finish, runs in a worker thread.

**Coalescing + single-writer discipline.**  Identical in-prefix queries
(same index identity, same arguments) batch onto one execution — one
kernel run, every waiter gets the same answer.  In-prefix reads run
concurrently against the shared mapped arrays: index *extension*
(tighten, out-of-prefix θ) appends strictly past the sealed prefix and
never rewrites it, so a reader's prefix views stay valid while a writer
grows the tail — but only **one** writer may append at a time, enforced
by a per-index asyncio lock (the bulkhead).  A circuit breaker counts
consecutive extension failures/timeouts; once open, extension-needing
queries degrade immediately instead of queueing behind a sick sampler.

**Deadline-bounded graceful degradation.**  When a query needs samples
beyond the frozen prefix but the extension cannot run (no deadline
budget, breaker open, no graph attached, or the attempt itself crashed),
the front end answers from the prefix it has and says so: a typed
:class:`DegradedServingResult` whose ``theta_effective`` is the frozen
sample count and whose ``epsilon_effective`` is recomputed by the same
shrink arithmetic the distributed runtime uses (λ* scales as 1/ε², so
the ε certified by the surviving ``θ_eff · LB`` budget inverts in closed
form).  Every response is therefore either bit-identical to a fresh
``imm()`` or explicitly degraded — never silently wrong.

**Fault injection.**  The ``FaultPlan`` grammar drives serving faults
(``slowquery:QxS``, ``stale:@Q``, ``extendfail:@NxK``): stragglers,
mid-flight graph republish (``StaleIndexError`` → hot re-open and
re-dispatch, at most once per query), and extension crashes.  The
``validate`` frontend oracle axis replays these against every registry
graph and asserts the response contract above.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..mpi.faults import FaultPlan
from .cache import IndexCache
from .errors import AdmissionRejected, QueryDeadlineExceeded
from .frozen import FrozenIndexError, StaleIndexError
from .query import DegradedServingResult, MarginalGains, ServingResult

__all__ = [
    "ServingFrontend",
    "CircuitBreaker",
    "FrontendStats",
    "ewma_update",
]

# EWMA smoothing for latency / extension-cost estimates.
_EWMA = 0.8


def ewma_update(
    prev: float | None, sample: float, alpha: float = _EWMA
) -> float:
    """One exponentially-weighted moving-average step.

    ``None`` seeds the estimate with the first sample.  Shared by the
    front end's latency/extension-cost estimators and the cluster
    router's per-replica latency tracking, so every smoothed estimate in
    the serving stack decays identically.
    """
    return sample if prev is None else alpha * prev + (1.0 - alpha) * sample


@dataclass
class FrontendStats:
    """Traffic counters, one instance per front end."""

    admitted: int = 0
    rejected: int = 0
    deadline_shed: int = 0
    coalesced: int = 0
    completed: int = 0
    remembered: int = 0
    degraded: int = 0
    republishes: int = 0
    extension_attempts: int = 0
    extension_failures: int = 0
    breaker_trips: int = 0
    peak_inflight: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class CircuitBreaker:
    """Consecutive-failure breaker guarding the extension bulkhead.

    ``closed`` → extensions run; ``threshold`` consecutive failures →
    ``open`` (extensions degrade immediately); after ``cooldown``
    seconds one probe is allowed (``half-open``) — its success closes
    the breaker, its failure re-opens it for another cooldown.
    """

    def __init__(
        self, threshold: int = 3, cooldown: float = 30.0, clock=time.monotonic
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = "closed"
        self.failures = 0
        self.trips = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        if self.state == "open":
            if self._clock() - self._opened_at >= self.cooldown:
                self.state = "half-open"
                return True
            return False
        return True

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"

    def remaining_cooldown(self) -> float:
        """Seconds until an open breaker admits its half-open probe
        (0.0 when not open) — the router's retry-after estimate."""
        if self.state != "open":
            return 0.0
        return max(self.cooldown - (self._clock() - self._opened_at), 0.0)

    def record_failure(self) -> bool:
        """Count one failure; ``True`` when this one trips the breaker."""
        self.failures += 1
        if self.state == "half-open" or self.failures >= self.threshold:
            already_open = self.state == "open"
            self.state = "open"
            self._opened_at = self._clock()
            if not already_open:
                self.trips += 1
                return True
        return False


class ServingFrontend:
    """Asyncio front end owning an :class:`IndexCache`.

    Queries are submitted with an index ``path``; engines are leased
    from the cache (refcounted, so eviction can never unmap an index
    mid-query).  At most ``concurrency`` queries run at a time, each in
    a worker slot: CPU-bound work runs in a worker thread, and a
    remembered ``top_k`` is answered on the event loop without one.
    ``max_pending`` bounds total in-flight queries (executing + queued);
    ``default_deadline`` applies to queries submitted without one
    (``None`` = no deadline).
    """

    def __init__(
        self,
        cache: IndexCache | None = None,
        *,
        capacity: int = 4,
        max_pending: int = 64,
        concurrency: int = 4,
        default_deadline: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        fault_plan: FaultPlan | str | None = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.cache = cache if cache is not None else IndexCache(capacity=capacity)
        self.max_pending = max_pending
        self.concurrency = concurrency
        self.default_deadline = default_deadline
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self.injector = (fault_plan or FaultPlan()).injector()
        self.stats = FrontendStats()
        self._sem = asyncio.Semaphore(concurrency)
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._qseq = 0
        self._closed = False
        self._coalesced: dict[tuple, asyncio.Future] = {}
        # Reapers adopt extension threads that outlived their caller's
        # deadline: each holds the writer lock (and a cache pin) until
        # the thread actually exits.  close() joins them.
        self._reapers: set[asyncio.Task] = set()
        self._writer_locks: dict[Path, asyncio.Lock] = {}
        self._breakers: dict[Path, CircuitBreaker] = {}
        self._lat_ewma: float | None = None
        self._ext_ewma: float | None = None

    # -- public queries ----------------------------------------------------

    async def top_k(
        self,
        path: str | Path,
        k: int | None = None,
        eps: float | None = None,
        *,
        graph=None,
        deadline: float | None = None,
    ) -> ServingResult:
        """``k`` best seeds — bit-identical to fresh ``imm`` when the
        answer fits the index (or the extension runs), typed-degraded
        otherwise."""
        path = self.cache.resolve(path)
        return await self._submit(
            path, graph, deadline,
            ckey=("top_k", path, k, eps),
            call=lambda eng: eng.top_k(k, eps, allow_extend=False),
            extend=lambda eng: eng.top_k(k, eps, allow_extend=True),
            recall=lambda eng: eng.top_k(k, eps, remembered=True),
            k=k, eps=eps,
        )

    async def what_if(
        self,
        path: str | Path,
        k: int | None = None,
        *,
        forced=(),
        excluded=(),
        graph=None,
        deadline: float | None = None,
    ) -> ServingResult:
        """Constrained selection — a pure index read, never extends."""
        path = self.cache.resolve(path)
        f = tuple(forced)
        x = tuple(excluded)
        return await self._submit(
            path, graph, deadline,
            ckey=("what_if", path, k, f, x),
            call=lambda eng: eng.what_if(k, forced=f, excluded=x),
            extend=None,
        )

    async def marginal_gain(
        self,
        path: str | Path,
        seed_set,
        candidates=None,
        *,
        graph=None,
        deadline: float | None = None,
    ) -> MarginalGains:
        """Spread + per-vertex marginals — a pure index read."""
        path = self.cache.resolve(path)
        s = tuple(seed_set)
        c = None if candidates is None else tuple(candidates)
        return await self._submit(
            path, graph, deadline,
            ckey=("marginal", path, s, c),
            call=lambda eng: eng.marginal_gain(
                s, None if c is None else np.asarray(c, dtype=np.int64)
            ),
            extend=None,
        )

    async def tighten(
        self,
        path: str | Path,
        eps: float,
        k: int | None = None,
        *,
        graph=None,
        deadline: float | None = None,
    ) -> ServingResult:
        """Re-derive at a tighter ε and amend the manifest.

        A write by definition: runs behind the bulkhead (never
        coalesced).  When the extension cannot run, the answer degrades
        from the prefix and the manifest is *not* amended.
        """
        path = self.cache.resolve(path)
        return await self._submit(
            path, graph, deadline,
            ckey=None,
            call=None,
            extend=lambda eng: eng.tighten(eps, k=k),
            k=k, eps=eps,
        )

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Quiesce: refuse new queries, drain in-flight ones, join any
        leaked extension threads, close every cached index.  Afterwards
        no engines, memmaps, or tasks leak."""
        self._closed = True
        await self._idle.wait()
        while self._reapers:
            # A leaked extension thread is still appending — closing its
            # memmaps under it would tear the index.  Wait it out.
            await asyncio.gather(*list(self._reapers), return_exceptions=True)
        self.cache.close()

    async def __aenter__(self) -> "ServingFrontend":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- admission ---------------------------------------------------------

    def _admit(self) -> int:
        if self._closed:
            self.stats.rejected += 1
            raise AdmissionRejected(
                "shutdown", 0.0, self._inflight, self.max_pending
            )
        if self._inflight >= self.max_pending:
            self.stats.rejected += 1
            raise AdmissionRejected(
                "queue-full", self._retry_after(), self._inflight,
                self.max_pending,
            )
        self._inflight += 1
        self._idle.clear()
        self.stats.admitted += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight, self._inflight)
        qid = self._qseq
        self._qseq += 1
        return qid

    def _retry_after(self) -> float:
        """Backlog depth × observed per-query latency, per worker."""
        per_query = self._lat_ewma if self._lat_ewma is not None else 0.05
        backlog = max(self._inflight - self.concurrency + 1, 1)
        return max(per_query * backlog / max(self.concurrency, 1), 1e-3)

    def _release(self, started: float) -> None:
        self._lat_ewma = ewma_update(
            self._lat_ewma, time.perf_counter() - started
        )
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    # -- submission / coalescing -------------------------------------------

    async def _submit(
        self, path, graph, deadline, *, ckey, call, extend, recall=None,
        k=None, eps=None,
    ):
        qid = self._admit()
        started = time.perf_counter()
        try:
            loop = asyncio.get_running_loop()
            dl = self.default_deadline if deadline is None else deadline
            expires = None if dl is None else loop.time() + dl
            if ckey is not None:
                # Same arguments is not enough to share an answer: the
                # key carries the on-disk index *identity*, so a query
                # admitted after a republish never rides an execution
                # started against the old index (it would get a stale
                # answer with no StaleIndexError re-dispatch).
                ckey = (*ckey, self.cache.identity(path))
                shared = self._coalesced.get(ckey)
                if shared is not None:
                    # An identical query is already running: ride it —
                    # under *this* caller's deadline, not the owner's.
                    self.stats.coalesced += 1
                    try:
                        if expires is None:
                            result = await asyncio.shield(shared)
                        else:
                            result = await asyncio.wait_for(
                                asyncio.shield(shared),
                                timeout=expires - loop.time(),
                            )
                        self.stats.completed += 1
                        return result
                    except asyncio.TimeoutError:
                        self.stats.deadline_shed += 1
                        raise QueryDeadlineExceeded(
                            waited=dl + max(loop.time() - expires, 0.0),
                            deadline=dl,
                        ) from None
                    except (QueryDeadlineExceeded, StaleIndexError):
                        # The owner's budget or republish retry, not a
                        # property of the query itself: traffic outcomes
                        # don't transfer between callers with different
                        # budgets — run the query ourselves.
                        pass
                    except asyncio.CancelledError:
                        if not shared.done():
                            raise  # our own cancellation, owner lives on
                        pass  # owner was cancelled: owner-specific too
                    result = await self._execute(
                        qid, path, graph, expires, dl, call, extend, recall,
                        k, eps,
                    )
                    self.stats.completed += 1
                    return result
                fut: asyncio.Future = loop.create_future()
                self._coalesced[ckey] = fut
                try:
                    result = await self._execute(
                        qid, path, graph, expires, dl, call, extend, recall,
                        k, eps,
                    )
                except BaseException as exc:
                    if not fut.done():
                        fut.set_exception(exc)
                        fut.exception()  # mark retrieved: waiters re-raise
                    raise
                else:
                    if not fut.done():
                        fut.set_result(result)
                    self.stats.completed += 1
                    return result
                finally:
                    if self._coalesced.get(ckey) is fut:
                        del self._coalesced[ckey]
            result = await self._execute(
                qid, path, graph, expires, dl, call, extend, recall, k, eps
            )
            self.stats.completed += 1
            return result
        finally:
            self._release(started)

    # -- execution ---------------------------------------------------------

    async def _execute(
        self, qid, path, graph, expires, dl, call, extend, recall, k, eps
    ):
        async with self._sem:
            loop = asyncio.get_running_loop()
            if expires is not None and loop.time() > expires:
                self.stats.deadline_shed += 1
                raise QueryDeadlineExceeded(
                    waited=dl + (loop.time() - expires), deadline=dl
                )
            delay = self.injector.query_delay(qid)
            if delay:
                await asyncio.sleep(delay)
            redispatched = False
            while True:
                try:
                    with self.cache.lease(path, graph=graph) as eng:
                        if self.injector.stale_due(qid):
                            raise StaleIndexError(
                                f"graph republished under query {qid}"
                            )
                        if call is None:
                            # Pure write (tighten): straight to the bulkhead.
                            return await self._extended(
                                path, eng, expires, extend, k, eps, None
                            )
                        if recall is not None:
                            # A remembered answer is a lookup: answered
                            # here, on the event loop, with no thread hop.
                            result = recall(eng)
                            if result is not None:
                                self.stats.remembered += 1
                                return result
                        try:
                            return await asyncio.to_thread(call, eng)
                        except StaleIndexError:
                            raise
                        except FrozenIndexError as exc:
                            needed = getattr(exc, "needed", None)
                            if needed is None or extend is None:
                                raise
                            # Out-of-prefix: the replay wants `needed`
                            # samples the index does not hold.
                            return await self._extended(
                                path, eng, expires, extend, k, eps, needed
                            )
                except StaleIndexError:
                    if redispatched:
                        raise
                    # Mid-flight republish: hot re-open, re-dispatch once.
                    redispatched = True
                    self.stats.republishes += 1
                    self.cache.invalidate(path)

    # -- the extension bulkhead --------------------------------------------

    def _writer_lock(self, path: Path) -> asyncio.Lock:
        lock = self._writer_locks.get(path)
        if lock is None:
            lock = self._writer_locks[path] = asyncio.Lock()
        return lock

    def breaker(self, path: str | Path) -> CircuitBreaker:
        path = self.cache.resolve(path)
        brk = self._breakers.get(path)
        if brk is None:
            brk = self._breakers[path] = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown
            )
        return brk

    def _breaker_allows(self, brk: CircuitBreaker) -> bool:
        return brk.allow()

    async def _extended(self, path, eng, expires, extend, k, eps, needed):
        """Run the single-writer extension path, or degrade honestly."""
        loop = asyncio.get_running_loop()
        brk = self.breaker(path)
        if eng.graph is None:
            return await self._degrade(eng, k, eps, "no-graph", needed)
        if not self._breaker_allows(brk):
            return await self._degrade(eng, k, eps, "breaker-open", needed)
        if expires is not None:
            remaining = expires - loop.time()
            if remaining <= 0.0 or (
                self._ext_ewma is not None and remaining < self._ext_ewma
            ):
                return await self._degrade(eng, k, eps, "deadline", needed)
        lock = self._writer_lock(path)
        await lock.acquire()
        handed_off = False
        try:
            # Waiting may have consumed the budget or tripped the
            # breaker — re-check both before touching the sampler.
            if not self._breaker_allows(brk):
                return await self._degrade(eng, k, eps, "breaker-open", needed)
            remaining = None if expires is None else expires - loop.time()
            if remaining is not None and remaining <= 0.0:
                return await self._degrade(eng, k, eps, "deadline", needed)
            self.stats.extension_attempts += 1
            if self.injector.extend_failure():
                self.stats.extension_failures += 1
                if brk.record_failure():
                    self.stats.breaker_trips += 1
                return await self._degrade(
                    eng, k, eps, "extension-failed", needed
                )
            t0 = time.perf_counter()
            task = asyncio.ensure_future(asyncio.to_thread(extend, eng))
            try:
                result = await asyncio.wait_for(
                    asyncio.shield(task), timeout=remaining
                )
            except asyncio.TimeoutError:
                # The worker thread cannot be cancelled: it is still
                # appending.  Ownership of the writer lock (and a cache
                # pin on the engine) moves to a reaper that holds both
                # until the thread actually exits — a second extension
                # can never interleave with the leaked one, and eviction
                # cannot unmap the index under it.
                self.stats.extension_failures += 1
                if brk.record_failure():
                    self.stats.breaker_trips += 1
                handed_off = True
                self._adopt_leaked_writer(task, lock, brk, eng, t0)
                return await self._degrade(
                    eng, k, eps, "extension-timeout", needed
                )
            except asyncio.CancelledError:
                # Caller cancelled mid-extend: same leak, same handoff.
                handed_off = True
                self._adopt_leaked_writer(task, lock, brk, eng, t0)
                raise
            self._ext_ewma = ewma_update(
                self._ext_ewma, time.perf_counter() - t0
            )
            brk.record_success()
            return result
        finally:
            if not handed_off:
                lock.release()

    def _adopt_leaked_writer(self, task, lock, brk, eng, t0) -> None:
        """Own a still-running extension thread until it exits.

        The adopting reaper keeps the single-writer bulkhead closed and
        the engine's cache entry pinned, so the leaked append can never
        interleave with a later extension or lose its memmaps to
        eviction.  A late *success* is real — the index grew durably and
        the sampler proved healthy — so it closes the breaker and feeds
        the cost EWMA; a late crash adds nothing the timeout's failure
        record didn't already say.
        """
        unpin = self.cache.pin(eng)

        async def reap() -> None:
            try:
                await task
            except BaseException:
                pass
            else:
                brk.record_success()
                self._ext_ewma = ewma_update(
                    self._ext_ewma, time.perf_counter() - t0
                )
            finally:
                unpin()
                lock.release()

        reaper = asyncio.ensure_future(reap())
        self._reapers.add(reaper)
        reaper.add_done_callback(self._reapers.discard)

    # -- degradation -------------------------------------------------------

    async def _degrade(
        self, eng, k, eps, reason: str, needed: int | None
    ) -> DegradedServingResult:
        """Answer from the frozen prefix with honest accounting."""
        result = await asyncio.to_thread(eng.degraded, k, eps, reason, needed)
        self.stats.degraded += 1
        return result
