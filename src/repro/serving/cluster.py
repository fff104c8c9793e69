"""Replicated serving cluster: health-checked routing over N front ends.

One :class:`~repro.serving.frontend.ServingFrontend` is a single point
of failure: its process pauses, its host partitions, its queue fills —
and every caller stalls with it.  :class:`ClusterRouter` fronts ``N``
replicas (in-process asyncio replicas, each owning its own
:class:`~repro.serving.cache.IndexCache` and memmaps over the shared
frozen index) and adds the cluster contracts:

**Consistent-hash routing.**  Each query is routed by rendezvous
(highest-random-weight) hashing of the index *identity* — the same
``(graph_fingerprint, model, seed, k, eps, l, theta_cap)`` key the cache
uses — over the replica set, with a deterministic ``blake2b`` score (never Python's
salted ``hash``).  The same identity always lands on the same primary
replica across routers and processes, and the rest of the rendezvous
order *is* the failover order.

**Health-checked failover.**  Every replica carries a consecutive-
failure score and its own :class:`CircuitBreaker`; unreachable dispatch
attempts (injected crashes, partitions) feed it, and an open breaker
takes the replica out of the rotation until its cooldown admits a
half-open probe.  A failed dispatch falls over to the next replica in
rendezvous order, with capped exponential backoff between attempts.

**Tail-latency hedging.**  Read queries that outlive the hedge delay —
an EWMA-smoothed p99 of observed cluster latency, or an explicit
``hedge_after`` — get a duplicate dispatch on the next healthy replica.
First answer wins; the loser is cancelled and counted.  Extension and
write traffic (``tighten``, and any query submitted with a graph, i.e.
able to extend the index) is **never** hedged and always routes to the
identity's single *writer* replica — the rendezvous primary — so the
PR 8 single-writer bulkhead stays single cluster-wide.

**Honest unavailability.**  When every replica is down, a selection
query is answered from the router's own stale local prefix as a typed
:class:`~repro.serving.query.DegradedServingResult` with
``theta_effective`` / ``epsilon_effective`` from the same shrink
arithmetic as everywhere else, and anything that cannot be served that
way is refused with a typed
:class:`~repro.serving.errors.ClusterUnavailable` carrying a
``retry_after`` — never a hang, never silently wrong data.

Cluster faults (``replicacrash:R@Q``, ``replicaslow:RxS``,
``partition:R@Q[xD]``) are driven by the same declarative
:class:`~repro.mpi.faults.FaultPlan` grammar as the SPMD runtime and the
single front end, addressed by the router's admission sequence number.
The ``validate`` cluster oracle axis replays them on every run.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from ..mpi.faults import FaultPlan
from .cache import IndexCache
from .errors import AdmissionRejected, ClusterUnavailable, ServingFrontendError
from .frontend import CircuitBreaker, ServingFrontend, ewma_update
from .query import MarginalGains, ServingResult

__all__ = [
    "ClusterRouter",
    "ClusterStats",
    "ReplicaUnreachableError",
]


def _p99(window) -> float:
    """The 99th percentile of ``window`` as ``np.percentile`` computes
    it (linear interpolation, the same rounding), without NumPy."""
    ordered = sorted(window)
    pos = (len(ordered) - 1) * 0.99
    lo = math.floor(pos)
    if lo >= len(ordered) - 1:
        return float(ordered[-1])
    a, b = ordered[lo], ordered[lo + 1]
    t = pos - lo
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


class ReplicaUnreachableError(ServingFrontendError):
    """A dispatch found its replica crashed or partitioned (internal to
    the router's failover loop; callers see it only from :meth:`probe`
    summaries, never from query methods)."""

    def __init__(self, replica: int, qid: int) -> None:
        super().__init__(f"replica {replica} unreachable for query {qid}")
        self.replica = replica
        self.qid = qid


@dataclass
class ClusterStats:
    """Router-level traffic counters (replica front ends keep their own
    :class:`~repro.serving.frontend.FrontendStats`)."""

    routed: int = 0
    failovers: int = 0
    write_retries: int = 0
    writer_fallbacks: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    replica_failures: int = 0
    probes: int = 0
    unavailable: int = 0
    degraded_local: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _Replica:
    """One replica plus its health accounting."""

    idx: int
    frontend: ServingFrontend
    breaker: CircuitBreaker
    dispatched: int = 0
    consecutive_failures: int = 0
    lat_ewma: float | None = field(default=None)


class ClusterRouter:
    """Health-checked, hedging router over ``num_replicas`` front ends.

    The public query surface mirrors :class:`ServingFrontend` exactly
    (``top_k`` / ``what_if`` / ``marginal_gain`` / ``tighten``), so a
    caller — or the ``repro-imm serve`` driver — swaps one for the other
    without changing call sites.
    """

    def __init__(
        self,
        num_replicas: int = 2,
        *,
        capacity: int = 4,
        max_pending: int = 64,
        concurrency: int = 2,
        default_deadline: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        replica_breaker_threshold: int = 3,
        replica_breaker_cooldown: float = 5.0,
        failover_retries: int = 2,
        backoff_base: float = 0.005,
        backoff_cap: float = 0.25,
        hedge: bool = True,
        hedge_after: float | None = None,
        degrade_on_unavailable: bool = True,
        fault_plan: FaultPlan | str | None = None,
    ) -> None:
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        if failover_retries < 0:
            raise ValueError(
                f"failover_retries must be >= 0, got {failover_retries}"
            )
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self.injector = (fault_plan or FaultPlan()).injector()
        self.failover_retries = failover_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.hedge = hedge
        self.hedge_after = hedge_after
        self.degrade_on_unavailable = degrade_on_unavailable
        self.stats = ClusterStats()
        self._replicas = [
            _Replica(
                idx=i,
                # No fault plan on the replicas: cluster faults live in
                # the router's injector, addressed by *its* sequence.
                frontend=ServingFrontend(
                    capacity=capacity,
                    max_pending=max_pending,
                    concurrency=concurrency,
                    default_deadline=default_deadline,
                    breaker_threshold=breaker_threshold,
                    breaker_cooldown=breaker_cooldown,
                ),
                breaker=CircuitBreaker(
                    replica_breaker_threshold, replica_breaker_cooldown
                ),
            )
            for i in range(num_replicas)
        ]
        # The router's own small cache: path resolves and identity reads
        # for routing, and the stale-local-prefix fallback when every
        # replica is down.
        self._local = IndexCache(capacity=max(2, capacity))
        self._lats: deque[float] = deque(maxlen=64)
        self._p99_ewma: float | None = None
        self._qseq = 0
        self._closed = False

    # -- public queries (mirror ServingFrontend) ---------------------------

    async def top_k(
        self,
        path: str | Path,
        k: int | None = None,
        eps: float | None = None,
        *,
        graph=None,
        deadline: float | None = None,
    ) -> ServingResult:
        path = self._local.resolve(path)
        if graph is not None:
            # Extension-capable: single-writer traffic, never hedged.
            return await self._write(
                "top_k", path, (k, eps), {"deadline": deadline},
                graph=graph, k=k, eps=eps,
            )
        return await self._read(
            "top_k", path, (k, eps), {"deadline": deadline}, k=k, eps=eps
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
        path = self._local.resolve(path)
        return await self._read(
            "what_if", path, (k,),
            {"forced": forced, "excluded": excluded, "graph": graph,
             "deadline": deadline},
            k=k,
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
        path = self._local.resolve(path)
        return await self._read(
            "marginal_gain", path, (seed_set, candidates),
            {"graph": graph, "deadline": deadline},
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
        path = self._local.resolve(path)
        return await self._write(
            "tighten", path, (eps,), {"k": k, "deadline": deadline},
            graph=graph, k=k, eps=eps,
        )

    # -- health ------------------------------------------------------------

    async def probe(self, path: str | Path) -> dict[int, str]:
        """One cheap probe query per replica; returns ``idx -> "ok"`` or
        the failure type name.  Successes close the replica breaker, so
        probing accelerates recovery of healed replicas."""
        path = self._local.resolve(path)
        out: dict[int, str] = {}
        for rep in self._replicas:
            qid = self._admit()
            self.stats.probes += 1
            try:
                await self._dispatch(rep, qid, "what_if", path, 1)
                out[rep.idx] = "ok"
            except ServingFrontendError as exc:
                out[rep.idx] = type(exc).__name__
        return out

    def replica_stats(self) -> list[dict]:
        """Per-replica health snapshot (dispatch counts, failure score,
        breaker state, smoothed latency)."""
        return [
            {
                "replica": rep.idx,
                "dispatched": rep.dispatched,
                "consecutive_failures": rep.consecutive_failures,
                "breaker_state": rep.breaker.state,
                "lat_ewma": rep.lat_ewma,
            }
            for rep in self._replicas
        ]

    @property
    def replicas(self) -> int:
        return len(self._replicas)

    def frontends(self) -> list[ServingFrontend]:
        return [rep.frontend for rep in self._replicas]

    # -- lifecycle ---------------------------------------------------------

    async def close(self) -> None:
        """Quiesce every replica front end and the router's local cache.
        Afterwards new queries are refused with a typed rejection."""
        self._closed = True
        await asyncio.gather(*(rep.frontend.close() for rep in self._replicas))
        self._local.close()

    async def __aenter__(self) -> "ClusterRouter":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- routing -----------------------------------------------------------

    def _admit(self) -> int:
        if self._closed:
            raise AdmissionRejected("shutdown", 0.0, 0, 0)
        qid = self._qseq
        self._qseq += 1
        return qid

    def _order(self, path: Path) -> list[_Replica]:
        """Rendezvous (HRW) order of replicas for this index identity.

        Deterministic across routers and processes: the score is a
        ``blake2b`` of ``identity|replica``, so the same frozen instance
        always elects the same primary (= writer) and the same failover
        sequence, no matter which router computes it.

        The identity comes from the router's cache: one ``os.stat``
        while the manifest is settled and unchanged.
        """
        ident = repr(self._local.identity(path))

        def score(rep: _Replica) -> int:
            digest = hashlib.blake2b(
                f"{ident}|{rep.idx}".encode(), digest_size=8
            ).digest()
            return int.from_bytes(digest, "big")

        return sorted(self._replicas, key=score, reverse=True)

    def _hedge_delay(self) -> float:
        if self.hedge_after is not None:
            return self.hedge_after
        if self._p99_ewma is not None:
            return max(self._p99_ewma, 1e-4)
        return 0.05

    def _observe(self, lat: float) -> None:
        self._lats.append(lat)
        self._p99_ewma = ewma_update(self._p99_ewma, _p99(self._lats))

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** max(attempt, 0)))

    def _retry_after(self) -> float:
        waits = [rep.breaker.remaining_cooldown() for rep in self._replicas]
        return max(min(waits) if waits else 0.0, 1e-3)

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, rep: _Replica, qid: int, op: str, path, *args,
                        **kwargs):
        """One attempt against one replica, health-accounted."""
        inj = self.injector
        if inj.replica_crashed(rep.idx, qid) or inj.replica_partitioned(
            rep.idx, qid
        ):
            rep.consecutive_failures += 1
            self.stats.replica_failures += 1
            rep.breaker.record_failure()
            raise ReplicaUnreachableError(rep.idx, qid)
        delay = inj.replica_delay(rep.idx)
        if delay:
            await asyncio.sleep(delay)
        t0 = time.perf_counter()
        result = await getattr(rep.frontend, op)(path, *args, **kwargs)
        lat = time.perf_counter() - t0
        rep.lat_ewma = ewma_update(rep.lat_ewma, lat)
        self._observe(lat)
        rep.dispatched += 1
        rep.consecutive_failures = 0
        rep.breaker.record_success()
        return result

    # -- reads: failover + hedging -----------------------------------------

    async def _read(self, op, path, args, kwargs, *, k=None, eps=None):
        qid = self._admit()
        self.stats.routed += 1
        order = self._order(path)
        attempts = 0
        for rep in order:
            if attempts > self.failover_retries:
                break
            if not rep.breaker.allow():
                continue
            if attempts:
                self.stats.failovers += 1
                await asyncio.sleep(self._backoff(attempts - 1))
            attempts += 1
            try:
                return await self._hedged(rep, order, qid, op, path, args,
                                          kwargs)
            except ReplicaUnreachableError:
                continue
            except AdmissionRejected as exc:
                if exc.reason == "queue-full":
                    # This replica's queue is full, not the cluster's:
                    # spill to the next one.
                    continue
                raise
        return await self._unavailable(op, path, k, eps)

    async def _hedged(self, rep, order, qid, op, path, args, kwargs):
        """Dispatch with tail-latency hedging: first answer wins, the
        loser is cancelled and counted."""
        primary = asyncio.ensure_future(
            self._dispatch(rep, qid, op, path, *args, **kwargs)
        )
        alt = next(
            (r for r in order if r is not rep and r.breaker.allow()), None
        )
        if not self.hedge or alt is None:
            return await primary
        try:
            await asyncio.wait({primary}, timeout=self._hedge_delay())
        except asyncio.CancelledError:
            primary.cancel()
            raise
        if primary.done():
            return primary.result()
        self.stats.hedges += 1
        secondary = asyncio.ensure_future(
            self._dispatch(alt, qid, op, path, *args, **kwargs)
        )
        pending = {primary, secondary}
        last_exc: BaseException | None = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        for loser in pending:
                            loser.cancel()
                        if pending:
                            await asyncio.gather(
                                *pending, return_exceptions=True
                            )
                        if task is secondary:
                            self.stats.hedge_wins += 1
                        return task.result()
                    last_exc = task.exception()
        except asyncio.CancelledError:
            for task in (primary, secondary):
                task.cancel()
            raise
        assert last_exc is not None
        raise last_exc

    # -- writes: single writer, capped retry, read-only fallback -----------

    async def _write(self, op, path, args, kwargs, *, graph, k=None, eps=None):
        qid = self._admit()
        self.stats.routed += 1
        order = self._order(path)
        writer = order[0]
        for attempt in range(self.failover_retries + 1):
            if attempt:
                self.stats.write_retries += 1
                await asyncio.sleep(self._backoff(attempt - 1))
            if not writer.breaker.allow():
                break
            try:
                return await self._dispatch(
                    writer, qid, op, path, *args, graph=graph, **kwargs
                )
            except ReplicaUnreachableError:
                continue
        # The writer is down.  Failing the write over to another replica
        # would mint a second writer — instead serve the *read-only*
        # version from the failover order (the frontend degrades
        # honestly when the answer would need an extension).
        self.stats.writer_fallbacks += 1
        for rep in order[1:]:
            if not rep.breaker.allow():
                continue
            try:
                return await self._dispatch(
                    rep, qid, op, path, *args, graph=None, **kwargs
                )
            except ReplicaUnreachableError:
                continue
            except AdmissionRejected as exc:
                if exc.reason == "queue-full":
                    continue
                raise
        return await self._unavailable(op, path, k, eps)

    # -- every replica down: stale local prefix or typed refusal -----------

    async def _unavailable(self, op, path, k, eps):
        self.stats.unavailable += 1
        if self.degrade_on_unavailable and op in ("top_k", "tighten"):
            try:
                return await self._degrade_local(path, k, eps)
            except Exception:
                pass  # fall through to the typed refusal
        raise ClusterUnavailable(
            "no-healthy-replica", self._retry_after(), len(self._replicas)
        )

    async def _degrade_local(self, path, k, eps):
        """Answer a selection query from the router's own mapped prefix,
        typed degraded with the shrink-arithmetic accounting."""
        with self._local.lease(path) as eng:
            result = await asyncio.to_thread(
                eng.degraded, k, eps, "cluster-unavailable"
            )
        self.stats.degraded_local += 1
        return result
