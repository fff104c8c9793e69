"""Front-end tests (repro.serving.frontend / repro.serving.cache).

The contract under test: every response the front end returns is either
bit-identical to a fresh ``imm()`` run or a typed
:class:`DegradedServingResult` whose ``epsilon_effective`` follows the
shrink arithmetic exactly — under concurrency, overload, deadlines,
injected extension crashes, and mid-flight republish.  The chaos test at
the bottom throws all of those at one front end at once.
"""

import asyncio
import dataclasses
import os
import shutil
import sys
import threading
import time

import numpy as np
import pytest

import repro.serving.cache as cache_module
from repro.imm import imm
from repro.mpi.faults import FaultPlan
from repro.serving import (
    AdmissionRejected,
    CircuitBreaker,
    DegradedServingResult,
    FrozenRRRIndex,
    IndexCache,
    InfluenceQueryEngine,
    QueryDeadlineExceeded,
    ServingFrontend,
    StaleIndexError,
    freeze_index,
    shrink_epsilon,
)

K = 5
EPS = 0.5
SEED = 3
CAP = 300

run = asyncio.run


@pytest.fixture(scope="module")
def frozen(ba_graph, tmp_path_factory):
    """One capped frozen index shared by the in-prefix tests."""
    out = tmp_path_factory.mktemp("frontend") / "index"
    index, res = freeze_index(
        ba_graph, K, EPS, "IC", SEED, theta_cap=CAP, out_dir=out
    )
    index.close()
    return out, res


@pytest.fixture(scope="module")
def uncapped_src(ba_graph, tmp_path_factory):
    """Pristine uncapped index: tighter-eps queries go out-of-prefix."""
    out = tmp_path_factory.mktemp("frontend-uncapped") / "index"
    index, _ = freeze_index(
        ba_graph, K, EPS, "IC", SEED, theta_cap=None, out_dir=out
    )
    frozen_m = index.num_samples
    manifest = dict(index.manifest)
    index.close()
    return out, frozen_m, manifest


@pytest.fixture()
def uncapped(uncapped_src, tmp_path):
    """A throwaway copy — extension tests may grow it on disk."""
    src, frozen_m, manifest = uncapped_src
    dst = tmp_path / "index"
    shutil.copytree(src, dst)
    return dst, frozen_m, manifest


class TestBitIdentity:
    def test_concurrent_batch_matches_fresh(self, ba_graph, frozen):
        out, res = frozen

        async def body():
            async with ServingFrontend(concurrency=3) as fe:
                dup = 3
                batch = await asyncio.gather(
                    *[fe.top_k(out) for _ in range(dup)],
                    fe.what_if(out, K, forced=(int(res.seeds[-1]),)),
                    fe.marginal_gain(out, res.seeds[:2]),
                )
                return batch, fe.stats

        batch, stats = run(body())
        tops, wres, mres = batch[:3], batch[3], batch[4]
        for r in tops:
            assert np.array_equal(r.seeds, res.seeds)
            assert r.theta == res.theta
            assert not r.degraded
        assert int(wres.seeds[0]) == int(res.seeds[-1])
        assert mres.num_samples == res.theta
        assert stats.coalesced == 2  # three identical queries, one run
        assert stats.completed == 5

    def test_what_if_rejects_out_of_range_ids(self, ba_graph, frozen):
        out, _ = frozen

        async def body(**kw):
            async with ServingFrontend() as fe:
                return await fe.what_if(out, K, **kw)

        with pytest.raises(ValueError, match="out of range"):
            run(body(forced=(ba_graph.n,)))
        with pytest.raises(ValueError, match="out of range"):
            run(body(excluded=(-1,)))
        with pytest.raises(ValueError, match="not an integer"):
            run(body(forced=(1.7,)))

    def test_marginal_gain_rejects_out_of_range_ids(self, ba_graph, frozen):
        out, _ = frozen

        async def body(seed_set):
            async with ServingFrontend() as fe:
                return await fe.marginal_gain(out, seed_set)

        with pytest.raises(ValueError, match="out of range"):
            run(body([ba_graph.n + 7]))
        with pytest.raises(ValueError, match="out of range"):
            run(body([-3]))
        with pytest.raises(ValueError, match="not an integer"):
            run(body([0.9]))


class TestAdmission:
    def test_overload_sheds_typed(self, frozen):
        out, res = frozen

        async def body():
            fe = ServingFrontend(
                concurrency=1, max_pending=2, fault_plan="slowquery:0x0.05"
            )
            results = await asyncio.gather(
                *[fe.top_k(out) for _ in range(6)], return_exceptions=True
            )
            await fe.close()
            return results, fe.stats

        results, stats = run(body())
        served = [r for r in results if not isinstance(r, BaseException)]
        shed = [r for r in results if isinstance(r, AdmissionRejected)]
        assert len(served) + len(shed) == 6
        assert len(shed) == 4  # queue bound 2: leader + one coalescer
        for exc in shed:
            assert exc.reason == "queue-full"
            assert exc.retry_after > 0
            assert exc.limit == 2
        for r in served:
            assert np.array_equal(r.seeds, res.seeds)
        assert stats.peak_inflight <= 2
        assert stats.admitted == 2 and stats.rejected == 4

    def test_closed_frontend_refuses(self, frozen):
        out, _ = frozen

        async def body():
            fe = ServingFrontend()
            await fe.close()
            with pytest.raises(AdmissionRejected) as ei:
                await fe.top_k(out)
            return ei.value, len(fe.cache)

        exc, cached = run(body())
        assert exc.reason == "shutdown"
        assert cached == 0


class TestDeadline:
    def test_queued_past_deadline_is_shed(self, frozen):
        out, _ = frozen

        async def body():
            fe = ServingFrontend(concurrency=1, fault_plan="slowquery:0x0.2")
            r0, r1 = await asyncio.gather(
                fe.top_k(out),
                fe.what_if(out, K, deadline=0.05),
                return_exceptions=True,
            )
            await fe.close()
            return r0, r1, fe.stats

        r0, r1, stats = run(body())
        assert not isinstance(r0, BaseException)
        assert isinstance(r1, QueryDeadlineExceeded)
        assert r1.deadline == pytest.approx(0.05)
        assert r1.waited >= 0.05
        assert stats.deadline_shed == 1

    def test_rider_deadline_enforced_while_owner_runs(self, frozen):
        """A coalesced rider is shed by its *own* deadline even while
        the deadline-free owner keeps running."""
        out, res = frozen

        async def body():
            fe = ServingFrontend(concurrency=2, fault_plan="slowquery:0x0.3")
            owner, rider = await asyncio.gather(
                fe.top_k(out),
                fe.top_k(out, deadline=0.05),
                return_exceptions=True,
            )
            await fe.close()
            return owner, rider, fe.stats

        owner, rider, stats = run(body())
        assert not isinstance(owner, BaseException)
        assert np.array_equal(owner.seeds, res.seeds)
        assert isinstance(rider, QueryDeadlineExceeded)
        assert rider.deadline == pytest.approx(0.05)
        assert stats.coalesced == 1
        assert stats.deadline_shed == 1

    def test_owner_shed_does_not_shed_deadline_free_rider(self, frozen):
        """The owner's deadline is not the rider's: when the owner sheds
        at the worker, a deadline-free rider re-executes and completes
        instead of inheriting the owner's QueryDeadlineExceeded."""
        out, res = frozen

        async def body():
            fe = ServingFrontend(concurrency=1, fault_plan="slowquery:0x0.2")
            blocker, owner, rider = await asyncio.gather(
                fe.what_if(out, K),            # straggles, holds the worker
                fe.top_k(out, deadline=0.05),  # owner: sheds at the worker
                fe.top_k(out),                 # rider with no deadline
                return_exceptions=True,
            )
            await fe.close()
            return blocker, owner, rider, fe.stats

        blocker, owner, rider, stats = run(body())
        assert not isinstance(blocker, BaseException)
        assert isinstance(owner, QueryDeadlineExceeded)
        assert not isinstance(rider, BaseException), rider
        assert not rider.degraded
        assert np.array_equal(rider.seeds, res.seeds)
        assert stats.coalesced == 1 and stats.deadline_shed == 1

    def test_no_deadline_budget_degrades_instead_of_extending(
        self, ba_graph, uncapped
    ):
        path, frozen_m, _ = uncapped

        async def body():
            fe = ServingFrontend(fault_plan="slowquery:0x0.3")
            r = await fe.top_k(
                path, eps=EPS * 0.5, graph=ba_graph, deadline=0.1
            )
            await fe.close()
            return r, fe.stats

        r, stats = run(body())
        assert isinstance(r, DegradedServingResult)
        assert r.degraded_reason == "deadline"
        assert r.theta_effective == frozen_m
        assert stats.extension_attempts == 0  # never touched the sampler


class TestDegradedHonesty:
    def test_no_graph_out_of_prefix_degrades_with_shrink_eps(
        self, ba_graph, uncapped_src
    ):
        path, frozen_m, mf = uncapped_src

        async def body():
            async with ServingFrontend() as fe:
                deg = await fe.top_k(path, eps=EPS * 0.5)
                ref = await fe.what_if(path, K)  # full-prefix selection
                return deg, ref, fe.stats.degraded

        deg, ref, degraded_count = run(body())
        assert isinstance(deg, DegradedServingResult)
        assert deg.degraded and not ref.degraded
        assert deg.degraded_reason == "no-graph"
        assert deg.theta_effective == frozen_m
        assert deg.theta > deg.theta_effective  # the shortfall is visible
        lb = float(mf["lb"]) if mf.get("lb") is not None else 1.0
        want = shrink_epsilon(ba_graph.n, K, float(mf["l"]), frozen_m, lb)
        assert deg.epsilon_effective == pytest.approx(want, abs=1e-12)
        assert deg.epsilon_effective > EPS * 0.5  # honest: weaker than asked
        assert np.array_equal(deg.seeds, ref.seeds)
        assert degraded_count == 1

    def test_degraded_is_a_type_not_a_flag(self):
        from repro.serving import ServingResult

        assert DegradedServingResult.degraded.fget is not None
        base = ServingResult(
            seeds=np.arange(2), k=2, epsilon=0.5, model="IC", theta=10,
            num_samples_used=10, coverage=0.5, lb=1.0, estimation_rounds=1,
        )
        assert not base.degraded


class TestCircuitBreaker:
    def test_trips_after_threshold_and_cools_down(self):
        t = [0.0]
        brk = CircuitBreaker(threshold=2, cooldown=10.0, clock=lambda: t[0])
        assert brk.allow()
        assert not brk.record_failure()
        assert brk.record_failure()  # second failure trips
        assert brk.state == "open" and brk.trips == 1
        assert not brk.allow()
        t[0] = 10.0  # cooldown elapsed: one probe allowed
        assert brk.allow()
        assert brk.state == "half-open"
        brk.record_success()
        assert brk.state == "closed" and brk.failures == 0

    def test_half_open_failure_reopens(self):
        t = [0.0]
        brk = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: t[0])
        brk.record_failure()
        t[0] = 5.0
        assert brk.allow() and brk.state == "half-open"
        brk.record_failure()  # the probe died: straight back to open
        assert brk.state == "open" and brk.trips == 2
        assert not brk.allow()

    def test_extension_crashes_trip_breaker(self, ba_graph, uncapped):
        path, _, _ = uncapped

        async def body():
            fe = ServingFrontend(
                fault_plan="extendfail:@0x8",
                breaker_threshold=2,
                breaker_cooldown=600.0,
            )
            outcomes = []
            for i in range(3):
                r = await fe.top_k(
                    path, eps=EPS * 0.5 * (1.0 - 0.02 * i), graph=ba_graph
                )
                outcomes.append(r.degraded_reason)
            state = fe.breaker(path).state
            await fe.close()
            return outcomes, state, fe.stats

        outcomes, state, stats = run(body())
        assert outcomes == ["extension-failed", "extension-failed", "breaker-open"]
        assert state == "open"
        # once open, the sampler was NOT touched again:
        assert stats.extension_attempts == 2
        assert stats.extension_failures == 2
        assert stats.breaker_trips == 1

    def test_half_open_probe_recovers(self, ba_graph, uncapped):
        path, frozen_m, _ = uncapped

        async def body():
            fe = ServingFrontend(
                fault_plan="extendfail:@0x1",
                breaker_threshold=1,
                breaker_cooldown=0.0,  # probe allowed immediately
            )
            first = await fe.top_k(path, eps=EPS * 0.5, graph=ba_graph)
            second = await fe.top_k(path, eps=EPS * 0.6, graph=ba_graph)
            state = fe.breaker(path).state
            await fe.close()
            return first, second, state, fe.stats

        first, second, state, stats = run(body())
        assert isinstance(first, DegradedServingResult)
        assert not second.degraded  # the probe extension succeeded
        assert second.theta > frozen_m
        assert state == "closed"
        assert stats.breaker_trips == 1 and stats.extension_attempts == 2


class TestExtensionTimeout:
    def test_timed_out_extension_keeps_bulkhead_until_thread_exits(
        self, ba_graph, uncapped, monkeypatch
    ):
        """A deadline firing mid-extension must not release the
        single-writer bulkhead while the worker thread is still
        appending: the caller degrades immediately, the leaked thread is
        adopted (writer lock + cache pin held until it exits), and a
        follow-up extension serializes behind it instead of interleaving
        — afterwards the on-disk index still opens and seals, and the
        next answer is bit-identical to a fresh ``imm()``."""
        path, frozen_m, _ = uncapped
        real = InfluenceQueryEngine._ensure_samples
        slept = []

        def slow(self, target, allow_extend):
            if allow_extend and not slept and target > self.index.num_samples:
                slept.append(target)
                time.sleep(0.3)  # outlives the caller's 0.1s deadline
            return real(self, target, allow_extend)

        monkeypatch.setattr(InfluenceQueryEngine, "_ensure_samples", slow)
        tight = EPS * 0.45
        want = imm(
            ba_graph, K, tight, "IC", seed=SEED, layout="sorted",
            theta_cap=None,
        )

        async def body():
            fe = ServingFrontend()
            first = await fe.top_k(
                path, eps=EPS * 0.5, graph=ba_graph, deadline=0.1
            )
            # The leaked thread still holds the bulkhead: this second
            # extension must wait for it, then append past the grown
            # prefix — never interleave with the leaked append.
            second = await fe.top_k(path, eps=tight, graph=ba_graph)
            await fe.close()
            return first, second, fe.stats, len(fe._reapers)

        first, second, stats, reapers_left = run(body())
        assert isinstance(first, DegradedServingResult)
        assert first.degraded_reason == "extension-timeout"
        assert first.theta_effective == frozen_m
        assert stats.extension_failures == 1
        assert not second.degraded
        assert np.array_equal(second.seeds, want.seeds)
        assert second.theta == want.theta
        assert reapers_left == 0  # close() joined the adopted writer
        # Both appends landed coherently: the re-opened index seals.
        with FrozenRRRIndex.open(path) as index:
            assert index.num_samples > frozen_m


class TestRepublish:
    def test_post_republish_query_does_not_ride_stale_execution(
        self, ba_graph, uncapped, tmp_path
    ):
        """Coalescing is keyed by index *identity*: a query admitted
        after an on-disk republish must start its own execution against
        the new index, never ride one in flight against the old."""
        path, _, _ = uncapped

        async def body():
            fe = ServingFrontend(concurrency=2, fault_plan="slowquery:0x0.3")
            owner = asyncio.ensure_future(fe.top_k(path))  # qid 0 straggles
            await asyncio.sleep(0.1)  # owner is in flight
            # Republish behind it: same path, different identity.
            v2 = tmp_path / "v2"
            index, res2 = freeze_index(
                ba_graph, K, 0.6, "IC", SEED, theta_cap=CAP, out_dir=v2
            )
            index.close()
            shutil.rmtree(path)
            shutil.copytree(v2, path)
            fresh = await fe.top_k(path)
            old = await owner
            await fe.close()
            return fresh, old, res2, fe.stats

        fresh, old, res2, stats = run(body())
        assert stats.coalesced == 0  # identity key kept them apart
        assert fresh.epsilon == pytest.approx(0.6)
        assert np.array_equal(fresh.seeds, res2.seeds)
        assert not isinstance(old, BaseException)
    def test_stale_mid_flight_redispatches_bit_identically(self, frozen):
        out, res = frozen

        async def body():
            fe = ServingFrontend(fault_plan="stale:@0")
            r = await fe.top_k(out)
            misses = fe.cache.misses
            await fe.close()
            return r, misses, fe.stats

        r, misses, stats = run(body())
        assert not r.degraded
        assert np.array_equal(r.seeds, res.seeds)
        assert stats.republishes == 1
        assert misses == 2  # original open + hot re-open

    def test_redispatch_is_at_most_once(self, frozen):
        out, _ = frozen

        async def body():
            fe = ServingFrontend(fault_plan="stale:@0;stale:@0")
            try:
                await fe.top_k(out)
            finally:
                await fe.close()

        # A second republish under the same query must surface, not loop.
        with pytest.raises(StaleIndexError):
            run(body())


class TestTighten:
    def test_tighten_extends_and_rekeys_in_place(self, ba_graph, uncapped):
        path, frozen_m, _ = uncapped
        tight = EPS * 0.8
        want = imm(
            ba_graph, K, tight, "IC", seed=SEED, layout="sorted",
            theta_cap=None,
        )

        async def body():
            fe = ServingFrontend(concurrency=2)
            t = await fe.tighten(path, tight, graph=ba_graph)
            again = await fe.top_k(path, eps=tight)  # in the new prefix
            hits, misses = fe.cache.hits, fe.cache.misses
            await fe.close()
            return t, again, hits, misses

        t, again, hits, misses = run(body())
        assert not t.degraded
        assert t.theta > frozen_m
        assert np.array_equal(t.seeds, want.seeds)
        assert t.theta == want.theta
        assert np.array_equal(again.seeds, want.seeds)
        # the amended manifest re-keyed the live entry, not a reopen:
        assert misses == 1 and hits >= 1


def _fields(res) -> dict:
    """Every ServingResult field but the wall-clock ``seconds``."""
    return {
        f.name: np.asarray(getattr(res, f.name)).tolist()
        for f in dataclasses.fields(res)
        if f.name != "seconds"
    }


class TestRemembered:
    """A ``top_k`` the engine remembers is answered on the event loop,
    without a worker thread; anything else runs on a worker as before."""

    @staticmethod
    def _spy(monkeypatch):
        """(thread, remembered?) of each engine top_k, and each worker hop."""
        calls, hops = [], []
        top_k = InfluenceQueryEngine.top_k

        def traced(self, *args, **kwargs):
            calls.append((threading.get_ident(), kwargs.get("remembered", False)))
            return top_k(self, *args, **kwargs)

        to_thread = asyncio.to_thread

        async def hop(fn, *args, **kwargs):
            hops.append(fn)
            return await to_thread(fn, *args, **kwargs)

        monkeypatch.setattr(InfluenceQueryEngine, "top_k", traced)
        monkeypatch.setattr(asyncio, "to_thread", hop)
        return calls, hops

    def test_remembered_top_k_runs_on_the_loop(self, frozen, monkeypatch):
        out, _ = frozen
        calls, hops = self._spy(monkeypatch)

        async def body():
            async with ServingFrontend(concurrency=1) as fe:
                first = await fe.top_k(out, 2)  # computed on a worker
                hopped = len(hops)
                again = await fe.top_k(out, 2)
                return first, again, hopped, threading.get_ident(), fe.stats

        first, again, hopped, loop_thread, stats = run(body())
        assert hopped == len(hops) == 1  # the repeat started no worker
        assert calls[-1] == (loop_thread, True)
        assert stats.remembered == 1 and stats.completed == 2
        with FrozenRRRIndex.open(out) as index:
            fresh = InfluenceQueryEngine(index).top_k(2)
        assert _fields(again) == _fields(first) == _fields(fresh)

    def test_cold_pair_hops_to_a_worker(self, frozen, monkeypatch):
        out, _ = frozen
        calls, hops = self._spy(monkeypatch)

        async def body():
            async with ServingFrontend() as fe:
                await fe.top_k(out, 2)
                hopped = len(hops)
                cold = await fe.top_k(out, 3)
                return cold, hopped, threading.get_ident(), fe.stats

        cold, hopped, loop_thread, stats = run(body())
        assert len(hops) == hopped + 1
        # The loop's lookup misses; the worker computes.
        (t_loop, r_loop), (t_work, r_work) = calls[-2:]
        assert (t_loop, r_loop, r_work) == (loop_thread, True, False)
        assert t_work != loop_thread
        assert stats.remembered == 0
        with FrozenRRRIndex.open(out) as index:
            assert _fields(cold) == _fields(InfluenceQueryEngine(index).top_k(3))

    def test_faults_fire_on_the_same_query_ids(self, frozen):
        out, res = frozen

        async def body():
            plan = "slowquery:1x0.2;stale:@2"
            async with ServingFrontend(fault_plan=plan) as fe:
                await fe.top_k(out)  # qid 0: computed
                t0 = time.perf_counter()
                slow = await fe.top_k(out)  # qid 1: remembered, straggles
                waited = time.perf_counter() - t0
                remembered, misses = fe.stats.remembered, fe.cache.misses
                stale = await fe.top_k(out)  # qid 2: republished under it
                return (slow, waited, remembered, misses, stale, fe.stats,
                        fe.cache.misses)

        slow, waited, remembered, misses, stale, stats, misses_after = run(body())
        assert waited >= 0.2 and remembered == 1
        # The republish re-opened the index and re-dispatched once, on a
        # worker: the reopened engine remembers nothing.
        assert stats.republishes == 1 and stats.remembered == 1
        assert misses_after == misses + 1
        for r in (slow, stale):
            assert not r.degraded
            assert np.array_equal(r.seeds, res.seeds)

    def test_remembered_read_holds_its_worker_slot(self, frozen):
        # Reads queue behind a straggling remembered read as behind any
        # other: with one slot, a read whose deadline passes while it
        # waits is shed.
        out, res = frozen

        async def body():
            plan = "slowquery:1x0.3"
            async with ServingFrontend(concurrency=1, fault_plan=plan) as fe:
                await fe.top_k(out)  # qid 0: computed
                slow = asyncio.ensure_future(fe.top_k(out))  # qid 1
                await asyncio.sleep(0)  # qid 1 takes the slot, straggles
                with pytest.raises(QueryDeadlineExceeded):
                    await fe.marginal_gain(out, [0], deadline=0.1)  # qid 2
                return await slow, fe.stats

        slow, stats = run(body())
        assert stats.remembered == 1 and stats.deadline_shed == 1
        assert np.array_equal(slow.seeds, res.seeds)


class TestIndexCache:
    def test_amend_and_refreeze_rekey_a_settled_identity(
        self, ba_graph, uncapped, monkeypatch
    ):
        # Trust every signature at once, so each step below is served
        # from the signature memo unless the manifest really changed.
        monkeypatch.setattr(cache_module, "_SETTLED_NS", 0)
        path, _, _ = uncapped
        cache = IndexCache()
        try:
            first = cache.identity(path)
            assert cache.identity(path) == first
            with FrozenRRRIndex.open(path) as idx:
                idx.amend(theta_cap=CAP)
            amended = cache.identity(path)
            assert amended[-1] == CAP and amended != first
            freeze_index(
                ba_graph, K, EPS, "IC", SEED + 1, theta_cap=CAP, out_dir=path
            )[0].close()
            refrozen = cache.identity(path)
            assert refrozen[2] == SEED + 1 and refrozen != amended
            with cache.lease(path) as eng:
                assert eng.index.seed == SEED + 1
        finally:
            cache.close()

    def test_repointed_symlink_is_followed(self, frozen, uncapped, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr(cache_module, "_SETTLED_NS", 0)
        capped, _ = frozen
        path, _, _ = uncapped
        link = tmp_path / "served"
        link.symlink_to(capped)
        cache = IndexCache()
        try:
            assert cache.resolve(link) == capped.resolve()
            before = cache.identity(link)
            tmp = tmp_path / "served.new"
            tmp.symlink_to(path)
            os.replace(tmp, link)
            assert cache.resolve(link) == path.resolve()
            assert cache.identity(link) != before
            assert cache.identity(link) == cache.identity(path)
            with cache.lease(link) as eng:
                assert eng.index.path == path.resolve()
        finally:
            cache.close()

    def test_young_signature_is_reread(self, uncapped, monkeypatch):
        # Give every manifest the same signature, as a rewrite onto a
        # reused inode within one timestamp tick could.  While the
        # manifest is young it is read on every call, so the rewrite
        # shows; a settled signature would be trusted (the control).
        monkeypatch.setattr(cache_module, "_signature", lambda st: "one")
        path, _, _ = uncapped
        for settled_ns, follows in ((10**18, True), (0, False)):
            monkeypatch.setattr(cache_module, "_SETTLED_NS", settled_ns)
            cache = IndexCache()
            try:
                before = cache.identity(path)
                with FrozenRRRIndex.open(path) as idx:
                    idx.amend(theta_cap=None if before[-1] else CAP)
                assert (cache.identity(path) != before) == follows
            finally:
                cache.close()

    def test_whole_second_stamps_are_never_trusted(self, uncapped, monkeypatch):
        # A file system that stamps whole seconds can repeat a signature
        # across rewrites however old the stamp looks.  With every
        # signature forced equal and every age settled, a manifest whose
        # mtime is a whole second is still read, so its rewrite shows.
        monkeypatch.setattr(cache_module, "_signature", lambda st: "one")
        monkeypatch.setattr(cache_module, "_SETTLED_NS", 0)
        path, _, _ = uncapped
        whole = (time.time_ns() // 10**9 - 5) * 10**9
        os.utime(path / "INDEX.json", ns=(whole, whole))
        cache = IndexCache()
        try:
            before = cache.identity(path)
            with FrozenRRRIndex.open(path) as idx:
                idx.amend(theta_cap=CAP)
            assert before[-1] is None and cache.identity(path)[-1] == CAP
        finally:
            cache.close()

    def test_identity_under_racing_rewrites(self, uncapped, monkeypatch):
        # Readers on several threads while the manifest is rewritten:
        # each sees an identity the manifest held, and all see the last
        # one once the writer stops.  The caps differ in printed length
        # from each other and from "null", so two manifests that could
        # share a signature (a reused inode within one tick) hold the
        # same bytes even with every signature trusted at once.
        monkeypatch.setattr(cache_module, "_SETTLED_NS", 0)
        path, _, _ = uncapped
        caps = (CAP, 100 * CAP)
        cache = IndexCache()
        seen, stop = [], threading.Event()

        def read():
            while not stop.is_set():
                seen.append(cache.identity(path)[-1])

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers:
                t.start()
            with FrozenRRRIndex.open(path) as idx:
                for i in range(40):
                    idx.amend(theta_cap=caps[i % 2])
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in readers)
            assert seen and set(seen) <= {None, *caps}
            assert cache.identity(path)[-1] == caps[1]
        finally:
            cache.close()

    def test_lease_pins_against_eviction(self, frozen, uncapped):
        path_a, _ = frozen
        path_b, _, _ = uncapped
        cache = IndexCache(capacity=1)
        with cache.lease(path_a) as ea:
            with cache.lease(path_b) as eb:
                # both stay mapped despite capacity 1:
                assert ea.index._rows is not None
                assert eb.index._rows is not None
                assert len(cache) == 2
        cache.close()

    def test_invalidate_defers_close_until_release(self, frozen):
        path, res = frozen
        cache = IndexCache(capacity=2)
        with cache.lease(path) as eng:
            cache.invalidate(path)
            # still queryable mid-lease — close is deferred:
            r = eng.what_if(K)
            assert np.array_equal(r.seeds, res.seeds)
            assert eng.index._rows is not None
        assert eng.index._rows is None  # last lease out: now closed
        cache.close()

    def test_republish_behind_engine_retires_it(self, ba_graph, uncapped, tmp_path):
        path, _, _ = uncapped
        cache = IndexCache(capacity=2)
        old = cache.engine(path)
        # Re-freeze at a different eps *behind* the open engine: the
        # on-disk identity changes while the mapped one does not.
        v2 = tmp_path / "v2"
        index, _ = freeze_index(
            ba_graph, K, 0.6, "IC", SEED, theta_cap=CAP, out_dir=v2
        )
        index.close()
        shutil.rmtree(path)
        shutil.copytree(v2, path)
        new = cache.engine(path)
        assert new is not old
        assert cache.misses == 2
        assert old.index._rows is None  # unpinned: retired and closed
        assert new.index._rows is not None
        cache.close()


class TestFaultGrammar:
    def test_serving_tokens_parse_and_fire_once(self):
        plan = FaultPlan.parse("slowquery:3x0.2;stale:@1;extendfail:@0x2")
        inj = plan.injector()
        assert inj.query_delay(3) == pytest.approx(0.2)
        assert inj.query_delay(3) == 0.0  # one-shot
        assert inj.query_delay(0) == 0.0
        assert inj.stale_due(1) is True
        assert inj.stale_due(1) is False  # consumed: re-dispatch succeeds
        assert inj.extend_failure() is True  # attempt 0
        assert inj.extend_failure() is True  # attempt 1
        assert inj.extend_failure() is False  # attempt 2
        assert inj.extension_attempts == 3

    def test_defaults_and_describe(self):
        plan = FaultPlan.parse("slowquery:2")
        inj = plan.injector()
        assert inj.query_delay(2) == pytest.approx(0.05)
        text = FaultPlan.parse("slowquery:0x0.1;stale:@4;extendfail:@1").describe()
        assert "query 0" in text and "query 4" in text
        assert "extension" in text


class TestChaos:
    def test_faulted_concurrent_traffic_keeps_the_contract(
        self, ba_graph, frozen, uncapped_src, uncapped
    ):
        """Everything at once: coalescing traffic, injected extension
        crashes, a mid-flight republish, and a no-graph degrade.  Every
        completed answer must be bit-identical or typed-degraded with
        shrink-arithmetic accounting, and the front end must quiesce
        clean.

        The deadline query targets the pristine uncapped index so its
        per-path circuit breaker stays independent of the one the
        extension crashes trip on the throwaway copy.
        """
        capped, res = frozen
        nopath, _, _ = uncapped_src
        path, frozen_m, mf = uncapped
        l, lb = float(mf["l"]), float(mf["lb"] if mf.get("lb") is not None else 1.0)

        async def body():
            fe = ServingFrontend(
                concurrency=4,
                max_pending=16,
                fault_plan="extendfail:@0x2;stale:@3;slowquery:3x0.2",
                breaker_threshold=2,
                breaker_cooldown=600.0,
            )
            results = await asyncio.gather(
                fe.top_k(capped),                             # qid 0
                fe.top_k(capped),                             # qid 1 (coalesces)
                fe.what_if(capped, K, forced=(int(res.seeds[0]),)),
                fe.top_k(                                     # qid 3: straggles
                    nopath, eps=EPS * 0.5, graph=ba_graph, deadline=0.08
                ),                                            # past its deadline
                fe.top_k(path, eps=EPS * 0.45, graph=ba_graph),  # extendfail
                fe.top_k(path, eps=EPS * 0.40, graph=ba_graph),  # extendfail
                fe.top_k(path, eps=EPS * 0.35, graph=ba_graph),  # breaker open
                fe.marginal_gain(capped, res.seeds[:2]),
                return_exceptions=True,
            )
            await fe.close()
            leaked = len(fe.cache), dict(fe._coalesced), fe._inflight
            with pytest.raises(AdmissionRejected) as ei:
                await fe.top_k(capped)
            return results, fe.stats, leaked, ei.value.reason

        results, stats, (cached, coalesced_futs, inflight), reason = run(body())

        unexpected = [
            r for r in results
            if isinstance(r, BaseException)
            and not isinstance(r, (AdmissionRejected, QueryDeadlineExceeded))
        ]
        assert not unexpected, unexpected

        # In-prefix capped answers: bit-identical to the freeze-time run.
        for r in (results[0], results[1]):
            assert not r.degraded
            assert np.array_equal(r.seeds, res.seeds)
        assert int(results[2].seeds[0]) == int(res.seeds[0])
        assert results[7].num_samples == res.theta

        # Out-of-prefix answers: typed-degraded with honest accounting.
        reasons = []
        for r in results[3:7]:
            assert isinstance(r, DegradedServingResult), r
            assert r.theta_effective == frozen_m
            want = shrink_epsilon(ba_graph.n, r.k, l, r.theta_effective, r.lb)
            assert r.epsilon_effective == pytest.approx(want, abs=1e-12)
            reasons.append(r.degraded_reason)
        assert reasons[0] == "deadline"
        assert reasons.count("extension-failed") == 2
        assert "breaker-open" in reasons[1:]

        # The faults actually fired where addressed.
        assert stats.republishes == 1
        assert stats.extension_attempts == 2
        assert stats.breaker_trips == 1
        assert stats.degraded == 4

        # Clean quiesce: nothing leaked, further traffic refused typed.
        assert cached == 0
        assert coalesced_futs == {}
        assert inflight == 0
        assert reason == "shutdown"
