"""Front-end tests (repro.serving.frontend / repro.serving.cache).

The contract under test: every response the front end returns is either
bit-identical to a fresh ``imm()`` run or a typed
:class:`DegradedServingResult` whose ``epsilon_effective`` follows the
shrink arithmetic exactly — under concurrency, overload, deadlines,
injected extension crashes, and mid-flight republish.  The chaos test at
the bottom throws all of those at one front end at once.
"""

import asyncio
import shutil
import time

import numpy as np
import pytest

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


class TestIndexCache:
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
