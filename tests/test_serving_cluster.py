"""Cluster tests (repro.serving.cluster + satellite surfaces).

The contract under test: every answer the replicated router returns —
routed, failed-over, or hedged — is either bit-identical to a fresh
``imm()`` run or a typed degraded/rejected result; extension traffic
lands on exactly one writer replica; healed replicas return to the
rotation; shutdown is clean and typed.  The chaos test at the bottom
throws crash + partition + straggler at one router at once.

Also covered here: the typed fault-plan parse errors, the shared EWMA
helper, and the ``IndexCache`` pin/identity edge cases the router's
routing memo leans on.
"""

import asyncio
import shutil
import time

import numpy as np
import pytest

from repro.imm import imm
from repro.mpi.faults import (
    FaultPlan,
    FaultPlanParseError,
    Partition,
    ReplicaCrash,
    ReplicaSlow,
)
from repro.serving import (
    AdmissionRejected,
    ClusterRouter,
    ClusterUnavailable,
    DegradedServingResult,
    FrozenRRRIndex,
    IndexCache,
    QueryDeadlineExceeded,
    ServingFrontend,
    ewma_update,
    freeze_index,
    shrink_epsilon,
)
from repro.serving.cluster import _p99

K = 5
EPS = 0.5
SEED = 3
CAP = 300

run = asyncio.run


@pytest.fixture(scope="module")
def frozen(ba_graph, tmp_path_factory):
    """One capped frozen index shared by the read-only tests."""
    out = tmp_path_factory.mktemp("cluster") / "index"
    index, res = freeze_index(
        ba_graph, K, EPS, "IC", SEED, theta_cap=CAP, out_dir=out
    )
    index.close()
    return out, res


@pytest.fixture(scope="module")
def uncapped_src(ba_graph, tmp_path_factory):
    """Pristine uncapped index: tighter-eps queries go out-of-prefix."""
    out = tmp_path_factory.mktemp("cluster-uncapped") / "index"
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


def _primary(path, n=2):
    """The rendezvous primary a router of ``n`` replicas elects for
    ``path`` (deterministic, so a throwaway router suffices)."""
    async def body():
        async with ClusterRouter(num_replicas=n) as cr:
            return cr._order(path)[0].idx
    return run(body())


class TestFaultPlanParsing:
    def test_cluster_tokens_parse(self):
        plan = FaultPlan.parse(
            "replicacrash:1@3;replicaslow:0x0.25;partition:2@5x4"
        )
        assert plan.events == (
            ReplicaCrash(1, 3), ReplicaSlow(0, 0.25), Partition(2, 5, 4),
        )

    def test_cluster_token_defaults(self):
        plan = FaultPlan.parse("replicaslow:2;partition:0@1")
        assert plan.events == (ReplicaSlow(2, 0.05), Partition(0, 1, 1))

    def test_describe_names_cluster_events(self):
        plan = FaultPlan.parse("replicacrash:1@3;partition:2@5x4")
        text = plan.describe()
        assert "replica 1 dies at query 3" in text
        assert "queries 5" in text or "query 5" in text

    def test_parse_error_is_typed_and_names_the_token(self):
        with pytest.raises(FaultPlanParseError) as ei:
            FaultPlan.parse("replicacrash:1")
        assert ei.value.token == "replicacrash:1"
        assert "replicacrash:1" in str(ei.value)
        assert isinstance(ei.value, ValueError)  # old callers keep working

    @pytest.mark.parametrize(
        "token",
        [
            "replicacrash:x@y",      # non-integer fields
            "replicacrash:-1@0",     # negative replica
            "replicaslow:0x-1",      # non-positive straggle
            "replicaslow:0xfast",    # non-numeric straggle
            "partition:0@1x0",       # empty window
            "partition:0",           # missing @query
            "quorumloss:1@2",        # unknown kind
            "replicacrash",          # no payload at all
        ],
    )
    def test_malformed_specs_raise_typed(self, token):
        with pytest.raises(FaultPlanParseError) as ei:
            FaultPlan.parse(token)
        assert ei.value.token == token
        assert ei.value.detail

    def test_legacy_tokens_also_raise_typed(self):
        # The pre-cluster grammar now reports through the same type.
        with pytest.raises(FaultPlanParseError) as ei:
            FaultPlan.parse("crash:one@2")
        assert ei.value.token == "crash:one@2"
        assert FaultPlan.parse("crash:1@2").events  # and still parses


class TestEwmaUpdate:
    def test_first_sample_passes_through(self):
        assert ewma_update(None, 5.0) == 5.0

    def test_default_alpha_smooths(self):
        assert ewma_update(10.0, 0.0) == pytest.approx(8.0)
        assert ewma_update(0.0, 10.0) == pytest.approx(2.0)

    def test_custom_alpha(self):
        assert ewma_update(10.0, 0.0, alpha=0.5) == pytest.approx(5.0)

    def test_frontend_uses_the_shared_helper(self, frozen):
        out, _ = frozen

        async def body():
            async with ServingFrontend() as fe:
                await fe.what_if(out, 1)
                return fe._lat_ewma

        assert run(body()) is not None  # fed by ewma_update in _release


class TestIndexCachePinEdgeCases:
    def test_pin_outlives_eviction(self, frozen, uncapped):
        capped, res = frozen
        other, _, _ = uncapped
        cache = IndexCache(capacity=1)
        try:
            with cache.lease(capped) as eng:
                release = cache.pin(eng)
            with cache.lease(other):  # over capacity, but the pin shields
                pass
            assert len(cache) == 2  # transiently over: the pin held it
            # The pinned engine's maps must still be readable.
            assert np.array_equal(eng.top_k(K).seeds, res.seeds)
            release()
            # Once unpinned, the next eviction pass may claim it: force a
            # fresh miss by re-keying the other index (amend changes its
            # identity), which retires the stale entry and evicts LRU.
            idx = FrozenRRRIndex.open(other)
            idx.amend(theta_cap=CAP - 50)
            idx.close()
            with cache.lease(other):
                pass
            assert len(cache) == 1  # the formerly-pinned entry is gone
        finally:
            cache.close()

    def test_identity_changes_after_rekey(self, uncapped):
        path, _, _ = uncapped
        cache = IndexCache()
        try:
            before = cache.identity(path)
            idx = FrozenRRRIndex.open(path)
            idx.amend(theta_cap=CAP)
            idx.close()
            after = cache.identity(path)
            assert before != after  # theta_cap is part of the key
            assert cache.identity(path) == after  # and it is stable
        finally:
            cache.close()

    def test_pins_resolved_on_close(self, frozen):
        capped, _ = frozen
        cache = IndexCache()
        with cache.lease(capped) as eng:
            release = cache.pin(eng)
        cache.close()  # force-closes everything, pinned or not
        release()  # late release of a force-closed entry must not raise
        assert len(cache) == 0

    def test_pin_of_foreign_engine_is_noop(self, frozen):
        capped, _ = frozen
        cache = IndexCache()
        try:
            with cache.lease(capped):
                pass
            index = FrozenRRRIndex.open(capped)
            try:
                from repro.serving import InfluenceQueryEngine

                foreign = InfluenceQueryEngine(index, verify=False)
                release = cache.pin(foreign)  # engine the cache never built
                release()
            finally:
                index.close()
        finally:
            cache.close()


class TestRouting:
    def test_zero_fault_batch_is_bit_identical(self, frozen):
        out, res = frozen

        async def body():
            # hedge=False: a spontaneous hedge (EWMA delay shrinks after
            # the first fast query) would dispatch a duplicate to the
            # secondary and break the all-on-primary accounting below.
            async with ClusterRouter(num_replicas=2, hedge=False) as cr:
                primary = cr._order(out)[0].idx
                batch = await asyncio.gather(
                    cr.top_k(out),
                    cr.top_k(out),
                    cr.what_if(out, K, forced=(int(res.seeds[-1]),)),
                    cr.marginal_gain(out, res.seeds[:2]),
                )
                return batch, cr.stats, cr.replica_stats(), primary

        batch, stats, reps, primary = run(body())
        for r in batch[:2]:
            assert not r.degraded
            assert np.array_equal(r.seeds, res.seeds)
            assert r.theta == res.theta
        assert int(batch[2].seeds[0]) == int(res.seeds[-1])
        assert batch[3].num_samples == res.theta
        assert stats.failovers == 0 and stats.unavailable == 0
        dispatched = {r["replica"]: r["dispatched"] for r in reps}
        assert dispatched[primary] == len(batch)  # all on the primary
        assert sum(dispatched.values()) == len(batch)

    def test_rendezvous_order_is_deterministic(self, frozen):
        out, _ = frozen

        async def order():
            async with ClusterRouter(num_replicas=4) as cr:
                first = [rep.idx for rep in cr._order(out)]
                second = [rep.idx for rep in cr._order(out)]
                return first, second

        a1, a2 = run(order())
        b1, _ = run(order())
        assert a1 == a2 == b1  # stable within and across routers
        assert sorted(a1) == [0, 1, 2, 3]

    def test_post_close_queries_are_refused_typed(self, frozen):
        out, _ = frozen

        async def body():
            cr = ClusterRouter(num_replicas=2)
            await cr.top_k(out)
            await cr.close()
            with pytest.raises(AdmissionRejected) as ei:
                await cr.top_k(out)
            return ei.value.reason

        assert run(body()) == "shutdown"

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError, match="num_replicas"):
            ClusterRouter(num_replicas=0)
        with pytest.raises(ValueError, match="failover_retries"):
            ClusterRouter(failover_retries=-1)


class TestFailover:
    def test_crashed_primary_fails_over_bit_identically(self, frozen):
        out, res = frozen
        primary = _primary(out)

        async def body():
            async with ClusterRouter(
                num_replicas=2,
                fault_plan=f"replicacrash:{primary}@0",
                backoff_base=0.001,
            ) as cr:
                r = await cr.top_k(out)
                return r, cr.stats, await cr.probe(out)

        r, stats, probe = run(body())
        assert not r.degraded
        assert np.array_equal(r.seeds, res.seeds)
        assert stats.failovers >= 1
        assert stats.replica_failures >= 1
        assert probe[primary] == "ReplicaUnreachableError"
        assert probe[1 - primary] == "ok"

    def test_partition_heals_and_primary_returns(self, frozen):
        out, res = frozen
        primary = _primary(out)

        async def body():
            # hedge=False: a hedge racing the healed primary's probe
            # dispatch can cancel it, leaving the threshold-1 breaker
            # half-open — a race, not the heal behavior under test.
            async with ClusterRouter(
                num_replicas=2,
                hedge=False,
                fault_plan=f"partition:{primary}@0",
                replica_breaker_threshold=1,
                replica_breaker_cooldown=0.05,
                backoff_base=0.001,
            ) as cr:
                r0 = await cr.top_k(out)  # window open: fails over
                failovers = cr.stats.failovers
                await asyncio.sleep(0.06)  # breaker cooldown expires
                r1 = await cr.top_k(out, K - 1)
                return r0, r1, failovers, cr.replica_stats()

        r0, r1, failovers, reps = run(body())
        assert np.array_equal(r0.seeds, res.seeds) and not r0.degraded
        assert not r1.degraded
        assert failovers >= 1
        healed = {r["replica"]: r for r in reps}
        assert healed[primary]["dispatched"] >= 1  # routed back after heal
        assert healed[primary]["breaker_state"] == "closed"


class TestHedging:
    def test_straggling_primary_loses_to_the_hedge(self, frozen):
        out, res = frozen
        primary = _primary(out)

        async def body():
            async with ClusterRouter(
                num_replicas=2,
                fault_plan=f"replicaslow:{primary}x0.3",
                hedge_after=0.01,
            ) as cr:
                t0 = time.perf_counter()
                r = await cr.top_k(out)
                return r, time.perf_counter() - t0, cr.stats

        r, dt, stats = run(body())
        assert not r.degraded
        assert np.array_equal(r.seeds, res.seeds)
        assert stats.hedges >= 1
        assert stats.hedge_wins >= 1
        assert dt < 0.3  # the straggler's sleep never reached the caller

    def test_hedge_delay_is_numpy_p99_of_the_window(self):
        # The router keeps the last 64 latencies; the hedge delay is the
        # EWMA of their p99, computed without NumPy but equal to it.
        rng = np.random.default_rng(7)
        cr = ClusterRouter(num_replicas=2)
        want = None
        for i in range(300):
            # A small pool makes ties common, as repeated reads give.
            lat = float(rng.choice(rng.exponential(2e-3, 5)) if i % 2
                        else rng.exponential(2e-3))
            cr._observe(lat)
            window = list(cr._lats)
            want = ewma_update(want, float(np.percentile(window, 99)))
            assert cr._hedge_delay() == max(want, 1e-4)
        for n in (1, 2, 3, 63, 64, 101):
            ties = rng.choice(rng.exponential(1e-3, 3), n).tolist()
            free = rng.exponential(1e-3, n).tolist()
            for window in (ties, free):
                assert _p99(window) == float(np.percentile(window, 99))

    def test_hedging_can_be_disabled(self, frozen):
        out, res = frozen

        async def body():
            async with ClusterRouter(num_replicas=2, hedge=False,
                                     hedge_after=1e-6) as cr:
                r = await cr.top_k(out)
                return r, cr.stats.hedges

        r, hedges = run(body())
        assert np.array_equal(r.seeds, res.seeds)
        assert hedges == 0

    def test_writes_are_never_hedged_single_writer(self, ba_graph, uncapped):
        path, _, _ = uncapped
        tight = EPS * 0.9
        fresh = imm(ba_graph, K, tight, "IC", seed=SEED, layout="sorted")

        async def body():
            async with ClusterRouter(num_replicas=3, hedge_after=1e-6) as cr:
                r = await cr.tighten(path, tight, graph=ba_graph)
                attempts = sum(
                    fe.stats.extension_attempts for fe in cr.frontends()
                )
                return r, attempts, cr.stats

        r, attempts, stats = run(body())
        assert np.array_equal(r.seeds, fresh.seeds)
        assert not r.degraded
        assert attempts == 1  # exactly one writer cluster-wide
        assert stats.hedges == 0


class TestUnavailable:
    def test_all_down_selection_degrades_honestly(self, frozen, ba_graph):
        out, res = frozen
        mf = dict(FrozenRRRIndex.open(out).manifest)
        # close the probe handle promptly
        l = float(mf["l"])
        lb = float(mf["lb"]) if mf.get("lb") is not None else 1.0
        frozen_m = int(mf["num_samples"])

        async def body():
            async with ClusterRouter(
                num_replicas=2,
                fault_plan="replicacrash:0@0;replicacrash:1@0",
                replica_breaker_threshold=1,
            ) as cr:
                deg = await cr.top_k(out)
                with pytest.raises(ClusterUnavailable) as ei:
                    await cr.what_if(out, K)
                return deg, ei.value, cr.stats

        deg, exc, stats = run(body())
        assert isinstance(deg, DegradedServingResult)
        assert deg.degraded_reason == "cluster-unavailable"
        assert deg.theta_effective == frozen_m
        want = shrink_epsilon(ba_graph.n, K, l, frozen_m, lb)
        assert deg.epsilon_effective == pytest.approx(want, abs=1e-12)
        assert np.array_equal(deg.seeds, res.seeds)  # stale == frozen prefix
        assert exc.retry_after > 0
        assert exc.replicas == 2
        assert stats.unavailable >= 1 and stats.degraded_local >= 1

    def test_all_down_without_degradation_is_typed(self, frozen):
        out, _ = frozen

        async def body():
            async with ClusterRouter(
                num_replicas=2,
                fault_plan="replicacrash:0@0;replicacrash:1@0",
                replica_breaker_threshold=1,
                degrade_on_unavailable=False,
            ) as cr:
                with pytest.raises(ClusterUnavailable) as ei:
                    await cr.top_k(out)
                return ei.value

        exc = run(body())
        assert exc.reason == "no-healthy-replica"
        assert exc.retry_after > 0

    def test_writer_down_write_degrades_readonly(self, ba_graph, uncapped):
        path, frozen_m, _ = uncapped
        primary = _primary(path)

        async def body():
            async with ClusterRouter(
                num_replicas=2,
                fault_plan=f"replicacrash:{primary}@0",
                backoff_base=0.001,
            ) as cr:
                r = await cr.tighten(path, EPS * 0.9, graph=ba_graph)
                return r, cr.stats

        r, stats = run(body())
        # No second writer is minted: the survivor answers read-only from
        # the frozen prefix, degraded and honest about it.
        assert isinstance(r, DegradedServingResult)
        assert r.degraded_reason == "no-graph"
        assert r.theta_effective == frozen_m
        assert stats.writer_fallbacks >= 1


class TestChaos:
    def test_mixed_traffic_under_crash_partition_straggle(
        self, ba_graph, frozen
    ):
        """The acceptance chaos axis: concurrent mixed queries while one
        replica crashes, one partitions-then-heals, and one straggles.
        Every completed answer must be bit-identical to a fresh ``imm()``
        or typed degraded/rejected; the healed replica must return to
        rotation; shutdown must be clean and typed."""
        out, res = frozen
        res2 = imm(
            ba_graph, K - 2, EPS, "IC", seed=SEED, layout="sorted",
            theta_cap=CAP,
        )

        async def body():
            cr = ClusterRouter(
                num_replicas=3,
                concurrency=2,
                fault_plan=(
                    "replicacrash:0@4;partition:1@2x3;replicaslow:2x0.01"
                ),
                replica_breaker_threshold=1,
                replica_breaker_cooldown=0.05,
                backoff_base=0.001,
                hedge_after=0.02,
            )
            kinds = ("top_k", "alt_k", "what_if", "marginal")
            coros = []
            for i in range(24):
                kind = kinds[i % len(kinds)]
                if kind == "top_k":
                    coros.append(cr.top_k(out))
                elif kind == "alt_k":
                    coros.append(cr.top_k(out, K - 2))
                elif kind == "what_if":
                    coros.append(
                        cr.what_if(out, K, forced=(int(res.seeds[0]),))
                    )
                else:
                    coros.append(cr.marginal_gain(out, res.seeds[:2]))
            results = await asyncio.gather(*coros, return_exceptions=True)
            await asyncio.sleep(0.08)  # partition window + cooldown elapse
            probe = await cr.probe(out)
            late = await cr.top_k(out)
            stats = cr.stats
            await cr.close()
            with pytest.raises(AdmissionRejected) as ei:
                await cr.top_k(out)
            inflight = [fe._inflight for fe in cr.frontends()]
            return results, probe, late, stats, ei.value.reason, inflight

        results, probe, late, stats, reason, inflight = run(body())

        # Contract: bit-identical, typed-degraded, or typed-rejected.
        kinds = ("top_k", "alt_k", "what_if", "marginal")
        completed = 0
        for i, r in enumerate(results):
            kind = kinds[i % len(kinds)]
            if isinstance(r, BaseException):
                assert isinstance(
                    r,
                    (AdmissionRejected, QueryDeadlineExceeded,
                     ClusterUnavailable),
                ), r
                continue
            completed += 1
            if isinstance(r, DegradedServingResult):
                assert r.degraded_reason
                continue
            if kind == "top_k":
                assert np.array_equal(r.seeds, res.seeds), i
                assert r.theta == res.theta
            elif kind == "alt_k":
                assert np.array_equal(r.seeds, res2.seeds), i
            elif kind == "what_if":
                assert int(r.seeds[0]) == int(res.seeds[0])
            else:
                assert r.num_samples == res.theta
        assert completed >= 1  # two healthy replicas: traffic flowed

        # The faults engaged and the healed replica is back in rotation.
        assert stats.replica_failures >= 1
        assert probe[0] == "ReplicaUnreachableError"  # crash is permanent
        assert probe[1] == "ok"  # partition healed
        assert probe[2] == "ok"  # straggler is slow, not dead
        assert not late.degraded
        assert np.array_equal(late.seeds, res.seeds)

        # Clean shutdown: nothing in flight, further traffic typed away.
        assert reason == "shutdown"
        assert all(n == 0 for n in inflight)
