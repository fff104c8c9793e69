"""Cluster oracle: replication must never cost correctness.

The frontend axis (:mod:`repro.validate.frontend`) proves one traffic
layer keeps the engine's bit-identity promise; this axis proves the
*replicated* layer above it — consistent-hash routing, failover,
hedging, single-writer discipline — keeps it too.  The contract under
test: **every routed, failed-over, or hedged answer is either
bit-identical to a fresh** ``imm()`` **run or an explicitly typed
degraded/rejected result**, and the router recovers healed replicas.
Axes:

* **bit-identity** — a concurrent mixed batch through a fault-free
  router equals the fresh answers bitwise, with nothing degraded and
  every dispatch landing on the rendezvous primary.
* **failover** — the primary replica crashed: the answer is still
  bit-identical, served via the next replica in rendezvous order, and
  the failure is health-accounted.
* **hedge** — a straggling primary: the hedge fires after the delay,
  the fast replica's answer wins bit-identically, and the loser is
  cancelled and counted.
* **partition-heal** — a one-query partition window: the covered query
  fails over, and once the window closes (plus breaker cooldown) the
  router routes back to the healed primary.
* **unavailable-honesty** — every replica down: a selection query is
  answered from the stale local prefix as a typed
  :class:`DegradedServingResult` whose ``epsilon_effective`` equals
  :func:`~repro.serving.shrink_epsilon` exactly (the detector the
  ``cluster-unavailable-served-as-fresh`` mutant must trip), and a
  pure read is refused with a typed retry-after.
* **single-writer** — extension traffic through the router lands
  exactly one extension attempt cluster-wide, unhedged (the detector
  the ``failover-double-dispatches-extension`` mutant must trip).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..imm import imm
from ..serving import (
    ClusterRouter,
    ClusterUnavailable,
    DegradedServingResult,
    FrozenRRRIndex,
    freeze_index,
    shrink_epsilon,
)
from .report import ValidationReport

__all__ = ["check_cluster_equivalence"]

_REPLICAS = 3


def check_cluster_equivalence(graph, model: str, cfg, subject: str) -> ValidationReport:
    """Run every cluster robustness axis on one graph × model."""
    rep = ValidationReport()
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap
    fresh = imm(graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap)

    with tempfile.TemporaryDirectory(prefix="repro-oracle-cluster-") as td:
        td = Path(td)
        index, _ = freeze_index(
            graph, k, eps, model, seed, theta_cap=cap, out_dir=td / "index"
        )
        frozen_m = index.num_samples
        index.close()
        asyncio.run(
            _run_axes(
                rep, graph, model, cfg, subject, td, fresh, frozen_m
            )
        )
    return rep


async def _run_axes(rep, graph, model, cfg, subject, td, fresh, frozen_m):
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap
    n = graph.n
    path = td / "index"

    # -- bit-identity: fault-free routing ---------------------------------
    # Hedging off: this axis asserts every dispatch lands on the
    # rendezvous primary, and a spontaneous hedge (EWMA p99 delay can
    # drop to ~ms once the first fast query lands, while later queries
    # sit queued behind the replica's concurrency limit) would dispatch
    # a duplicate to a secondary.  Hedging has its own axis below.
    cr = ClusterRouter(num_replicas=_REPLICAS, hedge=False)
    primary = cr._order(path)[0].idx
    k2 = max(1, k // 2)
    fresh2 = imm(graph, k2, eps, model, seed=seed, layout="sorted", theta_cap=cap)
    batch = await asyncio.gather(
        cr.top_k(path),
        cr.top_k(path, k2),
        cr.what_if(path, forced=(int(fresh.seeds[-1]),)),
        cr.marginal_gain(path, fresh.seeds[:2]),
    )
    top, alt, wres, mres = batch
    rep.check(
        bool(np.array_equal(top.seeds, fresh.seeds))
        and top.theta == fresh.theta
        and not top.degraded
        and bool(np.array_equal(alt.seeds, fresh2.seeds))
        and int(wres.seeds[0]) == int(fresh.seeds[-1])
        and mres.num_samples == frozen_m,
        "cluster.bit-identity",
        subject,
        "fault-free routed answers diverge from fresh imm(): "
        f"{np.asarray(top.seeds).tolist()} vs {fresh.seeds.tolist()}, "
        f"degraded={top.degraded}",
    )
    dispatched = {s["replica"]: s["dispatched"] for s in cr.replica_stats()}
    rep.check(
        cr.stats.failovers == 0
        and cr.stats.unavailable == 0
        and dispatched[primary] == len(batch)
        and sum(dispatched.values()) == len(batch),
        "cluster.routing-determinism",
        subject,
        "fault-free queries must all land on the rendezvous primary "
        f"(primary={primary}, dispatched={dispatched}, "
        f"failovers={cr.stats.failovers})",
    )
    await cr.close()

    # -- failover: crashed primary ----------------------------------------
    cr = ClusterRouter(
        num_replicas=_REPLICAS,
        fault_plan=f"replicacrash:{primary}@0",
    )
    r = await cr.top_k(path)
    rep.check(
        bool(np.array_equal(r.seeds, fresh.seeds))
        and not r.degraded
        and cr.stats.failovers >= 1
        and cr.stats.replica_failures >= 1,
        "cluster.failover",
        subject,
        "a crashed primary must fail over bit-identically: "
        f"identical={bool(np.array_equal(r.seeds, fresh.seeds))}, "
        f"degraded={r.degraded}, failovers={cr.stats.failovers}, "
        f"replica_failures={cr.stats.replica_failures}",
    )
    await cr.close()

    # -- hedge: straggling primary, fast replica wins ---------------------
    cr = ClusterRouter(
        num_replicas=_REPLICAS,
        fault_plan=f"replicaslow:{primary}x0.25", hedge_after=0.02,
    )
    r = await cr.top_k(path)
    rep.check(
        bool(np.array_equal(r.seeds, fresh.seeds))
        and not r.degraded
        and cr.stats.hedges >= 1
        and cr.stats.hedge_wins >= 1,
        "cluster.hedge",
        subject,
        "a hedged read against a straggling primary must win on the "
        f"fast replica bit-identically: hedges={cr.stats.hedges}, "
        f"wins={cr.stats.hedge_wins}, degraded={r.degraded}",
    )
    await cr.close()

    # -- partition-heal: window closes, router routes back ----------------
    # Hedging off here as well: a hedge racing the healed primary's
    # probe dispatch can cancel it mid-flight, leaving the breaker
    # half-open and the dispatch unaccounted — a race, not a heal bug.
    cr = ClusterRouter(
        num_replicas=_REPLICAS, hedge=False,
        fault_plan=f"partition:{primary}@0",
        replica_breaker_threshold=1, replica_breaker_cooldown=0.05,
    )
    r0 = await cr.top_k(path)
    fo_during = cr.stats.failovers
    await asyncio.sleep(0.06)  # let the replica breaker cooldown expire
    r1 = await cr.top_k(path, max(1, k - 1))
    healed = {s["replica"]: s for s in cr.replica_stats()}
    rep.check(
        bool(np.array_equal(r0.seeds, fresh.seeds))
        and fo_during >= 1
        and healed[primary]["dispatched"] >= 1
        and healed[primary]["breaker_state"] == "closed"
        and not r1.degraded,
        "cluster.partition-heal",
        subject,
        "after the partition window closes the router must route back "
        f"to the healed primary: failovers={fo_during}, primary "
        f"dispatched={healed[primary]['dispatched']}, breaker="
        f"{healed[primary]['breaker_state']!r}",
    )
    await cr.close()

    # -- unavailable-honesty: every replica down --------------------------
    idx = FrozenRRRIndex.open(path)
    lb = float(idx.manifest["lb"]) if idx.manifest.get("lb") is not None else 1.0
    l = float(idx.manifest["l"])
    idx.close()
    plan = ";".join(f"replicacrash:{i}@0" for i in range(_REPLICAS))
    cr = ClusterRouter(
        num_replicas=_REPLICAS, fault_plan=plan,
        replica_breaker_threshold=1,
    )
    deg = await cr.top_k(path)
    expected_eps = shrink_epsilon(n, k, l, frozen_m, lb)
    is_degraded = isinstance(deg, DegradedServingResult)
    rep.check(
        is_degraded
        and deg.theta_effective == frozen_m
        and abs(deg.epsilon_effective - expected_eps) < 1e-12
        and deg.degraded_reason == "cluster-unavailable"
        and bool(np.array_equal(deg.seeds, fresh.seeds)),
        "cluster.unavailable-honesty",
        subject,
        "with every replica down a selection query must come back as a "
        "typed DegradedServingResult with shrink-arithmetic accounting; "
        f"got {type(deg).__name__} theta_eff="
        f"{getattr(deg, 'theta_effective', None)}/{frozen_m}, eps_eff="
        f"{getattr(deg, 'epsilon_effective', None)} (expected "
        f"{expected_eps:.6f}), reason="
        f"{getattr(deg, 'degraded_reason', None)!r}",
    )
    try:
        await cr.what_if(path, k)
        refused, retry_after = False, 0.0
    except ClusterUnavailable as exc:
        refused, retry_after = True, exc.retry_after
    rep.check(
        refused and retry_after > 0,
        "cluster.unavailable-typed",
        subject,
        "a pure read with every replica down must be refused with a "
        f"typed retry-after (refused={refused}, retry_after={retry_after})",
    )
    await cr.close()

    # -- single-writer: one extension attempt cluster-wide ----------------
    # On an uncapped copy, a tighten genuinely extends; the router must
    # route it to the one writer replica, unhedged.  (Own copy: a torn
    # double-write must not poison the other axes.)
    writable = td / "writable"
    shutil.copytree(path, writable)
    widx = FrozenRRRIndex.open(writable)
    widx.amend(theta_cap=None)
    widx.close()
    tight = eps * 0.9
    fresh_tight = imm(graph, k, tight, model, seed=seed, layout="sorted")
    cr = ClusterRouter(num_replicas=_REPLICAS)
    try:
        tr = await cr.tighten(writable, tight, graph=graph)
        tightened_ok = (
            bool(np.array_equal(tr.seeds, fresh_tight.seeds))
            and not tr.degraded
        )
        failure = ""
    except Exception as exc:  # a torn index IS the double-writer symptom
        tightened_ok = False
        failure = f"; tighten raised {type(exc).__name__}: {exc}"
    attempts = sum(fe.stats.extension_attempts for fe in cr.frontends())
    rep.check(
        tightened_ok and attempts == 1 and cr.stats.hedges == 0,
        "cluster.single-writer",
        subject,
        "a routed tighten must land exactly one unhedged extension "
        f"attempt cluster-wide (attempts={attempts}, "
        f"hedges={cr.stats.hedges}, ok={tightened_ok}{failure})",
    )
    await cr.close()
