"""Front-end oracle: traffic robustness must never cost correctness.

The serving axis (:mod:`repro.validate.serving`) proves the query
*engine* is bit-identical to fresh ``imm()``; this axis proves the
traffic layer wrapped around it keeps that promise under concurrency,
overload, deadlines, and injected faults.  The contract under test:
**every response the front end returns is either bit-identical to a
fresh run or a typed** :class:`~repro.serving.DegradedServingResult`
**whose accounting follows the shrink arithmetic** — never silently
wrong, never an unbounded pileup.  Axes:

* **bit-identity** — a concurrent batch (``top_k`` at several ``k``,
  ``what_if``, ``marginal_gain``) through the front end equals the
  fresh / direct-engine answers bitwise; identical queries coalesce
  onto one execution.
* **admission** — under a synthetic overload burst the queue never
  exceeds its bound and shed queries carry a positive ``retry_after``;
  admitted + rejected accounts for every submission.
* **degraded-honesty** — an out-of-prefix query that cannot extend
  (no graph) returns a typed degraded result whose
  ``epsilon_effective`` equals :func:`~repro.serving.shrink_epsilon`
  exactly and whose seeds equal the full-prefix selection (the
  detector the ``degraded-result-reports-full-epsilon`` mutant must
  trip).
* **breaker-discipline** — consecutive injected extension crashes trip
  the circuit breaker after exactly ``threshold`` attempts; once open,
  extension-needing queries degrade *without* touching the sampler
  (the detector the ``breaker-open-still-extends`` mutant must trip).
* **republish-redispatch** — a mid-flight ``stale:@Q`` republish is
  absorbed by hot re-open + at-most-once re-dispatch, and the answer
  is still bit-identical.
* **republish-fresh** — after a warm ``top_k``, another seed frozen
  over the same path at the same cap (so every replay prefix length
  repeats) is served as a fresh ``imm()`` at that seed: neither the
  cache nor a remembered greedy answer may outlive the republish (the
  detector the ``memo-survives-republish`` mutant must trip).
* **quiesce** — after ``close()`` the cache holds zero engines and new
  queries are refused with a typed rejection.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..imm import imm
from ..serving import (
    AdmissionRejected,
    DegradedServingResult,
    ServingFrontend,
    freeze_index,
    shrink_epsilon,
)
from .report import ValidationReport

__all__ = ["check_frontend_equivalence"]


def check_frontend_equivalence(graph, model: str, cfg, subject: str) -> ValidationReport:
    """Run every front-end robustness axis on one graph × model."""
    rep = ValidationReport()
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap
    fresh = imm(graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap)

    with tempfile.TemporaryDirectory(prefix="repro-oracle-frontend-") as td:
        td = Path(td)
        index, _ = freeze_index(
            graph, k, eps, model, seed, theta_cap=cap, out_dir=td / "index"
        )
        frozen_m = index.num_samples
        index.close()
        asyncio.run(
            _run_axes(
                rep, graph, model, cfg, subject, td / "index", fresh, frozen_m
            )
        )
    return rep


async def _run_axes(rep, graph, model, cfg, subject, path, fresh, frozen_m):
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap
    n = graph.n

    # -- bit-identity + coalescing under concurrency ---------------------
    fe = ServingFrontend(concurrency=3, max_pending=64)
    k2 = max(1, k // 2)
    fresh2 = imm(graph, k2, eps, model, seed=seed, layout="sorted", theta_cap=cap)
    dup = 4
    batch = await asyncio.gather(
        *[fe.top_k(path) for _ in range(dup)],
        fe.top_k(path, k2),
        fe.what_if(path, forced=(int(fresh.seeds[-1]),)),
        fe.marginal_gain(path, fresh.seeds[:2]),
    )
    tops, alt, wres, mres = batch[:dup], batch[dup], batch[dup + 1], batch[dup + 2]
    rep.check(
        all(
            bool(np.array_equal(r.seeds, fresh.seeds)) and r.theta == fresh.theta
            for r in tops
        )
        and bool(np.array_equal(alt.seeds, fresh2.seeds))
        and alt.theta == fresh2.theta,
        "frontend.bit-identity",
        subject,
        "concurrent front-end answers diverge from fresh imm(): "
        + f"{[np.asarray(r.seeds).tolist() for r in tops + [alt]]} vs "
        + f"{fresh.seeds.tolist()} / {fresh2.seeds.tolist()}",
    )
    rep.check(
        not any(r.degraded for r in tops)
        and int(wres.seeds[0]) == int(fresh.seeds[-1])
        and mres.num_samples == frozen_m,
        "frontend.zero-fault-not-degraded",
        subject,
        "zero-fault in-prefix queries must serve full-fidelity answers "
        f"(degraded={[r.degraded for r in tops]}, what_if forced seat "
        f"{wres.seeds[:1]}, marginal over {mres.num_samples} samples)",
    )
    rep.check(
        fe.stats.coalesced == dup - 1 and fe.stats.completed == dup + 3,
        "frontend.coalesce",
        subject,
        f"{dup} identical queries should coalesce onto one execution "
        f"(coalesced={fe.stats.coalesced}, completed={fe.stats.completed})",
    )
    await fe.close()

    # -- admission: bounded queue + typed shedding -----------------------
    plan = ";".join(f"slowquery:{i}x0.05" for i in range(3))
    fe = ServingFrontend(concurrency=1, max_pending=3, fault_plan=plan)
    burst = 9
    results = await asyncio.gather(
        *[fe.top_k(path) for _ in range(burst)], return_exceptions=True
    )
    shed = [r for r in results if isinstance(r, AdmissionRejected)]
    served = [r for r in results if not isinstance(r, BaseException)]
    unexpected = [
        r for r in results
        if isinstance(r, BaseException) and not isinstance(r, AdmissionRejected)
    ]
    rep.check(
        not unexpected
        and len(shed) > 0
        and len(served) + len(shed) == burst
        and all(r.retry_after > 0 for r in shed)
        and fe.stats.peak_inflight <= 3
        and all(bool(np.array_equal(r.seeds, fresh.seeds)) for r in served),
        "frontend.admission",
        subject,
        f"overload burst of {burst} (queue bound 3): shed {len(shed)}, "
        f"served {len(served)}, peak inflight {fe.stats.peak_inflight}, "
        f"unexpected {unexpected!r} — shedding must be typed, bounded, "
        "and leave served answers bit-identical",
    )
    await fe.close()

    # -- degraded-honesty: out-of-prefix with no graph -------------------
    # On a *copy* of the index, lift the frozen cap so a tighter-eps
    # replay genuinely demands samples past the prefix; with no graph
    # attached the front end must degrade with shrink-arithmetic
    # accounting, not guess.  (A copy, so the capped original keeps
    # serving the in-prefix axes below.)
    from ..serving import FrozenRRRIndex

    uncapped = path.parent / "uncapped"
    shutil.copytree(path, uncapped)
    idx = FrozenRRRIndex.open(uncapped)
    lb = float(idx.manifest["lb"]) if idx.manifest.get("lb") is not None else 1.0
    l = float(idx.manifest["l"])
    idx.amend(theta_cap=None)
    idx.close()
    tight = eps * 0.5
    fe = ServingFrontend(concurrency=2)
    deg = await fe.top_k(uncapped, eps=tight)
    direct = await fe.what_if(uncapped, k)  # full-prefix selection reference
    expected_eps = shrink_epsilon(n, k, l, frozen_m, lb)
    is_degraded = isinstance(deg, DegradedServingResult)
    rep.check(
        is_degraded
        and deg.theta_effective == frozen_m
        and deg.theta > deg.theta_effective
        and abs(deg.epsilon_effective - expected_eps) < 1e-12
        and deg.epsilon_effective > tight
        and deg.degraded_reason == "no-graph"
        and bool(np.array_equal(deg.seeds, direct.seeds)),
        "frontend.degraded-honesty",
        subject,
        "out-of-prefix query without a graph must return a typed "
        f"DegradedServingResult with shrink-arithmetic accounting; got "
        f"{type(deg).__name__} theta_eff="
        f"{getattr(deg, 'theta_effective', None)}/{frozen_m}, eps_eff="
        f"{getattr(deg, 'epsilon_effective', None)} (expected "
        f"{expected_eps:.6f}), reason="
        f"{getattr(deg, 'degraded_reason', None)!r}",
    )
    await fe.close()

    # -- breaker-discipline: crashes trip it, open means no extension ----
    threshold = 2
    fe = ServingFrontend(
        fault_plan="extendfail:@0x8",
        breaker_threshold=threshold,
        breaker_cooldown=600.0,
    )
    outcomes = []
    for i in range(threshold + 1):
        r = await fe.top_k(uncapped, eps=tight * (1.0 - 0.02 * i), graph=graph)
        outcomes.append(getattr(r, "degraded_reason", type(r).__name__))
    rep.check(
        outcomes[:threshold] == ["extension-failed"] * threshold
        and outcomes[threshold] == "breaker-open"
        and fe.stats.extension_attempts == threshold
        and fe.stats.breaker_trips == 1
        and fe.breaker(uncapped).state == "open",
        "frontend.breaker-discipline",
        subject,
        f"after {threshold} injected extension crashes the breaker must "
        "be open and later queries must degrade without touching the "
        f"sampler; outcomes={outcomes}, attempts="
        f"{fe.stats.extension_attempts} (want {threshold}), trips="
        f"{fe.stats.breaker_trips}, state={fe.breaker(uncapped).state!r}",
    )
    await fe.close()

    # -- republish-redispatch: stale observed mid-flight -----------------
    fe = ServingFrontend(fault_plan="stale:@0;stale:@1")
    r0, r1 = await asyncio.gather(fe.top_k(path, k), fe.what_if(path, k))
    rep.check(
        bool(np.array_equal(r0.seeds, r1.seeds))
        and not r0.degraded
        and fe.stats.republishes == 2
        and fe.cache.misses >= 2,
        "frontend.republish-redispatch",
        subject,
        "mid-flight republish must hot re-open and re-dispatch at most "
        f"once, bit-identically: republishes={fe.stats.republishes}, "
        f"misses={fe.cache.misses}, degraded={r0.degraded}",
    )
    await fe.close()

    # -- republish-fresh: a re-frozen index is served, not remembered ----
    repub = path.parent / "republish"
    shutil.copytree(path, repub)
    fe = ServingFrontend(concurrency=2)
    warm = await fe.top_k(repub)
    seed2 = seed + 1
    freeze_index(graph, k, eps, model, seed2, theta_cap=cap, out_dir=repub)[0].close()
    fresh_new = imm(graph, k, eps, model, seed=seed2, layout="sorted", theta_cap=cap)
    served = await fe.top_k(repub)
    await fe.close()
    rep.check(
        bool(np.array_equal(warm.seeds, fresh.seeds))
        and bool(np.array_equal(served.seeds, fresh_new.seeds))
        and served.theta == fresh_new.theta
        and served.coverage_history == fresh_new.extra["coverage_history"],
        "frontend.republish-fresh",
        subject,
        f"after re-freezing seed {seed2} over a warm seed-{seed} index the "
        f"front end must serve a fresh imm(seed={seed2}): got "
        f"{np.asarray(served.seeds).tolist()} (theta {served.theta}), want "
        f"{fresh_new.seeds.tolist()} (theta {fresh_new.theta})",
    )

    # -- quiesce: closed front end leaks nothing, refuses typed ----------
    try:
        await fe.top_k(path)
        refused = False
    except AdmissionRejected as exc:
        refused = exc.reason == "shutdown"
    rep.check(
        refused and len(fe.cache) == 0,
        "frontend.quiesce",
        subject,
        f"closed front end must hold zero engines ({len(fe.cache)} open) "
        f"and refuse new queries with a typed rejection (refused={refused})",
    )
