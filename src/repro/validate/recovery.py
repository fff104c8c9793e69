"""Recovery-equivalence oracle: fault plans × policies vs. the fault-free run.

The fault-tolerance layer makes three falsifiable promises, and this
module is where each becomes a checked claim instead of a docstring:

* **respawn is bit-exact** — for any crash plan, the recovered run's
  seeds, θ, and coverage history equal the fault-free run's, and its
  work ledger (edges examined, samples generated) is conserved: replay
  must not double-count.  The oracle also demands the fault actually
  *fired* (``respawns >= 1``) so a mis-addressed plan cannot
  vacuously pass.

* **shrink is honestly degraded** — a lost rank's generated samples are
  flagged, never silently absorbed: ``degraded=True``,
  ``theta_effective + lost_samples == theta``, the effective ε is no
  better than the requested one, and the surviving partitions hold
  exactly the live samples.  (A crash *before* anything was sampled
  must conversely re-deal everything and stay bit-exact, non-degraded.)

* **corruption without recovery is visible** — a corrupted reduce
  buffer under the abort policy must change the output; if it did not,
  the oracle could never distinguish recovery from luck.

:func:`check_rebuild_fidelity` is the primitive the respawn claim (and
the mutation suite) leans on: a rank's partition re-derived from its
sample indices alone must bitwise-equal the partition it held.
"""

from __future__ import annotations

import numpy as np

from ..community import community_imm
from ..datasets import load
from ..imm import imm
from ..mpi import imm_dist, partitioned_rr_batch, rebuild_partition
from ..parallel import PUMA
from ..rng import sample_stream
from ..sampling import RRRSampler
from .report import ValidationReport

__all__ = [
    "check_recovery_equivalence",
    "check_degraded_accounting",
    "check_rebuild_fidelity",
    "check_partitioned_equivalence",
    "check_community_driver",
]


def _same_output(a, b) -> tuple[bool, str]:
    if not np.array_equal(a.seeds, b.seeds):
        return False, f"seeds {a.seeds.tolist()} vs {b.seeds.tolist()}"
    if a.theta != b.theta:
        return False, f"theta {a.theta} vs {b.theta}"
    if a.extra.get("coverage_history") != b.extra.get("coverage_history"):
        return False, "coverage histories diverge"
    return True, ""


def check_rebuild_fidelity(
    collection, graph, model: str, deals, rank: int, upto: int, seed: int, subject: str
) -> ValidationReport:
    """``collection`` must equal the partition re-derived from indices alone."""
    rep = ValidationReport()
    ref, js, _ = rebuild_partition(graph, model, deals, rank, upto, seed)
    rep.check(
        len(collection) == len(js),
        "recovery.rebuild-count",
        subject,
        f"rebuilt partition holds {len(collection)} samples, "
        f"ownership map assigns {len(js)}",
    )
    if len(collection) == len(ref):
        flat, indptr = collection.flattened()
        ref_flat, ref_indptr = ref.flattened()
        rep.check(
            bool(np.array_equal(flat, ref_flat))
            and bool(np.array_equal(indptr, ref_indptr)),
            "recovery.rebuild-bitwise",
            subject,
            "rebuilt partition is not bit-identical to the index-derived "
            "reference (wrong stream or wrong indices)",
        )
    return rep


def check_degraded_accounting(result, subject: str) -> ValidationReport:
    """A (possibly) shrunk result's loss accounting must balance."""
    rep = ValidationReport()
    ex = result.extra
    theta_eff = ex["theta_effective"]
    lost = ex["lost_samples"]
    rep.check(
        theta_eff + lost == result.theta,
        "recovery.degraded-accounting",
        subject,
        f"theta_effective {theta_eff} + lost {lost} != theta {result.theta}",
    )
    rep.check(
        ex["degraded"] == (lost > 0),
        "recovery.degraded-flag",
        subject,
        f"degraded={ex['degraded']} but lost_samples={lost}",
    )
    rep.check(
        ex["epsilon_effective"] >= result.epsilon or not ex["degraded"],
        "recovery.epsilon-effective",
        subject,
        f"degraded run claims a better bound ({ex['epsilon_effective']}) "
        f"than requested ({result.epsilon})",
    )
    per_rank = ex["per_rank_samples"]
    rep.check(
        sum(per_rank) == result.num_samples and result.num_samples >= theta_eff,
        "recovery.sample-conservation",
        subject,
        f"per-rank samples {per_rank} (sum {sum(per_rank)}) vs "
        f"num_samples {result.num_samples}, theta_effective {theta_eff}",
    )
    dead = set(range(ex["num_nodes"])) - set(ex["alive_ranks"])
    rep.check(
        all(per_rank[r] == 0 for r in dead),
        "recovery.dead-rank-meters",
        subject,
        f"dead ranks {sorted(dead)} still report samples: {per_rank}",
    )
    return rep


def check_recovery_equivalence(
    graph, model: str, cfg, subject: str
) -> ValidationReport:
    """Every fault plan × policy ⇒ identical or correctly-flagged output."""
    rep = ValidationReport()
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap

    def dist(**kw):
        return imm_dist(
            graph, k, eps, model, machine=PUMA, seed=seed, theta_cap=cap, **kw
        )

    for ranks in cfg.fault_rank_counts:
        base = dist(num_nodes=ranks)
        total_steps = base.extra["comm_calls"]

        # -- respawn: single crash, multi-rank crash, phase-addressed ----
        plans = [
            (f"crash:{ranks - 1}@3", 1),
            (f"crash:0@2;crash:{ranks - 1}@{min(7, total_steps - 1)}", 2),
            ("crash:0@phase=SelectSeeds", 1),
        ]
        for spec, expected_fires in plans:
            res = dist(num_nodes=ranks, fault_plan=spec, policy="respawn")
            sub = f"{subject} nodes={ranks} respawn[{spec}]"
            same, why = _same_output(base, res)
            rep.check(same, "recovery.respawn-bitexact", sub, why)
            rep.check(
                res.extra["recovery"]["respawns"] >= expected_fires,
                "recovery.fault-fired",
                sub,
                f"plan injected {expected_fires} crash(es) but only "
                f"{res.extra['recovery']['respawns']} respawn(s) happened",
            )
            rep.check(
                res.counters.edges_examined == base.counters.edges_examined
                and res.counters.samples_generated
                == base.counters.samples_generated,
                "recovery.respawn-meters",
                sub,
                "replayed rank double- or under-counted work: edges "
                f"{res.counters.edges_examined} vs {base.counters.edges_examined}, "
                f"samples {res.counters.samples_generated} vs "
                f"{base.counters.samples_generated}",
            )

        # -- retry: transient failures metered, output untouched ----------
        res = dist(num_nodes=ranks, fault_plan="transient:@4x2", policy="retry")
        sub = f"{subject} nodes={ranks} retry[transient:@4x2]"
        same, why = _same_output(base, res)
        rep.check(same, "recovery.retry-bitexact", sub, why)
        rep.check(
            res.extra["recovery"]["retries"] == 2
            and res.extra["comm_by_label"].get("retry", (0, 0))[0] == 2,
            "recovery.retry-metered",
            sub,
            f"expected 2 metered retries, log says "
            f"{res.extra['recovery']['retries']}, ledger says "
            f"{res.extra['comm_by_label'].get('retry')}",
        )

        # -- straggler: output identical, modeled time strictly worse -----
        res = dist(num_nodes=ranks, fault_plan="straggler:0x8", policy="retry")
        sub = f"{subject} nodes={ranks} straggler[0x8]"
        same, why = _same_output(base, res)
        rep.check(same, "recovery.straggler-bitexact", sub, why)
        rep.check(
            res.breakdown.total > base.breakdown.total,
            "recovery.straggler-priced",
            sub,
            f"8x straggler did not increase modeled time "
            f"({res.breakdown.total:.3g} vs {base.breakdown.total:.3g})",
        )

        # -- switch outage: a contiguous rank group dies at one step ------
        lo, hi = (1, 2) if ranks >= 3 else (ranks - 1, ranks - 1)
        group = hi - lo + 1
        spec = f"switch:{lo}-{hi}@3"
        res = dist(num_nodes=ranks, fault_plan=spec, policy="respawn")
        sub = f"{subject} nodes={ranks} respawn[{spec}]"
        same, why = _same_output(base, res)
        rep.check(same, "recovery.switch-respawn-bitexact", sub, why)
        rep.check(
            res.extra["recovery"]["respawns"] >= group,
            "recovery.fault-fired",
            sub,
            f"switch outage killed ranks {lo}-{hi} ({group} rank(s)) but "
            f"only {res.extra['recovery']['respawns']} respawn(s) happened",
        )
        res = dist(num_nodes=ranks, fault_plan=spec, policy="shrink")
        sub = f"{subject} nodes={ranks} shrink[{spec}]"
        rep.check(
            res.extra["recovery"]["shrinks"] >= 1
            and len(res.extra["alive_ranks"]) == ranks - group
            and not any(
                lo <= r <= hi for r in res.extra["alive_ranks"]
            ),
            "recovery.switch-shrink-group",
            sub,
            f"expected the whole group {lo}-{hi} gone after "
            f"{res.extra['recovery']['shrinks']} shrink(s); alive: "
            f"{res.extra['alive_ranks']}",
        )
        rep.merge(check_degraded_accounting(res, sub))

        # -- shrink: late crash must be flagged degraded ------------------
        res = dist(
            num_nodes=ranks,
            fault_plan=f"crash:{ranks - 1}@phase=SelectSeeds",
            policy="shrink",
        )
        sub = f"{subject} nodes={ranks} shrink[late-crash]"
        rep.check(
            res.extra["degraded"] and res.extra["recovery"]["shrinks"] == 1,
            "recovery.shrink-degraded",
            sub,
            f"degraded={res.extra['degraded']}, "
            f"shrinks={res.extra['recovery']['shrinks']}",
        )
        rep.merge(check_degraded_accounting(res, sub))
        rep.check(
            len(np.unique(res.seeds)) == k
            and int(res.seeds.min()) >= 0
            and int(res.seeds.max()) < graph.n,
            "oracle.seed-set-wellformed",
            sub,
            f"shrunk seed set malformed: {res.seeds.tolist()}",
        )

        # -- shrink: crash before anything sampled loses nothing ----------
        res = dist(num_nodes=ranks, fault_plan="crash:0@0", policy="shrink")
        sub = f"{subject} nodes={ranks} shrink[early-crash]"
        same, why = _same_output(base, res)
        rep.check(
            same and not res.extra["degraded"],
            "recovery.shrink-lossless-redeal",
            sub,
            f"pre-sampling crash should re-deal everything bit-exactly "
            f"(degraded={res.extra['degraded']}): {why}",
        )

        # -- corruption under abort must be *visible* ---------------------
        res = dist(num_nodes=ranks, fault_plan="corrupt:0@0")
        sub = f"{subject} nodes={ranks} corrupt[0@0]"
        same, _ = _same_output(base, res)
        rep.check(
            not same,
            "recovery.corruption-visible",
            sub,
            "corrupted reduce buffer left the output unchanged — the "
            "oracle cannot distinguish recovery from luck on this graph",
        )
    return rep


def check_partitioned_equivalence(graph, cfg, subject: str) -> ValidationReport:
    """Graph-partitioned sampler vs. serial hash-mode sampling (IC only)."""
    rep = ValidationReport()
    count = cfg.partitioned_samples
    sampler = RRRSampler(graph, "IC")
    reference = []
    for j in range(count):
        stream = sample_stream(cfg.seed, j)
        root = stream.randint(0, graph.n)
        verts, _ = sampler.generate(root, stream, edge_flip="hash")
        reference.append(verts)
    for ranks in cfg.partitioned_ranks:
        batch = partitioned_rr_batch(graph, count, ranks, cfg.seed, machine=PUMA)
        sub = f"{subject} partitioned[ranks={ranks}]"
        rep.check(
            len(batch.collection) == count
            and all(
                np.array_equal(reference[j], batch.collection[j])
                for j in range(count)
            ),
            "oracle.partitioned-bitwise",
            sub,
            "graph-partitioned sampler diverges from serial hash-mode "
            "sampling (vertex-partition must not change coin outcomes)",
        )
        # Every sample costs >= 1 level Allreduce; the ledger must see them.
        rep.check(
            batch.comm_calls >= len(batch.collection) and batch.comm_bytes > 0,
            "meters.partitioned-comm",
            sub,
            f"comm ledger implausible: {batch.comm_calls} calls, "
            f"{batch.comm_bytes} bytes for {len(batch.collection)} samples",
        )
    return rep


def check_community_driver(graph, model: str, cfg, subject: str) -> ValidationReport:
    """Community-IMM determinism and budget-allocation conservation."""
    rep = ValidationReport()
    a = community_imm(graph, cfg.k, cfg.eps, model, seed=cfg.seed, theta_cap=cfg.theta_cap)
    b = community_imm(graph, cfg.k, cfg.eps, model, seed=cfg.seed, theta_cap=cfg.theta_cap)
    rep.check(
        bool(np.array_equal(a.seeds, b.seeds))
        and a.allocation == b.allocation,
        "oracle.community-determinism",
        subject,
        "two identical community-IMM runs diverged",
    )
    rep.check(
        sum(a.allocation.values()) == cfg.k,
        "oracle.community-budget",
        subject,
        f"per-community budgets {a.allocation} do not sum to k={cfg.k}",
    )
    rep.check(
        len(np.unique(a.seeds)) == cfg.k
        and int(np.min(a.seeds)) >= 0
        and int(np.max(a.seeds)) < graph.n,
        "oracle.seed-set-wellformed",
        f"{subject} community",
        f"community seed set malformed: {np.asarray(a.seeds).tolist()}",
    )
    rep.check(
        all(int(c) >= 0 for c in a.allocation.values()),
        "oracle.community-allocation",
        subject,
        f"negative community budget in {a.allocation}",
    )
    return rep
