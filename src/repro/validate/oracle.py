"""The cross-implementation equivalence oracle.

The paper's experimental argument rests on one invariant: IMM, IMMmt and
IMMdist compute the *same* seed sets while only the execution schedule
changes.  This module enforces it end to end, for every graph in the
dataset registry, across every axis the codebase can vary:

========================  =============================================
axis                      values exercised
========================  =============================================
driver                    ``imm`` / ``imm_mt`` / ``imm_dist`` (per-sample)
storage layout            ``sorted`` / ``hypergraph``
sampler engine            serial / batched cohort / process-pool
cohort size               {1, 7, 64, θ} (or the configured subset)
rank / thread count       {1, 2, 5} (or the configured subset)
pool workers × chunk      {1, 2, 4} × configured chunk sizes
RNG scheme                per-sample counter streams / leap-frog LCG
supervised runtime        crash / straggler / deadline / resume axes
frozen serving index      freeze / serve / tighten / promote / binding /
                          every durable write of index and checkpoint
serving cluster           routing / failover / hedge / partition-heal
========================  =============================================

Per-sample counter streams make the output schedule-independent, so for
that scheme the oracle demands **bit-identical** seed sets, θ, and
coverage histories against the serial reference.  The leap-frog scheme
deliberately consumes different randomness per rank count (its guarantee
is distributional, via the tiling law checked in
:mod:`repro.validate.rnglaws`), so there the oracle demands determinism:
two runs at the same rank count must agree exactly.

The work-meter conservation laws ride along: per-rank selection meters
must sum to the global totals, the distributed run must examine exactly
the edges the serial run examined, and both sampler engines must
attribute identical per-sample edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import load, names
from ..imm import imm, select_seeds
from ..mpi import imm_dist
from ..parallel import PUMA, imm_mt
from ..sampling import (
    BatchedRRRSampler,
    HypergraphRRRCollection,
    SortedRRRCollection,
    sample_batch,
)
from .engine import check_engine_sampling, serial_sample_batch
from .invariants import check_collection
from .recovery import (
    check_community_driver,
    check_partitioned_equivalence,
    check_recovery_equivalence,
)
from .report import ValidationReport
from .rnglaws import check_rng_laws
from .cluster import check_cluster_equivalence
from .frontend import check_frontend_equivalence
from .serving import check_serving_equivalence
from .supervision import check_supervised_equivalence

__all__ = [
    "OracleConfig",
    "quick_config",
    "full_config",
    "check_graph_equivalence",
    "check_dist_equivalence",
    "check_selection_meters",
    "run_oracle",
]


@dataclass(frozen=True)
class OracleConfig:
    """What the oracle sweeps; presets via :func:`quick_config` /
    :func:`full_config`.

    ``theta_cap`` bounds the per-run sample count so the full sweep
    stays minutes, not hours.  Every driver honors the cap through the
    identical control flow, so equivalence statements are unaffected —
    all runs still solve the same capped instance.
    """

    datasets: tuple[str, ...]
    models: tuple[str, ...] = ("IC", "LT")
    k: int = 8
    eps: float = 0.5
    seed: int = 1
    theta_cap: int = 600
    #: batched-engine cohort sizes; θ itself is appended at run time.
    cohort_sizes: tuple[int, ...] = (1, 7, 64)
    #: ``imm_dist`` node counts (and selection-meter rank counts).
    rank_counts: tuple[int, ...] = (1, 2, 5)
    #: ``imm_mt`` thread counts.
    mt_threads: tuple[int, ...] = (1, 2, 5)
    #: exercise the leap-frog scheme's determinism contract.
    check_leapfrog: bool = True
    #: sweep fault plans × recovery policies against the fault-free run.
    check_faults: bool = True
    #: ``imm_dist`` node counts for the fault sweep (>= 2: a fault on a
    #: single-rank job has nobody to recover with).
    fault_rank_counts: tuple[int, ...] = (2, 5)
    #: cover the graph-partitioned sampler (IC graphs only).
    check_partitioned: bool = True
    partitioned_ranks: tuple[int, ...] = (1, 3)
    partitioned_samples: int = 40
    #: cover the community-IMM driver.
    check_community: bool = True
    #: cover the shared-memory process-pool engine.
    check_engine: bool = True
    #: pool sizes for the engine equivalence sweep.
    engine_workers: tuple[int, ...] = (1, 2, 4)
    #: fan-out block sizes driven through each engine (``None`` = auto).
    engine_chunk_sizes: tuple[int | None, ...] = (None, 37)
    #: cover the self-healing supervised engine (crash / straggler /
    #: deadline / resume axes, real SIGKILLs against live workers).
    check_supervised: bool = True
    #: pool size for the supervised axes.
    supervised_workers: int = 2
    #: cover the frozen serving index: freeze / serve / tighten /
    #: promote / graph-binding / cache axes, bit-identical to fresh runs,
    #: and the crash-point sweep of the durable RRR store.
    check_serving: bool = True
    #: cover the async serving front end: admission control, coalescing,
    #: extension bulkhead + circuit breaker, deadline-bounded degradation,
    #: and injected serving faults (stragglers, republish, crashes).
    check_frontend: bool = True
    #: cover the replicated serving cluster: consistent-hash routing,
    #: health-checked failover, hedged reads, single-writer extension
    #: routing, and typed all-replicas-down degradation.
    check_cluster: bool = True


def quick_config() -> OracleConfig:
    """Seconds-scale sweep for CI and ``benchmarks/regress.py``."""
    return OracleConfig(
        datasets=("cit-HepTh", "soc-Epinions1"),
        theta_cap=300,
        cohort_sizes=(1, 7),
        rank_counts=(1, 2),
        mt_threads=(2,),
        fault_rank_counts=(2,),
        partitioned_ranks=(3,),
        partitioned_samples=25,
        engine_workers=(2,),
        engine_chunk_sizes=(None,),
    )


def full_config() -> OracleConfig:
    """The acceptance sweep: every registry graph, every axis value."""
    return OracleConfig(datasets=tuple(names()))


def _seed_mismatch(a: np.ndarray, b: np.ndarray) -> str:
    return f"seed sets diverge: {np.asarray(a).tolist()} vs {np.asarray(b).tolist()}"


def check_selection_meters(
    collection: SortedRRRCollection,
    n: int,
    k: int,
    rank_counts: tuple[int, ...],
    subject: str,
) -> ValidationReport:
    """Selection must be rank-count invariant and meter-conserving."""
    rep = ValidationReport()
    ref = select_seeds(collection, n, k, num_ranks=1)
    for ranks in rank_counts:
        sel = select_seeds(collection, n, k, num_ranks=ranks)
        sub = f"{subject} num_ranks={ranks}"
        rep.check(
            bool(np.array_equal(sel.seeds, ref.seeds)),
            "oracle.select-rank-invariance",
            sub,
            _seed_mismatch(sel.seeds, ref.seeds),
        )
        rep.check(
            sel.num_ranks == ranks and len(sel.per_rank_searches) == ranks,
            "meters.rank-count",
            sub,
            f"per-rank meter arrays have {sel.num_ranks} entries",
        )
        rep.check(
            int(sel.per_rank_entries.sum()) == sel.counter_updates,
            "meters.selection-conservation",
            sub,
            f"per-rank entries sum {int(sel.per_rank_entries.sum())} != "
            f"global counter_updates {sel.counter_updates}",
        )
        rep.check(
            sel.covered_samples == ref.covered_samples
            and sel.counter_updates == ref.counter_updates,
            "meters.rank-independence",
            sub,
            "total work changed with the rank count (partitioning must "
            "only redistribute it)",
        )
    return rep


def _check_sampling_equivalence(
    graph, model: str, theta: int, cfg: OracleConfig, subject: str
) -> tuple[ValidationReport, SortedRRRCollection]:
    """Engines × cohort sizes × layouts must yield identical collections."""
    rep = ValidationReport()
    # Reference: the serial engine, sample by sample, sorted layout.
    ref_coll = SortedRRRCollection(graph.n)
    ref_batch = serial_sample_batch(graph, model, ref_coll, theta, cfg.seed)
    rep.merge(check_collection(ref_coll, f"{subject} engine=serial"))
    ref_flat, ref_indptr = ref_coll.flattened()

    for cohort in (*cfg.cohort_sizes, theta):
        sub = f"{subject} cohort={cohort}"
        coll = SortedRRRCollection(graph.n)
        sampler = BatchedRRRSampler(graph, model, max_cohort=max(1, cohort))
        batch = sample_batch(graph, model, coll, theta, cfg.seed, sampler=sampler)
        rep.merge(check_collection(coll, sub))
        flat, indptr = coll.flattened()
        rep.check(
            bool(np.array_equal(flat, ref_flat))
            and bool(np.array_equal(indptr, ref_indptr)),
            "oracle.collection-bitwise",
            sub,
            "batched-engine collection is not bit-identical to the serial "
            "engine's",
        )
        rep.check(
            bool(
                np.array_equal(batch.per_sample_edges, ref_batch.per_sample_edges)
            ),
            "meters.per-sample-edges",
            sub,
            "engines disagree on per-sample examined-edge counts",
        )

    # Hypergraph layout fed by both engines: same samples, and the
    # layout-specific selector must pick the same seeds.
    hyper = HypergraphRRRCollection(graph.n)
    sample_batch(graph, model, hyper, theta, cfg.seed)
    rep.merge(check_collection(hyper, f"{subject} layout=hypergraph"))
    same_lists = len(hyper) == len(ref_coll) and all(
        np.array_equal(a, b) for a, b in zip(hyper, ref_coll)
    )
    rep.check(
        same_lists,
        "oracle.layout-contents",
        subject,
        "hypergraph layout holds different samples than the sorted layout",
    )
    sel_sorted = select_seeds(ref_coll, graph.n, cfg.k)
    sel_hyper = select_seeds(hyper, graph.n, cfg.k)
    rep.check(
        bool(np.array_equal(sel_sorted.seeds, sel_hyper.seeds))
        and sel_sorted.covered_samples == sel_hyper.covered_samples,
        "oracle.layout-selection",
        subject,
        _seed_mismatch(sel_sorted.seeds, sel_hyper.seeds),
    )
    return rep, ref_coll


def check_dist_equivalence(
    graph, model: str, ref, cfg: OracleConfig, subject: str
) -> ValidationReport:
    """``imm_dist`` (per-sample streams) must reproduce the serial ``ref``."""
    rep = ValidationReport()
    for ranks in cfg.rank_counts:
        dist = imm_dist(
            graph, cfg.k, cfg.eps, model, num_nodes=ranks, machine=PUMA,
            seed=cfg.seed, rng_scheme="per-sample", theta_cap=cfg.theta_cap,
        )
        sub = f"{subject} imm_dist[nodes={ranks}]"
        rep.check(
            bool(np.array_equal(ref.seeds, dist.seeds)) and ref.theta == dist.theta,
            "oracle.seed-set",
            sub,
            _seed_mismatch(ref.seeds, dist.seeds)
            + f"; theta {ref.theta} vs {dist.theta}",
        )
        rep.check(
            dist.extra.get("coverage_history") == ref.extra["coverage_history"],
            "oracle.coverage-history",
            sub,
            f"per-round (theta_x, frac) diverges: "
            f"{dist.extra.get('coverage_history')} vs "
            f"{ref.extra['coverage_history']}",
        )
        rep.check(
            dist.counters.edges_examined == ref.counters.edges_examined
            and dist.counters.samples_generated == ref.counters.samples_generated,
            "meters.driver-conservation",
            sub,
            f"rank meters do not sum to the serial ledger: edges "
            f"{dist.counters.edges_examined} vs {ref.counters.edges_examined}, "
            f"samples {dist.counters.samples_generated} vs "
            f"{ref.counters.samples_generated}",
        )
    return rep


def check_graph_equivalence(
    graph, model: str, cfg: OracleConfig, subject: str
) -> ValidationReport:
    """All drivers × layouts × cohorts × ranks on one graph."""
    rep = ValidationReport()
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap

    ref = imm(graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap)

    # -- layout axis ------------------------------------------------------
    hyper = imm(graph, k, eps, model, seed=seed, layout="hypergraph", theta_cap=cap)
    rep.check(
        bool(np.array_equal(ref.seeds, hyper.seeds)) and ref.theta == hyper.theta,
        "oracle.seed-set",
        f"{subject} imm[hypergraph]",
        _seed_mismatch(ref.seeds, hyper.seeds) + f"; theta {ref.theta} vs {hyper.theta}",
    )

    # -- multithreaded driver --------------------------------------------
    for threads in cfg.mt_threads:
        mt = imm_mt(
            graph, k, eps, model, num_threads=threads, machine=PUMA,
            seed=seed, theta_cap=cap,
        )
        sub = f"{subject} imm_mt[threads={threads}]"
        rep.check(
            bool(np.array_equal(ref.seeds, mt.seeds)) and ref.theta == mt.theta,
            "oracle.seed-set",
            sub,
            _seed_mismatch(ref.seeds, mt.seeds) + f"; theta {ref.theta} vs {mt.theta}",
        )
        rep.check(
            mt.counters.edges_examined == ref.counters.edges_examined
            and mt.counters.samples_generated == ref.counters.samples_generated,
            "meters.driver-conservation",
            sub,
            f"work ledger diverges from serial: edges "
            f"{mt.counters.edges_examined} vs {ref.counters.edges_examined}, "
            f"samples {mt.counters.samples_generated} vs "
            f"{ref.counters.samples_generated}",
        )

    # -- distributed driver, per-sample scheme ---------------------------
    rep.merge(check_dist_equivalence(graph, model, ref, cfg, subject))

    # -- distributed driver, leap-frog scheme ----------------------------
    if cfg.check_leapfrog:
        for ranks in cfg.rank_counts:
            lf1 = imm_dist(
                graph, k, eps, model, num_nodes=ranks, machine=PUMA,
                seed=seed, rng_scheme="leapfrog", theta_cap=cap,
            )
            lf2 = imm_dist(
                graph, k, eps, model, num_nodes=ranks, machine=PUMA,
                seed=seed, rng_scheme="leapfrog", theta_cap=cap,
            )
            sub = f"{subject} imm_dist[leapfrog, nodes={ranks}]"
            rep.check(
                bool(np.array_equal(lf1.seeds, lf2.seeds))
                and lf1.theta == lf2.theta,
                "oracle.leapfrog-determinism",
                sub,
                "two identical leap-frog runs diverged: "
                + _seed_mismatch(lf1.seeds, lf2.seeds),
            )
            rep.check(
                len(np.unique(lf1.seeds)) == k
                and int(lf1.seeds.min()) >= 0
                and int(lf1.seeds.max()) < graph.n,
                "oracle.seed-set-wellformed",
                sub,
                f"leap-frog seed set malformed: {lf1.seeds.tolist()}",
            )

    # -- real-parallel process-pool engine --------------------------------
    if cfg.check_engine:
        # Sampling-level: bitwise equality across workers × chunk sizes.
        rep.merge(
            check_engine_sampling(
                graph, model, min(ref.theta, cap), cfg.seed, subject,
                workers=cfg.engine_workers,
                chunk_sizes=cfg.engine_chunk_sizes,
            )
        )
        # End-to-end: the full driver on a pool must reproduce the serial
        # run exactly — seeds, theta, and the per-round coverage history.
        for w in cfg.engine_workers:
            if w <= 1:
                continue
            par = imm(
                graph, k, eps, model, seed=seed, layout="sorted",
                theta_cap=cap, workers=w,
            )
            sub = f"{subject} imm[workers={w}]"
            rep.check(
                bool(np.array_equal(ref.seeds, par.seeds))
                and ref.theta == par.theta,
                "oracle.engine-seed-set",
                sub,
                _seed_mismatch(ref.seeds, par.seeds)
                + f"; theta {ref.theta} vs {par.theta}",
            )
            rep.check(
                par.extra["coverage_history"] == ref.extra["coverage_history"],
                "oracle.engine-coverage-history",
                sub,
                f"per-round (theta_x, frac) diverges: "
                f"{par.extra['coverage_history']} vs "
                f"{ref.extra['coverage_history']}",
            )

    # -- sampling engines × cohort sizes × layouts ------------------------
    sampling_rep, ref_coll = _check_sampling_equivalence(
        graph, model, ref.theta, cfg, subject
    )
    rep.merge(sampling_rep)

    # -- selection meters over the reference collection -------------------
    rep.merge(
        check_selection_meters(ref_coll, graph.n, k, cfg.rank_counts, subject)
    )

    # -- fault plans × recovery policies ----------------------------------
    if cfg.check_faults:
        rep.merge(check_recovery_equivalence(graph, model, cfg, subject))

    # -- self-healing supervised engine (real kills, real disk) -----------
    if cfg.check_supervised:
        rep.merge(check_supervised_equivalence(graph, model, cfg, subject))

    # -- frozen serving index (freeze / serve / tighten / promote) --------
    if cfg.check_serving:
        rep.merge(check_serving_equivalence(graph, model, cfg, subject))

    # -- traffic front end (admission / coalesce / bulkhead / degrade) ----
    if cfg.check_frontend:
        rep.merge(check_frontend_equivalence(graph, model, cfg, subject))

    # -- graph-partitioned distributed sampler (hash coins are IC-only) ---
    if cfg.check_partitioned and model == "IC":
        rep.merge(check_partitioned_equivalence(graph, cfg, subject))

    # -- community-IMM driver ---------------------------------------------
    if cfg.check_community:
        rep.merge(check_community_driver(graph, model, cfg, subject))
    return rep


def run_oracle(
    cfg: OracleConfig, *, progress=None, shard: tuple[int, int] | None = None
) -> ValidationReport:
    """Sweep the configured datasets × models, plus the RNG laws.

    ``progress`` is an optional callable receiving one status line per
    completed subject (the CLI passes ``print``).

    ``shard=(i, m)`` (1-based) runs only every ``m``-th subject starting
    at the ``i``-th — the CI path for keeping ``--full`` under its time
    budget: the union of the ``m`` shards is exactly the unsharded
    sweep.  A subject is a ``dataset × model`` on one of two axes — the
    core driver/engine sweep (:func:`check_graph_equivalence`) and the
    replicated-cluster subject (:func:`check_cluster_equivalence`) —
    listed axis first, then model, then dataset.  So while ``m`` is at
    most the dataset count, every shard takes core subjects of every
    model, the expensive axis spread over all jobs.  The (cheap,
    graph-independent) RNG laws run on shard 1 only.
    """
    rep = ValidationReport()
    axes = ("core",) + (("cluster",) if cfg.check_cluster else ())
    subjects = [
        (name, model, axis)
        for axis in axes
        for model in cfg.models
        for name in cfg.datasets
    ]
    if shard is not None:
        i, m = shard
        if not (1 <= i <= m):
            raise ValueError(f"shard index must satisfy 1 <= i <= m, got {i}/{m}")
        subjects = subjects[i - 1 :: m]
    if shard is None or shard[0] == 1:
        rng_rep = check_rng_laws(cfg.seed)
        if progress is not None:
            progress(f"rng laws: {rng_rep.checks_run} checks, "
                     f"{len(rng_rep.violations)} violations")
        rep.merge(rng_rep)
    for name, model, axis in subjects:
        subject = f"{name}/{model}"
        graph = load(name, model)
        if axis == "core":
            graph_rep = check_graph_equivalence(graph, model, cfg, subject)
        else:
            graph_rep = check_cluster_equivalence(graph, model, cfg, subject)
        if progress is not None:
            progress(
                f"{subject}[{axis}]: {graph_rep.checks_run} checks, "
                f"{len(graph_rep.violations)} violations"
            )
        rep.merge(graph_rep)
    return rep
