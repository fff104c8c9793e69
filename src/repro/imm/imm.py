"""Algorithm 1: the serial IMM driver.

    S <- InfluenceMaximization(G, k, eps):
        (R, theta) <- EstimateTheta(G, k, eps)
        R <- Sample(G, theta - |R|, R)
        S <- SelectSeeds(G, k, R)

Two layouts select the two serial rows of Table 2:

* ``layout="sorted"``     → IMM\\ :sup:`OPT` (this paper's serial code);
* ``layout="hypergraph"`` → the reference IMM storage of Tang et al.

Timing convention (matches the paper's figures): sampling performed
inside ``EstimateTheta`` is charged to the *EstimateTheta* phase; only
the top-up invocation from this skeleton is charged to *Sample*.
"""

from __future__ import annotations

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..perf.counters import WorkCounters
from ..perf.timers import PhaseTimer
from ..sampling import (
    BatchedRRRSampler,
    DeadlineExceededError,
    HypergraphRRRCollection,
    SortedRRRCollection,
    sample_batch,
)
from ..sampling.supervisor import build_sampling_engine
from .result import DegradedResult, IMMResult
from .select import select_seeds
from .theta import check_theta_cap, estimate_theta, shrink_epsilon

__all__ = ["imm"]


def imm(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    layout: str = "sorted",
    theta_cap: int | None = None,
    workers: int = 1,
    start_method: str | None = None,
    supervise: bool = False,
    supervisor_opts: dict | None = None,
) -> IMMResult:
    """Run serial IMM and return the seed set with full diagnostics.

    Parameters
    ----------
    graph:
        Input graph with activation probabilities already assigned (see
        :mod:`repro.graph.weights`; apply
        :func:`~repro.graph.weights.lt_normalize` before LT runs).
    k:
        Seed-set size.
    eps:
        Accuracy knob: the guarantee is a ``(1 - 1/e - eps)``
        approximation with probability ``1 - 1/n^l``.
    model:
        ``"IC"`` or ``"LT"``.
    seed:
        Master RNG seed; all randomness derives from it.
    layout:
        ``"sorted"`` (IMM\\ :sup:`OPT`) or ``"hypergraph"`` (reference).
        Both produce bit-identical seeds, θ, and coverage history.
    theta_cap:
        Optional ceiling on θ (at least 1) for bounded benchmark runs; a capped run
        reports ``extra["theta_capped"] = True`` and waives the formal
        guarantee.
    workers, start_method:
        ``workers > 1`` executes sampling and the selection counting
        pass on a real
        :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`
        process pool (shared-memory CSR, ``start_method`` selects how
        workers are started).  Results are bit-identical to the serial
        run — same seeds, θ, and coverage history — only the wall clock
        in ``breakdown`` changes.  Requires ``layout="sorted"``.
    supervise, supervisor_opts:
        ``supervise=True`` runs on the self-healing
        :class:`~repro.sampling.supervisor.SupervisedSamplingEngine`
        instead: worker crashes are healed by deterministic block replay
        (bit-identical output), and ``supervisor_opts`` passes through
        any supervisor keyword — ``spares``, ``crash_budget``,
        ``deadline``, ``checkpoint_dir``/``resume_from``, ``fault_plan``,
        straggler-speculation knobs (requires ``layout="sorted"``).  A
        ``deadline`` that expires mid-θ returns a
        :class:`~repro.imm.result.DegradedResult` (seeds
        selected from the landed prefix, ``theta_effective``/
        ``epsilon_effective`` recomputed as the MPI shrink policy does)
        instead of raising.  ``supervise=True`` works for any worker
        count, including 1 (deadline and checkpointing still apply).

    Returns
    -------
    :class:`IMMResult` (a :class:`DegradedResult` when a supervised run
    deadline expired).
    """
    check_theta_cap(theta_cap)
    model = DiffusionModel.parse(model)
    if workers < 1:
        raise ValueError("need at least one worker")
    if layout == "sorted":
        collection = SortedRRRCollection(graph.n)
    elif layout == "hypergraph":
        if workers > 1 or supervise:
            raise ValueError(
                "workers > 1 / supervise=True require layout='sorted'"
            )
        collection = HypergraphRRRCollection(graph.n)
    else:
        raise ValueError(
            f"unknown layout {layout!r}; expected 'sorted' or 'hypergraph'"
        )

    timer = PhaseTimer()
    counters = WorkCounters()
    engine = None
    if workers > 1 or supervise:
        engine = build_sampling_engine(
            graph,
            model,
            workers=workers,
            start_method=start_method,
            supervise=supervise,
            supervisor_opts=supervisor_opts,
        )
        sampler = engine
    else:
        sampler = BatchedRRRSampler(graph, model)

    est = None
    try:
        with timer.phase("EstimateTheta"):
            est = estimate_theta(
                graph,
                k,
                eps,
                model,
                seed,
                l,
                collection=collection,
                sampler=sampler,
                counters=counters,
                theta_cap=theta_cap,
            )

        with timer.phase("Sample"):
            batch = sample_batch(
                graph, model, collection, est.theta, seed, sampler=sampler
            )
            counters.edges_examined += batch.edges_examined
            counters.samples_generated += batch.count

        with timer.phase("SelectSeeds"):
            sel = select_seeds(collection, graph.n, k, count_engine=engine)
            counters.entries_scanned += sel.entries_scanned
            counters.counter_updates += sel.counter_updates
    except DeadlineExceededError:
        return _degraded_result(
            graph, k, eps, model, seed, l,
            layout=layout,
            collection=collection,
            est=est,
            timer=timer,
            counters=counters,
            workers=workers,
            engine=engine,
        )
    finally:
        if engine is not None:
            engine.close()

    return IMMResult(
        seeds=sel.seeds,
        k=k,
        epsilon=eps,
        model=model.value,
        layout=layout,
        theta=est.theta,
        num_samples=len(collection),
        coverage=sel.coverage_fraction(len(collection)),
        lb=est.lb,
        breakdown=timer.breakdown(),
        counters=counters,
        memory_bytes=collection.nbytes_model(),
        simulated=False,
        ranks=1,
        extra={
            "n": graph.n,
            "estimation_rounds": est.rounds,
            "coverage_history": est.coverage_history,
            "theta_capped": theta_cap is not None and est.theta >= theta_cap,
            "workers": workers,
            "supervised": supervise,
            # Per-phase engine counters (arena writes, landing, fused
            # merges, IPC descriptor bytes) — what the regression
            # harness's worker-scaling breakdown records.
            **({"engine": engine.stats.as_dict()} if engine is not None else {}),
            **(
                {"supervisor": engine.stats.as_dict()}
                if supervise and engine is not None
                else {}
            ),
        },
    )


def _degraded_result(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel,
    seed: int,
    l: float,
    *,
    layout: str,
    collection,
    est,
    timer: PhaseTimer,
    counters: WorkCounters,
    workers: int,
    engine,
) -> DegradedResult:
    """Convert a supervised deadline expiry into an honest partial result.

    Seeds are selected (serially) from the landed in-order prefix, and
    ``epsilon_effective`` is what the surviving ``theta_effective · LB``
    sample budget certifies (:func:`~repro.imm.theta.shrink_epsilon`).
    If the deadline expired before θ estimation produced a certified
    lower bound, the trivial ``OPT >= 1`` bound is used (and no target θ
    is reported beyond the landed count).
    """
    n = graph.n
    theta_eff = len(collection)
    lb = est.lb if est is not None else 1.0
    theta_target = est.theta if est is not None else theta_eff
    eps_eff = shrink_epsilon(n, k, l, theta_eff, lb)
    with timer.phase("SelectSeeds"):
        if theta_eff > 0:
            sel = select_seeds(collection, n, k)
            counters.entries_scanned += sel.entries_scanned
            counters.counter_updates += sel.counter_updates
            seeds = sel.seeds
            coverage = sel.coverage_fraction(theta_eff)
        else:
            seeds = np.empty(0, dtype=np.int64)
            coverage = 0.0
    stats = engine.stats.as_dict() if engine is not None else None
    return DegradedResult(
        seeds=seeds,
        k=k,
        epsilon=eps,
        model=model.value,
        layout=layout,
        theta=theta_target,
        num_samples=theta_eff,
        coverage=coverage,
        lb=lb,
        breakdown=timer.breakdown(),
        counters=counters,
        memory_bytes=collection.nbytes_model(),
        simulated=False,
        ranks=1,
        theta_effective=theta_eff,
        epsilon_effective=eps_eff,
        degraded_reason="deadline",
        extra={
            "n": n,
            "workers": workers,
            "supervised": True,
            "degraded": True,
            "theta_effective": theta_eff,
            "lost_samples": theta_target - theta_eff,
            "epsilon_effective": eps_eff,
            "estimation_rounds": est.rounds if est is not None else None,
            "engine": stats,
            "supervisor": stats,
        },
    )
