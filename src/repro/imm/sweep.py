"""``imm_sweep``: amortize RRR sampling across a sweep of k values.

The paper's introduction motivates fast implementations precisely with
this workflow: *"users typically have to test multiple k values (the
seed set size) before identifying an optimal configuration that can
maximize their 'return on investment' on the seeds."*

Running :func:`repro.imm.imm` once per k regenerates the RRR collection
from scratch every time, even though the samples are k-independent
(only *how many* are needed — θ — depends on k).  The sweep driver
keeps one collection and grows it monotonically: for each k in
ascending order it runs the θ estimation against the shared collection,
tops it up, and re-runs seed selection.  Sampling work is paid once for
the largest θ instead of once per k.

Guarantee note: for every k the collection holds **at least** θ(k)
samples (possibly more, inherited from other sweep points).  The
(1 - 1/e - ε) analysis only improves with extra samples, so each sweep
point keeps its guarantee; the selected seeds can differ slightly from
an isolated run because the estimator averages over a larger
collection.
"""

from __future__ import annotations

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..perf.counters import WorkCounters
from ..perf.timers import PhaseTimer
from ..sampling import (
    BatchedRRRSampler,
    SortedRRRCollection,
    sample_batch,
)
from .result import IMMResult
from .select import select_seeds
from .theta import check_theta_cap, estimate_theta

__all__ = ["imm_sweep"]


def imm_sweep(
    graph: CSRGraph,
    ks: list[int],
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    theta_cap: int | None = None,
    workers: int = 1,
    start_method: str | None = None,
    supervise: bool = False,
    supervisor_opts: dict | None = None,
) -> list[IMMResult]:
    """Run IMM for every k in ``ks``, sharing one RRR collection.

    Parameters
    ----------
    graph, eps, model, seed, l, theta_cap:
        As in :func:`repro.imm.imm`.
    ks:
        Seed-set sizes to evaluate (any order; processed ascending, and
        results are returned in the caller's order).
    workers, start_method:
        ``workers > 1`` runs the whole sweep on one shared
        :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`
        process pool (same bit-identical-output contract as
        ``imm(..., workers=w)``); the pool and its shared-memory CSR are
        paid once for all sweep points.
    supervise, supervisor_opts:
        ``supervise=True`` runs the shared engine under the self-healing
        supervisor (crash replay, spares, optional deadline /
        checkpointing via ``supervisor_opts`` — see
        :func:`repro.imm.imm`).  Because the collection is shared, a
        checkpoint written during a sweep covers every sweep point's
        samples.  A supervised deadline expiry raises
        :class:`~repro.sampling.supervisor.DeadlineExceededError` (the
        sweep has no single-k result to degrade into).

    Returns
    -------
    One :class:`IMMResult` per requested k (matching ``ks``'s order).
    Each result's ``extra["samples_reused"]`` records how many samples
    were inherited from earlier sweep points — the work the sweep saved.

    Raises
    ------
    ValueError
        On an empty sweep, any invalid k or a ``theta_cap`` below 1.
    """
    if not ks:
        raise ValueError("need at least one k")
    for k in ks:
        if not 1 <= k <= graph.n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    if workers < 1:
        raise ValueError("need at least one worker")
    check_theta_cap(theta_cap)
    model = DiffusionModel.parse(model)
    collection = SortedRRRCollection(graph.n)
    engine = None
    if workers > 1 or supervise:
        from ..sampling.supervisor import build_sampling_engine

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

    try:
        results = _sweep_loop(
            graph, ks, eps, model, seed, l,
            theta_cap=theta_cap,
            collection=collection,
            sampler=sampler,
            engine=engine,
            workers=workers,
        )
    finally:
        if engine is not None:
            engine.close()
    return [results[k] for k in ks]


def _sweep_loop(
    graph: CSRGraph,
    ks: list[int],
    eps: float,
    model: DiffusionModel,
    seed: int,
    l: float,
    *,
    theta_cap: int | None,
    collection: SortedRRRCollection,
    sampler,
    engine,
    workers: int,
) -> dict[int, IMMResult]:
    results: dict[int, IMMResult] = {}
    for k in sorted(set(ks)):
        timer = PhaseTimer()
        counters = WorkCounters()
        reused = len(collection)
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
        results[k] = IMMResult(
            seeds=sel.seeds,
            k=k,
            epsilon=eps,
            model=model.value,
            layout="sorted",
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
                "samples_reused": reused,
                "theta_capped": theta_cap is not None and est.theta >= theta_cap,
                "workers": workers,
                # Cumulative across the sweep: the engine (and its output
                # arena + fused counters) is shared by every ε point.
                **(
                    {"engine": engine.stats.as_dict()}
                    if engine is not None
                    else {}
                ),
            },
        )
    return results
