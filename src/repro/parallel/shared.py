"""``imm_mt``: the multithreaded IMM of Section 3.1.

By default the implementation executes the identical sequential kernels
(so the selected seeds are bit-identical to :func:`repro.imm.imm` —
per-sample counter-based RNG streams make the samples independent of the
thread count) and charges *modeled* phase time from the per-rank work
meters through a :class:`~repro.parallel.cost.CostModel`.  See the
package docstring and DESIGN.md for why this substitution is faithful.

``real_parallel=True`` replaces the sequential execution with the
shared-memory process-pool engine
(:class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`):
sampling and the selection counting pass actually run on ``workers``
cores, and the result carries the **measured** wall-clock breakdown next
to the cost model's prediction for the same run (both are reported; the
modeled figures remain what the paper's plots are reproduced from).  The
seeds, θ and all work meters are unchanged either way — that is the
engine's bit-identical contract, enforced by ``repro-imm validate``.

What the model reproduces from the paper:

* speedups grow with input size (Figures 5 and 6): big inputs are
  dominated by the embarrassingly parallel sampling, small inputs by
  the greedy selection's ``k`` max-reductions and fork/join overheads;
* LT runs are 5–6x cheaper than IC but scale worse (tiny RRR sets ⇒
  little parallel work per region).
"""

from __future__ import annotations

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..imm.result import IMMResult
from ..imm.select import select_seeds
from ..imm.theta import check_theta_cap, estimate_theta
from ..perf.counters import WorkCounters
from ..perf.timers import PhaseTimer, side_by_side
from ..sampling import (
    BatchedRRRSampler,
    ParallelSamplingEngine,
    SortedRRRCollection,
    sample_batch,
)
from .cost import CostModel
from .machine import PUMA, MachineSpec

__all__ = ["imm_mt"]


def imm_mt(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    num_threads: int = 2,
    machine: MachineSpec = PUMA,
    seed: int = 0,
    l: float = 1.0,
    *,
    theta_cap: int | None = None,
    real_parallel: bool = False,
    workers: int | None = None,
    start_method: str | None = None,
) -> IMMResult:
    """Run the multithreaded IMM and return modeled-time results.

    Parameters
    ----------
    graph, k, eps, model, seed, l, theta_cap:
        As in :func:`repro.imm.imm`.
    num_threads:
        OpenMP thread count being modeled (the paper sweeps 2–20 on one
        Puma node).  Must not exceed ``machine.threads_per_node``.
    machine:
        Hardware model supplying the cost constants.
    real_parallel:
        Execute sampling and the selection counting pass on a real
        process pool instead of sequential kernels.  The modeled
        breakdown (and every meter the model consumes) is unchanged —
        the engine is bit-identical — but ``extra["measured_breakdown"]``
        then reports genuinely parallel wall-clock, and
        ``extra["time_report"]`` renders the two side by side.
    workers:
        Pool size for ``real_parallel`` (defaults to ``num_threads``).
    start_method:
        Worker start method for ``real_parallel``
        (``fork``/``spawn``/``forkserver``; ``None`` = platform default).

    Returns
    -------
    :class:`IMMResult` with ``simulated=True``; ``breakdown`` holds
    modeled seconds, ``extra["measured_breakdown"]`` the real wall-clock
    of this reproduction run for reference.

    Raises
    ------
    ValueError
        If ``num_threads`` exceeds what one node of ``machine`` offers
        (the paper's shared-memory runs are single-node).
    """
    if num_threads < 1:
        raise ValueError("need at least one thread")
    if num_threads > machine.threads_per_node:
        raise ValueError(
            f"{machine.name} offers {machine.threads_per_node} threads per node,"
            f" requested {num_threads}"
        )
    check_theta_cap(theta_cap)
    model = DiffusionModel.parse(model)
    collection = SortedRRRCollection(graph.n)
    engine = None
    if real_parallel:
        engine = ParallelSamplingEngine(
            graph,
            model,
            workers=workers if workers is not None else num_threads,
            start_method=start_method,
        )
        sampler = engine
    elif workers is not None:
        raise ValueError("workers is only meaningful with real_parallel=True")
    else:
        sampler = BatchedRRRSampler(graph, model)
    counters = WorkCounters()
    cost = CostModel(machine=machine, threads=num_threads)

    wall = PhaseTimer()
    sim = PhaseTimer()

    try:
        trace: list = []
        with wall.phase("EstimateTheta"):
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
                trace=trace,
                num_ranks=num_threads,
            )
        for kind, event in trace:
            if kind == "sample":
                sim.charge("EstimateTheta", cost.sample_seconds(event))
            else:
                sim.charge("EstimateTheta", cost.select_seconds(event, graph.n, k))

        with wall.phase("Sample"):
            batch = sample_batch(
                graph, model, collection, est.theta, seed, sampler=sampler
            )
            counters.edges_examined += batch.edges_examined
            counters.samples_generated += batch.count
        sim.charge("Sample", cost.sample_seconds(batch))

        with wall.phase("SelectSeeds"):
            sel = select_seeds(
                collection, graph.n, k, num_ranks=num_threads, count_engine=engine
            )
            counters.entries_scanned += sel.entries_scanned
            counters.counter_updates += sel.counter_updates
        sim.charge("SelectSeeds", cost.select_seconds(sel, graph.n, k))
    finally:
        if engine is not None:
            engine.close()

    # "Other": the serial scaffolding around the parallel regions —
    # allocation of the counter arrays and per-run setup.
    sim.charge("Other", graph.n * machine.t_update + num_threads * machine.thread_overhead)

    return IMMResult(
        seeds=sel.seeds,
        k=k,
        epsilon=eps,
        model=model.value,
        layout="sorted",
        theta=est.theta,
        num_samples=len(collection),
        coverage=sel.coverage_fraction(len(collection)),
        lb=est.lb,
        breakdown=sim.breakdown(),
        counters=counters,
        memory_bytes=collection.nbytes_model(),
        simulated=True,
        ranks=num_threads,
        extra={
            "machine": machine.name,
            "measured_breakdown": wall.breakdown(),
            "estimation_rounds": est.rounds,
            "theta_capped": theta_cap is not None and est.theta >= theta_cap,
            "real_parallel": real_parallel,
            "engine_workers": (
                (workers if workers is not None else num_threads)
                if real_parallel
                else 0
            ),
            **({"engine": engine.stats.as_dict()} if engine is not None else {}),
            "time_report": side_by_side(
                wall.breakdown(),
                sim.breakdown(),
                measured_label="measured",
                modeled_label=f"modeled(p={num_threads})",
            ),
        },
    )
