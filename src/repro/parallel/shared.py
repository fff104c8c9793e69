"""``imm_mt``: the multithreaded IMM of Section 3.1.

By default the implementation executes the identical sequential kernels
(so the selected seeds are bit-identical to :func:`repro.imm.imm` —
per-sample counter-based RNG streams make the samples independent of the
thread count) and charges *modeled* phase time from the per-rank work
meters through a :class:`~repro.parallel.cost.CostModel`.  See the
package docstring and DESIGN.md for why this substitution is faithful.

``workers > 1`` runs sampling on the shared-memory process-pool engine
(:class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`), as
``imm(..., workers=w)`` does: the result's measured wall-clock
breakdown is then genuinely parallel, reported next to the cost model's
prediction for the same run (the modeled figures remain what the
paper's plots are reproduced from).  The seeds, θ and all work meters
are unchanged either way — that is the engine's bit-identical contract,
enforced by ``repro-imm validate``.

What the model reproduces from the paper:

* speedups grow with input size (Figures 5 and 6): big inputs are
  dominated by the embarrassingly parallel sampling, small inputs by
  the greedy selection's ``k`` max-reductions and fork/join overheads;
* LT runs are 5–6x cheaper than IC but scale worse (tiny RRR sets ⇒
  little parallel work per region).
"""

from __future__ import annotations

from dataclasses import replace

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..imm.imm import _Algorithm1
from ..imm.result import IMMResult
from ..perf.timers import PhaseTimer, side_by_side
from ..sampling import SortedRRRCollection
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
    workers: int = 1,
    start_method: str | None = None,
) -> IMMResult:
    """Run the multithreaded IMM and return modeled-time results.

    Parameters
    ----------
    graph, k, eps, model, seed, l, theta_cap, workers, start_method:
        As in :func:`repro.imm.imm`.  The modeled breakdown (and every
        meter the model consumes) does not depend on ``workers``; only
        ``extra["measured_breakdown"]`` does.
    num_threads:
        OpenMP thread count being modeled (the paper sweeps 2–20 on one
        Puma node).  Must not exceed ``machine.threads_per_node``.
    machine:
        Hardware model supplying the cost constants.

    Returns
    -------
    :class:`IMMResult` with ``simulated=True``; ``breakdown`` holds
    modeled seconds, ``extra["measured_breakdown"]`` the real wall-clock
    of this reproduction run for reference, and ``extra["time_report"]``
    renders the two side by side.

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
    cost = CostModel(machine=machine, threads=num_threads)
    sim = PhaseTimer()
    trace: list = []
    with _Algorithm1(
        graph, model, seed, l, SortedRRRCollection(graph.n),
        theta_cap=theta_cap,
        num_ranks=num_threads,
        workers=workers,
        start_method=start_method,
    ) as alg:
        run = alg.solve(k, eps, trace=trace)
        for kind, event in trace:
            if kind == "sample":
                sim.charge("EstimateTheta", cost.sample_seconds(event))
            else:
                sim.charge("EstimateTheta", cost.select_seconds(event, graph.n, k))
        sim.charge("Sample", cost.sample_seconds(run.batch))
        sim.charge("SelectSeeds", cost.select_seconds(run.sel, graph.n, k))
        # "Other": the serial scaffolding around the parallel regions —
        # allocation of the counter arrays and per-run setup.
        sim.charge(
            "Other", graph.n * machine.t_update + num_threads * machine.thread_overhead
        )
        wall = run.timer.breakdown()
        result = alg.result(
            k,
            eps,
            machine=machine.name,
            measured_breakdown=wall,
            time_report=side_by_side(
                wall,
                sim.breakdown(),
                measured_label="measured",
                modeled_label=f"modeled(p={num_threads})",
            ),
        )
    return replace(result, breakdown=sim.breakdown(), simulated=True, ranks=num_threads)
