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
from ..sampling import SortedRRRCollection
from .imm import _Algorithm1
from .result import IMMResult

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
        On an empty sweep, any invalid k, a ``theta_cap`` below 1, or
        ``supervisor_opts`` without ``supervise=True``.
    """
    if not ks:
        raise ValueError("need at least one k")
    for k in ks:
        if not 1 <= k <= graph.n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    results: dict[int, IMMResult] = {}
    with _Algorithm1(
        graph, model, seed, l, SortedRRRCollection(graph.n),
        theta_cap=theta_cap,
        workers=workers,
        start_method=start_method,
        supervise=supervise,
        supervisor_opts=supervisor_opts,
    ) as alg:
        for k in sorted(set(ks)):
            reused = len(alg.collection)
            alg.solve(k, eps)
            results[k] = alg.result(k, eps, samples_reused=reused)
    return [results[k] for k in ks]
