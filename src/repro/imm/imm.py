"""Algorithm 1: the serial IMM driver, and the phase driver all its callers share.

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

One skeleton, one sampler choice: :func:`imm`,
:func:`~repro.imm.sweep.imm_sweep`, :func:`~repro.parallel.shared.imm_mt`
and :func:`~repro.serving.query.freeze_index` all run the three phases
through :class:`_Algorithm1`, whose sampler comes from
:func:`build_sampler`.  The driver calls ``estimate_theta``,
``sample_batch`` and ``select_seeds`` through this module's globals,
the names a tracer wraps to time each phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..perf.counters import WorkCounters
from ..perf.timers import PhaseTimer
from ..sampling import (
    BatchedRRRSampler,
    DeadlineExceededError,
    HypergraphRRRCollection,
    ParallelSamplingEngine,
    RRRCollection,
    SampleBatch,
    SortedRRRCollection,
    SupervisedSamplingEngine,
    sample_batch,
)
from .result import DegradedResult, IMMResult
from .select import SelectionResult, select_seeds
from .theta import ThetaEstimate, check_theta_cap, estimate_theta, shrink_epsilon

__all__ = ["imm", "build_sampler"]


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
        ``workers > 1`` executes sampling on a real
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
        straggler-speculation knobs (requires ``layout="sorted"``; without
        ``supervise=True`` it is an error at any worker count).  A
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
    with _Algorithm1(
        graph, model, seed, l, collection,
        theta_cap=theta_cap,
        workers=workers,
        start_method=start_method,
        supervise=supervise,
        supervisor_opts=supervisor_opts,
    ) as alg:
        try:
            alg.solve(k, eps)
        except DeadlineExceededError:
            alg.degrade(k)
        return alg.result(k, eps, layout=layout)


def build_sampler(
    graph: CSRGraph,
    model: DiffusionModel | str,
    *,
    workers: int = 1,
    start_method: str | None = None,
    supervise: bool = False,
    supervisor_opts: dict | None = None,
) -> BatchedRRRSampler | ParallelSamplingEngine:
    """The one place that picks Algorithm 1's sampler.

    ``supervise=True`` gives a self-healing
    :class:`~repro.sampling.supervisor.SupervisedSamplingEngine` at any
    worker count; ``supervisor_opts`` passes through any of its keywords
    (``spares``, ``deadline``, ``checkpoint_dir``, ``resume_from``,
    ``fault_plan``, crash-budget and straggler knobs, ...) and is an
    error without ``supervise=True``.  Otherwise ``workers > 1`` gives a
    :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`
    pool, and one worker the in-process
    :class:`~repro.sampling.batched.BatchedRRRSampler`.  All three land
    bit-identical collections; the caller closes an engine.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if supervise:
        return SupervisedSamplingEngine(
            graph,
            model,
            workers=workers,
            start_method=start_method,
            **(supervisor_opts or {}),
        )
    if supervisor_opts:
        raise ValueError("supervisor_opts requires supervise=True")
    if workers > 1:
        return ParallelSamplingEngine(
            graph, model, workers=workers, start_method=start_method
        )
    return BatchedRRRSampler(graph, model)


@dataclass
class _Run:
    """One pass of Algorithm 1: its clock, its work ledger, and each
    phase's output, recorded as the phase lands."""

    timer: PhaseTimer = field(default_factory=PhaseTimer)
    counters: WorkCounters = field(default_factory=WorkCounters)
    est: ThetaEstimate | None = None
    batch: SampleBatch | None = None
    sel: SelectionResult | None = None
    degraded: bool = False


class _Algorithm1:
    """The three-phase skeleton over one collection and one sampler.

    Every :meth:`solve` starts a fresh :class:`_Run` on :attr:`run` and
    fills it phase by phase, so a supervised deadline that fires in the
    Sample phase still leaves the certified estimate for
    :meth:`degrade`.  A sweep calls :meth:`solve` once per k over the
    shared collection.  Used as a context manager, it closes the engine
    :func:`build_sampler` chose.
    """

    def __init__(
        self,
        graph: CSRGraph,
        model: DiffusionModel | str,
        seed: int,
        l: float,
        collection: RRRCollection,
        *,
        theta_cap: int | None = None,
        num_ranks: int = 1,
        workers: int = 1,
        start_method: str | None = None,
        supervise: bool = False,
        supervisor_opts: dict | None = None,
    ) -> None:
        check_theta_cap(theta_cap)
        self.graph = graph
        self.model = DiffusionModel.parse(model)
        self.seed = seed
        self.l = l
        self.collection = collection
        self.theta_cap = theta_cap
        self.num_ranks = num_ranks
        self.workers = workers
        self.supervised = supervise
        self.sampler = build_sampler(
            graph,
            self.model,
            workers=workers,
            start_method=start_method,
            supervise=supervise,
            supervisor_opts=supervisor_opts,
        )
        self.engine = (
            self.sampler if isinstance(self.sampler, ParallelSamplingEngine) else None
        )
        self.run = _Run()

    def __enter__(self) -> "_Algorithm1":
        return self

    def __exit__(self, *exc) -> None:
        if self.engine is not None:
            self.engine.close()

    def solve(self, k: int, eps: float, *, trace: list | None = None) -> _Run:
        """EstimateTheta, Sample, SelectSeeds; ``trace`` receives the
        estimation's events (see :func:`~repro.imm.theta.estimate_theta`)."""
        run = self.run = _Run()
        with run.timer.phase("EstimateTheta"):
            run.est = estimate_theta(
                self.graph,
                k,
                eps,
                self.model,
                self.seed,
                self.l,
                collection=self.collection,
                sampler=self.sampler,
                counters=run.counters,
                theta_cap=self.theta_cap,
                trace=trace,
                num_ranks=self.num_ranks,
            )
        with run.timer.phase("Sample"):
            run.batch = sample_batch(
                self.graph,
                self.model,
                self.collection,
                run.est.theta,
                self.seed,
                sampler=self.sampler,
            )
            run.counters.edges_examined += run.batch.edges_examined
            run.counters.samples_generated += run.batch.count
        self._select(k)
        return run

    def degrade(self, k: int) -> None:
        """After a supervised deadline: select serially from the landed
        prefix (nothing, if none landed), so :meth:`result` reports an
        honest :class:`DegradedResult`."""
        self.run.degraded = True
        self._select(k)

    def _select(self, k: int) -> None:
        run = self.run
        with run.timer.phase("SelectSeeds"):
            if len(self.collection):
                run.sel = select_seeds(
                    self.collection, self.graph.n, k, num_ranks=self.num_ranks
                )
                run.counters.entries_scanned += run.sel.entries_scanned
                run.counters.counter_updates += run.sel.counter_updates

    def result(
        self,
        k: int,
        eps: float,
        *,
        layout: str = "sorted",
        **extra,
    ) -> IMMResult:
        """The last run as an :class:`IMMResult` (a :class:`DegradedResult`
        after :meth:`degrade`); ``extra`` adds variant keys to the shared
        diagnostics."""
        run, est, n = self.run, self.run.est, self.graph.n
        landed = len(self.collection)
        extra = {"n": n, "workers": self.workers, "supervised": self.supervised, **extra}
        if self.engine is not None:
            # Engine counters (arena writes, landing, IPC descriptor
            # bytes); cumulative over a sweep, whose points share the
            # engine.
            extra["engine"] = self.engine.stats.as_dict()
            if self.supervised:
                extra["supervisor"] = extra["engine"]
        fields = dict(
            k=k,
            epsilon=eps,
            model=self.model.value,
            layout=layout,
            num_samples=landed,
            breakdown=run.timer.breakdown(),
            counters=run.counters,
            memory_bytes=self.collection.nbytes_model(),
            simulated=False,
            ranks=1,
            extra=extra,
        )
        if not run.degraded:
            extra["estimation_rounds"] = est.rounds
            extra["coverage_history"] = est.coverage_history
            extra["theta_capped"] = (
                self.theta_cap is not None and est.theta >= self.theta_cap
            )
            return IMMResult(
                seeds=run.sel.seeds,
                theta=est.theta,
                coverage=run.sel.coverage_fraction(landed),
                lb=est.lb,
                **fields,
            )
        # The landed in-order prefix certifies ``epsilon_effective`` for
        # its ``theta_effective · LB`` budget; before estimation certified
        # a bound, LB is the trivial ``OPT >= 1`` and no target θ exists
        # beyond the landed count.
        lb = est.lb if est is not None else 1.0
        theta = est.theta if est is not None else landed
        eps_eff = shrink_epsilon(n, k, self.l, landed, lb)
        extra.update(
            degraded=True,
            theta_effective=landed,
            lost_samples=theta - landed,
            epsilon_effective=eps_eff,
            estimation_rounds=est.rounds if est is not None else None,
        )
        return DegradedResult(
            seeds=run.sel.seeds if run.sel is not None else np.empty(0, dtype=np.int64),
            theta=theta,
            coverage=run.sel.coverage_fraction(landed) if run.sel is not None else 0.0,
            lb=lb,
            theta_effective=landed,
            epsilon_effective=eps_eff,
            degraded_reason="deadline",
            **fields,
        )
