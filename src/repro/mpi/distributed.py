"""``imm_dist``: the hybrid MPI+OpenMP IMM of Section 3.2.

Every rank executes the full Algorithm 1 control flow on its own slice
of the sample space:

* **Sampling** — the θ samples are partitioned across ranks by the
  **deal-epoch ownership map** (:mod:`repro.mpi.checkpoint`): a
  fault-free job has one epoch — the strided partition where rank ``r``
  generates global sample indices ``r, r+p, ...`` — and a shrink
  recovery appends an epoch re-dealing the tail to survivors.  Each
  rank holds a full graph replica and draws its own random numbers —
  either from the per-sample counter streams (default; makes the seed
  set independent of ``p``) or from the paper's leap-frog LCG
  substreams (``rng_scheme="leapfrog"``).

* **Seed selection** — every rank runs ``select_seeds``'s kernel,
  :func:`~repro.imm.select.greedy_cover`, over its local partition
  ``R_r``; an adapter All-Reduces the counts it yields, then each
  iteration's decrement, so every rank picks the same argmax —
  ``O(k · n · lg p)`` communication, exactly the paper's scheme.  The
  θ estimation likewise drives ``imm()``'s
  :func:`~repro.imm.theta.doubling_search`.

* **Memory model** — a rank whose modeled resident set (graph replica +
  local RRR partition + counter arrays) exceeds the node's DRAM raises
  :class:`SimulatedOOMError`, reproducing the Linux-OOM-killed runs
  that appear as missing points in Figure 7.

* **Fault tolerance** — ``fault_plan`` injects crashes, stragglers,
  transient collective failures, reduce corruption, and OOM kills
  (:mod:`repro.mpi.faults`); ``policy`` selects abort (default) or one
  of the :mod:`repro.mpi.resilient` recovery policies.  The driver
  writes per-estimation-round checkpoints (cursor-only — RRR sets are
  re-derivable from the counter-addressable streams) which power both
  ``resume_from=`` restarts and the shrink policy's re-dealing; a
  shrunk run is flagged ``degraded=True`` in ``extra`` with the
  effective θ and the ε its surviving sample budget still certifies.

The collectives are executed for real (bit-exact sums) by the one
lockstep loop, :func:`repro.mpi.resilient.run_spmd_resilient`, under
the job's policy; the phase times are
modeled from per-rank work meters, intra-node OpenMP speedup, and the
α–β collective costs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..imm.result import IMMResult
from ..imm.select import FlatView, _metered, greedy_cover
from ..imm.theta import (
    check_instance,
    check_theta_cap,
    doubling_search,
    max_rounds,
    shrink_epsilon,
)
from ..perf.counters import WorkCounters
from ..perf.memory import MemoryModel
from ..perf.timers import PhaseTimer
from ..rng import Lcg64, spawn_streams
from ..sampling import BatchedRRRSampler, RRRSampler, SortedRRRCollection
from ..parallel.machine import PUMA, MachineSpec
from .checkpoint import (
    DistCheckpoint,
    initial_deals,
    live_count,
    owned_indices,
    shrink_deals,
)
from .comm import Allreduce, CommStats
from .costmodel import checkpoint_seconds, collective_seconds
from .faults import FaultInjector, FaultPlan, SimulatedOOMError, _fmt_bytes
from .resilient import POLICIES, run_spmd_resilient

__all__ = ["imm_dist", "SimulatedOOMError"]


@dataclass
class _RankRecord:
    """Work meters one rank reports back to the pricing driver."""

    seeds: np.ndarray | None = None
    covered: int = 0
    theta: int = 0
    lb: float = 1.0
    local_samples: int = 0
    collection_bytes: int = 0
    edges_total: int = 0
    #: edges spent re-deriving the partition on a resume/shrink restart
    rebuild_edges: int = 0
    #: final RNG cursor (first global sample index never considered)
    cursor: int = 0
    #: per estimation round: (local sampling edges, local selection entries)
    round_meters: list[tuple[int, int]] = field(default_factory=list)
    #: per estimation round: (theta_x, covered fraction) — the same
    #: diagnostic the serial driver exposes as ``coverage_history``, so
    #: Figure-2-style sweeps can run distributed.
    coverage_history: list[tuple[int, float]] = field(default_factory=list)
    final_sample_edges: int = 0
    final_select_entries: int = 0


@dataclass
class _JobState:
    """Driver-side state shared across rank incarnations of one job.

    This models the durable side of a real deployment (the checkpoint
    store): it is only ever read at generator (re)start and written at
    checkpoint boundaries, both of which happen at deterministic,
    replicated points of the lockstep schedule.
    """

    deals: tuple
    alive: tuple[int, ...]
    resume: DistCheckpoint | None = None
    sink: list | None = None
    #: most recent checkpoint — the shrink policy's restart point
    holder: DistCheckpoint | None = None
    #: dedup of checkpoint writes (recovery replays re-execute them)
    written: set = field(default_factory=set)
    #: samples owned by dead ranks that were already generated at their
    #: last checkpoint — unrecoverable under shrink
    lost: int = 0

    def write_checkpoint(self, rank: int, ck: DistCheckpoint) -> None:
        if rank != self.alive[0]:
            return
        key = ck.key()
        if key in self.written:
            return
        self.written.add(key)
        self.holder = ck
        if self.sink is not None:
            self.sink.append(ck.to_dict())


def _allreduced(steps: Generator, n: int) -> Generator:
    """Run a greedy step generator on one rank (use ``yield from``): each
    yielded vector goes out in an ``Allreduce`` and the global sum comes
    back; ``None`` goes out as zeros, so every rank issues the same call."""
    try:
        local = next(steps)
        while True:
            if local is None:
                local = np.zeros(n, dtype=np.int64)
            local = steps.send((yield Allreduce(local)))
    except StopIteration as done:
        return done.value


def _dist_select(collection: SortedRRRCollection, n: int, k: int) -> Generator:
    """Distributed greedy selection (generator; use ``yield from``), ``k + 1``
    vector All-Reduces and one scalar: ``(seeds, covered_total, local_entries)``."""
    view = FlatView(n, *collection.flattened())
    seeds, state = yield from _allreduced(greedy_cover(view, k), n)
    covered_total = yield Allreduce(state.covered)
    return seeds, int(covered_total), _metered(view, seeds, state, 1).entries_scanned


def _make_rank_program(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel,
    seed: int,
    l: float,
    rng_scheme: str,
    theta_cap: int | None,
    mem_limit: int | None,
    records: list[_RankRecord],
    state: _JobState,
    stats: CommStats,
):
    """Build the SPMD rank program closure for the SPMD runtimes."""
    n = graph.n

    def program(rank: int, size: int) -> Generator:
        # A (re)started incarnation reports fresh meters: respawn replays
        # and shrink restarts must not double-count the dead attempt.
        records[rank] = _RankRecord()
        rec = records[rank]
        collection = SortedRRRCollection(n)
        lcg: Lcg64 | None = None
        sampler: RRRSampler | None = None
        batched: BatchedRRRSampler | None = None
        if rng_scheme == "leapfrog":
            # The leap-frog LCG substream is inherently sequential: each
            # sample's randomness depends on how much the previous ones
            # consumed, so only the serial engine can replay it.
            lcg = spawn_streams(seed, size)[rank]
            sampler = RRRSampler(graph, model)
        else:
            # Per-sample counter streams are index-addressable, so the
            # rank's strided share can go through the cohort engine.
            batched = BatchedRRRSampler(graph, model)
        next_global = 0  # first global sample index not yet considered

        def extend_to(theta_target: int) -> int:
            """Generate this rank's share of samples in [next_global, θ)."""
            nonlocal next_global
            target = max(next_global, theta_target)
            edges = 0
            if lcg is not None:
                for j in range(next_global, target):
                    if j % size != rank:
                        continue
                    root = lcg.randint(0, n)
                    verts, e = sampler.generate(root, lcg)
                    collection.append(verts)
                    edges += e
            else:
                js = owned_indices(state.deals, rank, next_global, target)
                if len(js):
                    per = batched.sample_into(collection, js, seed)
                    edges = int(per.sum())
            next_global = target
            rec.cursor = next_global
            if mem_limit is not None:
                footprint = MemoryModel.for_rank(graph, collection).total
                if footprint > mem_limit:
                    raise SimulatedOOMError(rank, footprint, mem_limit)
            return edges

        def snapshot(stage: str, round_: int, lb: float, theta: int | None) -> DistCheckpoint:
            return DistCheckpoint(
                stage=stage,
                round=round_,
                next_global=next_global,
                lb=lb,
                theta=theta,
                rounds_done=len(rec.coverage_history),
                coverage_history=tuple(rec.coverage_history),
                deals=tuple(state.deals),
                alive=tuple(state.alive),
                lost_samples=state.lost,
                num_nodes=size,
                seed=seed,
                k=k,
                eps=eps,
                model=model.value,
                n=n,
                rng_scheme=rng_scheme,
            )

        # --- resume: re-derive the local partition from the cursor alone -
        ck = state.resume
        if ck is not None:
            rec.rebuild_edges = extend_to(ck.next_global)
            rec.edges_total += rec.rebuild_edges
            rec.coverage_history = [tuple(h) for h in ck.coverage_history]
        replay = [frac for _, frac in rec.coverage_history]

        def estimate_round(theta_x: int) -> Generator:
            """The covered fraction of the first ``theta_x`` samples."""
            if replay:  # a round the checkpoint already recorded
                return replay.pop(0)
            stats.set_phase("EstimateTheta")
            # lb stays 1.0 until a round accepts, which ends the search.
            round_ = len(rec.coverage_history) + 1
            state.write_checkpoint(rank, snapshot("estimate", round_, 1.0, None))
            round_edges = extend_to(theta_x)
            _, covered_total, entries = yield from _dist_select(collection, n, k)
            rec.round_meters.append((round_edges, entries))
            rec.edges_total += round_edges
            # Fractions are over the *live* sample count: after a shrink,
            # dead ranks' lost samples are not in anyone's partition, so
            # θ_x overstates the population.  Fault-free, live_x ==
            # theta_x and histories match the serial driver.
            live_x = live_count(state.deals, state.alive, theta_x)
            frac = covered_total / max(live_x, 1)
            rec.coverage_history.append((theta_x, frac))
            return frac

        # --- EstimateTheta (Algorithm 2, replicated control flow) --------
        search = doubling_search(n, k, eps, l, theta_cap=theta_cap)
        try:
            theta_x = next(search)
            while True:
                theta_x = search.send((yield from estimate_round(theta_x)))
        except StopIteration as done:
            theta, lb, _ = done.value
        rec.theta, rec.lb = theta, lb
        state.write_checkpoint(rank, snapshot("final", max_rounds(n) + 1, lb, theta))

        # --- Sample (top-up to θ) -----------------------------------------
        stats.set_phase("Sample")
        rec.final_sample_edges = extend_to(theta)
        rec.edges_total += rec.final_sample_edges

        # --- SelectSeeds ----------------------------------------------------
        stats.set_phase("SelectSeeds")
        seeds, covered_total, entries = yield from _dist_select(collection, n, k)
        rec.final_select_entries = entries
        rec.seeds = seeds
        rec.covered = covered_total
        rec.local_samples = len(collection)
        rec.collection_bytes = collection.nbytes_model()
        return rank

    return program


def imm_dist(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    num_nodes: int = 2,
    machine: MachineSpec = PUMA,
    threads_per_node: int | None = None,
    seed: int = 0,
    l: float = 1.0,
    *,
    rng_scheme: str = "per-sample",
    theta_cap: int | None = None,
    mem_per_node: int | None = None,
    fault_plan: FaultPlan | str | None = None,
    policy: str = "abort",
    max_retries: int = 3,
    resume_from: DistCheckpoint | dict | None = None,
    checkpoint_sink: list | None = None,
) -> IMMResult:
    """Run the distributed IMM and return modeled-time results.

    Parameters
    ----------
    graph, k, eps, model, seed, l, theta_cap:
        As in :func:`repro.imm.imm`.
    num_nodes:
        Cluster nodes = MPI ranks (one rank per node, OpenMP inside, the
        paper's hybrid configuration).
    machine:
        Hardware model; :data:`~repro.parallel.machine.PUMA` or
        :data:`~repro.parallel.machine.EDISON`.
    threads_per_node:
        OpenMP threads per rank (default: all the node offers — with
        SMT on Edison, matching the paper's hyper-threaded runs).
    rng_scheme:
        ``"per-sample"`` (default, rank-count-invariant output) or
        ``"leapfrog"`` (the paper's TRNG-style LCG splitting).
    mem_per_node:
        Override of the node DRAM for the simulated OOM killer (the
        experiment harness uses it to scale limits to stand-in graphs).
    fault_plan:
        A :class:`~repro.mpi.faults.FaultPlan` (or its CLI spec string)
        injected into the SPMD run.
    policy:
        One of :data:`~repro.mpi.resilient.POLICIES`: ``"abort"``
        (default: typed errors propagate) or a recovery policy.
    max_retries:
        Transient-failure retry budget per collective (recovery
        policies only).
    resume_from:
        A :class:`~repro.mpi.checkpoint.DistCheckpoint` (or its
        ``to_dict`` form) to restart from instead of a cold start.
    checkpoint_sink:
        A list that receives every checkpoint written (``to_dict``
        form, in write order) — the in-process stand-in for a
        checkpoint store.

    Raises
    ------
    ValueError
        Before any rank starts: on a degenerate instance (``n < 2``,
        ``k`` outside ``[1, n]``), ``eps`` outside ``(0, 1 - 1/e)`` or
        a ``theta_cap`` below 1.
    SimulatedOOMError
        If any rank's modeled footprint exceeds the node memory (and no
        policy absorbs it).
    RankFailedError, TransientCommError
        Injected faults that the selected policy does not recover.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if rng_scheme not in ("per-sample", "leapfrog"):
        raise ValueError(f"unknown rng_scheme {rng_scheme!r}")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "shrink" and rng_scheme == "leapfrog":
        raise ValueError(
            "shrink recovery requires the per-sample rng_scheme: leap-frog "
            "substreams are bound to ranks and cannot be re-dealt"
        )
    check_instance(graph.n, k, eps)
    check_theta_cap(theta_cap)
    model = DiffusionModel.parse(model)
    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.parse(fault_plan)
    if threads_per_node is None:
        threads_per_node = machine.threads_per_node
    if not 1 <= threads_per_node <= machine.threads_per_node:
        raise ValueError(
            f"threads_per_node must be in [1, {machine.threads_per_node}]"
        )
    mem_limit = machine.mem_per_node if mem_per_node is None else mem_per_node

    if isinstance(resume_from, dict):
        resume_from = DistCheckpoint.from_dict(resume_from)
    if resume_from is not None:
        _check_resume_compat(resume_from, graph, k, eps, model, seed, rng_scheme, num_nodes)
        state = _JobState(
            deals=tuple(resume_from.deals),
            alive=tuple(resume_from.alive),
            resume=resume_from,
            sink=checkpoint_sink,
            holder=resume_from,
            lost=resume_from.lost_samples,
        )
        state.written.add(resume_from.key())
    else:
        state = _JobState(
            deals=initial_deals(num_nodes),
            alive=tuple(range(num_nodes)),
            sink=checkpoint_sink,
        )

    sink_start = len(checkpoint_sink) if checkpoint_sink is not None else 0
    records = [_RankRecord() for _ in range(num_nodes)]
    comm_stats = CommStats()
    injector = fault_plan.injector() if fault_plan is not None else None
    program = _make_rank_program(
        graph, k, eps, model, seed, l, rng_scheme, theta_cap, mem_limit,
        records, state, comm_stats,
    )

    def on_shrink(dead: tuple[int, ...], alive_now: tuple[int, ...]) -> None:
        ck = state.holder
        cursor = ck.next_global if ck is not None else 0
        for d in dead:
            if d not in state.alive:
                continue  # already accounted in a previous shrink
            state.lost += len(owned_indices(state.deals, d, 0, cursor))
            records[d] = _RankRecord()
        state.alive = tuple(alive_now)
        state.deals = shrink_deals(state.deals, cursor, alive_now)
        state.resume = ck

    wall = PhaseTimer()
    with wall.phase("Other"):
        _, _, rlog = run_spmd_resilient(
            num_nodes,
            program,
            policy=policy,
            faults=injector,
            max_retries=max_retries,
            stats=comm_stats,
            on_shrink=on_shrink,
        )

    # ---- price the phases ----------------------------------------------
    n = graph.n
    eff = machine.effective_threads(threads_per_node)
    slow = [
        injector.slowdown(r) if injector is not None else 1.0
        for r in range(num_nodes)
    ]
    t_sel_comm = (k + 1) * collective_seconds(
        machine, num_nodes, 8 * n
    ) + collective_seconds(machine, num_nodes, 8)

    def sample_seconds(edges_per_rank: list[int]) -> float:
        makespan = max(
            e * s for e, s in zip(edges_per_rank, slow)
        ) * machine.t_edge / eff
        return makespan + threads_per_node * machine.thread_overhead

    def select_seconds(entries_per_rank: list[int]) -> float:
        local = max(
            e * s for e, s in zip(entries_per_rank, slow)
        ) * machine.t_update / eff
        argmax = k * (n / eff) * machine.t_update * max(slow)
        return local + argmax + t_sel_comm

    sim = PhaseTimer()
    rounds = max(len(rec.coverage_history) for rec in records)
    for i in range(rounds):
        round_edges = [
            rec.round_meters[i][0] if i < len(rec.round_meters) else 0
            for rec in records
        ]
        round_entries = [
            rec.round_meters[i][1] if i < len(rec.round_meters) else 0
            for rec in records
        ]
        sim.charge("EstimateTheta", sample_seconds(round_edges))
        sim.charge("EstimateTheta", select_seconds(round_entries))
    sim.charge("Sample", sample_seconds([rec.final_sample_edges for rec in records]))
    sim.charge(
        "SelectSeeds", select_seconds([rec.final_select_entries for rec in records])
    )
    sim.charge("Other", graph.n * machine.t_update + 2 * machine.alpha)

    # Recovery surcharge: modeled backoff waits, the α cost of replayed
    # collectives, and the re-derivation sampling work (rebuilds after a
    # shrink restart; a respawned rank's full regenerated partition).
    recovery_seconds = 0.0
    if rlog.retries or rlog.respawns or rlog.shrinks:
        rebuild_edges = sum(rec.rebuild_edges for rec in records)
        respawn_edges = sum(
            records[r].edges_total for r in set(rlog.respawned_ranks)
        )
        recovery_seconds = (
            rlog.backoff_seconds
            + rlog.replayed_calls * machine.alpha
            + (rebuild_edges + respawn_edges) * machine.t_edge / eff
        )
        sim.charge("Other", recovery_seconds)

    # Checkpoint-to-disk surcharge (ROADMAP: price the durable write,
    # not just the in-process sink append).  Each checkpoint this run
    # produced is modeled as one fsync'd write of its serialized size.
    checkpoint_write_seconds = 0.0
    if checkpoint_sink is not None:
        for ck_dict in checkpoint_sink[sink_start:]:
            nbytes = len(json.dumps(ck_dict, default=str).encode())
            checkpoint_write_seconds += checkpoint_seconds(machine, nbytes)
        if checkpoint_write_seconds:
            sim.charge("Other", checkpoint_write_seconds)

    first_alive = state.alive[0]
    rec0 = records[first_alive]
    theta_eff = live_count(state.deals, state.alive, rec0.theta)
    degraded = theta_eff < rec0.theta
    eps_eff = shrink_epsilon(n, k, l, theta_eff, rec0.lb) if degraded else eps

    entries = sum(
        rec.final_select_entries + sum(m[1] for m in rec.round_meters) for rec in records
    )
    counters = WorkCounters(
        edges_examined=sum(rec.edges_total for rec in records),
        samples_generated=sum(rec.local_samples for rec in records),
        entries_scanned=entries,
        counter_updates=entries,
        allreduce_calls=comm_stats.calls,
        allreduce_elements=comm_stats.payload_bytes // 8,
    )
    assert rec0.seeds is not None
    return IMMResult(
        seeds=rec0.seeds,
        k=k,
        epsilon=eps,
        model=model.value,
        layout="sorted",
        theta=rec0.theta,
        num_samples=sum(rec.local_samples for rec in records),
        coverage=rec0.covered / max(theta_eff, 1),
        lb=rec0.lb,
        breakdown=sim.breakdown(),
        counters=counters,
        memory_bytes=max(rec.collection_bytes for rec in records),
        simulated=True,
        ranks=num_nodes * threads_per_node,
        extra={
            "machine": machine.name,
            "num_nodes": num_nodes,
            "threads_per_node": threads_per_node,
            "rng_scheme": rng_scheme,
            "comm_calls": comm_stats.calls,
            "comm_bytes": comm_stats.payload_bytes,
            "comm_by_label": comm_stats.label_totals(),
            "measured_breakdown": wall.breakdown(),
            "per_rank_samples": [rec.local_samples for rec in records],
            "estimation_rounds": len(rec0.coverage_history),
            "coverage_history": rec0.coverage_history,
            "theta_capped": theta_cap is not None and rec0.theta >= theta_cap,
            "policy": policy,
            "degraded": degraded,
            "theta_effective": theta_eff,
            "lost_samples": rec0.theta - theta_eff,
            "epsilon_effective": eps_eff,
            "alive_ranks": list(state.alive),
            "rng_cursor": rec0.cursor,
            "recovery": None if policy == "abort" else rlog.as_dict(),
            "recovery_seconds": recovery_seconds,
            "checkpoint_write_seconds": checkpoint_write_seconds,
            "fault_plan": fault_plan.describe() if fault_plan is not None else None,
        },
    )


def _check_resume_compat(
    ck: DistCheckpoint,
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel,
    seed: int,
    rng_scheme: str,
    num_nodes: int,
) -> None:
    """A checkpoint is only valid against the job that wrote it."""
    expected = {
        "n": (ck.n, graph.n),
        "k": (ck.k, k),
        "eps": (ck.eps, eps),
        "model": (ck.model, model.value),
        "seed": (ck.seed, seed),
        "rng_scheme": (ck.rng_scheme, rng_scheme),
        "num_nodes": (ck.num_nodes, num_nodes),
    }
    mismatched = {
        name: pair for name, pair in expected.items() if pair[0] != pair[1]
    }
    if mismatched:
        detail = ", ".join(
            f"{name}: checkpoint={a!r} vs job={b!r}"
            for name, (a, b) in sorted(mismatched.items())
        )
        raise ValueError(f"checkpoint incompatible with this job ({detail})")
