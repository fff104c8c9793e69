"""Sampling-performance regression harness.

Runs a fixed micro-suite and writes commit-stamped numbers to
``BENCH_sampling.json`` at the repository root:

* **Sampling throughput** — serial vs batched engine generating the full
  θ(ε=0.5, k=50) sample set on the largest registry stand-in
  (com-Orkut, IC): edges/s for both engines and the speedup ratio.  A
  second row, ``sampling_unfiltered``, does the same on com-YouTube IC,
  whose largest edge probability sends the batched IC kernel down its
  other coin path (see ``SAMPLING_UNFILTERED_DATASET``).
* **Worker scaling** — the process-pool engine at 1/2/4 workers on the
  two largest registry graphs (com-Orkut, soc-LiveJournal1): sampling
  seconds per worker count, the 4-worker speedup, and a per-phase
  breakdown of the fastest pooled rep (worker sampling seconds, arena
  write seconds, parent landing seconds, and IPC descriptor bytes per
  block).  The ``≥1.6×`` speedup gate and
  the descriptor-size budget (each landed block's IPC payload must
  stay under ``DESCRIPTOR_BYTE_BUDGET`` bytes — the zero-copy arena's
  whole point) are enforced only on hosts with at least 4 usable CPUs
  (``os.sched_getaffinity``); the numbers and the host CPU count are
  printed unconditionally, but a host below that floor refuses to
  *stamp* its worker-scaling record over a gate-ready baseline one
  (``gate_ready`` in the record) — a cramped runner must never bury
  the numbers a capable runner measured.
* **Memory** — the flat layout on the two largest registry graphs:
  modeled resident RRR bytes and bytes per sample, the bytes of every
  buffer the collection holds (at full allocation, growth slack
  included) next to that model, and the peak RSS (each measured in a
  fresh subprocess so it is honest, not inherited from earlier
  benches, and sampled after one ``select_seeds``, where a solve
  peaks), plus selection wall time on the identical sample set.  One
  gate: the held buffers must stay within
  ``COLLECTION_BYTES_RATIO_GATE`` (2.0×, the doubling bound) of the
  model.
* **Served-index footprint** — the bytes a serving engine holds
  privately (every non-mapped array the engine and its index hold:
  the hit index and group offsets and the per-sample ``indptr``) over
  the index's data-file bytes, on a cit-HepTh (k=50, eps=0.3) index,
  gated at ``FOOTPRINT_RATIO_GATE`` (1.0×).
* **End-to-end ``imm()``** — total seconds, θ, and the selected seed set
  on two registry graphs (cit-HepTh IC, com-YouTube LT).
* **Start-up** — what a process pays before its first query: seconds
  (min of ``STARTUP_REPS`` fresh interpreters) and peak RSS (VmHWM) of
  ``import repro.serving`` and ``import repro.cli``.  The seconds and
  bytes are record-only; the gate is deterministic: neither import may
  load ``scipy`` or ``repro.bio`` (the case study's dependencies).
* **Serving** — freeze-once/query-forever amortization: the one-time
  ``freeze_index`` cost, the zero-copy ``FrozenRRRIndex.open`` time, and
  warm ``top_k`` / ``what_if`` / ``marginal_gain`` latencies against a
  fresh ``imm()`` on the same workload.  ``query_s`` times a ``top_k``
  the engine computes (a fresh ``(k, eps)`` per rep, see
  :func:`computed_pairs`); ``query_repeat_s`` records a repeated one,
  answered from the engine's greedy memo.  Two deterministic gates ride
  along: the served seed set must equal the fresh run's, and the warm
  query must be answered entirely from the index (zero samples added,
  zero edges examined) — a serving path that quietly resamples fails
  here before it fails any timing.  The write path is recorded, not
  gated, on scratch copies of the index: ``extend_s`` appends one
  doubling round (as many samples as the index holds, drawn
  beforehand) and re-seals it; ``tighten_s`` is a whole
  ``tighten(SERVING_TIGHT_EPS)``.
* **Front end** — the async serving front end's traffic numbers on the
  same workload: the zero-fault latency tax over a direct warm engine
  query, both computed (gated at ≤ 5 %), the p50/p99 served latency
  over a concurrent distinct-query batch, and the shed rate under an
  overload burst — shedding must happen, stay typed, keep the queue
  inside its bound, and leave every served answer bit-identical.
* **Cluster** — the replicated router on the same workload: the
  zero-fault routing tax over a single front end, both computed (gated
  at ≤ 5 %), failover recovery and hedge wins (recorded), and
  ``routed_repeat_s``, the p50 of a remembered ``top_k`` through the
  router with reads spaced ``ROUTED_REPEAT_GAP_S`` apart (recorded).
* **Supervision tax** — the supervised engine with zero faults vs the
  plain pool engine on the same workload; the run fails if supervision
  costs more than ``SUPERVISED_OVERHEAD_TOLERANCE`` (5 %) extra
  wall-clock, so the self-healing bookkeeping can never quietly become
  a per-sample cost.  The gate is two-sided-aware: a *negative*
  overhead beyond the band passes (faster is never a regression) but
  is logged as measurement noise rather than silently accepted as a
  real speedup.

Baseline provenance: every record is stamped with the actual ``HEAD``
at generation time, and the harness refuses to gate against a baseline
whose commit is not an ancestor of the current ``HEAD`` — a record
from a divergent branch (or a hand-edited stamp) would make every
comparison meaningless, so that is a loud failure prompting
``--update-baseline``, not a quiet pass.

Against the checked-in ``BENCH_sampling.json`` the harness fails loudly
(exit 1) when

* any throughput or end-to-end time regresses by more than
  ``TOLERANCE`` (20 %), or
* any ``imm()`` seed set differs from the baseline (a correctness
  regression, not a performance one), or
* the quick equivalence oracle (``repro.validate.validate_quick``)
  reports any violation — cross-implementation divergence fails the
  same gate as a throughput loss, so a perf patch cannot trade
  correctness for speed unnoticed.

Timings are interleaved best-of-``REPS`` within one process — the
hosts this runs on show large run-to-run variance, and min-of-N of
interleaved repetitions is the stable estimator of the achievable time.

Usage::

    python benchmarks/regress.py                   # measure + compare
    python benchmarks/regress.py --update-baseline # accept new numbers
    python benchmarks/regress.py --full-shard 2/3  # one slice of the FULL oracle
    python benchmarks/regress.py --full-shards 3   # the whole 1/3..3/3 matrix
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.datasets import load  # noqa: E402
from repro.imm.imm import imm  # noqa: E402
from repro.sampling import (  # noqa: E402
    BatchedRRRSampler,
    ParallelSamplingEngine,
    RRRSampler,
    SortedRRRCollection,
    sample_batch,
)
from repro.sampling.parallel_engine import DESCRIPTOR_BYTE_BUDGET  # noqa: E402
from repro.sampling.supervisor import SupervisedSamplingEngine  # noqa: E402

BASELINE_PATH = ROOT / "BENCH_sampling.json"
#: Allowed slowdown vs baseline before the harness fails.
TOLERANCE = 0.20
#: Interleaved repetitions per timed quantity (min is reported).
REPS = 5

#: The sampling-throughput workload: the largest registry stand-in with
#: the θ that ε=0.5, k=50 demands of it (measured via estimate_theta).
SAMPLING_DATASET = "com-Orkut"
SAMPLING_MODEL = "IC"
SAMPLING_EPS = 0.5
SAMPLING_K = 50
SAMPLING_THETA = 9980
SAMPLING_SEED = 1
#: The same measurement on the other side of the batched IC kernel's
#: coin-path choice (``repro.sampling.batched._FILTER_LIMIT``):
#: com-Orkut's largest p, 0.055, keeps the candidate filter on, and
#: com-YouTube's, 0.55, turns it off.  θ is what ``imm()`` reaches on
#: it at ε=0.5, k=50 (seed 12345).
SAMPLING_UNFILTERED_DATASET = "com-YouTube"
SAMPLING_UNFILTERED_THETA = 11852

#: End-to-end workloads: (dataset, model, k, eps, seed).
IMM_WORKLOADS = (
    ("cit-HepTh", "IC", 10, 0.5, 1),
    ("com-YouTube", "LT", 10, 0.5, 1),
)

#: The serving workload: (dataset, model, k, eps, seed) — matches the
#: first end-to-end workload so the amortization ratio is meaningful.
SERVING_WORKLOAD = ("cit-HepTh", "IC", 10, 0.5, 1)
#: The tighter eps the write-path record tightens the frozen index to.
SERVING_TIGHT_EPS = 0.3
#: Step between the eps of :func:`computed_pairs`; 30 steps up from the
#: serving workload's eps all replay inside its frozen prefix.
COMPUTED_EPS_STEP = 0.004

#: Entry points whose fresh-interpreter import the start-up section
#: times, and the modules neither may load.
STARTUP_IMPORTS = ("repro.serving", "repro.cli")
STARTUP_FORBIDDEN = ("scipy", "repro.bio")
STARTUP_REPS = 5

#: Worker-scaling workloads: the two largest registry graphs.
WORKER_SCALING_DATASETS = (
    ("com-Orkut", "IC", 9980),
    ("soc-LiveJournal1", "IC", 8000),
)
WORKER_COUNTS = (1, 2, 4)
#: Repetitions per (dataset, worker count) — pool spin-up is excluded
#: from the timing, so fewer reps suffice than for the microseconds-scale
#: engine comparisons above.
WORKER_REPS = 3
#: Required 4-worker sampling speedup on the largest graph — enforced
#: only on hosts that actually have ≥ ``MIN_CPUS_FOR_GATE`` usable CPUs.
MIN_WORKER_SPEEDUP = 1.6
MIN_CPUS_FOR_GATE = 4
#: Allowed zero-fault wall-clock tax of the supervised engine over the
#: plain pool engine on the same workload.
SUPERVISED_OVERHEAD_TOLERANCE = 0.05
SUPERVISED_REPS = 5
SUPERVISED_WORKERS = 2
#: Allowed zero-fault latency tax of the async front end over a direct
#: warm engine query on the same workload.
FRONTEND_OVERHEAD_TOLERANCE = 0.05
#: Reps behind the tax measurement.  A computed query takes 3–6 ms, so
#: the 5% band is 0.15–0.3 ms — below per-rep scheduler jitter — and
#: the tax is estimated as the *median of paired differences* over
#: interleaved (direct, front-end) reps: pairing cancels host-speed
#: drift and the median rejects the ±several-ms outliers that made a
#: min-vs-min ratio flap across the gate line.
FRONTEND_REPS = 15
#: The overload burst thrown at the front end: ``FRONTEND_BURST``
#: concurrent queries against a queue bounded at
#: ``FRONTEND_BURST_PENDING`` with one worker — most must shed, typed.
FRONTEND_BURST = 12
FRONTEND_BURST_PENDING = 3
#: Size of the concurrent distinct-query batch behind the p50/p99.
FRONTEND_BATCH = 16
#: Allowed zero-fault latency tax of routing a query through the
#: replicated cluster over the identical query on a single front end.
CLUSTER_OVERHEAD_TOLERANCE = 0.05
#: Interleaved (single, routed) pairs behind the tax median — same
#: paired-difference estimator as the front-end tax, same reasons.
CLUSTER_REPS = 15
CLUSTER_REPLICAS = 2
#: Sequential queries against a straggling primary for the hedge
#: win-rate record.
CLUSTER_HEDGE_QUERIES = 6
#: Remembered ``top_k`` reads behind the routed-repeat record, and the
#: range of the uniform gap before each: spaced as an open-loop client
#: spaces them, a read pays the wake-ups a back-to-back loop hides
#: (about a third of the latency on a 2-CPU host).
ROUTED_REPEAT_READS = 25
ROUTED_REPEAT_GAP_S = (0.05, 0.25)

#: Selection timings per memory workload (the best one is recorded).
SELECTION_REPS = 5
#: The flat collection's held buffers over its 4-bytes-per-incidence
#: ``nbytes_model()``.  Amortized doubling leaves each growable buffer
#: under twice its contents, so an int32 layout stays under 2x; an
#: int64 per-entry array beside it (the owner array this layout
#: dropped) puts the probe workloads, at 166-236 entries per sample,
#: near 3x before any slack of its own.
COLLECTION_BYTES_RATIO_GATE = 2.0
#: A flat-index serving engine's private bytes over the index's data
#: files: its int32 hit index mirrors the int32 rows file, plus
#: per-sample and per-vertex offsets (exact-size arrays, no slack).
FOOTPRINT_RATIO_GATE = 1.0
#: The served-index footprint workload: (dataset, model, k, eps, seed).
FOOTPRINT_WORKLOAD = ("cit-HepTh", "IC", 50, 0.3, 1)

#: Runs in a fresh interpreter per workload so the reported peak RSS
#: belongs to that workload alone — an in-process high-water mark after
#: the throughput benches would be whichever bench peaked first.
_MEMORY_PROBE = """\
import json, resource, sys
import numpy as np
sys.path.insert(0, sys.argv[4])
from repro.datasets import load
from repro.imm.select import select_seeds
from repro.sampling import SortedRRRCollection, sample_batch
name, model, theta = sys.argv[1], sys.argv[2], int(sys.argv[3])
graph = load(name, model)
coll = SortedRRRCollection(graph.n)
sample_batch(graph, model, coll, theta, %d)
# Every buffer the collection holds, at its full allocation.
live = sum(a.nbytes for a in vars(coll).values() if isinstance(a, np.ndarray))
select_seeds(coll, graph.n, %d)  # a solve's peak is its selection
print(json.dumps({
    "resident_bytes": coll.nbytes_model(),
    "live_bytes": int(live),
    "entries": coll.total_entries,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
""" % (SAMPLING_SEED, SAMPLING_K)


#: One fresh interpreter importing ``argv[1]``: import seconds, peak RSS
#: (``ru_maxrss`` is the kernel's VmHWM on Linux) and the forbidden
#: modules it loaded.
_STARTUP_PROBE = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[2])
t0 = time.perf_counter()
__import__(sys.argv[1])
seconds = time.perf_counter() - t0
forbidden = tuple(sys.argv[3:])
print(json.dumps({
    "seconds": seconds,
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "loaded": sorted(
        m for m in sys.modules
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    ),
}))
"""


def _host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def baseline_provenance_error(baseline: dict) -> str | None:
    """Reason the checked-in baseline must not gate, or ``None``.

    A baseline is gatable only when its commit stamp names an ancestor
    of the current ``HEAD`` — numbers measured on a divergent branch
    (or a stamp that no longer resolves) compare apples to oranges.
    """
    commit = baseline.get("commit")
    if not commit or commit == "unknown":
        return "baseline carries no commit stamp"
    try:
        res = subprocess.run(
            ["git", "merge-base", "--is-ancestor", commit, "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:
        return "git is unavailable to check baseline ancestry"
    if res.returncode != 0:
        return f"baseline commit {commit} is not an ancestor of HEAD"
    return None


def _time_sampling(graph, fill, theta: int) -> tuple[float, int]:
    """One timed generation of the full θ set into a fresh collection."""
    coll = SortedRRRCollection(graph.n)
    t0 = time.perf_counter()
    batch = fill(graph, SAMPLING_MODEL, coll, theta, SAMPLING_SEED)
    return time.perf_counter() - t0, batch.edges_examined


def bench_sampling(dataset: str = SAMPLING_DATASET, theta: int = SAMPLING_THETA) -> dict:
    """The per-sample reference loop against the batched engine."""
    from repro.validate.engine import serial_sample_batch

    graph = load(dataset, SAMPLING_MODEL)
    serial = RRRSampler(graph, SAMPLING_MODEL)
    batched = BatchedRRRSampler(graph, SAMPLING_MODEL)
    serial_times, batched_times = [], []
    edges = None
    for _ in range(REPS):  # interleaved so ambient drift hits both engines
        t, e1 = _time_sampling(
            graph, lambda *args: serial_sample_batch(*args, sampler=serial), theta
        )
        serial_times.append(t)
        t, e2 = _time_sampling(
            graph, lambda *args: sample_batch(*args, sampler=batched), theta
        )
        batched_times.append(t)
        assert e1 == e2, "engines disagree on edges_examined"
        edges = e1
    t_serial, t_batched = min(serial_times), min(batched_times)
    return {
        "dataset": dataset,
        "model": SAMPLING_MODEL,
        "eps": SAMPLING_EPS,
        "k": SAMPLING_K,
        "theta": theta,
        "edges_examined": int(edges),
        "serial_s": round(t_serial, 4),
        "batched_s": round(t_batched, 4),
        "serial_edges_per_s": round(edges / t_serial),
        "batched_edges_per_s": round(edges / t_batched),
        "speedup": round(t_serial / t_batched, 2),
    }


def bench_worker_scaling() -> dict:
    """Time the process-pool engine at each worker count.

    Engine construction (pool spin-up + shared-memory population) is
    excluded: it is a once-per-run cost the drivers pay once, while the
    per-θ sampling loop is what the paper's scaling figures measure.

    For every pooled worker count the fastest rep's per-phase breakdown
    is recorded from ``EngineStats`` deltas: worker sampling and arena
    write seconds (summed across workers), parent landing seconds, and
    — the zero-copy contract made measurable — the IPC descriptor bytes
    that actually crossed the pipe per block.
    """
    phase_keys = (
        "blocks_landed", "sample_seconds", "arena_write_seconds",
        "landing_seconds", "ipc_descriptor_bytes",
        "arena_overflows",
    )
    cpus = _host_cpus()
    out: dict = {
        "host_cpus": cpus,
        # Numbers measured below MIN_CPUS_FOR_GATE cannot arm the speedup
        # gate and must never be *stamped* over a record that can: main()
        # keeps a gate-ready baseline record when this is False.
        "gate_ready": cpus >= MIN_CPUS_FOR_GATE,
        "workers": list(WORKER_COUNTS),
    }
    for name, model, theta in WORKER_SCALING_DATASETS:
        graph = load(name, model)
        indices = np.arange(theta, dtype=np.int64)
        per_worker: dict[str, float] = {}
        phases: dict[str, dict] = {}
        for w in WORKER_COUNTS:
            with ParallelSamplingEngine(graph, model, workers=w) as eng:
                times, deltas = [], []
                for _ in range(WORKER_REPS):
                    coll = SortedRRRCollection(graph.n)
                    before = eng.stats.as_dict()
                    t0 = time.perf_counter()
                    eng.sample_into(coll, indices, SAMPLING_SEED)
                    times.append(time.perf_counter() - t0)
                    after = eng.stats.as_dict()
                    delta = {k: after[k] - before[k] for k in phase_keys}
                    # gauge, not a counter: the live segment count
                    delta["arena_segments"] = after["arena_segments"]
                    deltas.append(delta)
                chunk_initial = eng.stats.chunk_initial
                chunk_final = eng.stats.chunk_final
            per_worker[str(w)] = round(min(times), 4)
            if w > 1:  # the pooled path is the one with phases to split
                d = deltas[int(np.argmin(times))]
                blocks = max(1, d["blocks_landed"])
                phases[str(w)] = {
                    "blocks_landed": d["blocks_landed"],
                    "sample_s": round(d["sample_seconds"], 4),
                    "arena_write_s": round(d["arena_write_seconds"], 4),
                    "landing_s": round(d["landing_seconds"], 4),
                    "ipc_descriptor_bytes": d["ipc_descriptor_bytes"],
                    "ipc_bytes_per_block": round(
                        d["ipc_descriptor_bytes"] / blocks, 1
                    ),
                    "arena_segments": d["arena_segments"],
                    "arena_overflows": d["arena_overflows"],
                    "chunk": f"{chunk_initial}->{chunk_final}",
                }
        t1, tmax = per_worker[str(WORKER_COUNTS[0])], per_worker[str(WORKER_COUNTS[-1])]
        out[f"{name}/{model}"] = {
            "theta": theta,
            "seconds": per_worker,
            "speedup_at_max_workers": round(t1 / tmax, 2),
            "phases": phases,
        }
    return out


def bench_supervised_overhead() -> dict:
    """Zero-fault supervision tax vs the plain pool engine.

    Both engines are pre-warmed (pool spin-up excluded, exactly as in
    :func:`bench_worker_scaling`) and run the identical θ workload
    interleaved.  Supervision bookkeeping — per-block deadlines, the
    straggler median window, the fault clock — is per *block*, not per
    sample, so its cost must stay inside the timing noise.
    """
    name, model, theta = WORKER_SCALING_DATASETS[0]
    graph = load(name, model)
    indices = np.arange(theta, dtype=np.int64)
    plain_times, sup_times = [], []
    with ParallelSamplingEngine(
        graph, model, workers=SUPERVISED_WORKERS
    ) as plain, SupervisedSamplingEngine(
        graph, model, workers=SUPERVISED_WORKERS
    ) as sup:
        plain.worker_pids()  # force the lazy worker spawn before timing
        sup.worker_pids()
        for _ in range(SUPERVISED_REPS):
            coll = SortedRRRCollection(graph.n)
            t0 = time.perf_counter()
            plain.sample_into(coll, indices, SAMPLING_SEED)
            plain_times.append(time.perf_counter() - t0)
            coll = SortedRRRCollection(graph.n)
            t0 = time.perf_counter()
            sup.sample_into(coll, indices, SAMPLING_SEED)
            sup_times.append(time.perf_counter() - t0)
    t_plain, t_sup = min(plain_times), min(sup_times)
    return {
        "dataset": name,
        "model": model,
        "theta": theta,
        "workers": SUPERVISED_WORKERS,
        "unsupervised_s": round(t_plain, 4),
        "supervised_s": round(t_sup, 4),
        "overhead": round(t_sup / t_plain - 1.0, 4),
        "tolerance": SUPERVISED_OVERHEAD_TOLERANCE,
    }


def tax_verdict(
    tax: float, tolerance: float, *, failure: str, name: str, layer: str, work: str
) -> list[str]:
    """The two-sided verdict on a zero-fault tax of one layer over another.

    Only a *positive* tax beyond ``tolerance`` fails, with ``failure``.
    A negative one that large is physically suspect (the layer adds
    work; it cannot speed up the identical ``work``), so it passes but
    is called out as measurement noise — an honest record beats a
    silent one when the timings are this jittery.
    """
    if tax > tolerance:
        return [failure]
    if tax < -tolerance:
        print(
            f"  note: {name} {tax:+.1%} is negative beyond the "
            f"±{tolerance:.0%} band — {layer} cannot make {work} faster, so "
            "this is measurement noise, not a speedup (gate passes)"
        )
    return []


def supervised_overhead_gate(so: dict) -> list[str]:
    """Supervision with zero faults must cost < 5 % extra wall-clock."""
    tax, tol = so["overhead"], SUPERVISED_OVERHEAD_TOLERANCE
    return tax_verdict(
        tax,
        tol,
        failure=(
            f"OVERHEAD supervised[{so['dataset']}/{so['model']}]: zero-fault "
            f"supervision tax {tax:+.1%} exceeds the allowed {tol:.0%} "
            f"({so['supervised_s']}s vs {so['unsupervised_s']}s)"
        ),
        name="supervised tax",
        layer="supervision",
        work="identical work",
    )


def bench_startup() -> dict:
    """Fresh-interpreter import cost of the serving and CLI entry points.

    Interleaved over ``STARTUP_REPS`` rounds; the seconds and peak RSS
    are the minimum over the rounds, and ``loaded`` is every forbidden
    module any round saw.
    """
    probes: dict[str, list[dict]] = {m: [] for m in STARTUP_IMPORTS}
    for _ in range(STARTUP_REPS):
        for module in STARTUP_IMPORTS:
            res = subprocess.run(
                [
                    sys.executable, "-c", _STARTUP_PROBE,
                    module, str(ROOT / "src"), *STARTUP_FORBIDDEN,
                ],
                capture_output=True, text=True, check=True,
            )
            probes[module].append(json.loads(res.stdout))
    out: dict = {"reps": STARTUP_REPS}
    for module, runs in probes.items():
        out[module] = {
            "import_s": round(min(r["seconds"] for r in runs), 4),
            "peak_rss_kb": min(r["maxrss_kb"] for r in runs),
            "loaded": sorted({m for r in runs for m in r["loaded"]}),
        }
    return out


def startup_gate(st: dict) -> list[str]:
    """Neither entry point may load the case study's dependencies."""
    failures = []
    for module in STARTUP_IMPORTS:
        loaded = st[module]["loaded"]
        if loaded:
            failures.append(
                f"STARTUP {module}: importing it loads {len(loaded)} "
                f"module(s) it never runs (first: {loaded[0]}) — keep the "
                "package lazy"
            )
    return failures


def _time_write_path(
    graph, src_dir: Path, scratch: Path, tail: tuple
) -> tuple[float, float, int]:
    """One (extend, tighten) pair, each on its own fresh copy of the
    index at ``src_dir``; returns both seconds and the samples tighten
    added."""
    import shutil

    from repro.serving import FrozenRRRIndex, InfluenceQueryEngine

    flat, sizes, edges = tail
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(src_dir, scratch)
    with FrozenRRRIndex.open(scratch) as index:
        t0 = time.perf_counter()
        index.extend(flat, sizes, edges, start=index.num_samples)
        extend_s = time.perf_counter() - t0
    shutil.rmtree(scratch)
    shutil.copytree(src_dir, scratch)
    with FrozenRRRIndex.open(scratch, graph=graph) as index:
        engine = InfluenceQueryEngine(index, graph=graph, verify=False)
        t0 = time.perf_counter()
        res = engine.tighten(SERVING_TIGHT_EPS)
        tighten_s = time.perf_counter() - t0
    shutil.rmtree(scratch)
    return extend_s, tighten_s, res.samples_added


def computed_pairs(reps: int) -> list[tuple[int, float]]:
    """``reps`` distinct ``(k, eps)`` pairs for timing computed queries.

    An engine remembers its greedy answers per (prefix length, k), so a
    repeated ``top_k`` is a lookup.  These pairs keep the serving
    workload's ``k`` and raise its ``eps`` a step at a time: every
    replay round and final pick lands on a new prefix length (no pair
    repeats another's answer), yet stays inside the frozen prefix, so
    the query does about the frozen pair's work and needs no extension.
    """
    _, _, k, eps, _ = SERVING_WORKLOAD
    return [(k, eps + COMPUTED_EPS_STEP * (i + 1)) for i in range(reps)]


async def paired_reps(base, layered, reps: int) -> tuple[list[float], list[float], bool]:
    """Interleaved timings of ``base`` (a call or a coroutine) and then
    ``layered`` on each fresh :func:`computed_pairs` pair: both time
    lists, and whether every layered answer's seeds equal its base's."""
    base_s, layered_s, same = [], [], True
    for pair in computed_pairs(reps):
        t0 = time.perf_counter()
        want = base(*pair)
        if inspect.isawaitable(want):
            want = await want
        base_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        got = await layered(*pair)
        layered_s.append(time.perf_counter() - t0)
        same &= bool(np.array_equal(got.seeds, want.seeds))
    return base_s, layered_s, same


def paired_tax(base_s: list[float], layered_s: list[float]) -> tuple[float, float, float]:
    """``(base, layered, tax)``: the base's min, that plus the median
    paired difference (floored at zero), and the median over the min."""
    t_base = min(base_s)
    med_diff = float(np.median([lay - b for b, lay in zip(base_s, layered_s)]))
    return t_base, t_base + max(med_diff, 0.0), med_diff / t_base


def bench_serving() -> dict:
    """Freeze-once/query-forever amortization on one registry workload.

    The fresh ``imm()`` time is the cost every un-amortized query pays;
    the warm ``top_k`` time is what the frozen index serves it for.  The
    query is timed only after one warm-up call so the lazy hit index
    is built (that cost is part of ``open_s``'s story, not the steady
    state the serving layer advertises).  ``query_s`` times computed
    queries (:func:`computed_pairs`); ``query_repeat_s`` times the frozen
    pair again, which the engine answers from memory (record-only).
    """
    import tempfile

    from repro.serving import FrozenRRRIndex, InfluenceQueryEngine, freeze_index

    name, model, k, eps, seed = SERVING_WORKLOAD
    graph = load(name, model)
    fresh_times, ref = [], None
    for _ in range(REPS):
        t0 = time.perf_counter()
        ref = imm(graph, k, eps, model, seed=seed)
        fresh_times.append(time.perf_counter() - t0)

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as td:
        out_dir = td + "/index"
        t0 = time.perf_counter()
        index, _ = freeze_index(graph, k, eps, model, seed, out_dir=out_dir)
        freeze_s = time.perf_counter() - t0
        num_samples, entries = index.num_samples, index.entries
        index.close()

        open_times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            FrozenRRRIndex.open(out_dir).close()
            open_times.append(time.perf_counter() - t0)

        index = FrozenRRRIndex.open(out_dir, graph=graph)
        engine = InfluenceQueryEngine(index, graph=graph, verify=False)
        result = engine.top_k()  # warm-up builds the lazy hit index
        query_times, repeat_times, whatif_times, marginal_times = [], [], [], []
        forced = (int(ref.seeds[0]),)
        half_set = np.asarray(ref.seeds[: max(1, k // 2)])
        computed = []
        for pair in computed_pairs(REPS):
            t0 = time.perf_counter()
            computed.append(engine.top_k(*pair))
            query_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            result = engine.top_k()
            repeat_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            engine.what_if(k, forced=forced)
            whatif_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            engine.marginal_gain(half_set)
            marginal_times.append(time.perf_counter() - t0)
        index.close()

        # The write path, on scratch copies: one doubling round's tail,
        # drawn up front so extend_s times only the durable append.
        tail = SortedRRRCollection(graph.n)
        per_edges = BatchedRRRSampler(graph, model).sample_into(
            tail, np.arange(num_samples, 2 * num_samples, dtype=np.int64), seed
        )
        t_flat, t_indptr = tail.flattened()
        payload = (t_flat.astype(np.int32), np.diff(t_indptr), per_edges)
        extend_times, tighten_times, tighten_added = [], [], 0
        for _ in range(REPS):
            e_s, t_s, tighten_added = _time_write_path(
                graph, Path(out_dir), Path(td) / "scratch", payload
            )
            extend_times.append(e_s)
            tighten_times.append(t_s)

    t_fresh, t_query = min(fresh_times), min(query_times)
    return {
        "dataset": name,
        "model": model,
        "k": k,
        "eps": eps,
        "seed": seed,
        "num_samples": num_samples,
        "entries": entries,
        "fresh_imm_s": round(t_fresh, 4),
        "freeze_s": round(freeze_s, 4),
        "open_s": round(min(open_times), 4),
        "query_s": round(t_query, 4),
        "query_repeat_s": round(min(repeat_times), 6),
        "what_if_s": round(min(whatif_times), 4),
        "marginal_s": round(min(marginal_times), 4),
        "extend_samples": num_samples,
        "extend_s": round(min(extend_times), 4),
        "tighten_eps": SERVING_TIGHT_EPS,
        "tighten_samples_added": tighten_added,
        "tighten_s": round(min(tighten_times), 4),
        "query_speedup_vs_fresh": round(t_fresh / t_query, 1),
        "seeds_match_fresh": bool(np.array_equal(result.seeds, ref.seeds)),
        "served_from_index": all(
            r.served_from_index and r.edges_examined == 0
            for r in (result, *computed)
        ),
    }


def serving_gate(sv: dict) -> list[str]:
    """The serving layer's two deterministic promises, gated every run."""
    failures = []
    wl = f"{sv['dataset']}/{sv['model']}"
    if not sv["seeds_match_fresh"]:
        failures.append(
            f"SERVING {wl}: frozen-index top_k diverges from a fresh imm() "
            "run — the prefix replay no longer reproduces the estimation "
            "control flow"
        )
    if not sv["served_from_index"]:
        failures.append(
            f"SERVING {wl}: warm query resampled instead of serving from "
            "the frozen index (the no-resampling contract is broken)"
        )
    return failures


def bench_frontend() -> dict:
    """The async front end's traffic numbers on the serving workload.

    Three measurements, each against the same frozen index:

    * **zero-fault tax** — a warm ``top_k`` through the front end
      (admission, coalescing table, lease, worker-thread hop) vs the
      same query on a bare engine, a fresh :func:`computed_pairs` pair
      per rep so both sides run the kernel; the robustness layer must
      cost < ``FRONTEND_OVERHEAD_TOLERANCE`` when nothing goes wrong.
    * **served-latency distribution** — p50/p99 over a concurrent batch
      of distinct what-if queries, queueing included (the number a
      caller actually observes under load).
    * **shed rate under an overload burst** — ``FRONTEND_BURST``
      concurrent queries against one straggling worker and a queue
      bounded at ``FRONTEND_BURST_PENDING``: the excess must shed with
      typed rejections while every served answer stays bit-identical.
    """
    import asyncio
    import tempfile

    from repro.serving import (
        AdmissionRejected,
        FrozenRRRIndex,
        InfluenceQueryEngine,
        ServingFrontend,
        freeze_index,
    )

    name, model, k, eps, seed = SERVING_WORKLOAD
    graph = load(name, model)
    ref = imm(graph, k, eps, model, seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-bench-frontend-") as td:
        out_dir = td + "/index"
        index, _ = freeze_index(graph, k, eps, model, seed, out_dir=out_dir)
        index.close()

        # Direct warm-engine reference: the no-frontend latency.  The
        # reps are *interleaved* with the front-end reps below — host
        # speed drifts by more than the 5% band over the seconds a
        # separate back-to-back block would take, and pairing each rep
        # with its reference makes that drift cancel out of the ratio.
        index = FrozenRRRIndex.open(out_dir)
        engine = InfluenceQueryEngine(index, verify=False)
        engine.top_k()  # warm-up builds the lazy hit index

        async def _zero_fault():
            async with ServingFrontend(concurrency=1) as fe:
                await fe.top_k(out_dir)  # warm-up: open + thread pool
                direct, times, same = await paired_reps(
                    engine.top_k,
                    lambda *pair: fe.top_k(out_dir, *pair),
                    FRONTEND_REPS,
                )
                res = await fe.top_k(out_dir)
                return direct, times, res, same

        async def _latency_batch():
            async with ServingFrontend(concurrency=4) as fe:
                await fe.top_k(out_dir)

                async def timed(i):
                    t0 = time.perf_counter()
                    await fe.what_if(out_dir, k, forced=(i,))
                    return time.perf_counter() - t0

                return await asyncio.gather(
                    *[timed(i) for i in range(FRONTEND_BATCH)]
                )

        async def _burst():
            fe = ServingFrontend(
                concurrency=1,
                max_pending=FRONTEND_BURST_PENDING,
                fault_plan="slowquery:0x0.05",
            )
            results = await asyncio.gather(
                *[fe.top_k(out_dir) for _ in range(FRONTEND_BURST)],
                return_exceptions=True,
            )
            await fe.close()
            shed = sum(isinstance(r, AdmissionRejected) for r in results)
            untyped = sum(
                isinstance(r, BaseException)
                and not isinstance(r, AdmissionRejected)
                for r in results
            )
            served = [r for r in results if not isinstance(r, BaseException)]
            identical = all(
                bool(np.array_equal(r.seeds, ref.seeds)) for r in served
            )
            return shed, untyped, identical, fe.stats.peak_inflight

        direct_times, front_times, front_res, front_same = asyncio.run(
            _zero_fault()
        )
        index.close()
        lats = asyncio.run(_latency_batch())
        shed, untyped, identical, peak = asyncio.run(_burst())

    t_direct, t_front, tax = paired_tax(direct_times, front_times)
    return {
        "dataset": name,
        "model": model,
        "k": k,
        "eps": eps,
        "seed": seed,
        "direct_query_s": round(t_direct, 4),
        "frontend_query_s": round(t_front, 4),
        "overhead": round(tax, 4),
        "tolerance": FRONTEND_OVERHEAD_TOLERANCE,
        "zero_fault_bit_identical": bool(
            np.array_equal(front_res.seeds, ref.seeds)
        ) and front_same,
        "batch_queries": FRONTEND_BATCH,
        "p50_ms": round(float(np.percentile(lats, 50)) * 1e3, 2),
        "p99_ms": round(float(np.percentile(lats, 99)) * 1e3, 2),
        "burst": FRONTEND_BURST,
        "burst_bound": FRONTEND_BURST_PENDING,
        "burst_shed": int(shed),
        "burst_shed_rate": round(shed / FRONTEND_BURST, 2),
        "burst_untyped_failures": int(untyped),
        "burst_peak_inflight": int(peak),
        "burst_served_bit_identical": bool(identical),
    }


def frontend_gate(fr: dict) -> list[str]:
    """The front end's traffic promises, gated every run (the tax
    through :func:`tax_verdict`)."""
    wl = f"{fr['dataset']}/{fr['model']}"
    tax, tol = fr["overhead"], FRONTEND_OVERHEAD_TOLERANCE
    failures = tax_verdict(
        tax,
        tol,
        failure=(
            f"OVERHEAD frontend[{wl}]: zero-fault front-end tax {tax:+.1%} "
            f"exceeds the allowed {tol:.0%} "
            f"({fr['frontend_query_s']}s vs {fr['direct_query_s']}s direct)"
        ),
        name="frontend tax",
        layer="the front end",
        work="the identical query",
    )
    if not fr["zero_fault_bit_identical"] or not fr["burst_served_bit_identical"]:
        failures.append(
            f"FRONTEND {wl}: a served answer diverged from the fresh imm() "
            "run — the traffic layer broke the bit-identity contract"
        )
    if fr["burst_untyped_failures"]:
        failures.append(
            f"FRONTEND {wl}: {fr['burst_untyped_failures']} overload "
            "failure(s) were not typed AdmissionRejected — shedding must "
            "never surface as an arbitrary exception"
        )
    if fr["burst_shed"] == 0:
        failures.append(
            f"FRONTEND {wl}: an overload burst of {fr['burst']} against a "
            f"queue bound of {fr['burst_bound']} shed nothing — admission "
            "control is not bounding the pileup"
        )
    if fr["burst_peak_inflight"] > fr["burst_bound"]:
        failures.append(
            f"FRONTEND {wl}: peak inflight {fr['burst_peak_inflight']} "
            f"exceeded the admission bound {fr['burst_bound']}"
        )
    return failures


def bench_cluster() -> dict:
    """The replicated cluster's routing numbers on the serving workload.

    Three measurements against the same frozen index:

    * **zero-fault routing tax** — a warm ``top_k`` through a
      ``CLUSTER_REPLICAS``-replica router (rendezvous hash, health
      bookkeeping, dispatch indirection) vs the identical query on a
      single front end, as the median of paired differences over
      interleaved reps, each a fresh :func:`computed_pairs` pair so
      both sides run the kernel.  Hedging is off here: it is a tail-latency
      feature with its own axis below, and letting duplicate dispatches
      steal worker time would charge the routing layer for work it
      didn't do.
    * **failover recovery latency** — first query against a router
      whose rendezvous primary is crashed: the failed dispatch, the
      backoff, and the secondary's answer, end to end (recorded, not
      gated — it is dominated by the configured backoff).
    * **hedge win rate** — sequential queries against a straggling
      primary with an aggressive hedge delay: how often the duplicate
      dispatch beats the straggler (recorded, not gated — it is a
      property of the injected latency gap).
    * **routed repeat** — the p50 of a remembered ``top_k`` through the
      router, reads spaced :data:`ROUTED_REPEAT_GAP_S` apart (recorded,
      not gated): what a repeated served read costs end to end.

    Bit-identity of every answer on every axis is gated, as is the
    presence of the failover/hedge machinery actually engaging: a
    router that never fails over a crashed primary or never hedges past
    a straggler would otherwise record vacuous numbers forever.
    """
    import asyncio
    import random
    import tempfile

    from repro.serving import ClusterRouter, ServingFrontend, freeze_index

    name, model, k, eps, seed = SERVING_WORKLOAD
    graph = load(name, model)
    ref = imm(graph, k, eps, model, seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cluster-") as td:
        out_dir = td + "/index"
        index, _ = freeze_index(graph, k, eps, model, seed, out_dir=out_dir)
        index.close()

        async def _zero_fault():
            async with ServingFrontend(concurrency=1) as fe, ClusterRouter(
                num_replicas=CLUSTER_REPLICAS, concurrency=1, hedge=False
            ) as cr:
                await fe.top_k(out_dir)  # warm-up: open + thread pool
                await cr.top_k(out_dir)
                single, routed, same = await paired_reps(
                    lambda *pair: fe.top_k(out_dir, *pair),
                    lambda *pair: cr.top_k(out_dir, *pair),
                    CLUSTER_REPS,
                )
                res = await cr.top_k(out_dir)
                return single, routed, res, same

        async def _primary():
            async with ClusterRouter(
                num_replicas=CLUSTER_REPLICAS, hedge=False
            ) as cr:
                return cr._order(out_dir)[0].idx

        async def _failover(primary):
            async with ClusterRouter(
                num_replicas=CLUSTER_REPLICAS, concurrency=1, hedge=False,
                fault_plan=f"replicacrash:{primary}@0", backoff_base=0.001,
            ) as cr:
                t0 = time.perf_counter()
                res = await cr.top_k(out_dir)
                dt = time.perf_counter() - t0
                return dt, res, cr.stats.failovers

        async def _hedge(primary):
            async with ClusterRouter(
                num_replicas=CLUSTER_REPLICAS, concurrency=2,
                fault_plan=f"replicaslow:{primary}x0.05", hedge_after=0.005,
            ) as cr:
                results = [
                    await cr.top_k(out_dir)
                    for _ in range(CLUSTER_HEDGE_QUERIES)
                ]
                identical = all(
                    bool(np.array_equal(r.seeds, ref.seeds)) for r in results
                )
                return cr.stats.hedges, cr.stats.hedge_wins, identical

        async def _routed_repeat():
            async with ClusterRouter(
                num_replicas=CLUSTER_REPLICAS, concurrency=1
            ) as cr:
                await cr.top_k(out_dir)  # computed once, remembered after
                gaps = random.Random(seed)
                times = []
                for _ in range(ROUTED_REPEAT_READS):
                    await asyncio.sleep(gaps.uniform(*ROUTED_REPEAT_GAP_S))
                    t0 = time.perf_counter()
                    await cr.top_k(out_dir)
                    times.append(time.perf_counter() - t0)
                return float(np.median(times))

        single_times, routed_times, routed_res, routed_same = asyncio.run(
            _zero_fault()
        )
        primary = asyncio.run(_primary())
        fo_s, fo_res, fo_count = asyncio.run(_failover(primary))
        hedges, hedge_wins, hedged_identical = asyncio.run(_hedge(primary))
        routed_repeat = asyncio.run(_routed_repeat())

    t_single, t_routed, tax = paired_tax(single_times, routed_times)
    return {
        "dataset": name,
        "model": model,
        "k": k,
        "eps": eps,
        "seed": seed,
        "replicas": CLUSTER_REPLICAS,
        "single_query_s": round(t_single, 4),
        "router_query_s": round(t_routed, 4),
        "overhead": round(tax, 4),
        "tolerance": CLUSTER_OVERHEAD_TOLERANCE,
        "zero_fault_bit_identical": bool(
            np.array_equal(routed_res.seeds, ref.seeds)
        ) and routed_same,
        "failover_recovery_s": round(fo_s, 4),
        "failovers": int(fo_count),
        "failover_bit_identical": bool(
            np.array_equal(fo_res.seeds, ref.seeds)
        ),
        "hedge_queries": CLUSTER_HEDGE_QUERIES,
        "hedges": int(hedges),
        "hedge_wins": int(hedge_wins),
        "hedge_win_rate": round(hedge_wins / max(hedges, 1), 2),
        "hedged_bit_identical": bool(hedged_identical),
        "routed_repeat_s": round(routed_repeat, 6),
    }


def cluster_gate(cl: dict) -> list[str]:
    """The replicated cluster's promises, gated every run (the routing
    tax through :func:`tax_verdict`)."""
    wl = f"{cl['dataset']}/{cl['model']}"
    tax, tol = cl["overhead"], CLUSTER_OVERHEAD_TOLERANCE
    failures = tax_verdict(
        tax,
        tol,
        failure=(
            f"OVERHEAD cluster[{wl}]: zero-fault routing tax {tax:+.1%} "
            f"exceeds the allowed {tol:.0%} "
            f"({cl['router_query_s']}s vs {cl['single_query_s']}s single)"
        ),
        name="cluster routing tax",
        layer="the router",
        work="the identical query",
    )
    if not (
        cl["zero_fault_bit_identical"]
        and cl["failover_bit_identical"]
        and cl["hedged_bit_identical"]
    ):
        failures.append(
            f"CLUSTER {wl}: a routed answer diverged from the fresh imm() "
            "run — the replication layer broke the bit-identity contract"
        )
    if cl["failovers"] == 0:
        failures.append(
            f"CLUSTER {wl}: a query against a crashed primary recorded no "
            "failover — the health-checked routing never engaged"
        )
    if cl["hedges"] == 0:
        failures.append(
            f"CLUSTER {wl}: {cl['hedge_queries']} queries against a "
            "straggling primary never hedged — the tail-latency duplicate "
            "dispatch never engaged"
        )
    return failures


def bench_memory() -> dict:
    """Resident bytes, held buffers, peak RSS and selection time of the
    flat layout.

    Each workload samples the full θ set in a fresh subprocess
    (:data:`_MEMORY_PROBE`) and reports the layout's modeled resident
    bytes, the bytes its buffers hold and the subprocess's honest peak
    RSS.  Selection is then timed in-process on the identical sample
    set, best-of-``SELECTION_REPS``.
    """
    from repro.imm.select import select_seeds

    out: dict = {"collection_bytes_gate": COLLECTION_BYTES_RATIO_GATE}
    for name, model, theta in WORKER_SCALING_DATASETS:
        res = subprocess.run(
            [sys.executable, "-c", _MEMORY_PROBE, name, model, str(theta), str(ROOT / "src")],
            capture_output=True, text=True, check=True,
        )
        probe = json.loads(res.stdout)
        flat = {
            "resident_bytes": int(probe["resident_bytes"]),
            "bytes_per_sample": round(probe["resident_bytes"] / theta, 1),
            "live_bytes": int(probe["live_bytes"]),
            "live_ratio": round(probe["live_bytes"] / probe["resident_bytes"], 4),
            "peak_rss_kb": int(probe["maxrss_kb"]),
        }
        graph = load(name, model)
        coll = SortedRRRCollection(graph.n)
        sample_batch(graph, model, coll, theta, SAMPLING_SEED)
        times = []
        for _ in range(SELECTION_REPS):
            t0 = time.perf_counter()
            select_seeds(coll, graph.n, SAMPLING_K)
            times.append(time.perf_counter() - t0)
        flat["select_s"] = round(min(times), 4)
        out[f"{name}/{model}"] = {
            "theta": theta, "entries": int(probe["entries"]), "flat": flat,
        }
    return out


def memory_gate(mem: dict) -> list[str]:
    """The flat collection's held bytes stay within
    ``COLLECTION_BYTES_RATIO_GATE`` of its model on every workload: a
    byte count, not a timing, so it is gated at any size."""
    failures: list[str] = []
    for wl, rec in mem.items():
        if not isinstance(rec, dict):
            continue
        if rec["flat"]["live_ratio"] > COLLECTION_BYTES_RATIO_GATE:
            failures.append(
                f"MEMORY {wl}: the flat collection's buffers hold "
                f"{rec['flat']['live_bytes']:,} B, {rec['flat']['live_ratio']}x "
                f"its modeled {rec['flat']['resident_bytes']:,} B — above the "
                f"{COLLECTION_BYTES_RATIO_GATE}x doubling bound (a per-entry "
                "array beyond the int32 ids?)"
            )
    return failures


def _private_bytes(*objs) -> int:
    """Bytes of every array the objects hold as an attribute or inside
    a tuple attribute, each buffer counted once at its full allocation.
    Memory-mapped files are shared page cache, not private, and are
    left out."""
    buffers = {}
    for obj in objs:
        for attr in vars(obj).values():
            for arr in attr if isinstance(attr, tuple) else (attr,):
                if isinstance(arr, np.ndarray):
                    while isinstance(arr.base, np.ndarray):
                        arr = arr.base
                    if not isinstance(arr, np.memmap):
                        buffers[id(arr)] = arr.nbytes
    return sum(buffers.values())


def bench_footprint() -> dict:
    """An engine's private bytes over its index's data-file bytes.

    The engine opens a frozen :data:`FOOTPRINT_WORKLOAD` index and
    answers the router's probe read plus a ``top_k``, which builds its
    hit index.  Private: :func:`_private_bytes` of the engine and its
    index (the hit index and its group offsets and the per-sample
    ``indptr``); the mapped files are shared page cache.
    """
    import tempfile

    from repro.serving import FrozenRRRIndex, InfluenceQueryEngine, freeze_index

    name, model, k, eps, seed = FOOTPRINT_WORKLOAD
    graph = load(name, model)
    out: dict = {"dataset": name, "model": model, "k": k, "eps": eps, "seed": seed,
                 "gate": FOOTPRINT_RATIO_GATE}
    with tempfile.TemporaryDirectory(prefix="repro-bench-footprint-") as td:
        path = Path(td) / "flat"
        freeze_index(graph, k, eps, model, seed, out_dir=path)[0].close()
        file_bytes = sum(
            f.stat().st_size for f in path.iterdir() if f.suffix == ".bin"
        )
        with FrozenRRRIndex.open(path) as index:
            engine = InfluenceQueryEngine(index)
            engine.what_if(1)
            engine.top_k()
            private = _private_bytes(engine, index)
            out["flat"] = {
                "num_samples": index.num_samples,
                "entries": index.entries,
                "private_bytes": int(private),
                "file_bytes": int(file_bytes),
                "ratio": round(private / file_bytes, 4),
            }
    return out


def footprint_gate(fp: dict) -> list[str]:
    """A flat-index engine holds no more private bytes than the index
    files: 4 bytes per incidence, like the file."""
    rec = fp["flat"]
    if rec["ratio"] <= FOOTPRINT_RATIO_GATE:
        return []
    return [
        f"FOOTPRINT {fp['dataset']}/{fp['model']}: a flat-index engine holds "
        f"{rec['private_bytes']:,} private B, {rec['ratio']}x the index's "
        f"{rec['file_bytes']:,} file B — above the {FOOTPRINT_RATIO_GATE}x gate"
    ]


def bench_imm() -> dict:
    out = {}
    for name, model, k, eps, seed in IMM_WORKLOADS:
        graph = load(name, model)
        times, result = [], None
        for _ in range(REPS):
            t0 = time.perf_counter()
            result = imm(graph, k, eps, model, seed=seed)
            times.append(time.perf_counter() - t0)
        out[f"{name}/{model}"] = {
            "k": k,
            "eps": eps,
            "seed": seed,
            "theta": result.theta,
            "seconds": round(min(times), 4),
            "seeds": np.asarray(result.seeds).tolist(),
        }
    return out


def compare(fresh: dict, baseline: dict) -> list[str]:
    """Return a list of loud failure messages (empty = no regression)."""
    failures: list[str] = []
    for section in ("sampling", "sampling_unfiltered"):
        base_s = baseline.get(section, {})
        new_s = fresh[section]
        for key in ("serial_edges_per_s", "batched_edges_per_s"):
            old = base_s.get(key)
            if old and new_s[key] < old * (1.0 - TOLERANCE):
                failures.append(
                    f"REGRESSION {section}.{key}: {new_s[key]:,} edges/s is "
                    f">{TOLERANCE:.0%} below baseline {old:,}"
                )
    base_i = baseline.get("imm", {})
    for wl, new in fresh["imm"].items():
        old = base_i.get(wl)
        if old is None:
            continue
        if new["seconds"] > old["seconds"] * (1.0 + TOLERANCE):
            failures.append(
                f"REGRESSION imm[{wl}].seconds: {new['seconds']}s is "
                f">{TOLERANCE:.0%} above baseline {old['seconds']}s"
            )
        if new["seeds"] != old["seeds"]:
            failures.append(
                f"CORRECTNESS imm[{wl}]: seed set changed vs baseline — "
                f"the sampling engines no longer reproduce the recorded output"
            )
    base_sv = baseline.get("serving", {})
    new_sv = fresh.get("serving", {})
    for key in ("query_s", "what_if_s", "marginal_s"):
        old = base_sv.get(key)
        if old and new_sv.get(key, 0) > old * (1.0 + TOLERANCE):
            failures.append(
                f"REGRESSION serving.{key}: {new_sv[key]}s is "
                f">{TOLERANCE:.0%} above baseline {old}s"
            )
    base_fr = baseline.get("frontend", {})
    new_fr = fresh.get("frontend", {})
    for key in ("frontend_query_s",):
        old = base_fr.get(key)
        if old and new_fr.get(key, 0) > old * (1.0 + TOLERANCE):
            failures.append(
                f"REGRESSION frontend.{key}: {new_fr[key]}s is "
                f">{TOLERANCE:.0%} above baseline {old}s"
            )
    base_cl = baseline.get("cluster", {})
    new_cl = fresh.get("cluster", {})
    for key in ("router_query_s",):
        old = base_cl.get(key)
        if old and new_cl.get(key, 0) > old * (1.0 + TOLERANCE):
            failures.append(
                f"REGRESSION cluster.{key}: {new_cl[key]}s is "
                f">{TOLERANCE:.0%} above baseline {old}s"
            )
    return failures


def worker_scaling_gate(ws: dict) -> list[str]:
    """The ``≥1.6×`` 4-worker gate, enforced only on capable hosts.

    The same capable-host condition also arms the descriptor-size
    budget: every pooled worker count on every dataset must have moved
    at most ``DESCRIPTOR_BYTE_BUDGET`` IPC bytes per landed block — a
    result that quietly rode back through the pickle fallback instead
    of the arena would blow this long before it blows the speedup.
    """
    if ws["host_cpus"] < MIN_CPUS_FOR_GATE:
        print(
            f"  worker-scaling gate skipped: host has {ws['host_cpus']} usable "
            f"CPU(s) < {MIN_CPUS_FOR_GATE} (numbers recorded for audit)"
        )
        return []
    failures: list[str] = []
    name, model, _ = WORKER_SCALING_DATASETS[0]  # the largest graph
    got = ws[f"{name}/{model}"]["speedup_at_max_workers"]
    if got < MIN_WORKER_SPEEDUP:
        failures.append(
            f"SCALING {name}/{model}: {WORKER_COUNTS[-1]}-worker sampling "
            f"speedup {got}x is below the required {MIN_WORKER_SPEEDUP}x"
        )
    for wl, rec in ws.items():
        if not isinstance(rec, dict):
            continue
        for w, ph in rec.get("phases", {}).items():
            if ph["ipc_bytes_per_block"] > DESCRIPTOR_BYTE_BUDGET:
                failures.append(
                    f"IPC {wl} at {w} workers: {ph['ipc_bytes_per_block']} "
                    f"descriptor bytes/block exceeds the "
                    f"{DESCRIPTOR_BYTE_BUDGET}-byte budget "
                    f"({ph['arena_overflows']} inline fallback(s) of "
                    f"{ph['blocks_landed']} block(s))"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="accept the fresh numbers as the new baseline (skip comparison)",
    )
    parser.add_argument(
        "--skip-validate",
        action="store_true",
        help="skip the quick equivalence oracle (perf numbers only)",
    )
    parser.add_argument(
        "--full-shard",
        default=None,
        metavar="I/M",
        help="run shard I of M of the FULL equivalence oracle instead of "
        "the quick sweep (CI runs the shards as a job matrix)",
    )
    parser.add_argument(
        "--full-shards",
        type=int,
        default=None,
        metavar="M",
        help="run the entire 1/M..M/M full-oracle shard matrix sequentially",
    )
    args = parser.parse_args(argv)
    if args.full_shard and args.full_shards:
        parser.error("--full-shard and --full-shards are mutually exclusive")

    # Resolve the oracle shard plan up front: a malformed spec must fail
    # before minutes of benchmarking, not after.
    shards: list[tuple[int, int]] = []
    if args.full_shard:
        try:
            i_s, m_s = args.full_shard.split("/", 1)
            i, m = int(i_s), int(m_s)
        except ValueError:
            parser.error(f"--full-shard expects I/M (e.g. 2/3), got {args.full_shard!r}")
        if not 1 <= i <= m:
            parser.error(f"--full-shard needs 1 <= I <= M, got {i}/{m}")
        shards = [(i, m)]
    elif args.full_shards:
        if args.full_shards < 1:
            parser.error("--full-shards must be >= 1")
        shards = [(i, args.full_shards) for i in range(1, args.full_shards + 1)]

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    print(f"sampling micro-suite (best of {REPS}, interleaved) ...", flush=True)
    fresh = {
        "commit": _commit(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "reps": REPS,
        "tolerance": TOLERANCE,
        "startup": bench_startup(),
        "sampling": bench_sampling(),
        "sampling_unfiltered": bench_sampling(
            SAMPLING_UNFILTERED_DATASET, SAMPLING_UNFILTERED_THETA
        ),
        "worker_scaling": bench_worker_scaling(),
        "supervised_overhead": bench_supervised_overhead(),
        "memory": bench_memory(),
        "footprint": bench_footprint(),
        "imm": bench_imm(),
        "serving": bench_serving(),
        "frontend": bench_frontend(),
        "cluster": bench_cluster(),
    }
    st = fresh["startup"]
    for module in STARTUP_IMPORTS:
        r = st[module]
        print(
            f"  startup import {module}: {r['import_s']}s, peak RSS "
            f"{r['peak_rss_kb'] // 1024} MB (min of {st['reps']})"
        )
    for s in (fresh["sampling"], fresh["sampling_unfiltered"]):
        print(
            f"  {s['dataset']} {s['model']} theta={s['theta']}: "
            f"serial {s['serial_s']}s ({s['serial_edges_per_s']:,} e/s), "
            f"batched {s['batched_s']}s ({s['batched_edges_per_s']:,} e/s), "
            f"speedup {s['speedup']}x"
        )
    ws = fresh["worker_scaling"]
    for wl, r in ws.items():
        if not isinstance(r, dict):
            continue
        timings = ", ".join(f"{w}w {t}s" for w, t in r["seconds"].items())
        print(
            f"  pool {wl} theta={r['theta']}: {timings} "
            f"(speedup {r['speedup_at_max_workers']}x, "
            f"host_cpus={ws['host_cpus']})"
        )
        for w, ph in r.get("phases", {}).items():
            print(
                f"    {w}w phases: sample {ph['sample_s']}s, "
                f"arena-write {ph['arena_write_s']}s, "
                f"land {ph['landing_s']}s, "
                f"ipc {ph['ipc_bytes_per_block']} B/block "
                f"({ph['blocks_landed']} blocks, "
                f"{ph['arena_segments']} segment(s), chunk {ph['chunk']})"
            )
    so = fresh["supervised_overhead"]
    print(
        f"  supervised {so['dataset']}/{so['model']} theta={so['theta']} "
        f"({so['workers']}w): plain {so['unsupervised_s']}s, "
        f"supervised {so['supervised_s']}s (tax {so['overhead']:+.1%})"
    )
    mem = fresh["memory"]
    for wl, r in mem.items():
        if not isinstance(r, dict):
            continue
        print(
            f"  memory {wl} theta={r['theta']}: flat "
            f"{r['flat']['resident_bytes']:,} B "
            f"({r['flat']['bytes_per_sample']} B/sample); select "
            f"{r['flat']['select_s']}s"
        )
        print(
            f"    live buffers: flat {r['flat']['live_bytes']:,} B "
            f"({r['flat']['live_ratio']}x model); peak RSS after one "
            f"select: flat {r['flat']['peak_rss_kb'] // 1024} MB"
        )
    fp = fresh["footprint"]
    r = fp["flat"]
    print(
        f"  footprint {fp['dataset']}/{fp['model']} k={fp['k']} "
        f"eps={fp['eps']} flat ({r['entries']:,} entries): engine "
        f"private {r['private_bytes']:,} B over {r['file_bytes']:,} file B "
        f"= {r['ratio']}x"
    )
    for wl, r in fresh["imm"].items():
        print(f"  imm {wl}: theta={r['theta']} {r['seconds']}s")
    sv = fresh["serving"]
    print(
        f"  serving {sv['dataset']}/{sv['model']} "
        f"({sv['num_samples']} frozen samples): fresh {sv['fresh_imm_s']}s, "
        f"freeze {sv['freeze_s']}s, open {sv['open_s']}s, "
        f"query {sv['query_s']}s ({sv['query_speedup_vs_fresh']}x), "
        f"repeat {sv['query_repeat_s']}s, "
        f"what-if {sv['what_if_s']}s, marginal {sv['marginal_s']}s; "
        f"extend +{sv['extend_samples']} {sv['extend_s']}s, tighten to "
        f"eps={sv['tighten_eps']} (+{sv['tighten_samples_added']}) "
        f"{sv['tighten_s']}s"
    )
    fr = fresh["frontend"]
    print(
        f"  frontend {fr['dataset']}/{fr['model']}: direct "
        f"{fr['direct_query_s']}s, served {fr['frontend_query_s']}s "
        f"(tax {fr['overhead']:+.1%}), p50 {fr['p50_ms']}ms / "
        f"p99 {fr['p99_ms']}ms over {fr['batch_queries']} concurrent, "
        f"burst shed {fr['burst_shed']}/{fr['burst']} "
        f"(peak inflight {fr['burst_peak_inflight']}/{fr['burst_bound']})"
    )
    cl = fresh["cluster"]
    print(
        f"  cluster {cl['dataset']}/{cl['model']} ({cl['replicas']} "
        f"replicas): single {cl['single_query_s']}s, routed "
        f"{cl['router_query_s']}s (tax {cl['overhead']:+.1%}), failover "
        f"recovery {cl['failover_recovery_s']}s, hedge wins "
        f"{cl['hedge_wins']}/{cl['hedges']} "
        f"(rate {cl['hedge_win_rate']}), routed repeat "
        f"{cl['routed_repeat_s']}s"
    )

    # A cramped host must not stamp its (meaningless) worker-scaling
    # numbers over a record a capable runner produced: the baseline would
    # then permanently carry a sub-gate speedup nobody can act on.  The
    # fresh measurement is still printed above for audit; only the
    # *stamped* record preserves the gate-ready one.
    if baseline is not None and not ws["gate_ready"]:
        old_ws = baseline.get("worker_scaling", {})
        if old_ws.get("gate_ready"):
            print(
                f"  worker-scaling record kept from baseline commit "
                f"{baseline.get('commit')}: this host has {ws['host_cpus']} "
                f"usable CPU(s) < {MIN_CPUS_FOR_GATE}, refusing to stamp a "
                "non-gate-ready record over a gate-ready one"
            )
            preserved = dict(old_ws)
            preserved["preserved_from_commit"] = baseline.get("commit")
            fresh["worker_scaling"] = preserved

    failures = startup_gate(st)
    failures.extend(worker_scaling_gate(ws))
    failures.extend(supervised_overhead_gate(so))
    failures.extend(memory_gate(mem))
    failures.extend(footprint_gate(fp))
    failures.extend(serving_gate(sv))
    failures.extend(frontend_gate(fr))
    failures.extend(cluster_gate(cl))
    if baseline is not None and not args.update_baseline:
        stale = baseline_provenance_error(baseline)
        if stale:
            failures.append(
                f"PROVENANCE {stale} — the recorded numbers cannot gate this "
                "tree; regenerate with --update-baseline"
            )
        else:
            failures.extend(compare(fresh, baseline))

    if not args.skip_validate:
        from repro.validate import validate_full, validate_quick  # noqa: E402

        if shards:
            for i, m in shards:
                print(f"equivalence oracle (full, shard {i}/{m}) ...", flush=True)
                report = validate_full(
                    progress=lambda line: print(f"  {line}"), shard=(i, m)
                )
                print(f"  {report.summary().splitlines()[0]}")
                failures.extend(
                    f"EQUIVALENCE[{i}/{m}] {v}" for v in report.violations
                )
        else:
            print("equivalence oracle (quick) ...", flush=True)
            report = validate_quick()
            print(f"  {report.summary().splitlines()[0]}")
            failures.extend(
                f"EQUIVALENCE {v}" for v in report.violations
            )

    if failures and not args.update_baseline:
        # A regressing run must not stamp its own numbers as the next
        # baseline — the gate would fire exactly once and then go blind.
        print("\n".join(["", "REGRESSION DETECTED (baseline left untouched):"]
                        + failures))
        return 1

    BENCH_OUT = BASELINE_PATH
    BENCH_OUT.write_text(json.dumps(fresh, indent=2) + "\n")
    print(f"wrote {BENCH_OUT.relative_to(ROOT)}")

    if failures:
        print("\n".join(["", "REGRESSION DETECTED:"] + failures))
        return 1
    print("no regression vs baseline" if baseline is not None else "baseline created")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
