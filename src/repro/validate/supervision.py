"""Supervised-engine oracle: self-healing must not change a single bit.

The supervisor's promise is stronger than "it recovers": every recovery
mechanism — crash replay, spare promotion, straggler speculation,
checkpoint/resume — must reproduce the *exact* bytes the unsupervised
serial run produces, because the per-sample counter streams make the
output a pure function of ``(graph, model, seed, index)``.  This module
turns that promise into checked claims, one per axis:

* **crash** — SIGKILLs injected into live worker processes
  (``crash:r@N`` / ``switch:lo-hi@N`` on the real pool) must leave the
  collection bit-identical to serial, and the oracle demands the kill
  actually fired (``injected_crashes >= 1``) so a mis-addressed plan
  cannot vacuously pass.

* **straggler** — an injected in-worker sleep must trigger speculation,
  and the first checksum-valid result landing must keep the bytes
  identical (a speculative copy races the laggard; both compute the
  same block).

* **deadline** — expiry must raise
  :class:`~repro.sampling.supervisor.DeadlineExceededError` (never a
  silent full-θ result), with the landed prefix bit-exact; the ``imm``
  driver must surface it as a flagged
  :class:`~repro.imm.result.DegradedResult` whose effective ε is no
  better than the requested one.

* **resume** — a collection completed from a disk checkpoint written by
  an earlier (partial) run must be bit-identical to sampling from
  scratch, and the prefix must genuinely come from the spill
  (``resumed_samples`` equals the checkpointed sample count).

:func:`check_supervised_sampling` is the primitive the mutation suite
leans on: any supervised engine driven over ``[0, theta)`` must
assemble exactly the serial reference collection.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..imm import imm
from ..sampling import SortedRRRCollection
from ..sampling.supervisor import DeadlineExceededError, SupervisedSamplingEngine
from .engine import serial_sample_batch
from .report import ValidationReport

__all__ = ["check_supervised_sampling", "check_supervised_equivalence"]


def _bitwise_equal(coll, ref) -> bool:
    if len(coll) != len(ref):
        return False
    flat, indptr = coll.flattened()
    ref_flat, ref_indptr = ref.flattened()
    return bool(
        np.array_equal(flat, ref_flat) and np.array_equal(indptr, ref_indptr)
    )


def check_supervised_sampling(
    graph, model: str, theta: int, seed: int, subject: str, *, engine
) -> ValidationReport:
    """Drive ``engine`` over ``[0, theta)``; demand the serial bytes.

    The caller owns the engine (and injects its faults/mutations); this
    is the shared detector for both the oracle axes and the supervisor
    mutants.
    """
    rep = ValidationReport()
    ref = SortedRRRCollection(graph.n)
    ref_batch = serial_sample_batch(graph, model, ref, theta, seed)
    coll = SortedRRRCollection(graph.n)
    per_sample = engine.sample_into(coll, np.arange(theta, dtype=np.int64), seed)
    rep.check(
        _bitwise_equal(coll, ref),
        "supervised.collection-bitwise",
        subject,
        f"supervised collection diverges from the serial reference "
        f"({len(coll)} vs {len(ref)} samples, "
        f"{coll.total_entries} vs {ref.total_entries} entries)",
    )
    rep.check(
        bool(np.array_equal(per_sample, ref_batch.per_sample_edges)),
        "supervised.per-sample-edges",
        subject,
        "supervised engine disagrees with serial on per-sample edge counts",
    )
    return rep


def check_supervised_equivalence(
    graph, model: str, cfg, subject: str
) -> ValidationReport:
    """Crash / straggler / deadline / resume axes on one graph × model."""
    rep = ValidationReport()
    seed, theta = cfg.seed, cfg.theta_cap
    workers = cfg.supervised_workers
    # Small blocks so every axis has enough ordinals to address: the
    # crash plan needs block 2 to exist, speculation needs a service-time
    # history before the straggler block comes up.
    chunk = max(1, theta // 10)

    def engine(**kw) -> SupervisedSamplingEngine:
        return SupervisedSamplingEngine(
            graph, model, workers=workers, chunk_size=chunk,
            backoff_base=0.0, **kw,
        )

    # -- crash: real SIGKILL of one worker, then of a contiguous group ---
    for spec in ("crash:0@2", f"switch:0-{workers - 1}@3"):
        with engine(fault_plan=spec) as eng:
            sub = f"{subject} supervised[{spec}]"
            rep.merge(check_supervised_sampling(
                graph, model, theta, seed, sub, engine=eng,
            ))
            rep.check(
                eng.stats.injected_crashes >= 1 and eng.stats.rebuilds >= 1,
                "supervised.fault-fired",
                sub,
                f"plan {spec!r} injected {eng.stats.injected_crashes} kill(s) "
                f"and caused {eng.stats.rebuilds} rebuild(s) — the fault "
                "never actually fired",
            )

    # -- arena growth under supervision: crash replay into fresh extents -
    # A 4 KiB first output-arena segment forces the growable-segment
    # path while a worker is killed mid-run: replayed blocks must land
    # from freshly reserved extents with the bytes unchanged.
    with SupervisedSamplingEngine(
        graph, model, workers=workers, chunk_size=chunk,
        backoff_base=0.0, arena_bytes=4096, fault_plan="crash:0@2",
    ) as eng:
        sub = f"{subject} supervised[arena=4KiB, crash:0@2]"
        rep.merge(check_supervised_sampling(
            graph, model, theta, seed, sub, engine=eng,
        ))
        rep.check(
            eng.stats.arena_segments >= 2,
            "supervised.arena-growth",
            sub,
            f"tiny first arena segment did not grow under supervision "
            f"(segments={eng.stats.arena_segments})",
        )

    # -- straggler: injected sleep must trigger (winning) speculation ----
    with engine(
        fault_plan="straggler:3x4", straggler_sleep=0.15,
        straggler_floor=0.02, straggler_factor=2.0, straggler_min_history=2,
    ) as eng:
        sub = f"{subject} supervised[straggler:3x4]"
        rep.merge(check_supervised_sampling(
            graph, model, theta, seed, sub, engine=eng,
        ))
        rep.check(
            eng.stats.injected_sleeps >= 1
            and eng.stats.speculative_launched >= 1,
            "supervised.speculation-fired",
            sub,
            f"straggler plan slept {eng.stats.injected_sleeps} block(s) but "
            f"launched {eng.stats.speculative_launched} speculative cop(ies)",
        )

    # -- deadline: expiry raises, never silently reports full θ ----------
    ref = SortedRRRCollection(graph.n)
    serial_sample_batch(graph, model, ref, theta, seed)
    eng = engine(deadline=1e-4)
    try:
        coll = SortedRRRCollection(graph.n)
        raised = False
        try:
            eng.sample_into(coll, np.arange(theta, dtype=np.int64), seed)
        except DeadlineExceededError:
            raised = True
        sub = f"{subject} supervised[deadline]"
        rep.check(
            raised and eng.stats.deadline_expired,
            "supervised.deadline-raises",
            sub,
            f"expired deadline did not raise (raised={raised}, "
            f"flag={eng.stats.deadline_expired}) — silent full-θ result",
        )
        landed = len(coll)
        flat, indptr = coll.flattened()
        ref_flat, ref_indptr = ref.flattened()
        rep.check(
            landed < theta
            and bool(np.array_equal(flat, ref_flat[: len(flat)]))
            and bool(np.array_equal(indptr, ref_indptr[: landed + 1])),
            "supervised.deadline-prefix",
            sub,
            f"degraded run landed {landed}/{theta} samples that are not an "
            "exact prefix of the serial reference",
        )
    finally:
        eng.close()

    # -- checkpoint/resume: disk round-trip must be invisible ------------
    with tempfile.TemporaryDirectory(prefix="repro-oracle-ck-") as td:
        ckdir = Path(td) / "run"
        half = theta // 2
        with engine(checkpoint_dir=ckdir) as eng:
            partial = SortedRRRCollection(graph.n)
            eng.sample_into(partial, np.arange(half, dtype=np.int64), seed)
            written = eng.stats.checkpoint_bytes
        with engine(resume_from=ckdir) as eng:
            sub = f"{subject} supervised[resume]"
            rep.merge(check_supervised_sampling(
                graph, model, theta, seed, sub, engine=eng,
            ))
            rep.check(
                eng.stats.resumed_samples == half and written > 0,
                "supervised.resume-used",
                sub,
                f"expected the {half}-sample prefix from the spill "
                f"({written} bytes on disk), resumed "
                f"{eng.stats.resumed_samples}",
            )

    # -- end-to-end: the imm driver under an injected crash --------------
    k, eps, cap = cfg.k, cfg.eps, cfg.theta_cap
    base = imm(graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap)
    res = imm(
        graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap,
        workers=workers, supervise=True,
        supervisor_opts={
            "fault_plan": "crash:0@2", "chunk_size": chunk, "backoff_base": 0.0,
        },
    )
    sub = f"{subject} imm[supervised, crash:0@2]"
    rep.check(
        bool(np.array_equal(base.seeds, res.seeds))
        and base.theta == res.theta
        and base.extra["coverage_history"] == res.extra["coverage_history"],
        "supervised.driver-seed-set",
        sub,
        f"seed sets diverge: {base.seeds.tolist()} vs {res.seeds.tolist()}; "
        f"theta {base.theta} vs {res.theta}",
    )
    sup = res.extra["supervisor"]
    rep.check(
        sup["injected_crashes"] >= 1 and not res.extra.get("degraded", False),
        "supervised.driver-recovered",
        sub,
        f"driver run injected {sup['injected_crashes']} crash(es), "
        f"degraded={res.extra.get('degraded')}",
    )

    # -- end-to-end: the imm driver degrades honestly on deadline --------
    res = imm(
        graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap,
        workers=workers, supervise=True, supervisor_opts={"deadline": 1e-4},
    )
    sub = f"{subject} imm[supervised, deadline]"
    ex = res.extra
    rep.check(
        ex.get("degraded") is True
        and ex["theta_effective"] == res.num_samples
        and ex["theta_effective"] < base.theta
        and ex["epsilon_effective"] > eps,
        "supervised.driver-degraded",
        sub,
        f"deadline run not honestly degraded: degraded={ex.get('degraded')}, "
        f"theta_effective={ex.get('theta_effective')} vs num_samples="
        f"{res.num_samples} (full theta {base.theta}), "
        f"epsilon_effective={ex.get('epsilon_effective')}",
    )
    return rep
