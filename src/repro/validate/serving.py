"""Serving-layer oracle: frozen-index answers must equal fresh ``imm()``.

The serving layer's promise is sharper than "the cached answer is
close": because sample ``j`` is a pure function of ``(graph, model,
seed, j)`` and the query engine replays the θ-estimation control flow
over index prefixes, a frozen index must answer **bit-identically** to a
fresh ``imm()`` run for *any* ``(k, eps)`` — and must do so without
touching a single graph edge when the query fits inside the index.
Axes, one per checked claim:

* **freeze** — the facts recorded at freeze time (seeds, θ, coverage
  history) equal the fresh run's.
* **serve** — ``top_k`` at the frozen ``(k, eps)`` and at alternate
  ``k`` values is bit-identical to fresh ``imm``, with the edge meter
  asserting zero resampling (``serving.no-resample``).
* **tighten** — ``tighten(eps')`` equals a fresh run at ``eps'``, reuses
  every previously landed sample, and leaves the sealed prefix
  byte-for-byte untouched.
* **promote** — a checkpoint run directory (torn tail included) promoted
  via ``FrozenRRRIndex.freeze(run_dir)`` serves the same answers, with
  the missing θ tail extended through the deterministic streams —
  verified bitwise against a from-scratch serial reference
  (:func:`check_index_bitwise`, the detector the
  tighten-wrong-stream-offset mutant must trip).
* **binding** — the graph fingerprint pins the index to its instance:
  :func:`check_index_graph_binding` (the detector the stale-index
  mutant must trip) plus ``open(graph=modified)`` raising
  :class:`~repro.serving.frozen.StaleIndexError`.
* **cache** — the per-``(graph, model, eps)`` LRU actually bounds open
  indices and serves hits.
* **layout** — a manifest naming any layout but ``"flat"`` (one from
  the future, or the retired ``"compressed"`` section) raises
  :class:`~repro.serving.frozen.UnknownLayoutError` at open (typed,
  distinct from stale-graph refusal), never a misread.
* **durability** — every durable write of the checkpoint and the index,
  made to raise in turn, leaves the old or the new sealed state
  (:func:`~repro.validate.durability.check_crash_points`).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from ..graph import CSRGraph
from ..imm import imm
from ..sampling import BlockCheckpointSink, SortedRRRCollection, sample_batch
from ..sampling.store import FILES
from ..serving import (
    FrozenRRRIndex,
    IndexCache,
    InfluenceQueryEngine,
    StaleIndexError,
    UnknownLayoutError,
    freeze_index,
    graph_fingerprint,
)
from .durability import check_crash_points
from .engine import serial_sample_batch
from .report import ValidationReport

__all__ = [
    "check_serving_equivalence",
    "check_index_graph_binding",
    "check_index_bitwise",
]


def check_index_graph_binding(index, graph, subject: str) -> ValidationReport:
    """The index must be bound to exactly the graph being served.

    This is the detector for the stale-index-served-after-graph-change
    fault class: a serving path that skips fingerprint verification
    passes a mutated graph straight through, and this check must flag
    the mismatch.
    """
    rep = ValidationReport()
    frozen_fp = index.manifest.get("graph_fingerprint")
    live_fp = graph_fingerprint(graph)
    rep.check(
        frozen_fp is not None and frozen_fp == live_fp,
        "serving.graph-binding",
        subject,
        f"index frozen against graph "
        f"{frozen_fp[:12] + '…' if frozen_fp else '<unbound>'}, the live "
        f"graph is {live_fp[:12]}… — a stale index is being served after "
        "a graph change",
    )
    return rep


def check_index_bitwise(index, graph, model: str, subject: str) -> ValidationReport:
    """Every frozen byte must equal the from-scratch serial reference.

    The determinism contract makes the whole index a pure function of
    ``(graph, model, seed, num_samples)``; any serving-time extension
    that drew from a wrong stream offset (the
    tighten-reuses-wrong-stream-offset fault class) diverges here.
    """
    rep = ValidationReport()
    ref = SortedRRRCollection(graph.n)
    serial_sample_batch(graph, model, ref, index.num_samples, index.seed)
    ref_flat, ref_indptr = ref.flattened()
    flat, indptr = index.rows()
    rep.check(
        bool(
            np.array_equal(np.asarray(flat), ref_flat)
            and np.array_equal(indptr, ref_indptr)
        ),
        "serving.extension-bitwise",
        subject,
        f"frozen index bytes diverge from the serial reference for the "
        f"same (graph, model, seed) over [0, {index.num_samples}) — an "
        "extension drew from the wrong stream offset",
    )
    return rep


def _perturbed(graph) -> CSRGraph:
    """The same topology with every activation probability nudged —
    a graph change the fingerprint must catch."""
    return CSRGraph(
        graph.n,
        graph.out_indptr, graph.out_indices, graph.out_probs * 0.5,
        graph.in_indptr, graph.in_indices, graph.in_probs * 0.5,
    )


def _same_run(res, ref, history: bool = True) -> tuple[bool, str]:
    """Whether a served answer is a fresh run's: seeds, θ and (with
    ``history``) the coverage history; and what differs if not."""
    same = bool(np.array_equal(res.seeds, ref.seeds)) and res.theta == ref.theta
    same = same and (not history or res.coverage_history == ref.extra["coverage_history"])
    return same, (
        f"seed sets diverge: {np.asarray(res.seeds).tolist()} vs "
        f"{np.asarray(ref.seeds).tolist()}; theta {res.theta} vs {ref.theta}"
    )


def check_serving_equivalence(
    graph, model: str, cfg, subject: str
) -> ValidationReport:
    """Freeze / serve / tighten / promote / binding / cache / layout /
    durability on one graph × model."""
    rep = ValidationReport()
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap
    fresh = imm(graph, k, eps, model, seed=seed, layout="sorted", theta_cap=cap)

    with tempfile.TemporaryDirectory(prefix="repro-oracle-serve-") as td:
        td = Path(td)

        # -- freeze: recorded facts equal the fresh run ------------------
        index, fres = freeze_index(
            graph, k, eps, model, seed, theta_cap=cap, out_dir=td / "index"
        )
        index.close()
        same, why = _same_run(fres, fresh)
        rep.check(same, "serving.freeze-seed-set", subject, why)

        # -- serve: zero-copy reopen, bit-identical, zero resampling -----
        index = FrozenRRRIndex.open(td / "index", graph=graph)
        rep.merge(check_index_graph_binding(index, graph, subject))
        eng = InfluenceQueryEngine(index, graph=graph)
        res = eng.top_k()
        sub = f"{subject} serve[k={k}]"
        same, why = _same_run(res, fresh, history=False)
        rep.check(same, "serving.seed-set", sub, why)
        rep.check(
            res.coverage_history == fresh.extra["coverage_history"],
            "serving.coverage-history",
            sub,
            f"per-round (theta_x, frac) diverges: {res.coverage_history} "
            f"vs {fresh.extra['coverage_history']}",
        )
        rep.check(
            res.samples_added == 0 and res.edges_examined == 0,
            "serving.no-resample",
            sub,
            f"in-index query resampled: {res.samples_added} samples added, "
            f"{res.edges_examined} edges examined",
        )

        # -- serve at other k values (θ saturates at the cap, so these
        #    must also come entirely from the index) ---------------------
        for k2 in (max(1, k // 2), k + 2):
            fresh2 = imm(
                graph, k2, eps, model, seed=seed, layout="sorted", theta_cap=cap
            )
            r2 = eng.top_k(k2)
            sub2 = f"{subject} serve[k={k2}]"
            same, why = _same_run(r2, fresh2)
            rep.check(same, "serving.seed-set", sub2, why)
            rep.check(
                r2.samples_added == 0 and r2.edges_examined == 0,
                "serving.no-resample",
                sub2,
                f"cross-k query resampled: {r2.samples_added} samples "
                f"added, {r2.edges_examined} edges examined",
            )

        # -- tighten: equal to a fresh eps' run, prefix untouched --------
        eps2 = eps * 0.8
        before = index.num_samples
        flat_before = np.asarray(index.rows()[0]).copy()
        fresh3 = imm(graph, k, eps2, model, seed=seed, layout="sorted", theta_cap=cap)
        r3 = eng.tighten(eps2)
        sub3 = f"{subject} tighten[eps={eps2:g}]"
        same, why = _same_run(r3, fresh3)
        rep.check(same, "serving.tighten-seed-set", sub3, why)
        rep.check(
            r3.samples_reused == min(before, r3.num_samples_used)
            and index.num_samples >= before,
            "serving.tighten-reuse",
            sub3,
            f"tighten reused {r3.samples_reused} of the {before} frozen "
            f"samples (used {r3.num_samples_used}) — landed samples must "
            "never be resampled",
        )
        flat_now, _ = index.rows()
        rep.check(
            bool(np.array_equal(np.asarray(flat_now[: len(flat_before)]), flat_before)),
            "serving.tighten-prefix", sub3, "tighten rewrote bytes inside the sealed prefix",
        )

        # -- promote: checkpoint run dir (torn tail) → index → extend ----
        half = max(1, fresh.num_samples // 2)
        part = SortedRRRCollection(graph.n)
        pbatch = sample_batch(graph, model, part, half, seed)
        pflat, pindptr = part.flattened()
        ck = td / "ck"
        with BlockCheckpointSink(ck, n=graph.n, model=model, seed=seed) as sink:
            sink.append_block(
                np.arange(half, dtype=np.int64),
                pflat, np.diff(pindptr), pbatch.per_sample_edges,
            )
        with open(ck / FILES[0], "ab") as fh:
            fh.write(b"\x7f" * 7)  # torn tail beyond the cursor
        pidx = FrozenRRRIndex.freeze(
            ck, td / "promoted",
            graph=graph, model=model, seed=seed, k=k, eps=eps, theta_cap=cap,
        )
        rep.check(
            pidx.num_samples == half,
            "serving.promote-cursor",
            subject,
            f"promotion landed {pidx.num_samples} samples, cursor "
            f"certifies {half} — the torn tail must be ignored",
        )
        peng = InfluenceQueryEngine(pidx, graph=graph)
        pres = peng.top_k()
        subp = f"{subject} promote[{half}/{fresh.num_samples}]"
        same, why = _same_run(pres, fresh, history=False)
        rep.check(same, "serving.promote-seed-set", subp, why)
        rep.check(
            pres.samples_added == pres.num_samples_used - half
            and pres.samples_reused == half
            and pres.edges_examined > 0,
            "serving.promote-extends",
            subp,
            f"promoted partial index should extend {half} → "
            f"{pres.num_samples_used} via the deterministic streams; "
            f"added {pres.samples_added}, reused {pres.samples_reused}",
        )
        rep.merge(check_index_bitwise(pidx, graph, model, subp))

        # -- binding: a mutated graph must be refused at open ------------
        modified = _perturbed(graph)
        try:
            FrozenRRRIndex.open(td / "index", graph=modified)
            raised = False
        except StaleIndexError:
            raised = True
        rep.check(
            raised,
            "serving.stale-open-raises",
            subject,
            "open(graph=modified) served a stale index instead of raising "
            "StaleIndexError",
        )

        # -- cache: the LRU bounds open indices and serves hits ----------
        cache = IndexCache(capacity=1)
        try:
            cache.engine(td / "index", graph=graph)
            cache.engine(td / "promoted", graph=graph)
            cache.engine(td / "index", graph=graph)
            cache.engine(td / "index", graph=graph)
            rep.check(
                len(cache) == 1
                and cache.evictions == 2
                and cache.hits == 1
                and cache.misses == 3,
                "serving.cache-lru",
                subject,
                f"capacity-1 LRU books are wrong: size {len(cache)}, "
                f"evictions {cache.evictions}, hits {cache.hits}, "
                f"misses {cache.misses}",
            )
        finally:
            cache.close()
        index.close()
        pidx.close()

        # -- layout: any layout but flat is refused, typed ---------------
        mpath = td / "index" / "INDEX.json"
        doctored = json.loads(mpath.read_text())
        for layout in ("from-the-future", "compressed"):
            doctored["layout"] = layout
            mpath.write_text(json.dumps(doctored))
            try:
                FrozenRRRIndex.open(td / "index")
                raised = False
            except UnknownLayoutError:
                raised = True
            except StaleIndexError:
                raised = False
            rep.check(
                raised,
                "serving.unknown-layout",
                f"{subject} layout={layout}",
                f"open() of a {layout!r}-layout index must raise "
                "UnknownLayoutError (not StaleIndexError, not a misread)",
            )
    rep.merge(check_crash_points(graph, model, cfg, subject))
    return rep
