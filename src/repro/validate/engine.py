"""Equivalence checks for the process-pool sampling engine.

The parallel engine's whole value proposition is the determinism
contract: for any worker count, chunk size, arena sizing, and start
method it must produce the **bit-identical** collection (and per-sample
edge meters) that the serial and batched engines produce.  This module
states that contract as oracle checks:

``engine.collection-bitwise``
    flat vertex buffer and sample boundaries equal the batched
    reference's, byte for byte;
``engine.per-sample-edges``
    the examined-edge meter of every sample matches (the cost models
    consume these, so a silent disagreement would skew modeled time);
``engine.count-partitioned``
    the counting kernel equals ``np.bincount`` exactly — including the
    fused-counter merge path, which is why this check runs right after
    a drive that left the fused books balanced;
``engine.arena-growth``
    a deliberately tiny first output-arena segment must trigger the
    growable-segment escape hatch (≥ 2 segments) while staying
    bit-identical — growth is a capacity event, never a data event.

A drive that *raises* is itself a violation, not a crash of the
checker: a corrupted arena extent can surface as a landing-time
``ValueError`` (the collection's invariants reject the stitched views)
rather than as silently wrong bytes, and the oracle must treat both
the same way.

The checker accepts a pre-built engine (``engine=``) so the mutation
suite can hand it one with a deliberately broken seam — its block
planner, or the pool task its workers run — and demand these checks
light up, proving the oracle would catch a real landing-order,
stream-offset, extent-overlap, or fused-undercount bug, not just
asserting the healthy path.
"""

from __future__ import annotations

import numpy as np

from ..rng import sample_stream
from ..sampling import BatchedRRRSampler, RRRSampler, SampleBatch, SortedRRRCollection
from ..sampling.parallel_engine import ParallelSamplingEngine
from .report import ValidationReport

__all__ = ["check_engine_sampling", "serial_sample_batch"]


def serial_sample_batch(
    graph, model: str, collection, target: int, seed: int, sampler: RRRSampler | None = None
) -> SampleBatch:
    """The reference ``sample_batch``: one :meth:`RRRSampler.generate` per
    sample, which every batch engine must match bit for bit."""
    sampler = sampler or RRRSampler(graph, model)
    first = len(collection)
    count = max(0, target - first)
    per_sample = np.zeros(count, dtype=np.int64)
    for i in range(count):
        rng = sample_stream(seed, first + i)
        verts, per_sample[i] = sampler.generate(rng.randint(0, graph.n), rng)
        collection.append(verts)
    return SampleBatch(first, count, int(per_sample.sum()), per_sample)


def check_engine_sampling(
    graph,
    model: str,
    theta: int,
    seed: int,
    subject: str,
    *,
    workers: tuple[int, ...] = (1, 2, 4),
    chunk_sizes: tuple[int | None, ...] = (None,),
    engine: ParallelSamplingEngine | None = None,
) -> ValidationReport:
    """Engine output must be bit-identical to the batched sampler's.

    One engine per worker count is constructed (pool + shared CSR paid
    once) and every chunk size is driven through it via the per-call
    ``chunk_size`` override; a final tiny-arena engine exercises the
    growable-segment axis.  When ``engine`` is given, only that engine
    is exercised (the mutation-suite path).
    """
    rep = ValidationReport()
    indices = np.arange(theta, dtype=np.int64)
    ref_coll = SortedRRRCollection(graph.n)
    ref_edges = BatchedRRRSampler(graph, model).sample_into(ref_coll, indices, seed)
    ref_flat, ref_indptr = ref_coll.flattened()
    ref_counts = np.bincount(ref_flat, minlength=graph.n)

    def drive(eng: ParallelSamplingEngine, w) -> None:
        first = True
        for chunk in chunk_sizes:
            sub = f"{subject} engine[workers={w}, chunk={chunk}]"
            try:
                coll = SortedRRRCollection(graph.n)
                edges = eng.sample_into(coll, indices, seed, chunk_size=chunk)
                flat, indptr = coll.flattened()
                ok_coll = bool(np.array_equal(flat, ref_flat)) and bool(
                    np.array_equal(indptr, ref_indptr)
                )
                ok_edges = bool(np.array_equal(edges, ref_edges))
                coll_why = (
                    "process-pool collection is not bit-identical to the "
                    "batched engine's (landing order, stream addressing, or "
                    "arena extent stitching is broken)"
                )
                edges_why = (
                    "per-sample examined-edge meters disagree with the "
                    "batched engine's"
                )
            except Exception as exc:
                ok_coll = ok_edges = False
                coll_why = edges_why = (
                    f"engine raised {type(exc).__name__} mid-drive instead "
                    f"of landing the run: {exc}"
                )
            rep.check(ok_coll, "engine.collection-bitwise", sub, coll_why)
            rep.check(ok_edges, "engine.per-sample-edges", sub, edges_why)
            if first:
                # Right after the first drive the fused books balance
                # (every incidence came from a fused block of this
                # epoch), so this exercises the fused merge path; later
                # drives cover the same kernel from a fresh epoch.
                first = False
                _check_counts(eng, w)

    def _check_counts(eng: ParallelSamplingEngine, w) -> None:
        sub = f"{subject} engine[workers={w}]"
        try:
            ok = bool(
                np.array_equal(eng.count_partitioned(ref_flat, graph.n), ref_counts)
            )
            why = "count_partitioned disagrees with np.bincount"
        except Exception as exc:
            ok = False
            why = f"count_partitioned raised {type(exc).__name__}: {exc}"
        rep.check(ok, "engine.count-partitioned", sub, why)

    if engine is not None:
        drive(engine, engine.workers)
        return rep
    for w in workers:
        with ParallelSamplingEngine(graph, model, workers=w) as eng:
            drive(eng, w)
    # Growth axis: a 4 KiB first segment cannot hold a θ-sized run, so
    # the engine must allocate follow-on segments — and the bytes must
    # not care.
    grow_workers = max(w for w in workers) if workers else 2
    if grow_workers > 1:
        with ParallelSamplingEngine(
            graph, model, workers=min(2, grow_workers), arena_bytes=4096
        ) as eng:
            drive(eng, f"{eng.workers}, arena=4KiB")
            rep.check(
                eng.stats.arena_segments >= 2,
                "engine.arena-growth",
                f"{subject} engine[arena=4KiB]",
                f"tiny first arena segment did not grow "
                f"(segments={eng.stats.arena_segments}); the growable-"
                "segment escape hatch is dead code",
            )
    return rep
