"""Batch RRR sampling: the ``Sample`` function of Algorithm 3.

``Sample(G, theta, R)`` extends the collection ``R`` until it holds
``theta`` samples.  Sample ``j`` (global index, counted across the whole
run) draws its source vertex and all of its traversal randomness from
the dedicated stream ``sample_stream(seed, j)``, so the content of ``R``
is a pure function of ``(graph, model, seed, theta)`` — independent of
batching, thread count, or rank assignment.  This is the discipline that
lets the parallel implementations produce bit-identical seed sets (the
paper relies on leap-frog streams for the same guarantee; we test both).

The new samples come from the sampler's ``sample_into``: by default a
fresh :class:`~repro.sampling.batched.BatchedRRRSampler`, which
generates them as fused multi-source traversals, or a caller's pre-built
:class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`, which
fans blocks of the same global indices out to a process pool over a
shared-memory CSR.  Both produce bit-identical collections (their
determinism contracts); the per-sample serial loop they are checked
against lives in :mod:`repro.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from .batched import BatchedRRRSampler
from .collection import RRRCollection
from .parallel_engine import ParallelSamplingEngine

__all__ = ["sample_batch", "SampleBatch"]


@dataclass
class SampleBatch:
    """Work metering for one ``Sample`` invocation.

    Attributes
    ----------
    first_index, count:
        The global sample indices generated: ``[first_index,
        first_index + count)``.
    edges_examined:
        Total in-edges examined across the batch (the sampling phase's
        work measure; the cost models convert it to simulated seconds).
    per_sample_edges:
        Edge count of each sample, used by the shared-memory simulator to
        compute per-thread makespans under block partitioning.  The
        batched engine meters these from the fused traversal, so the
        per-sample work distribution is identical to the serial loop's.
    """

    first_index: int
    count: int
    edges_examined: int = 0
    per_sample_edges: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


def sample_batch(
    graph: CSRGraph,
    model: DiffusionModel | str,
    collection: RRRCollection,
    target: int,
    seed: int,
    *,
    sampler: BatchedRRRSampler | ParallelSamplingEngine | None = None,
) -> SampleBatch:
    """Grow ``collection`` to ``target`` samples (Algorithm 3).

    Parameters
    ----------
    graph, model:
        The input graph and diffusion model.
    collection:
        Destination; ``len(collection)`` is the number of samples already
        generated (``theta - |R|`` new ones are produced, as in
        Algorithm 1's second ``Sample`` call).
    target:
        Desired total number of samples; no-op if already reached.
    seed:
        Master seed of the run (not of the batch).
    sampler:
        Optional pre-built sampler reused across invocations: a
        :class:`~repro.sampling.batched.BatchedRRRSampler` or a
        :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`
        (its pool outlives any single batch).  Defaults to a fresh
        batched sampler.  One without ``sample_into`` (the per-sample
        :class:`~repro.sampling.rrr.RRRSampler`) raises ``TypeError``.

    Returns
    -------
    :class:`SampleBatch` describing the work done.
    """
    if target < 0:
        raise ValueError("target sample count must be non-negative")
    if sampler is not None and not hasattr(sampler, "sample_into"):
        raise TypeError(
            f"{type(sampler).__name__} has no sample_into method; pass a "
            "BatchedRRRSampler or a ParallelSamplingEngine"
        )
    first = len(collection)
    count = max(0, target - first)
    if count == 0:
        return SampleBatch(first_index=first, count=0)
    if sampler is None:
        sampler = BatchedRRRSampler(graph, model)
    indices = np.arange(first, first + count, dtype=np.int64)
    per_sample = sampler.sample_into(collection, indices, seed)
    return SampleBatch(
        first_index=first,
        count=count,
        edges_examined=int(per_sample.sum()),
        per_sample_edges=per_sample,
    )
