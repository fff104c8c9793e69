"""Random Reverse Reachable (RRR) set sampling and storage.

This subpackage implements Algorithm 3 of the paper and the data-layout
contribution of Section 3.1:

* :func:`generate_rr` / :class:`RRRSampler` — the ``GenerateRR`` kernel:
  a probabilistic BFS over *incoming* edges from a random source vertex,
  sampling each edge lazily instead of materializing the subgraph ``g``.
  The traversal differs per diffusion model: IC explores every in-edge
  independently; LT follows at most one in-edge per vertex (which is why
  LT RRR sets are much smaller — the effect behind Figures 5 vs 6).

* :class:`BatchedRRRSampler` — the cohort engine: a whole batch of RRR
  sets generated as one fused multi-source traversal (level-synchronous
  reverse BFS for IC, lockstep reverse walks for LT), bit-identical to
  the serial sampler under the determinism contract documented in
  :mod:`repro.sampling.batched` and several times faster because NumPy
  dispatch overhead is amortized across the cohort.

* :class:`SortedRRRCollection` — the paper's optimized one-directional
  layout (IMM\\ :sup:`OPT`): each sample stored once as a vertex list
  sorted by id, enabling contiguous counting and binary-searched interval
  scans during seed selection.

* :class:`HypergraphRRRCollection` — the reference layout of Tang et
  al.'s implementation: every (sample, vertex) incidence stored twice
  (hyperedge list + per-vertex membership index), faster for seed
  removal but ~2x the memory (the Table 2 comparison).

* :mod:`~repro.sampling.store` — the sorted layout on disk, with one
  append path committed by one certificate rename: the checkpoint spill
  (:class:`BlockCheckpointSink`) and the serving layer's frozen index.
"""

from .batched import BatchedRRRSampler
from .checkpoint import BlockCheckpointSink, CheckpointError
from .collection import HypergraphRRRCollection, RRRCollection, SortedRRRCollection
from .parallel_engine import (
    EngineProtocolError,
    EngineStats,
    ParallelEngineError,
    ParallelSamplingEngine,
    WorkerCrashError,
)
from .rrr import RRRSampler, generate_rr, in_edge_cumweights
from .sampler import SampleBatch, sample_batch
from .supervisor import (
    CrashBudgetExhaustedError,
    DeadlineExceededError,
    SupervisedSamplingEngine,
    SupervisorStats,
)

__all__ = [
    "generate_rr",
    "RRRSampler",
    "BatchedRRRSampler",
    "ParallelSamplingEngine",
    "SupervisedSamplingEngine",
    "ParallelEngineError",
    "WorkerCrashError",
    "EngineProtocolError",
    "EngineStats",
    "SupervisorStats",
    "CrashBudgetExhaustedError",
    "DeadlineExceededError",
    "BlockCheckpointSink",
    "CheckpointError",
    "RRRCollection",
    "SortedRRRCollection",
    "HypergraphRRRCollection",
    "sample_batch",
    "SampleBatch",
    "in_edge_cumweights",
]
