"""The influence-query serving layer: freeze once, serve forever.

RRR sampling dominates IMM cost (the paper's premise); a production
service answering many queries — different ``k``, eps-tightening,
what-if seed sets — should pay it once.  This subpackage provides:

* :class:`FrozenRRRIndex` — the durable RRR store the checkpoint spill
  also uses (:mod:`repro.sampling.store`), as a versioned,
  memory-mappable index with a stream-fingerprint integrity seal and a
  graph fingerprint binding it to its instance
  (:mod:`repro.serving.frozen`).
* :class:`InfluenceQueryEngine` — ``top_k`` / ``marginal_gain`` /
  ``what_if`` / ``tighten`` served from the mapped bytes, bit-identical
  to a fresh ``imm()`` run by running the same θ doubling search and
  greedy kernel over index prefixes (:mod:`repro.serving.query`).
* :class:`IndexCache` — a concurrency-safe LRU of open
  per-``(graph, model, eps)`` indices with refcounted leases
  (:mod:`repro.serving.cache`).
* :class:`ServingFrontend` — the traffic-hardened asyncio front end:
  bounded admission with typed load-shedding, query coalescing, a
  single-writer extension bulkhead behind a circuit breaker, and
  deadline-bounded degradation into honest
  :class:`DegradedServingResult` answers
  (:mod:`repro.serving.frontend`).
* :class:`ClusterRouter` — the replicated serving cluster: consistent-
  hash routing over N front-end replicas, health-checked failover,
  tail-latency hedging for reads, single-writer routing for extension
  traffic, and typed stale-prefix degradation when every replica is
  down (:mod:`repro.serving.cluster`).

CLI: ``repro-imm freeze`` / ``repro-imm query`` / ``repro-imm serve``
(``--replicas N`` switches the serve driver onto the cluster router).
"""

from .cache import IndexCache
from .cluster import ClusterRouter, ClusterStats, ReplicaUnreachableError
from .errors import (
    AdmissionRejected,
    ClusterUnavailable,
    ExtensionFailedError,
    QueryDeadlineExceeded,
    ServingFrontendError,
)
from ..imm.theta import shrink_epsilon
from .frontend import CircuitBreaker, FrontendStats, ServingFrontend, ewma_update
from .frozen import (
    FrozenCollectionView,
    FrozenIndexError,
    FrozenRRRIndex,
    StaleIndexError,
    UnknownLayoutError,
    graph_fingerprint,
)
from .query import (
    DegradedServingResult,
    InfluenceQueryEngine,
    MarginalGains,
    ServingResult,
    freeze_index,
)

__all__ = [
    "FrozenRRRIndex",
    "FrozenCollectionView",
    "FrozenIndexError",
    "StaleIndexError",
    "UnknownLayoutError",
    "graph_fingerprint",
    "InfluenceQueryEngine",
    "ServingResult",
    "MarginalGains",
    "freeze_index",
    "IndexCache",
    "ServingFrontend",
    "DegradedServingResult",
    "CircuitBreaker",
    "FrontendStats",
    "shrink_epsilon",
    "ewma_update",
    "ClusterRouter",
    "ClusterStats",
    "ReplicaUnreachableError",
    "ServingFrontendError",
    "AdmissionRejected",
    "QueryDeadlineExceeded",
    "ExtensionFailedError",
    "ClusterUnavailable",
]
