"""``repro.validate``: runtime invariants + the cross-implementation oracle.

The correctness backstop every perf PR runs against.  Three entry
points, mirrored by the ``repro-imm validate`` CLI subcommand:

* :func:`validate_quick` — seconds-scale sweep (two registry graphs,
  reduced axes) plus the RNG partition laws; wired into
  ``benchmarks/regress.py`` so equivalence regressions fail the same
  gate as throughput regressions.
* :func:`validate_full` — the acceptance sweep: every registry graph ×
  {IC, LT} × {``imm``, ``imm_mt``, ``imm_dist``} × both storage
  layouts × cohort sizes {1, 7, 64, θ} × rank counts {1, 2, 5} × both
  RNG schemes, plus structural invariants and work-meter conservation.
  The replicated serving cluster runs as its own sharded subject
  bucket, so ``--shard i/m`` distributes it across CI jobs.
* :func:`run_mutation_suite` — injects one deliberate fault per known
  failure class and demands the oracle kill each mutant.

All checkers are importable individually for targeted tests (see
``tests/test_validate_*.py``).
"""

from __future__ import annotations

from .cluster import check_cluster_equivalence
from .engine import check_engine_sampling
from .frontend import check_frontend_equivalence
from .invariants import (
    check_collection,
    check_hypergraph_collection,
    check_sorted_collection,
)
from .mutation import SMOKE_MUTANTS, MutantResult, run_mutation_suite
from .oracle import (
    OracleConfig,
    check_graph_equivalence,
    check_selection_meters,
    full_config,
    quick_config,
    run_oracle,
)
from .recovery import (
    check_community_driver,
    check_degraded_accounting,
    check_partitioned_equivalence,
    check_rebuild_fidelity,
    check_recovery_equivalence,
)
from .report import ValidationReport, Violation
from .rnglaws import check_counter_streams, check_leapfrog_tiling, check_rng_laws
from .serving import (
    check_index_bitwise,
    check_index_graph_binding,
    check_serving_equivalence,
)
from .supervision import check_supervised_equivalence, check_supervised_sampling

__all__ = [
    "Violation",
    "ValidationReport",
    "check_collection",
    "check_sorted_collection",
    "check_hypergraph_collection",
    "check_leapfrog_tiling",
    "check_counter_streams",
    "check_rng_laws",
    "OracleConfig",
    "quick_config",
    "full_config",
    "check_graph_equivalence",
    "check_engine_sampling",
    "check_selection_meters",
    "run_oracle",
    "check_recovery_equivalence",
    "check_degraded_accounting",
    "check_rebuild_fidelity",
    "check_partitioned_equivalence",
    "check_community_driver",
    "check_supervised_equivalence",
    "check_supervised_sampling",
    "check_serving_equivalence",
    "check_index_graph_binding",
    "check_index_bitwise",
    "check_frontend_equivalence",
    "check_cluster_equivalence",
    "MutantResult",
    "run_mutation_suite",
    "SMOKE_MUTANTS",
    "validate_quick",
    "validate_full",
]


def validate_quick(*, progress=None) -> ValidationReport:
    """The fast sweep (CI gate)."""
    return run_oracle(quick_config(), progress=progress)


def validate_full(*, progress=None, shard=None) -> ValidationReport:
    """The full acceptance sweep over every registry graph.

    Pass ``shard=(i, m)`` (1-based) to run the ``i``-th of ``m``
    interleaved subject slices — used by CI to keep each job under the
    one-minute budget.
    """
    return run_oracle(full_config(), progress=progress, shard=shard)
