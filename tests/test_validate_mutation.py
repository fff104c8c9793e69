"""Tests for the mutation suite (repro.validate.mutation).

Every deliberately injected fault must be *killed* — a surviving mutant
means the oracle would wave through the corresponding real bug.
"""

import importlib
from pathlib import Path

import pytest

from repro.sampling import ParallelSamplingEngine, batched
from repro.sampling.store import RRRStore
from repro.sampling.supervisor import SupervisedSamplingEngine
from repro.serving import ClusterRouter, IndexCache, InfluenceQueryEngine, ServingFrontend
from repro.validate import SMOKE_MUTANTS, MutantResult, run_mutation_suite

# The two engine mutants spin real process pools; the conftest watchdog
# turns a wedged pool into a failure instead of a hung suite.
pytestmark = pytest.mark.parallel

EXPECTED_MUTANTS = {
    "unsorted-sample",
    "within-sample-duplicate",
    "indptr-corruption",
    "hit-index-keys-misfolded",
    "byte-model-drift",
    "inverted-index-drop",
    "skipped-decrement",
    "spmd-decrement-not-reduced",
    "biased-rng",
    "coin-candidate-bound-too-tight",
    "recovery-skips-sample",
    "wrong-stream-replay",
    "double-count-after-shrink",
    "worker-reorders-cohort-landing",
    "worker-uses-wrong-stream-offset",
    "worker-writes-overlapping-arena-extent",
    "replay-lands-block-twice",
    "resume-skips-cursor",
    "speculative-result-raced-in-wrong-order",
    "stale-index-served-after-graph-change",
    "tighten-reuses-wrong-stream-offset",
    "refreeze-renames-data-before-manifest",
    "extend-commits-manifest-before-data",
    "degraded-result-reports-full-epsilon",
    "breaker-open-still-extends",
    "memo-survives-republish",
    "identity-memo-ignores-republish",
    "cluster-unavailable-served-as-fresh",
    "failover-double-dispatches-extension",
}


#: The seams the mutants patch for the length of a run.
SEAMS = (
    (ServingFrontend, "_degrade"),
    (ServingFrontend, "_breaker_allows"),
    (ClusterRouter, "_degrade_local"),
    (ClusterRouter, "_write"),
    (InfluenceQueryEngine, "__init__"),
    (IndexCache, "_lookup"),
    (ParallelSamplingEngine, "_plan"),
    (ParallelSamplingEngine, "_block_task"),
    (SupervisedSamplingEngine, "_land"),
    (SupervisedSamplingEngine, "_open_run"),
    (batched, "candidate_bound"),
    (RRRStore, "_commit"),
)


class TestMutationSuite:
    def test_every_mutant_is_killed(self):
        before = [vars(owner)[name] for owner, name in SEAMS]
        results = run_mutation_suite(seed=1)
        survivors = [r.name for r in results if not r.detected]
        assert survivors == [], f"oracle blind spots: {survivors}"
        # Every patched seam is back to the shipping code afterwards (the
        # raw class attribute: a staticmethod must come back as one).
        assert [vars(owner)[name] for owner, name in SEAMS] == before

    @pytest.mark.parametrize("package", ["repro.serving", "repro.sampling"])
    def test_ships_no_mutation_hooks(self, package):
        root = Path(importlib.import_module(package).__file__).parent
        hooked = [
            p.name
            for p in root.glob("*.py")
            if any(hook in p.read_text() for hook in ("_mutate_", "_crash_block", "_counter_rows"))
        ]
        assert hooked == []

    def test_all_fault_classes_covered(self):
        names = {r.name for r in run_mutation_suite(seed=1)}
        assert names == EXPECTED_MUTANTS

    def test_killed_at_other_seeds(self):
        # The detectors must not depend on a lucky draw.
        for seed in (2, 17):
            assert all(r.detected for r in run_mutation_suite(seed=seed))

    def test_names_filter(self):
        results = run_mutation_suite(seed=1, names=("biased-rng",))
        assert [r.name for r in results] == ["biased-rng"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown mutants"):
            run_mutation_suite(names=("not-a-mutant",))

    def test_smoke_subset_valid_and_killed(self):
        assert set(SMOKE_MUTANTS) <= EXPECTED_MUTANTS
        # all three recovery fault classes stay in the cheap CI set
        assert {
            "recovery-skips-sample",
            "wrong-stream-replay",
            "double-count-after-shrink",
        } <= set(SMOKE_MUTANTS)
        assert all(r.detected for r in run_mutation_suite(names=SMOKE_MUTANTS))

    def test_result_rendering(self):
        killed = MutantResult("x", "fault", True, "flagged")
        survived = MutantResult("y", "fault", False, "stayed green")
        assert "KILLED" in str(killed)
        assert "SURVIVED" in str(survived)
