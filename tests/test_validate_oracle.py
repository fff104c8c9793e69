"""Tests for the equivalence oracle and RNG laws (repro.validate)."""

import dataclasses

import pytest

from repro.datasets import load, names
from repro.validate import (
    OracleConfig,
    check_counter_streams,
    check_graph_equivalence,
    check_leapfrog_tiling,
    check_rng_laws,
    check_selection_meters,
    full_config,
    quick_config,
    run_oracle,
    validate_quick,
)


class TestRngLaws:
    def test_leapfrog_tiling_holds(self):
        rep = check_leapfrog_tiling(seed=7)
        assert rep.ok
        assert rep.checks_run > 0

    def test_counter_streams_hold(self):
        rep = check_counter_streams(seed=7)
        assert rep.ok

    def test_combined_runner(self):
        rep = check_rng_laws(seed=3)
        assert rep.ok
        # runs both laws at two seeds each
        assert rep.checks_run > check_leapfrog_tiling(seed=3).checks_run


class TestConfigs:
    def test_quick_is_subset_of_full(self):
        q, f = quick_config(), full_config()
        assert set(q.datasets) <= set(f.datasets)
        assert set(f.datasets) == set(names())
        assert q.theta_cap <= f.theta_cap

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            quick_config().theta_cap = 1


class TestSelectionMeters:
    def test_sampled_collection_conserves(self, ba_graph):
        from repro.sampling import SortedRRRCollection, sample_batch

        coll = SortedRRRCollection(ba_graph.n)
        sample_batch(ba_graph, "IC", coll, 150, 2)
        rep = check_selection_meters(coll, ba_graph.n, 5, (1, 2, 4), "ba")
        assert rep.ok, rep.summary()


class TestShards:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Run ``run_oracle`` with every checker stubbed, recording the
        ``(dataset, model, axis)`` subjects each call reaches."""
        from repro.validate import oracle
        from repro.validate.report import ValidationReport

        seen = []
        monkeypatch.setattr(oracle, "load", lambda name, model: name)
        monkeypatch.setattr(oracle, "check_rng_laws", lambda seed: ValidationReport())

        def checker(axis):
            def check(graph, model, cfg, subject):
                seen.append((graph, model, axis))
                return ValidationReport()
            return check

        monkeypatch.setattr(oracle, "check_graph_equivalence", checker("core"))
        monkeypatch.setattr(oracle, "check_cluster_equivalence", checker("cluster"))

        def run(shard=None):
            seen.clear()
            run_oracle(full_config(), shard=shard)
            return list(seen)

        return run

    @pytest.mark.parametrize("m", range(1, 6))
    def test_shards_partition_the_sweep(self, recorded, m):
        whole = recorded()
        shards = [recorded((i, m)) for i in range(1, m + 1)]
        assert sorted(s for shard in shards for s in shard) == sorted(whole)
        assert len(whole) == len(set(whole)) == 2 * 2 * len(full_config().datasets)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_every_shard_runs_core_subjects_of_both_models(self, recorded, m):
        for i in range(1, m + 1):
            core_models = {model for _, model, axis in recorded((i, m)) if axis == "core"}
            assert core_models == {"IC", "LT"}, f"shard {i}/{m}"


class TestOracle:
    def test_one_graph_equivalence(self):
        """The core acceptance property on the smallest registry graph,
        with reduced axes so the test stays fast."""
        cfg = OracleConfig(
            datasets=("cit-HepTh",),
            models=("IC",),
            theta_cap=200,
            cohort_sizes=(1, 7),
            rank_counts=(1, 2),
            mt_threads=(2,),
        )
        graph = load("cit-HepTh", "IC")
        rep = check_graph_equivalence(graph, "IC", cfg, "cit-HepTh/IC")
        assert rep.ok, rep.summary()
        assert rep.checks_run > 20

    def test_run_oracle_reports_progress(self):
        cfg = OracleConfig(
            datasets=("cit-HepTh",),
            models=("IC",),
            theta_cap=150,
            cohort_sizes=(1,),
            rank_counts=(1,),
            mt_threads=(1,),
            check_leapfrog=False,
        )
        lines = []
        rep = run_oracle(cfg, progress=lines.append)
        assert rep.ok, rep.summary()
        assert any("rng laws" in line for line in lines)
        assert any("cit-HepTh/IC" in line for line in lines)

    def test_validate_quick_passes(self):
        """The CI gate itself (also wired into benchmarks/regress.py)."""
        rep = validate_quick()
        assert rep.ok, rep.summary()
        assert rep.checks_run > 100
