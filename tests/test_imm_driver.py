"""End-to-end tests for the serial IMM driver (repro.imm.imm)."""

import numpy as np
import pytest

from repro.diffusion import estimate_spread
from repro.imm import imm

from conftest import assert_valid_seed_set


class TestIMMDriver:
    def test_basic_run(self, ba_graph):
        res = imm(ba_graph, k=10, eps=0.5, seed=1)
        assert_valid_seed_set(res.seeds, ba_graph.n, 10)
        assert res.theta > 0
        assert res.num_samples >= res.theta or res.num_samples > 0
        assert 0.0 <= res.coverage <= 1.0
        assert res.total_time > 0

    def test_deterministic(self, ba_graph):
        a = imm(ba_graph, k=8, eps=0.5, seed=4)
        b = imm(ba_graph, k=8, eps=0.5, seed=4)
        np.testing.assert_array_equal(a.seeds, b.seeds)
        assert a.theta == b.theta

    def test_layouts_agree_on_seeds(self, ba_graph):
        """Table 2's two rows must compute the same answer."""
        a = imm(ba_graph, k=8, eps=0.5, seed=4, layout="sorted")
        b = imm(ba_graph, k=8, eps=0.5, seed=4, layout="hypergraph")
        np.testing.assert_array_equal(a.seeds, b.seeds)
        assert a.theta == b.theta
        assert a.coverage == b.coverage
        assert b.memory_bytes > a.memory_bytes

    def test_lt_model(self, ba_graph_lt):
        res = imm(ba_graph_lt, k=5, eps=0.5, model="LT", seed=2)
        assert_valid_seed_set(res.seeds, ba_graph_lt.n, 5)
        assert res.model == "LT"

    def test_seeds_beat_random_seeds(self, ba_graph):
        """The point of the whole exercise: IMM seeds spread more than
        random ones."""
        res = imm(ba_graph, k=10, eps=0.5, seed=1)
        rng = np.random.default_rng(0)
        random_spreads = []
        for _ in range(5):
            random_seeds = rng.choice(ba_graph.n, size=10, replace=False)
            random_spreads.append(
                estimate_spread(ba_graph, random_seeds, "IC", trials=150, seed=9).mean
            )
        imm_spread = estimate_spread(ba_graph, res.seeds, "IC", trials=150, seed=9).mean
        assert imm_spread > max(random_spreads)

    def test_phase_breakdown_accounts_time(self, ba_graph):
        res = imm(ba_graph, k=5, eps=0.5, seed=1)
        b = res.breakdown
        assert b.estimate_theta > 0
        assert b.select_seeds > 0
        assert b.total == pytest.approx(
            b.estimate_theta + b.sample + b.select_seeds + b.other
        )

    def test_theta_cap(self, ba_graph):
        res = imm(ba_graph, k=10, eps=0.3, seed=1, theta_cap=40)
        assert res.num_samples <= 40
        assert res.extra["theta_capped"]

    def test_counters_populated(self, ba_graph):
        res = imm(ba_graph, k=5, eps=0.5, seed=1)
        c = res.counters
        assert c.edges_examined > 0
        assert c.samples_generated == res.num_samples
        assert c.entries_scanned > 0

    def test_result_helpers(self, ba_graph):
        res = imm(ba_graph, k=5, eps=0.5, seed=1)
        assert "IMM[sorted,IC]" in res.summary()
        assert res.expected_spread_estimate(ba_graph.n) == pytest.approx(
            res.coverage * ba_graph.n
        )

    def test_unknown_layout_rejected(self, ba_graph):
        # Only sorted and hypergraph exist: the retired "compressed" is
        # refused like any unknown name, never silently mapped to sorted.
        for layout in ("funky", "compressed"):
            with pytest.raises(ValueError, match="layout"):
                imm(ba_graph, k=5, eps=0.5, layout=layout)

    def test_invalid_model_rejected(self, ba_graph):
        with pytest.raises(ValueError):
            imm(ba_graph, k=5, eps=0.5, model="SIR")

    def test_coverage_estimates_spread(self, ba_graph):
        """F_R(S)·n is an (approximately) unbiased spread estimator
        (Section 3.1); check it lands near the MC estimate."""
        res = imm(ba_graph, k=10, eps=0.4, seed=2)
        mc = estimate_spread(ba_graph, res.seeds, "IC", trials=400, seed=5).mean
        rr_estimate = res.coverage * ba_graph.n
        assert rr_estimate == pytest.approx(mc, rel=0.25)
