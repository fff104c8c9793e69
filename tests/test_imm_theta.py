"""Tests for the θ estimator (repro.imm.theta)."""

import math

import pytest

from repro.imm import (
    ThetaEstimate,
    estimate_theta,
    imm,
    imm_sweep,
    lambda_prime,
    lambda_star,
    logcnk,
)
from repro.mpi import imm_dist
from repro.parallel import imm_mt
from repro.sampling import BatchedRRRSampler, HypergraphRRRCollection, SortedRRRCollection


class TestLogCnk:
    def test_matches_exact_binomial(self):
        assert logcnk(10, 3) == pytest.approx(math.log(120))
        assert logcnk(5, 0) == pytest.approx(0.0)
        assert logcnk(5, 5) == pytest.approx(0.0)

    def test_symmetry(self):
        assert logcnk(20, 7) == pytest.approx(logcnk(20, 13))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            logcnk(5, 6)
        with pytest.raises(ValueError):
            logcnk(5, -1)


class TestLambdas:
    def test_lambda_star_decreasing_in_eps(self):
        assert lambda_star(1000, 10, 0.2, 1.0) > lambda_star(1000, 10, 0.5, 1.0)

    def test_lambda_star_increasing_in_k(self):
        assert lambda_star(1000, 50, 0.3, 1.0) > lambda_star(1000, 5, 0.3, 1.0)

    def test_lambda_prime_decreasing_in_eps(self):
        assert lambda_prime(1000, 10, 0.2, 1.0) > lambda_prime(1000, 10, 0.5, 1.0)

    def test_lambda_scales_superlinearly_with_n(self):
        assert lambda_star(2000, 10, 0.3, 1.0) > 2 * lambda_star(1000, 10, 0.3, 1.0) * 0.9


class TestEstimateTheta:
    def test_returns_positive_theta_and_keeps_samples(self, ba_graph):
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1)
        assert isinstance(est, ThetaEstimate)
        assert est.theta > 0
        assert len(est.collection) > 0
        assert est.rounds >= 1
        assert est.lb >= 1.0

    def test_theta_grows_as_eps_shrinks(self, ba_graph):
        """The Figure 2 relationship."""
        loose = estimate_theta(ba_graph, 10, 0.6, "IC", seed=1).theta
        tight = estimate_theta(ba_graph, 10, 0.3, "IC", seed=1).theta
        assert tight > loose

    def test_theta_grows_with_k(self, ba_graph):
        small = estimate_theta(ba_graph, 5, 0.5, "IC", seed=1).theta
        large = estimate_theta(ba_graph, 40, 0.5, "IC", seed=1).theta
        assert large > small

    def test_deterministic(self, ba_graph):
        a = estimate_theta(ba_graph, 10, 0.5, "IC", seed=3)
        b = estimate_theta(ba_graph, 10, 0.5, "IC", seed=3)
        assert a.theta == b.theta
        assert a.lb == b.lb

    def test_theta_cap_respected(self, ba_graph):
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1, theta_cap=50)
        assert est.theta <= 50
        assert len(est.collection) <= 50

    def test_trace_records_events(self, ba_graph):
        trace = []
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1, trace=trace)
        kinds = [kind for kind, _ in trace]
        assert kinds == ["sample", "select"] * est.rounds

    def test_coverage_history_recorded(self, ba_graph):
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1)
        assert len(est.coverage_history) == est.rounds
        for theta_x, frac in est.coverage_history:
            assert theta_x > 0
            assert 0.0 <= frac <= 1.0

    def test_works_with_hypergraph_collection(self, ba_graph):
        coll = HypergraphRRRCollection(ba_graph.n)
        est = estimate_theta(ba_graph, 10, 0.5, "IC", seed=1, collection=coll)
        assert est.collection is coll
        # Same θ as the sorted layout (layout cannot change the math).
        sorted_est = estimate_theta(
            ba_graph, 10, 0.5, "IC", seed=1, collection=SortedRRRCollection(ba_graph.n)
        )
        assert est.theta == sorted_est.theta

    def test_lt_model(self, ba_graph_lt):
        est = estimate_theta(ba_graph_lt, 10, 0.5, "LT", seed=1)
        assert est.theta > 0

    def test_invalid_instances_rejected(self, ba_graph):
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, 0, 0.5)
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, ba_graph.n + 1, 0.5)
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, 10, 0.0)
        with pytest.raises(ValueError):
            estimate_theta(ba_graph, 10, 1.0)

    def test_eps_beyond_guarantee_rejected(self, ba_graph):
        """Regression: ``eps >= 1 - 1/e`` makes the ``(1 - 1/e - eps)``
        approximation factor non-positive; such values used to be
        accepted silently."""
        from repro.imm.theta import EPS_UPPER_BOUND

        assert abs(EPS_UPPER_BOUND - (1.0 - 1.0 / math.e)) < 1e-12
        for eps in (EPS_UPPER_BOUND, 0.64, 0.7, 0.99):
            with pytest.raises(ValueError, match="1 - 1/e"):
                estimate_theta(ba_graph, 10, eps)
        # Just inside the bound is still a valid instance.
        est = estimate_theta(ba_graph, 10, 0.63, "IC", seed=1, theta_cap=50)
        assert est.theta > 0

    def test_tiny_graph_rejected(self):
        from repro.graph import path_graph

        with pytest.raises(ValueError):
            estimate_theta(path_graph(1), 1, 0.5)


DRIVERS = {
    "imm": lambda g, cap: imm(g, 5, 0.5, theta_cap=cap),
    "imm_mt": lambda g, cap: imm_mt(g, 5, 0.5, theta_cap=cap),
    "imm_sweep": lambda g, cap: imm_sweep(g, [5], 0.5, theta_cap=cap),
    "imm_dist": lambda g, cap: imm_dist(g, 5, 0.5, theta_cap=cap),
    "estimate_theta": lambda g, cap: estimate_theta(g, 5, 0.5, theta_cap=cap),
}


@pytest.mark.parametrize("cap", [0, -5])
@pytest.mark.parametrize("driver", list(DRIVERS))
def test_theta_cap_below_one_rejected(ba_graph, monkeypatch, driver, cap):
    """A θ cap below one sample is rejected by the check every driver
    shares, before any sample is drawn."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before theta_cap was checked")

    monkeypatch.setattr(BatchedRRRSampler, "sample_into", no_sampling)
    with pytest.raises(ValueError, match=f"theta_cap must be at least 1, got {cap}"):
        DRIVERS[driver](ba_graph, cap)
