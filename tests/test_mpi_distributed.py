"""Tests for the distributed IMM (repro.mpi.distributed)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.datasets import load
from repro.graph import from_edge_list
from repro.imm import imm
from repro.mpi import SimulatedOOMError, imm_dist
from repro.mpi.costmodel import allreduce_seconds, collective_seconds
from repro.parallel import EDISON, PUMA


class TestCostModel:
    def test_log_tree_formula(self):
        expected = 3 * (PUMA.alpha + PUMA.beta * 1000)
        assert collective_seconds(PUMA, 8, 1000) == pytest.approx(expected)

    def test_single_rank_free(self):
        assert collective_seconds(PUMA, 1, 10**9) == 0.0

    def test_allreduce_alias(self):
        assert allreduce_seconds(EDISON, 16, 64) == collective_seconds(EDISON, 16, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            collective_seconds(PUMA, 0, 10)
        with pytest.raises(ValueError):
            collective_seconds(PUMA, 2, -1)


class TestIMMDist:
    def test_seeds_identical_to_serial_any_rank_count(self, ba_graph):
        """Section 3.2 + per-sample streams: output independent of p."""
        serial = imm(ba_graph, k=8, eps=0.5, seed=3)
        for p in (1, 2, 5, 8):
            dist = imm_dist(ba_graph, k=8, eps=0.5, num_nodes=p, seed=3)
            np.testing.assert_array_equal(dist.seeds, serial.seeds)
            assert dist.theta == serial.theta
            assert dist.coverage == pytest.approx(serial.coverage, abs=1e-12)

    def test_sample_partition_covers_theta(self, ba_graph):
        dist = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=4, seed=3)
        per_rank = dist.extra["per_rank_samples"]
        assert sum(per_rank) == dist.num_samples
        assert max(per_rank) - min(per_rank) <= len(per_rank)

    def test_modeled_time_decreases_with_nodes(self, ba_graph):
        # Strictly decreasing while compute dominates; at higher node
        # counts this small input saturates (the paper's own small-input
        # behaviour), so only the low-p regime is asserted strictly.
        times = [
            imm_dist(ba_graph, k=8, eps=0.5, num_nodes=p, seed=3).total_time
            for p in (1, 2, 4, 8)
        ]
        assert times[0] > times[1] > times[2]
        assert times[3] < times[0]

    def test_communication_grows_with_nodes(self, ba_graph):
        small = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, seed=3)
        large = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=8, seed=3)
        assert small.extra["comm_calls"] == large.extra["comm_calls"]

    def test_allreduce_count_formula(self, ba_graph):
        """Each selection = (k+1) vector allreduces + 1 scalar; there is
        one selection per estimation round plus the final one."""
        k = 6
        dist = imm_dist(ba_graph, k=k, eps=0.5, num_nodes=3, seed=3)
        rounds = imm(ba_graph, k=k, eps=0.5, seed=3).extra["estimation_rounds"]
        assert dist.extra["comm_calls"] == (rounds + 1) * (k + 2)

    def test_coverage_history_matches_serial(self, ba_graph):
        """Parity satellite: the distributed driver now reports the same
        per-round ``(theta_x, frac)`` diagnostics as the serial one, so
        Figure-2-style sweeps can run distributed."""
        serial = imm(ba_graph, k=8, eps=0.5, seed=3)
        for p in (1, 3):
            dist = imm_dist(ba_graph, k=8, eps=0.5, num_nodes=p, seed=3)
            assert dist.extra["coverage_history"] == serial.extra["coverage_history"]
            assert dist.extra["estimation_rounds"] == serial.extra["estimation_rounds"]
            assert len(dist.extra["coverage_history"]) == dist.extra["estimation_rounds"]

    def test_eps_beyond_guarantee_rejected(self, ba_graph):
        """imm_dist drives Algorithm 2 without calling estimate_theta, so
        it must apply the same eps validation itself."""
        with pytest.raises(ValueError, match="1 - 1/e"):
            imm_dist(ba_graph, k=5, eps=0.7, num_nodes=2)

    def test_leapfrog_scheme_valid(self, ba_graph):
        dist = imm_dist(
            ba_graph, k=8, eps=0.5, num_nodes=4, seed=3, rng_scheme="leapfrog"
        )
        assert len(np.unique(dist.seeds)) == 8
        assert 0.0 <= dist.coverage <= 1.0

    def test_leapfrog_differs_from_per_sample(self, ba_graph):
        a = imm_dist(ba_graph, k=8, eps=0.5, num_nodes=4, seed=3)
        b = imm_dist(
            ba_graph, k=8, eps=0.5, num_nodes=4, seed=3, rng_scheme="leapfrog"
        )
        # Different randomness — θ or seeds will generally differ.
        assert a.theta != b.theta or not np.array_equal(a.seeds, b.seeds)

    def test_oom_model_triggers(self, ba_graph):
        with pytest.raises(SimulatedOOMError) as info:
            imm_dist(
                ba_graph, k=5, eps=0.5, num_nodes=2, seed=3, mem_per_node=1024
            )
        assert info.value.limit == 1024
        assert info.value.needed > 1024

    def test_oom_avoided_with_more_nodes(self, ba_graph):
        """The Figure 7 effect: a limit that kills p=1 passes at p=8."""
        probe = imm_dist(ba_graph, k=5, eps=0.5, num_nodes=8, seed=3)
        from repro.perf.memory import graph_bytes

        limit = graph_bytes(ba_graph) + probe.memory_bytes * 3 + 2 * 8 * ba_graph.n
        imm_dist(ba_graph, k=5, eps=0.5, num_nodes=8, seed=3, mem_per_node=limit)
        with pytest.raises(SimulatedOOMError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=1, seed=3, mem_per_node=limit)

    def test_validation(self, ba_graph):
        with pytest.raises(ValueError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=0)
        with pytest.raises(ValueError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, rng_scheme="magic")
        with pytest.raises(ValueError):
            imm_dist(ba_graph, k=5, eps=0.5, num_nodes=2, threads_per_node=999)
        # The instance checks imm() applies, before any rank starts.
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            imm_dist(ba_graph, k=0, eps=0.5, num_nodes=2)
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            imm_dist(ba_graph, k=ba_graph.n + 1, eps=0.5, num_nodes=2)
        single = from_edge_list(1, [])
        with pytest.raises(ValueError, match="at least 2 vertices"):
            imm_dist(single, k=1, eps=0.5, num_nodes=2)

    def test_ranks_reported_as_total_threads(self, ba_graph):
        dist = imm_dist(
            ba_graph, k=5, eps=0.5, num_nodes=4, machine=EDISON, seed=1
        )
        assert dist.ranks == 4 * EDISON.threads_per_node
        assert dist.extra["machine"] == "Edison"


def _fingerprint(res, sink) -> str:
    """sha256 of what the SPMD path reports: seeds, per-round coverage,
    work ledger, collective traffic and the checkpoint trail."""
    blob = json.dumps(
        {
            "seeds": res.seeds.tolist(),
            "coverage_history": res.extra["coverage_history"],
            "counters": dataclasses.asdict(res.counters),
            "comm_calls": res.extra["comm_calls"],
            "comm_bytes": res.extra["comm_bytes"],
            "comm_by_label": res.extra["comm_by_label"],
            "checkpoint_sink": sink,
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


#: cit-HepTh (IC, k=8, eps=0.5, seed 1, θ cap 600) fingerprints of the
#: SPMD path: a change to the greedy kernel, the θ search or the
#: All-Reduce adapter must leave every one of them unchanged.
PINNED = {
    ("per-sample", 1, None): "89da923b331c9a2993b24bf8abea787b112da04b01a47b4853320ee303cef90f",
    ("per-sample", 3, None): "098f8e22551718a57cf52b974d2501ccdde5fd33711080b1a0128bae00537c92",
    ("per-sample", 5, None): "cc49aaffb03298f9ae1fca75e0f2cc2e1a1a8175dafcef38cfd0775faf6e07b5",
    ("leapfrog", 1, None): "070e2e5e574bfe045076b925bd0c26c4de66bf2efd754b28d8ecc8ef8ac154d8",
    ("leapfrog", 3, None): "9d167838c6b2f0a1bdf47fa786fbb1464e051766d14b32af3848c7ecd83bd879",
    ("leapfrog", 5, None): "c8158df1af85973d4469317c27302b83eb0773fc5fa5c882d2e539097c4ad361",
    ("per-sample", 4, "crash:2@phase=SelectSeeds"): (
        "e8b2838b30b173e42ed260b1b436dd21f74af9482ba69dc39b5ccd6db545f7c8"
    ),
}


@pytest.mark.parametrize("scheme, nodes, plan", list(PINNED))
def test_spmd_path_pinned(scheme, nodes, plan):
    graph = load("cit-HepTh", "IC")
    sink = []
    faults = {"fault_plan": plan, "policy": "shrink"} if plan else {}
    res = imm_dist(
        graph, k=8, eps=0.5, num_nodes=nodes, seed=1, theta_cap=600,
        rng_scheme=scheme, checkpoint_sink=sink, **faults,
    )
    assert res.extra["degraded"] == (plan is not None)
    assert _fingerprint(res, sink) == PINNED[(scheme, nodes, plan)]
