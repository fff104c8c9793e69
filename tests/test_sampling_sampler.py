"""Tests for the batch Sample() function (repro.sampling.sampler)."""

import numpy as np
import pytest

from repro.sampling import BatchedRRRSampler, RRRSampler, SortedRRRCollection, sample_batch
from repro.validate.engine import serial_sample_batch


class TestSampleBatch:
    def test_reaches_target(self, ba_graph):
        coll = SortedRRRCollection(ba_graph.n)
        batch = sample_batch(ba_graph, "IC", coll, 25, seed=1)
        assert len(coll) == 25
        assert batch.count == 25
        assert batch.first_index == 0

    def test_incremental_topup(self, ba_graph):
        coll = SortedRRRCollection(ba_graph.n)
        sample_batch(ba_graph, "IC", coll, 10, seed=1)
        batch = sample_batch(ba_graph, "IC", coll, 25, seed=1)
        assert batch.first_index == 10
        assert batch.count == 15
        assert len(coll) == 25

    def test_noop_when_target_reached(self, ba_graph):
        coll = SortedRRRCollection(ba_graph.n)
        sample_batch(ba_graph, "IC", coll, 10, seed=1)
        batch = sample_batch(ba_graph, "IC", coll, 5, seed=1)
        assert batch.count == 0
        assert len(coll) == 10

    def test_split_invariance(self, ba_graph):
        """Sample j is a pure function of (graph, model, seed, j): one
        big batch equals many small ones — the reproducibility property
        the parallel implementations rely on."""
        one = SortedRRRCollection(ba_graph.n)
        sample_batch(ba_graph, "IC", one, 30, seed=7)
        many = SortedRRRCollection(ba_graph.n)
        for target in (3, 11, 19, 30):
            sample_batch(ba_graph, "IC", many, target, seed=7)
        assert len(one) == len(many)
        for a, b in zip(one, many):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_samples(self, ba_graph):
        a = SortedRRRCollection(ba_graph.n)
        b = SortedRRRCollection(ba_graph.n)
        sample_batch(ba_graph, "IC", a, 10, seed=1)
        sample_batch(ba_graph, "IC", b, 10, seed=2)
        assert any(
            not np.array_equal(x, y) for x, y in zip(a, b)
        )

    def test_edges_metering_consistent(self, ba_graph):
        coll = SortedRRRCollection(ba_graph.n)
        batch = sample_batch(ba_graph, "IC", coll, 20, seed=3)
        assert batch.edges_examined == int(batch.per_sample_edges.sum())
        assert len(batch.per_sample_edges) == 20

    def test_lt_model(self, ba_graph_lt):
        coll = SortedRRRCollection(ba_graph_lt.n)
        batch = sample_batch(ba_graph_lt, "LT", coll, 15, seed=1)
        assert len(coll) == 15
        assert batch.edges_examined >= 0

    def test_negative_target_rejected(self, ba_graph):
        with pytest.raises(ValueError):
            sample_batch(ba_graph, "IC", SortedRRRCollection(ba_graph.n), -1, seed=0)

    def test_reusable_sampler(self, ba_graph):
        """A shared sampler's scratch carries no state between samples, in
        the batched engine and in the per-sample reference loop."""
        coll1 = SortedRRRCollection(ba_graph.n)
        coll2 = SortedRRRCollection(ba_graph.n)
        ref = SortedRRRCollection(ba_graph.n)
        shared = BatchedRRRSampler(ba_graph, "IC")
        sample_batch(ba_graph, "IC", coll1, 6, seed=5, sampler=shared)
        sample_batch(ba_graph, "IC", coll1, 12, seed=5, sampler=shared)
        sample_batch(ba_graph, "IC", coll2, 12, seed=5)
        serial = RRRSampler(ba_graph, "IC")
        serial_sample_batch(ba_graph, "IC", ref, 6, 5, sampler=serial)
        serial_sample_batch(ba_graph, "IC", ref, 12, 5, sampler=serial)
        assert len(coll1) == len(coll2) == len(ref) == 12
        for a, b, c in zip(coll1, coll2, ref):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_per_sample_sampler_rejected(self, ba_graph):
        """The per-sample RRRSampler has no batch method; passing it is a
        type error, not a silent switch of engines."""
        coll = SortedRRRCollection(ba_graph.n)
        with pytest.raises(TypeError, match="RRRSampler has no sample_into"):
            sample_batch(ba_graph, "IC", coll, 5, seed=0, sampler=RRRSampler(ba_graph, "IC"))
        assert len(coll) == 0
