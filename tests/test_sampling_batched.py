"""Equivalence tests for the cohort sampling engine (repro.sampling.batched).

The determinism contract: sample ``j`` is a pure function of
``(graph, model, seed, j)``, so the cohort engine must emit
**bit-identical** vertex arrays and per-sample edge counts to the serial
:class:`RRRSampler`'s stream coins for every dataset-registry graph,
every diffusion model, and every cohort size — including ``B = 1``
(degenerate cohorts) and ``B = θ`` (the whole batch as one cohort).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load, names
from repro.graph import from_edges
from repro.rng import sample_stream
from repro.sampling import (
    BatchedRRRSampler,
    RRRSampler,
    SortedRRRCollection,
    batched,
    in_edge_cumweights,
    sample_batch,
)
from repro.validate.engine import serial_sample_batch

#: Samples drawn per (graph, mode) — enough to exercise multi-cohort
#: chunking at every cohort size below.
COUNT = 48
SEED = 11
#: Cohort sizes of the equivalence sweep; "theta" = the full batch in
#: one cohort (the ISSUE's {1, 7, 64, θ} grid).
COHORTS = (1, 7, 64, "theta")

#: (model, serial edge_flip) modes under the contract: the cohort
#: engine draws stream coins only.
MODES = (("IC", "stream"), ("LT", "stream"))


def _graph_for(name: str, model: str):
    return load(name, model)


def _serial_reference(graph, model: str, edge_flip: str):
    """Generate COUNT samples with the serial engine, one stream each."""
    sampler = RRRSampler(graph, model)
    sets: list[np.ndarray] = []
    edges = np.zeros(COUNT, dtype=np.int64)
    for j in range(COUNT):
        rng = sample_stream(SEED, j)
        root = rng.randint(0, graph.n)
        verts, e = sampler.generate(root, rng, edge_flip=edge_flip)
        sets.append(verts)
        edges[j] = e
    return sets, edges


@pytest.fixture(scope="module")
def serial_refs():
    """Serial reference samples, computed once per (graph, mode)."""
    cache: dict[tuple[str, str, str], tuple] = {}
    for name in names():
        for model, edge_flip in MODES:
            g = _graph_for(name, model)
            cache[(name, model, edge_flip)] = (
                g,
                *_serial_reference(g, model, edge_flip),
            )
    return cache


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize("model,edge_flip", MODES)
@pytest.mark.parametrize("cohort", COHORTS)
def test_cohort_matches_serial(serial_refs, name, model, edge_flip, cohort):
    graph, ref_sets, ref_edges = serial_refs[(name, model, edge_flip)]
    max_cohort = COUNT if cohort == "theta" else cohort
    sampler = BatchedRRRSampler(graph, model, max_cohort=max_cohort)
    coll = SortedRRRCollection(graph.n)
    indices = np.arange(COUNT, dtype=np.int64)
    per_edges = sampler.sample_into(coll, indices, SEED)
    assert len(coll) == COUNT
    np.testing.assert_array_equal(per_edges, ref_edges)
    for got, want in zip(coll, ref_sets):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model,edge_flip", MODES)
def test_sampler_reuse_across_calls(serial_refs, model, edge_flip):
    """One sampler instance fed disjoint index ranges reproduces the
    same global sequence (the scratch arrays carry no state across
    cohorts)."""
    name = names()[0]
    graph, ref_sets, ref_edges = serial_refs[(name, model, edge_flip)]
    sampler = BatchedRRRSampler(graph, model, max_cohort=5)
    coll = SortedRRRCollection(graph.n)
    edges_parts = []
    for lo, hi in ((0, 13), (13, 31), (31, COUNT)):
        idx = np.arange(lo, hi, dtype=np.int64)
        edges_parts.append(sampler.sample_into(coll, idx, SEED))
    np.testing.assert_array_equal(np.concatenate(edges_parts), ref_edges)
    for got, want in zip(coll, ref_sets):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model", ["IC", "LT"])
def test_engine_equality_sample_batch(model):
    """sample_batch and the per-sample reference loop build bit-identical
    collections and report identical work meters."""
    graph = _graph_for("cit-HepTh", model)
    a = SortedRRRCollection(graph.n)
    b = SortedRRRCollection(graph.n)
    ba = sample_batch(graph, model, a, 60, SEED)
    bs = serial_sample_batch(graph, model, b, 60, SEED)
    assert ba.edges_examined == bs.edges_examined
    np.testing.assert_array_equal(ba.per_sample_edges, bs.per_sample_edges)
    fa, ia = a.flattened()
    fb, ib = b.flattened()
    np.testing.assert_array_equal(fa, fb)
    np.testing.assert_array_equal(ia, ib)


#: ``_FILTER_LIMIT`` values that force the stream kernel's two coin
#: paths: every bound filters, or none does.
COIN_PATHS = {"filtered": 1 << 64, "unfiltered": 0}


@pytest.mark.parametrize("path", COIN_PATHS)
def test_stream_coins_exact_at_their_threshold(path, monkeypatch):
    """Coins one step either side of their acceptance threshold.

    A star into vertex 0 gives in-edge slot ``k`` the threshold
    ``(raw_k >> 11) + k % 2``, where ``raw_k`` is the coin the serial
    sampler draws for that slot: odd slots hit by one, even slots miss
    by one.  Both samplers must settle every coin exactly, on either of
    the cohort kernel's coin paths; a slip in its last mix64 step flips
    about half of them.
    """
    monkeypatch.setattr(batched, "_FILTER_LIMIT", COIN_PATHS[path])
    d = 64
    src = np.arange(1, d + 1)
    star = from_edges(d + 1, src, np.zeros(d, dtype=np.int64), 0.5)
    assert star.in_indices.tolist() == src.tolist()
    j = next(j for j in range(10_000) if sample_stream(SEED, j).randint(0, d + 1) == 0)
    rng = sample_stream(SEED, j)
    rng.randint(0, d + 1)
    thresh = (rng.next_u64_block(d) >> np.uint64(11)) + np.arange(d, dtype=np.uint64) % 2
    probs = thresh.astype(np.float64) / float(1 << 53)  # exact: ceil(p·2^53) == thresh
    star = star.with_probs(probs, probs)
    want = [0, *range(2, d + 1, 2)]
    rng = sample_stream(SEED, j)
    verts, _ = RRRSampler(star, "IC").generate(rng.randint(0, d + 1), rng)
    assert verts.tolist() == want
    (cohort,) = BatchedRRRSampler(star, "IC").cohorts(np.array([j]), SEED)
    verts, sizes, edges = cohort
    assert verts.tolist() == want and sizes.tolist() == [len(want)] and edges.tolist() == [d]


@pytest.mark.parametrize("path", COIN_PATHS)
@pytest.mark.parametrize("name", ["cit-HepTh", "com-YouTube"])
def test_stream_coin_paths_match_serial(serial_refs, name, path, monkeypatch):
    """Each stream coin path reproduces the serial sampler, also where
    the graph's largest ``p`` picks the other path by default (cit-HepTh's
    0.22 filters, com-YouTube's 0.55 does not)."""
    monkeypatch.setattr(batched, "_FILTER_LIMIT", COIN_PATHS[path])
    graph, ref_sets, ref_edges = serial_refs[(name, "IC", "stream")]
    for cohort in (1, 7, COUNT):
        coll = SortedRRRCollection(graph.n)
        sampler = BatchedRRRSampler(graph, "IC", max_cohort=cohort)
        per_edges = sampler.sample_into(coll, np.arange(COUNT), SEED)
        np.testing.assert_array_equal(per_edges, ref_edges)
        for got, want in zip(coll, ref_sets):
            np.testing.assert_array_equal(got, want)


def test_in_edge_cumweights_bit_exact():
    """The shared LT cumulative table equals the per-vertex np.cumsum
    bit for bit on every registry graph."""
    for name in names():
        g = _graph_for(name, "LT")
        cum = in_edge_cumweights(g)
        for v in range(0, g.n, max(1, g.n // 97)):  # stride: spot-check ~100 rows
            lo, hi = int(g.in_indptr[v]), int(g.in_indptr[v + 1])
            if hi > lo:
                np.testing.assert_array_equal(
                    cum[lo:hi], np.cumsum(g.in_probs[lo:hi])
                )
