"""Property test: the one greedy kernel over every view against a naive
pure-Python greedy max-cover.

The reference below shares no code with :mod:`repro.imm.select`: it
re-counts every vertex's alive samples each iteration and charges the
work meters the way Algorithm 4 spends them, kill by kill.  Every view —
sorted, hypergraph, and a frozen-style prefix cut from a
hit index over a longer collection (with ``forced``/``excluded``) —
must match it in seeds, covered count and every ``SelectionResult``
meter.  The hit index under every view is checked on its own against
the owners of an int64 stable sort, at every prefix and both key widths.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imm.select import FlatView, _metered, drive, greedy_cover, select_seeds, vertex_index
from repro.sampling import HypergraphRRRCollection, SortedRRRCollection


def naive_greedy(sets, n, k, num_ranks=1, forced=(), excluded=(), inverted=False):
    """Greedy max-cover with per-kill meters; ties to the smallest id."""
    bounds = [n * t // num_ranks for t in range(num_ranks + 1)]

    def rank(v):
        return max(t for t in range(num_ranks) if bounds[t] <= v)

    def searches(s):
        return math.ceil(math.log2(max(len(s), 2)))

    alive = [True] * len(sets)
    per_rank = [0] * num_ranks
    for s in sets:
        for v in s:
            per_rank[rank(v)] += 1
    m = {
        "covered": 0,
        "updates": sum(len(s) for s in sets),
        "lookups": 0,
        "searches": sum(searches(s) for s in sets),
    }

    def seat(v):
        m["lookups"] += sum(1 for s in sets if v in s)
        for j, s in enumerate(sets):
            if alive[j] and v in s:
                alive[j] = False
                m["covered"] += 1
                m["updates"] += len(s)
                m["searches"] += searches(s)
                for u in s:
                    per_rank[rank(u)] += 1

    seeds = list(dict.fromkeys(forced))
    for v in seeds:
        seat(v)
    banned = set(seeds) | set(excluded)
    while len(seeds) < k:
        gains = [
            sum(1 for j, s in enumerate(sets) if alive[j] and v in s)
            for v in range(n)
        ]
        v = max((u for u in range(n) if u not in banned), key=lambda u: (gains[u], -u))
        seeds.append(v)
        banned.add(v)
        seat(v)
    if inverted:
        meters = (
            m["updates"] + m["lookups"], m["updates"], [m["updates"]], [0]
        )
    else:
        meters = (
            m["updates"], m["updates"], per_rank, [m["searches"]] * num_ranks
        )
    return seeds, m["covered"], meters + (k * n,)


def observed(seeds, covered, sel):
    return list(seeds), covered, (
        sel.entries_scanned,
        sel.counter_updates,
        sel.per_rank_entries.tolist(),
        sel.per_rank_searches.tolist(),
        sel.argmax_scans,
    )


@st.composite
def instances(draw):
    n = draw(st.integers(1, 12))
    sets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True),
            max_size=20,
        )
    )
    prefix = draw(st.integers(0, len(sets)))
    forced = draw(st.lists(st.integers(0, n - 1), max_size=3))
    # Exclusions (repeats allowed) never cover every free vertex.
    free = [v for v in range(n) if v not in forced]
    excluded = draw(st.lists(st.sampled_from(free[1:]), max_size=3)) if free[1:] else []
    seated = len(set(forced))
    k = draw(st.integers(max(seated, 1), max(n - len(set(excluded)), 1)))
    ranks = draw(st.sampled_from([1, 2, 3, 5]))
    return n, [sorted(s) for s in sets], prefix, forced, excluded, k, ranks


def build(cls, sets, n):
    coll = cls(n)
    for s in sets:
        coll.append(np.asarray(s, dtype=np.int32))
    return coll


@given(instances())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_naive_greedy_on_every_view(inst):
    n, sets, prefix, forced, excluded, k, ranks = inst
    sel = select_seeds(build(SortedRRRCollection, sets, n), n, k, num_ranks=ranks)
    assert observed(sel.seeds.tolist(), sel.covered_samples, sel) == (
        naive_greedy(sets, n, k, ranks)
    )
    sel = select_seeds(build(HypergraphRRRCollection, sets, n), n, k, num_ranks=ranks)
    assert observed(sel.seeds.tolist(), sel.covered_samples, sel) == (
        naive_greedy(sets, n, k, inverted=True)
    )

    # The frozen index's view: a prefix cut from a hit index built
    # over the whole (longer) collection, with constraints.
    flat, indptr = build(SortedRRRCollection, sets, n).flattened()
    view = FlatView(
        n, flat, indptr, num_samples=prefix, by_vertex=vertex_index(flat, indptr, n)
    )
    seeds, state = drive(greedy_cover(view, k, forced=forced, excluded=excluded))
    sel = _metered(view, seeds, state, ranks)
    assert observed(seeds.tolist(), state.covered, sel) == naive_greedy(
        sets[:prefix], n, k, ranks, forced=forced, excluded=excluded
    )


def _assert_hits_match_stable_sort(flat, indptr, n, vertices):
    """Every prefix cut of the hit index equals the owners that an int64
    stable sort of the entries lists per vertex."""
    m = len(indptr) - 1
    owner = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    want = owner[np.argsort(flat.astype(np.int64), kind="stable")]
    want_ptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n))])
    index = vertex_index(flat, indptr, n)
    assert index[0].dtype == np.int32
    assert np.array_equal(index[0], want)
    assert np.array_equal(index[1], want_ptr)
    for prefix in range(m + 1):
        view = FlatView(n, flat, indptr, num_samples=prefix, by_vertex=index)
        for v in vertices:
            expect = want[want_ptr[v] : want_ptr[v + 1]]
            assert np.array_equal(view.hits(v), expect[expect < prefix]), (prefix, v)


def _random_collections(count, seed):
    """The edge cases (no samples, one vertex, every sample full), then
    ``count`` random collections: 1–40 vertices, up to 25 samples of
    1–6 distinct vertices each."""
    yield 7, []
    yield 1, [[0]] * 5
    yield 4, [[0, 1, 2, 3]] * 6
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 41))
        sizes = rng.integers(1, min(n, 6) + 1, size=int(rng.integers(0, 26)))
        yield n, [np.sort(rng.choice(n, int(s), replace=False)) for s in sizes]


def test_hit_index_equals_stable_sort_owners_at_every_prefix():
    for n, sets in _random_collections(120, seed=19):
        flat, indptr = build(SortedRRRCollection, sets, n).flattened()
        assert n * (len(indptr) - 1) < 2**31  # int32 keys
        _assert_hits_match_stable_sort(flat, indptr, n, range(n))


def test_hit_index_with_int64_keys_at_every_prefix():
    # n·m = 2^32: keys id·m + sample overflow int32, so they sort as
    # int64; the sample ids kept stay int32.
    n, m = 1 << 20, 1 << 12
    pool = np.asarray([0, 5, n // 2, n - 3, n - 2, n - 1])
    rng = np.random.default_rng(11)
    sets = [np.sort(rng.choice(pool, rng.integers(1, 4), replace=False)) for _ in range(m)]
    coll = SortedRRRCollection(n)
    coll.append_batch(np.concatenate(sets), np.asarray([len(s) for s in sets]))
    flat, indptr = coll.flattened()
    assert n * m >= 2**31
    _assert_hits_match_stable_sort(flat, indptr, n, pool)


def test_kill_pass_in_runs_matches_one_bincount(monkeypatch):
    # With the run size at its floor (n entries), a kill over many large
    # samples is tallied in several runs; the counts and the picks must
    # equal one bincount over the killed rows.
    from repro.datasets import load
    from repro.imm import select
    from repro.sampling import sample_batch

    graph = load("cit-HepTh", "IC")
    coll = SortedRRRCollection(graph.n)
    sample_batch(graph, "IC", coll, 300, 5)
    want = select_seeds(coll, graph.n, 10, num_ranks=3)
    monkeypatch.setattr(select, "_TALLY_CHUNK", 1)
    flat, indptr = coll.flattened()
    killed = np.arange(0, 300, 2)
    rows = np.concatenate([flat[indptr[j] : indptr[j + 1]] for j in killed])
    assert len(rows) > 3 * graph.n  # several runs
    view = FlatView(graph.n, flat, indptr)
    assert np.array_equal(view.tally(killed), np.bincount(rows, minlength=graph.n))
    got = select_seeds(coll, graph.n, 10, num_ranks=3)
    assert observed(got.seeds, got.covered_samples, got) == observed(
        want.seeds, want.covered_samples, want
    )
