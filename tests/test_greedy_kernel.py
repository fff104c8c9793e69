"""Property test: the one greedy kernel over every view against a naive
pure-Python greedy max-cover.

The reference below shares no code with :mod:`repro.imm.select`: it
re-counts every vertex's alive samples each iteration and charges the
work meters the way Algorithm 4 spends them, kill by kill.  Every view —
sorted, compressed, hypergraph, and a frozen-style prefix cut from a
vertex index over a longer collection (with ``forced``/``excluded``) —
must match it in seeds, covered count and every ``SelectionResult``
meter.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imm.select import FlatView, _metered, drive, greedy_cover, select_seeds, vertex_index
from repro.sampling import (
    CompressedRRRCollection,
    HypergraphRRRCollection,
    SortedRRRCollection,
)


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
    for cls in (SortedRRRCollection, CompressedRRRCollection):
        sel = select_seeds(build(cls, sets, n), n, k, num_ranks=ranks)
        assert observed(sel.seeds.tolist(), sel.covered_samples, sel) == (
            naive_greedy(sets, n, k, ranks)
        ), cls.__name__
    sel = select_seeds(build(HypergraphRRRCollection, sets, n), n, k, num_ranks=ranks)
    assert observed(sel.seeds.tolist(), sel.covered_samples, sel) == (
        naive_greedy(sets, n, k, inverted=True)
    )

    # The frozen index's view: a prefix cut from a vertex index built
    # over the whole (longer) collection, with constraints.
    flat, indptr, sample_of = build(SortedRRRCollection, sets, n).flattened()
    view = FlatView(
        n, flat, indptr, sample_of,
        num_samples=prefix, by_vertex=vertex_index(flat, n),
    )
    seeds, state = drive(greedy_cover(view, k, forced=forced, excluded=excluded))
    sel = _metered(view, seeds, state, ranks)
    assert observed(seeds.tolist(), state.covered, sel) == naive_greedy(
        sets[:prefix], n, k, ranks, forced=forced, excluded=excluded
    )
