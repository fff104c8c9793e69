"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges
from repro.imm.select import select_seeds
from repro.bio import benjamini_hochberg
from repro.parallel import block_bounds, lpt_makespan, owner_of
from repro.rng import Lcg64, SplitMix64, sample_stream
from repro.sampling import RRRSampler, SortedRRRCollection


class TestLcgProperties:
    @given(seed=st.integers(0, 2**64 - 1), size=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_leapfrog_partition_exact(self, seed, size):
        """For any seed and rank count, the leap-frog substreams tile the
        master sequence exactly — the Section 3.2 correctness condition."""
        master = Lcg64(seed)
        serial = [master.next_u64() for _ in range(size * 4)]
        streams = [Lcg64(seed).leapfrog(r, size) for r in range(size)]
        interleaved = []
        for i in range(4):
            for s in streams:
                interleaved.append(s.next_u64())
        assert interleaved == serial

    @given(seed=st.integers(0, 2**64 - 1), t=st.integers(0, 1500))
    @settings(max_examples=40, deadline=None)
    def test_jump_equals_iteration(self, seed, t):
        a, b = Lcg64(seed), Lcg64(seed)
        a.jump(t)
        for _ in range(t):
            b.next_u64()
        assert a.state == b.state
        assert a.offset == b.offset

    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_block_equals_scalar(self, seed, n):
        a, b = Lcg64(seed), Lcg64(seed)
        assert a.next_u64_block(n).tolist() == [b.next_u64() for _ in range(n)]


class TestSplitMixProperties:
    @given(seed=st.integers(0, 2**64 - 1), splits=st.lists(st.integers(0, 1000), min_size=2, max_size=6, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_distinct_keys_give_distinct_streams(self, seed, splits):
        parent = SplitMix64(seed)
        firsts = [parent.split(key).next_u64() for key in splits]
        assert len(set(firsts)) == len(firsts)

    @given(seed=st.integers(0, 2**32), j=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sample_stream_pure(self, seed, j):
        assert sample_stream(seed, j).next_u64() == sample_stream(seed, j).next_u64()


class TestPartitionProperties:
    @given(total=st.integers(0, 10_000), p=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_bounds_tile_range(self, total, p):
        bounds = block_bounds(total, p)
        assert bounds[0] == 0 and bounds[-1] == total
        sizes = np.diff(bounds)
        assert sizes.min() >= 0
        assert sizes.max() - sizes.min() <= 1

    @given(total=st.integers(1, 5000), p=st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_owner_of_consistent_with_bounds(self, total, p):
        bounds = block_bounds(total, p)
        idx = np.arange(total)
        owners = owner_of(idx, total, p)
        for r in range(p):
            mine = idx[owners == r]
            if len(mine):
                assert mine.min() >= bounds[r]
                assert mine.max() < bounds[r + 1]


class TestLptProperties:
    @given(
        costs=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60),
        p=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_sandwich(self, costs, p):
        arr = np.asarray(costs)
        ms = lpt_makespan(arr, p)
        assert ms >= max(arr.sum() / p, arr.max()) - 1e-6 * max(arr.max(), 1)
        assert ms <= arr.sum() + 1e-6


class TestBHProperties:
    @given(
        pvals=st.lists(st.floats(1e-12, 1.0, allow_nan=False), min_size=1, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_adjusted_dominates_raw_and_stays_in_unit(self, pvals):
        p = np.asarray(pvals)
        adj = benjamini_hochberg(p)
        assert np.all(adj >= p - 1e-12)
        assert np.all(adj <= 1.0)

    @given(
        pvals=st.lists(st.floats(1e-12, 1.0, allow_nan=False), min_size=2, max_size=40)
    )
    @settings(max_examples=40, deadline=None)
    def test_order_preserved(self, pvals):
        p = np.asarray(pvals)
        adj = benjamini_hochberg(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-12)


def _random_graph(draw_edges, n):
    src = np.asarray([e[0] for e in draw_edges], dtype=np.int64) % n
    dst = np.asarray([e[1] for e in draw_edges], dtype=np.int64) % n
    prob = np.asarray([e[2] for e in draw_edges], dtype=np.float64)
    return from_edges(n, src, dst, prob)


class TestSamplingProperties:
    @given(
        n=st.integers(3, 25),
        edges=st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 24), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=80,
        ),
        root_pick=st.integers(0, 10**6),
        stream=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_rrr_always_contains_root_sorted_unique(
        self, n, edges, root_pick, stream
    ):
        graph = _random_graph(edges, n)
        root = root_pick % n
        verts, examined = RRRSampler(graph, "IC").generate(root, SplitMix64(stream))
        assert root in verts.tolist()
        assert np.all(np.diff(verts) > 0)
        assert examined >= 0
        assert verts.min() >= 0 and verts.max() < n

    @given(
        n=st.integers(3, 25),
        edges=st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 24), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=80,
        ),
        root_pick=st.integers(0, 10**6),
        stream=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_lt_rrr_invariants(self, n, edges, root_pick, stream):
        graph = _random_graph(edges, n)
        root = root_pick % n
        verts, _ = RRRSampler(graph, "LT").generate(root, SplitMix64(stream))
        assert root in verts.tolist()
        assert np.all(np.diff(verts) > 0)


class TestSelectionProperties:
    @given(
        n=st.integers(2, 15),
        sets=st.lists(
            st.lists(st.integers(0, 14), min_size=1, max_size=5),
            min_size=1,
            max_size=25,
        ),
        k=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_greedy_invariants(self, n, sets, k, data):
        k = min(k, n)
        coll = SortedRRRCollection(n)
        for s in sets:
            coll.append(np.unique(np.asarray(s, np.int32) % n))
        sel = select_seeds(coll, n, k)
        # size, uniqueness, range
        assert len(sel.seeds) == k
        assert len(set(sel.seeds.tolist())) == k
        # coverage never exceeds the number of samples and equals the
        # brute recount of samples hit by the seed set
        chosen = set(sel.seeds.tolist())
        manual = sum(1 for s in coll if chosen & set(s.tolist()))
        assert sel.covered_samples == manual


class TestThresholdEquivalence:
    """The sampler's integer acceptance thresholds must replicate the
    float comparison exactly: (raw>>11)*2**-53 < p  <=>  (raw>>11) <
    ceil(p * 2**53)."""

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        raws=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_threshold_matches_float_comparison(self, p, raws):
        raw = np.asarray(raws, dtype=np.uint64)
        thresh = np.uint64(np.ceil(p * float(1 << 53)))
        float_cmp = (raw >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)) < p
        int_cmp = (raw >> np.uint64(11)) < thresh
        assert np.array_equal(float_cmp, int_cmp)

    @given(
        t=st.integers(0, 2**53),
        low=st.integers(0, 2**33 - 1),
        above=st.booleans(),
        nudge=st.integers(-3, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_candidate_bound_admits_every_hit(self, t, low, above, nudge):
        """A coin passing ``t`` has its pre-xorshift mix64 value ``y``
        within the cohort kernel's candidate bound.  ``y`` is drawn at
        and around both sides of the bound's 2^33-aligned block edge."""
        from repro.sampling.batched import candidate_bound

        top = (((t << 11) - 1) >> 33) + above
        y = min(max((top << 33 | low) + nudge, 0), 2**64 - 1)
        hit = ((y ^ (y >> 31)) >> 11) < t
        assert not hit or y <= candidate_bound(t)

    def test_extreme_probabilities(self):
        from repro.graph import constant_weights, complete_graph
        from repro.sampling import BatchedRRRSampler
        from repro.validate.engine import serial_sample_batch

        never = constant_weights(complete_graph(5), 0.0)
        verts, _ = RRRSampler(never, "IC").generate(0, SplitMix64(1))
        assert verts.tolist() == [0]
        always = constant_weights(complete_graph(5), 1.0)
        verts, _ = RRRSampler(always, "IC").generate(0, SplitMix64(1))
        assert verts.tolist() == [0, 1, 2, 3, 4]
        # The cohort kernel's candidate bound at its two ends: no coin can
        # hit at p = 0 (bound 0, filtered), and at p = 1 the bound admits
        # every coin, so the kernel tests every edge at its slot.
        for graph in (never, always):
            ref = SortedRRRCollection(graph.n)
            ref_edges = serial_sample_batch(graph, "IC", ref, 40, 3).per_sample_edges
            for cohort in (1, 7, 40):
                got = SortedRRRCollection(graph.n)
                edges = BatchedRRRSampler(graph, "IC", max_cohort=cohort).sample_into(
                    got, np.arange(40), 3
                )
                for a, b in zip(ref.flattened(), got.flattened()):
                    assert np.array_equal(a, b)
                assert np.array_equal(edges, ref_edges)
