"""Tests for the compressed RRR layout (repro.sampling.compressed).

Codec round-trip properties, decode fuzzing (truncated / corrupt coded
bytes must raise typed errors, never return garbage), collection
semantics parity with the sorted layout, and selection bit-parity.
"""

import numpy as np
import pytest

from repro.imm.select import CompressedView, FlatView, select_seeds
from repro.sampling import (
    CompressedRRRCollection,
    CorruptCodedStreamError,
    SortedRRRCollection,
    TruncatedCodedStreamError,
    decode_varints,
    encode_varints,
    sample_batch,
)
from repro.sampling.compressed import MAX_VARINT_BYTES

SETS = [np.array([0, 2, 5], np.int32), np.array([1], np.int32), np.array([2, 5], np.int32)]


def build(sets, n=6):
    coll = CompressedRRRCollection(n)
    for s in sets:
        coll.append(s)
    return coll


class TestVarintCodec:
    def test_round_trip_small_values(self):
        values = np.arange(0, 300, dtype=np.int64)
        assert decode_varints(encode_varints(values)).tolist() == values.tolist()

    def test_zero_encodes_to_single_byte(self):
        coded = encode_varints(np.array([0], np.int64))
        assert coded.tolist() == [0]
        assert decode_varints(coded).tolist() == [0]

    def test_seven_bit_boundaries(self):
        # One value either side of every limb boundary.
        edges = []
        for bits in range(7, 63, 7):
            edges += [(1 << bits) - 1, 1 << bits]
        edges.append((1 << 63) - 1)  # int64 max: the 9-byte ceiling
        values = np.array(edges, np.int64)
        assert decode_varints(encode_varints(values)).tolist() == values.tolist()

    def test_max_int64_round_trips_in_nine_bytes(self):
        coded = encode_varints(np.array([2**63 - 1], np.int64))
        assert len(coded) == MAX_VARINT_BYTES
        assert decode_varints(coded).tolist() == [2**63 - 1]

    def test_random_batch_round_trip(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2**40, size=2000, dtype=np.int64)
        assert np.array_equal(decode_varints(encode_varints(values)), values)

    def test_empty_batch(self):
        assert encode_varints(np.empty(0, np.int64)).size == 0
        assert decode_varints(np.empty(0, np.uint8)).size == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            encode_varints(np.array([-1], np.int64))


class TestDecodeFuzz:
    def test_truncated_stream_typed_error(self):
        coded = encode_varints(np.array([1000, 2000], np.int64))
        with pytest.raises(TruncatedCodedStreamError):
            decode_varints(coded[:-1])

    def test_lone_continuation_byte(self):
        with pytest.raises(TruncatedCodedStreamError):
            decode_varints(np.array([0x80], np.uint8))

    def test_overlong_varint_typed_error(self):
        # 10 continuation-flagged bytes + terminator: beyond the 9-byte
        # bound our encoder can produce.
        buf = np.full(MAX_VARINT_BYTES + 1, 0x80, np.uint8)
        buf = np.append(buf, np.uint8(1))
        with pytest.raises(CorruptCodedStreamError):
            decode_varints(buf)

    def test_typed_errors_are_value_errors(self):
        # Callers treating decode failures as data validation keep working.
        with pytest.raises(ValueError):
            decode_varints(np.array([0x80], np.uint8))
        assert issubclass(TruncatedCodedStreamError, ValueError)
        assert issubclass(CorruptCodedStreamError, ValueError)

    def test_truncated_collection_stream(self):
        coll = build(SETS)
        coll._buf[coll._bytes - 1] |= 0x80  # final byte claims continuation
        with pytest.raises(TruncatedCodedStreamError):
            coll.parse_stream()
        with pytest.raises(TruncatedCodedStreamError):
            coll.decode_samples(np.array([len(SETS) - 1]))

    def test_corrupt_offset_index(self):
        coll = build(SETS)
        coll._ends[len(SETS) - 1] += 1  # offset disagrees with the bytes
        with pytest.raises(CorruptCodedStreamError):
            coll.parse_stream()

    def test_zero_delta_rejected_per_sample(self):
        coll = build([np.array([2, 3], np.int32)])
        coll._ensure_ranked()
        # Overwrite the gap varint with 0 — a duplicate rank.
        coll._buf[coll._bytes - 1] = 0
        with pytest.raises(CorruptCodedStreamError):
            coll[0]

    def test_out_of_range_rank_rejected(self):
        coll = build([np.array([0], np.int32)], n=2)
        coll._ensure_ranked()
        coll._buf[0] = 5  # rank 5 in a 2-vertex collection
        with pytest.raises(CorruptCodedStreamError):
            coll.parse_stream()
        with pytest.raises(CorruptCodedStreamError):
            coll[0]


class TestCompressedCollection:
    def test_append_and_iterate(self):
        coll = build(SETS)
        assert len(coll) == 3
        assert coll.total_entries == 6
        assert [s.tolist() for s in coll] == [[0, 2, 5], [1], [2, 5]]
        assert coll[1].tolist() == [1]
        assert coll[-1].tolist() == [2, 5]

    def test_single_vertex_and_max_id_samples(self):
        coll = build([np.array([0], np.int32), np.array([5], np.int32)])
        assert [s.tolist() for s in coll] == [[0], [5]]
        assert coll.counters().tolist() == [1, 0, 0, 0, 0, 1]

    def test_counters_match_sorted_layout(self):
        sorted_coll = SortedRRRCollection(6)
        sorted_coll.extend(SETS)
        assert build(SETS).counters().tolist() == sorted_coll.counters().tolist()

    def test_append_batch_matches_appends(self):
        a = build(SETS)
        b = CompressedRRRCollection(6)
        b.append_batch(
            np.concatenate(SETS).astype(np.int64),
            np.array([len(s) for s in SETS], np.int64),
            total=6,
        )
        assert [s.tolist() for s in a] == [s.tolist() for s in b]
        assert a.counters().tolist() == b.counters().tolist()

    def test_vertex_count_above_int32_rejected(self):
        # Ranks decode as int32: a larger n is refused before anything
        # is allocated (its per-vertex arrays alone would be 48 GB).
        with pytest.raises(ValueError, match="int32"):
            CompressedRRRCollection(2**31)
        with pytest.raises(ValueError, match="non-negative"):
            CompressedRRRCollection(-1)

    def test_empty_batch_is_noop(self):
        coll = build(SETS)
        before = (coll.coded_bytes, len(coll), coll.total_entries)
        coll.append_batch(np.empty(0, np.int64), np.empty(0, np.int64))
        assert (coll.coded_bytes, len(coll), coll.total_entries) == before

    def test_validation_parity_with_sorted(self):
        coll = CompressedRRRCollection(6)
        with pytest.raises(ValueError, match="sorted"):
            coll.append(np.array([3, 1], np.int32))
        with pytest.raises(ValueError, match="sorted"):
            coll.append(np.array([1, 1], np.int32))
        with pytest.raises(ValueError, match="root"):
            coll.append(np.empty(0, np.int32))
        with pytest.raises(ValueError, match="range"):
            coll.append(np.array([9], np.int32))
        with pytest.raises(ValueError, match="total"):
            coll.append_batch(np.array([1], np.int64), np.array([1], np.int64), total=2)

    def test_ranking_reduces_bytes_on_skewed_data(self):
        # Vertex 500 (a 2-byte code) is in every sample; after re-ranking
        # it becomes rank 0 and costs 1 byte.
        sets = [np.sort(np.array([i, 500], np.int64)) for i in range(40)]
        coll = CompressedRRRCollection(600)
        for s in sets:
            coll.append(s)
        before = coll.coded_bytes
        coll._ensure_ranked()
        assert coll.coded_bytes < before
        assert [s.tolist() for s in coll] == [s.tolist() for s in sets]

    def test_decode_samples_subset(self):
        coll = build(SETS)
        verts, counts = coll.decode_samples(np.array([2, 0]))
        assert counts.tolist() == [2, 3]
        assert np.sort(verts[:2]).tolist() == [2, 5]
        assert np.sort(verts[2:]).tolist() == [0, 2, 5]

    def test_freeze_pins_permutation(self):
        coll = build(SETS)
        coll.freeze_permutation()
        vertex_of = coll._vertex_of.copy()
        coll.append(np.array([0, 1], np.int32))
        assert np.array_equal(coll._vertex_of, vertex_of)
        assert coll[3].tolist() == [0, 1]

    def test_adopt_permutation_rejects_non_bijection(self):
        coll = CompressedRRRCollection(4)
        with pytest.raises(ValueError, match="bijection"):
            coll.adopt_permutation(np.array([0, 1, 1, 3], np.int64))
        with pytest.raises(ValueError, match="bijection"):
            coll.adopt_permutation(np.array([0, 1, 2], np.int64))

    def test_adopt_permutation_only_when_empty(self):
        coll = build(SETS)
        with pytest.raises(ValueError, match="landed"):
            coll.adopt_permutation(np.arange(6, dtype=np.int64))

    def test_from_stream_round_trip(self):
        coll = build(SETS)
        coll.freeze_permutation()
        coded, ends, vertex_of = coll.stream()
        clone = CompressedRRRCollection.from_stream(
            6, coded.copy(), ends.copy(), vertex_of.copy(), entries=coll.total_entries
        )
        assert [s.tolist() for s in clone] == [s.tolist() for s in coll]
        assert clone.counters().tolist() == coll.counters().tolist()

    def test_memory_model_beats_flat_on_skewed_data(self):
        rng = np.random.default_rng(3)
        n = 2000
        coll = CompressedRRRCollection(n)
        flat = SortedRRRCollection(n)
        # Zipf-ish skew: hubs appear in nearly every sample.
        for _ in range(400):
            size = int(rng.integers(3, 20))
            s = np.unique((rng.zipf(1.5, size=size) - 1).clip(0, n - 1)).astype(np.int64)
            coll.append(s)
            flat.append(s.astype(np.int32))
        coll._ensure_ranked()
        # The dominant terms: coded bytes must beat 4-byte-per-entry flat.
        assert coll.coded_bytes < 4 * coll.total_entries


class TestSelectionParity:
    @pytest.mark.parametrize("num_ranks", [1, 3])
    def test_seeds_match_sorted_layout(self, ba_graph, num_ranks):
        sorted_coll = SortedRRRCollection(ba_graph.n)
        comp_coll = CompressedRRRCollection(ba_graph.n)
        sample_batch(ba_graph, "IC", sorted_coll, 500, 17)
        sample_batch(ba_graph, "IC", comp_coll, 500, 17)
        a = select_seeds(sorted_coll, ba_graph.n, 8, num_ranks)
        b = select_seeds(comp_coll, ba_graph.n, 8, num_ranks)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert a.covered_samples == b.covered_samples
        assert a.counter_updates == b.counter_updates

    def test_hit_index_with_int64_keys(self):
        # n · samples ≥ 2^31, so the hit index sorts int64 keys; every
        # vertex occurs, so ranks reach n - 1 and would overflow int32.
        n = m = 70_000
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 4, size=m)
        first = (np.arange(m) * 7919) % (n - 3)
        starts = np.cumsum(sizes) - sizes
        flat = np.repeat(first, sizes) + np.arange(sizes.sum()) - np.repeat(starts, sizes)
        sorted_coll = SortedRRRCollection(n)
        comp_coll = CompressedRRRCollection(n)
        sorted_coll.append_batch(flat.astype(np.int32), sizes)
        comp_coll.append_batch(flat, sizes)
        flat_view = FlatView(n, *sorted_coll.flattened())
        comp_view = CompressedView(comp_coll, n)
        assert np.array_equal(comp_view.counts(), flat_view.counts())
        for v in range(0, n, 97):
            assert np.array_equal(comp_view.hits(v), flat_view.hits(v)), v
        a = select_seeds(sorted_coll, n, 8)
        b = select_seeds(comp_coll, n, 8)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert a.counter_updates == b.counter_updates
