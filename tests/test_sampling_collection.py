"""Tests for the two RRR storage layouts (repro.sampling.collection)."""

import numpy as np
import pytest

from repro.sampling import HypergraphRRRCollection, SortedRRRCollection
from repro.sampling.collection import (
    SAMPLE_ID_BYTES,
    VECTOR_HEADER_BYTES,
    VERTEX_ID_BYTES,
)

SETS = [np.array([0, 2, 5], np.int32), np.array([1], np.int32), np.array([2, 5], np.int32)]


class TestSortedCollection:
    def test_append_and_iterate(self):
        coll = SortedRRRCollection(6)
        coll.extend(SETS)
        assert len(coll) == 3
        assert coll.total_entries == 6
        assert [s.tolist() for s in coll] == [[0, 2, 5], [1], [2, 5]]
        assert coll[1].tolist() == [1]
        assert coll[-1].tolist() == [2, 5]

    def test_append_batch_matches_appends(self):
        one_by_one = SortedRRRCollection(6)
        one_by_one.extend(SETS)
        bulk = SortedRRRCollection(6)
        bulk.append_batch(
            np.concatenate(SETS).astype(np.int64),
            np.array([len(s) for s in SETS], np.int64),
            total=6,
        )
        assert [s.tolist() for s in bulk] == [s.tolist() for s in one_by_one]
        assert bulk.counters().tolist() == one_by_one.counters().tolist()

    def test_declared_total_must_match_sizes(self):
        coll = SortedRRRCollection(6)
        with pytest.raises(ValueError, match="total"):
            coll.append_batch(np.array([1], np.int64), np.array([1], np.int64), total=2)
        assert len(coll) == 0

    def test_flattened_structure(self):
        coll = SortedRRRCollection(6)
        coll.extend(SETS)
        flat, indptr = coll.flattened()
        assert flat.tolist() == [0, 2, 5, 1, 2, 5]
        assert indptr.tolist() == [0, 3, 4, 6]
        assert (flat.dtype, indptr.dtype) == (np.int32, np.int64)

    def test_flattened_cache_invalidation(self):
        coll = SortedRRRCollection(6)
        coll.append(SETS[0])
        flat1, _ = coll.flattened()
        coll.append(SETS[1])
        flat2, _ = coll.flattened()
        assert len(flat2) == len(flat1) + 1

    def test_counters_equal_manual_bincount(self):
        coll = SortedRRRCollection(6)
        coll.extend(SETS)
        assert coll.counters().tolist() == [1, 1, 2, 0, 0, 2]

    def test_unsorted_input_rejected(self):
        coll = SortedRRRCollection(6)
        with pytest.raises(ValueError, match="sorted"):
            coll.append(np.array([3, 1], np.int32))

    def test_duplicate_vertices_rejected(self):
        coll = SortedRRRCollection(6)
        with pytest.raises(ValueError, match="sorted"):
            coll.append(np.array([1, 1], np.int32))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="root"):
            SortedRRRCollection(6).append(np.empty(0, np.int32))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            SortedRRRCollection(3).append(np.array([5], np.int32))

    def test_memory_model_exact(self):
        coll = SortedRRRCollection(6)
        coll.extend(SETS)
        expected = VECTOR_HEADER_BYTES + 3 * VECTOR_HEADER_BYTES + 6 * VERTEX_ID_BYTES
        assert coll.nbytes_model() == expected

    def test_empty_collection(self):
        coll = SortedRRRCollection(4)
        flat, indptr = coll.flattened()
        assert len(flat) == 0
        assert indptr.tolist() == [0]
        assert coll.counters().tolist() == [0, 0, 0, 0]


class TestStorage:
    """Four bytes per incidence: int32 entries, no per-entry owner array."""

    def _grown(self):
        # 300 samples of 40 ids: several doublings of the entry buffer.
        coll = SortedRRRCollection(1000)
        rng = np.random.default_rng(7)
        for _ in range(3):
            sets = [np.sort(rng.choice(1000, 40, replace=False)) for _ in range(50)]
            coll.append_batch(np.concatenate(sets).astype(np.int64), np.full(50, 40))
        coll.extend(np.sort(rng.choice(1000, 40, replace=False)) for _ in range(150))
        return coll

    def test_entries_are_int32(self):
        coll = self._grown()
        flat, _ = coll.flattened()
        assert flat.dtype == np.int32 and coll[0].dtype == np.int32
        assert coll[299].tolist() == flat[-40:].tolist()

    def test_no_per_entry_owner_buffer(self):
        coll = self._grown()
        assert coll.total_entries == 300 * 40
        per_entry = [
            name for name, value in vars(coll).items()
            if isinstance(value, np.ndarray) and len(value) >= coll.total_entries
        ]
        assert per_entry == ["_flat"]
        held = sum(v.nbytes for v in vars(coll).values() if isinstance(v, np.ndarray))
        assert held == 4 * len(coll._flat) + 8 * len(coll._indptr)

    def test_vertex_count_above_int32_rejected(self):
        SortedRRRCollection(2**31 - 1)
        with pytest.raises(ValueError, match="int32"):
            SortedRRRCollection(2**31)


class TestAppendBatchBoundaries:
    """Boundary semantics of the bulk append's sortedness mask (the mask
    flags non-*increasing* within-sample pairs; cross-sample pairs are
    exempt)."""

    def test_duplicate_straddling_two_samples_accepted(self):
        # Sample 0 ends with vertex 5, sample 1 starts with vertex 5:
        # the repeated vertex is legal because it belongs to different
        # samples (diff == 0 exactly on the boundary).
        coll = SortedRRRCollection(7)
        coll.append_batch(np.array([1, 5, 5, 6], np.int64), np.array([2, 2]))
        assert len(coll) == 2
        assert coll[0].tolist() == [1, 5]
        assert coll[1].tolist() == [5, 6]

    def test_straddling_boundary_singleton_tail(self):
        coll = SortedRRRCollection(6)
        coll.append_batch(np.array([1, 5, 5], np.int64), np.array([2, 1]))
        assert len(coll) == 2
        assert coll[0].tolist() == [1, 5]
        assert coll[1].tolist() == [5]

    def test_descending_across_boundary_accepted(self):
        # flat strictly decreases across the boundary — still fine.
        coll = SortedRRRCollection(6)
        coll.append_batch(np.array([4, 5, 0, 1], np.int64), np.array([2, 2]))
        assert coll[1].tolist() == [0, 1]

    def test_within_sample_duplicate_rejected(self):
        coll = SortedRRRCollection(6)
        with pytest.raises(ValueError, match="sorted"):
            coll.append_batch(np.array([1, 1, 2], np.int64), np.array([3]))

    def test_within_sample_inversion_rejected(self):
        coll = SortedRRRCollection(6)
        with pytest.raises(ValueError, match="sorted"):
            coll.append_batch(np.array([0, 3, 2], np.int64), np.array([1, 2]))

    def test_all_singleton_samples_skip_pair_check(self):
        coll = SortedRRRCollection(6)
        coll.append_batch(np.array([5, 5, 0], np.int64), np.array([1, 1, 1]))
        assert len(coll) == 3
        assert coll.total_entries == 3


class TestEmptyCollection:
    def test_flattened_on_empty(self):
        flat, indptr = SortedRRRCollection(6).flattened()
        assert flat.tolist() == []
        assert indptr.tolist() == [0]
        assert flat.dtype == np.int32

    def test_getitem_on_empty_raises_indexerror(self):
        # Must be IndexError, not ZeroDivisionError from the modulo.
        with pytest.raises(IndexError):
            SortedRRRCollection(6)[0]
        with pytest.raises(IndexError):
            SortedRRRCollection(6)[-1]

    def test_iteration_and_counters_on_empty(self):
        coll = SortedRRRCollection(4)
        assert list(coll) == []
        assert coll.counters().tolist() == [0, 0, 0, 0]
        assert len(coll) == 0

    def test_empty_batch_append_is_noop(self):
        coll = SortedRRRCollection(4)
        coll.append_batch(np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(coll) == 0
        flat, indptr = coll.flattened()
        assert flat.tolist() == [] and indptr.tolist() == [0]


class TestHypergraphCollection:
    def test_append_and_inverted_index(self):
        coll = HypergraphRRRCollection(6)
        coll.extend(SETS)
        assert coll.samples_containing(2) == [0, 2]
        assert coll.samples_containing(1) == [1]
        assert coll.samples_containing(3) == []

    def test_counters_match_sorted_layout(self):
        hyper = HypergraphRRRCollection(6)
        sorted_coll = SortedRRRCollection(6)
        hyper.extend(SETS)
        sorted_coll.extend(SETS)
        assert hyper.counters().tolist() == sorted_coll.counters().tolist()

    def test_memory_model_is_larger_than_sorted(self):
        hyper = HypergraphRRRCollection(6)
        sorted_coll = SortedRRRCollection(6)
        hyper.extend(SETS)
        sorted_coll.extend(SETS)
        assert hyper.nbytes_model() > sorted_coll.nbytes_model()

    def test_memory_model_exact(self):
        coll = HypergraphRRRCollection(6)
        coll.extend(SETS)
        expected = (
            2 * VECTOR_HEADER_BYTES
            + 3 * VECTOR_HEADER_BYTES
            + 6 * VERTEX_ID_BYTES
            + 6 * VECTOR_HEADER_BYTES
            + 6 * SAMPLE_ID_BYTES
        )
        assert coll.nbytes_model() == expected

    def test_validation(self):
        coll = HypergraphRRRCollection(3)
        with pytest.raises(ValueError):
            coll.append(np.empty(0, np.int32))
        with pytest.raises(ValueError):
            coll.append(np.array([4], np.int32))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            HypergraphRRRCollection(-1)
        with pytest.raises(ValueError):
            SortedRRRCollection(-1)
