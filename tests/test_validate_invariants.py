"""Tests for the structural invariant checkers (repro.validate.invariants)."""

import numpy as np
import pytest

from repro.sampling import HypergraphRRRCollection, SortedRRRCollection
from repro.validate import (
    ValidationReport,
    Violation,
    check_collection,
    check_hypergraph_collection,
    check_sorted_collection,
)

SETS = [[0, 2, 5], [1], [2, 5], [0, 3]]


def make(layout, n=6, sets=SETS):
    coll = (SortedRRRCollection if layout == "sorted" else HypergraphRRRCollection)(n)
    for s in sets:
        coll.append(np.asarray(s, np.int32))
    return coll


class TestReport:
    def test_check_records_and_returns(self):
        rep = ValidationReport()
        assert rep.check(True, "a", "s", "d") is True
        assert rep.check(False, "b", "s", "broken") is False
        assert rep.checks_run == 2
        assert not rep.ok
        assert rep.violations == [Violation("b", "s", "broken")]

    def test_merge_accumulates(self):
        a, b = ValidationReport(), ValidationReport()
        a.check(True, "x", "s", "d")
        b.check(False, "y", "s", "d")
        a.merge(b)
        assert a.checks_run == 2
        assert len(a.violations) == 1

    def test_summary_mentions_status(self):
        rep = ValidationReport()
        rep.check(True, "x", "s", "d")
        assert "OK" in rep.summary()
        rep.check(False, "y", "subj", "bad")
        assert "VIOLATION" in rep.summary()
        assert "subj" in rep.summary()


class TestSortedInvariants:
    def test_healthy_collection_passes(self):
        rep = check_sorted_collection(make("sorted"))
        assert rep.ok
        assert rep.checks_run >= 6

    def test_empty_collection_passes(self):
        assert check_sorted_collection(SortedRRRCollection(4)).ok

    def test_unsorted_flat_flagged(self):
        coll = make("sorted")
        coll._flat[0], coll._flat[1] = coll._flat[1], coll._flat[0]
        rep = check_sorted_collection(coll)
        assert any(v.check == "collection.sortedness" for v in rep.violations)

    def test_corrupt_indptr_flagged_without_crashing(self):
        # A non-monotone indptr must become a violation, not an exception
        # inside np.repeat / boundary indexing.
        coll = make("sorted")
        coll._indptr[1] = coll._indptr[2] + 1
        rep = check_sorted_collection(coll)
        assert any(v.check == "collection.indptr-monotone" for v in rep.violations)

    def test_misfolded_hit_index_flagged(self, monkeypatch):
        from repro.imm import select
        from repro.validate.mutation import _misfolded_vertex_index

        coll = make("sorted")
        assert check_sorted_collection(coll).ok
        monkeypatch.setattr(select, "vertex_index", _misfolded_vertex_index)
        rep = check_sorted_collection(coll)
        assert [v.check for v in rep.violations] == ["collection.hit-index"]

    def test_hit_prefix_cut_off_by_one_flagged(self, monkeypatch):
        # A cut that keeps the first sample past the prefix.
        from repro.imm import select

        def hits(view, v):
            ids = view._hits[view._vptr[v] : view._vptr[v + 1]]
            return ids[: int(np.searchsorted(ids, view.num_samples, side="right"))]

        coll = make("sorted")
        monkeypatch.setattr(select.FlatView, "hits", hits)
        rep = check_sorted_collection(coll)
        assert [v.check for v in rep.violations] == ["collection.hit-index"]

    def test_byte_model_drift_flagged(self):
        coll = make("sorted")

        class Drifted(SortedRRRCollection):
            def nbytes_model(self):
                return super().nbytes_model() + 1

        coll.__class__ = Drifted
        rep = check_sorted_collection(coll)
        assert any(v.check == "collection.byte-model" for v in rep.violations)

    def test_out_of_range_vertex_flagged(self):
        coll = make("sorted")
        coll._flat[coll.total_entries - 1] = coll.n + 7
        rep = check_sorted_collection(coll)
        assert any(v.check == "collection.vertex-range" for v in rep.violations)


class TestHypergraphInvariants:
    def test_healthy_collection_passes(self):
        rep = check_hypergraph_collection(make("hypergraph"))
        assert rep.ok

    def test_dropped_inverted_entry_flagged(self):
        coll = make("hypergraph")
        coll._inverted[2].pop()
        rep = check_hypergraph_collection(coll)
        assert any(v.check == "collection.inverted-index" for v in rep.violations)

    def test_phantom_inverted_entry_flagged(self):
        coll = make("hypergraph")
        coll._inverted[4].append(0)  # vertex 4 is in no sample
        rep = check_hypergraph_collection(coll)
        assert any(v.check == "collection.inverted-index" for v in rep.violations)


class TestDispatch:
    def test_dispatches_by_layout(self):
        assert check_collection(make("sorted")).ok
        assert check_collection(make("hypergraph")).ok

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            check_collection([1, 2, 3])
