"""Checkpoint reload edge cases (repro.sampling.checkpoint.load_range).

The resume path's contract: ``load_range`` returns exactly the certified
bytes or raises ``CheckpointError`` — never a silently truncated array.
These tests drive the boundaries (empty range, full prefix, the last
sample before the cursor) and inject genuine short reads by truncating
the spill files behind an already-open sink.
"""

import numpy as np
import pytest

from repro.sampling import BlockCheckpointSink, CheckpointError, SortedRRRCollection, sample_batch
from repro.serving import FrozenIndexError, FrozenRRRIndex

SEED = 3


def _spilled_run(graph, run_dir, num_samples=40):
    """A run directory with ``num_samples`` certified samples in two blocks."""
    coll = SortedRRRCollection(graph.n)
    batch = sample_batch(graph, "IC", coll, num_samples, SEED)
    flat, indptr = coll.flattened()
    sizes = np.diff(indptr)
    split = num_samples // 2
    with BlockCheckpointSink(run_dir, n=graph.n, model="IC", seed=SEED) as sink:
        sink.append_block(
            np.arange(split, dtype=np.int64),
            flat[: indptr[split]], sizes[:split],
            batch.per_sample_edges[:split],
        )
        sink.append_block(
            np.arange(split, num_samples, dtype=np.int64),
            flat[indptr[split]:], sizes[split:],
            batch.per_sample_edges[split:],
        )
    return coll, batch


class TestLoadRangeBounds:
    def test_empty_range_lo_equals_hi(self, ba_graph, tmp_path):
        _spilled_run(ba_graph, tmp_path / "run")
        sink = BlockCheckpointSink(
            tmp_path / "run", n=ba_graph.n, model="IC", seed=SEED, readonly=True
        )
        for lo in (0, 7, sink.landed):
            flat, sizes, edges = sink.load_range(lo, lo)
            assert len(flat) == len(sizes) == len(edges) == 0

    def test_full_prefix_roundtrip(self, ba_graph, tmp_path):
        coll, batch = _spilled_run(ba_graph, tmp_path / "run")
        sink = BlockCheckpointSink(
            tmp_path / "run", n=ba_graph.n, model="IC", seed=SEED, readonly=True
        )
        flat, sizes, edges = sink.load_range(0, sink.landed)
        ref_flat, ref_indptr = coll.flattened()
        assert np.array_equal(flat, ref_flat)
        assert np.array_equal(sizes, np.diff(ref_indptr))
        assert np.array_equal(edges, batch.per_sample_edges)

    def test_last_sample_before_cursor(self, ba_graph, tmp_path):
        coll, _ = _spilled_run(ba_graph, tmp_path / "run")
        sink = BlockCheckpointSink(
            tmp_path / "run", n=ba_graph.n, model="IC", seed=SEED, readonly=True
        )
        flat, sizes, _ = sink.load_range(sink.landed - 1, sink.landed)
        assert len(sizes) == 1
        assert np.array_equal(flat, np.asarray(coll[sink.landed - 1]))

    def test_past_cursor_raises(self, ba_graph, tmp_path):
        _spilled_run(ba_graph, tmp_path / "run")
        sink = BlockCheckpointSink(
            tmp_path / "run", n=ba_graph.n, model="IC", seed=SEED, readonly=True
        )
        with pytest.raises(CheckpointError, match="outside the certified prefix"):
            sink.load_range(sink.landed, sink.landed + 1)
        with pytest.raises(CheckpointError, match="outside the certified prefix"):
            sink.load_range(-1, 1)
        with pytest.raises(CheckpointError, match="outside the certified prefix"):
            sink.load_range(5, 4)


class TestShortReads:
    """Files truncated *behind* an open sink: the short read must be loud.

    (Truncation before opening is caught by the constructor's byte
    floors; these tests reach the ``load_range`` checks themselves.)
    """

    def _readonly(self, graph, run_dir):
        return BlockCheckpointSink(
            run_dir, n=graph.n, model="IC", seed=SEED, readonly=True
        )

    def test_truncated_flat_raises(self, ba_graph, tmp_path):
        _spilled_run(ba_graph, tmp_path / "run")
        sink = self._readonly(ba_graph, tmp_path / "run")
        flat_path = tmp_path / "run" / "flat.i32.bin"
        flat_path.write_bytes(flat_path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="flat.i32.bin short read"):
            sink.load_range(0, sink.landed)

    def test_truncated_sizes_raises(self, ba_graph, tmp_path):
        _spilled_run(ba_graph, tmp_path / "run")
        sink = self._readonly(ba_graph, tmp_path / "run")
        sizes_path = tmp_path / "run" / "sizes.i64.bin"
        sizes_path.write_bytes(sizes_path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="sizes.i64.bin short read"):
            sink.load_range(0, sink.landed)

    def test_truncated_edges_raises(self, ba_graph, tmp_path):
        _spilled_run(ba_graph, tmp_path / "run")
        sink = self._readonly(ba_graph, tmp_path / "run")
        edges_path = tmp_path / "run" / "edges.i64.bin"
        edges_path.write_bytes(edges_path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="edges.i64.bin short read"):
            sink.load_range(0, sink.landed)

    def test_untouched_prefix_still_loads(self, ba_graph, tmp_path):
        # Truncation past the requested range must not matter.
        coll, _ = _spilled_run(ba_graph, tmp_path / "run")
        sink = self._readonly(ba_graph, tmp_path / "run")
        flat_path = tmp_path / "run" / "flat.i32.bin"
        flat_path.write_bytes(flat_path.read_bytes()[:-8])
        flat, _, _ = sink.load_range(0, 1)
        assert np.array_equal(flat, np.asarray(coll[0]))


class TestTornTail:
    def test_torn_tail_beyond_cursor_is_ignored(self, ba_graph, tmp_path):
        coll, _ = _spilled_run(ba_graph, tmp_path / "run")
        for name in ("flat.i32.bin", "sizes.i64.bin", "edges.i64.bin"):
            with open(tmp_path / "run" / name, "ab") as fh:
                fh.write(b"\x7f" * 13)  # a torn, uncertified tail
        sink = BlockCheckpointSink(
            tmp_path / "run", n=ba_graph.n, model="IC", seed=SEED, readonly=True
        )
        flat, _, _ = sink.load_range(0, sink.landed)
        ref_flat, _ = coll.flattened()
        assert np.array_equal(flat, ref_flat)

    def test_frozen_index_promotion_from_torn_run(self, ba_graph, tmp_path):
        coll, _ = _spilled_run(ba_graph, tmp_path / "run")
        with open(tmp_path / "run" / "flat.i32.bin", "ab") as fh:
            fh.write(b"\x7f" * 7)
        index = FrozenRRRIndex.freeze(
            tmp_path / "run", tmp_path / "index",
            graph=ba_graph, model="IC", seed=SEED, k=5, eps=0.5,
        )
        try:
            assert index.num_samples == len(coll)
            flat, indptr, _ = index.arrays()
            ref_flat, ref_indptr = coll.flattened()
            assert np.array_equal(np.asarray(flat), ref_flat)
            assert np.array_equal(indptr, ref_indptr)
        finally:
            index.close()
        # The frozen artifact's own seal verifies on a fresh open.
        with FrozenRRRIndex.open(tmp_path / "index", graph=ba_graph) as back:
            assert back.num_samples == len(coll)

    def test_torn_index_tail_past_seal_is_ignored(self, ba_graph, tmp_path):
        coll, _ = _spilled_run(ba_graph, tmp_path / "run")
        index = FrozenRRRIndex.freeze(
            tmp_path / "run", tmp_path / "index",
            graph=ba_graph, model="IC", seed=SEED, k=5, eps=0.5,
        )
        index.close()
        # The checkpoint's rule: only the manifest certifies bytes.  A
        # tail past it (an extension that never sealed) opens at the
        # certified state, and open() leaves it for the next extend.
        path = tmp_path / "index" / "flat.i32.bin"
        certified = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x7f" * 4)
        with FrozenRRRIndex.open(tmp_path / "index", graph=ba_graph) as back:
            assert np.array_equal(np.asarray(back.arrays()[0]), coll.flattened()[0])
        assert path.stat().st_size == certified + 4
        # A file cut below its certified size lost sealed bytes.
        with open(path, "r+b") as fh:
            fh.truncate(certified - 4)
        with pytest.raises(FrozenIndexError, match="torn or was edited"):
            FrozenRRRIndex.open(tmp_path / "index")


class TestCloseDiscipline:
    def test_close_removes_temporaries(self, ba_graph, tmp_path):
        sink = BlockCheckpointSink(tmp_path / "run", n=7, model="IC", seed=SEED)
        # Simulate a crash that left atomic-write temporaries behind.
        (tmp_path / "run" / "MANIFEST.json.tmp").write_text("{}")
        (tmp_path / "run" / "cursor.json.tmp").write_text("{}")
        sink.close()
        assert not (tmp_path / "run" / "MANIFEST.json.tmp").exists()
        assert not (tmp_path / "run" / "cursor.json.tmp").exists()
        sink.close()  # idempotent
