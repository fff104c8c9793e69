"""Tests for the process-pool sampling engine (repro.sampling.parallel_engine).

The engine's contract has three legs, each exercised here:

* **bit-identity** — for every worker count, chunk size, and start
  method the produced collection, per-sample edge meters, and seed sets
  equal the serial/batched engines' output exactly (counter-addressed
  streams make sample ``j`` schedule-independent);
* **typed failure** — a dead worker raises :class:`WorkerCrashError`
  without hanging the parent, and the shared-memory segments are
  unlinked on every exit path (no ``resource_tracker`` leak warnings);
* **degeneracy** — ``workers=1`` runs fully in-process (no pool, no
  shared memory) and is the same object model as the batched sampler.

Pool-spinning tests carry ``@pytest.mark.parallel`` so the conftest
SIGALRM watchdog converts a wedged pool into a test failure instead of a
hung suite.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from multiprocessing import shared_memory as _shm

from repro.imm import imm, imm_sweep
from repro.parallel import imm_mt
from repro.sampling import (
    BatchedRRRSampler,
    ParallelEngineError,
    ParallelSamplingEngine,
    SortedRRRCollection,
    WorkerCrashError,
)
from repro.sampling.parallel_engine import (
    DESCRIPTOR_BYTE_BUDGET,
    PARALLEL_COUNT_THRESHOLD,
    AdaptiveChunkPolicy,
    _worker_block,
)
from repro.sampling.supervisor import SupervisedSamplingEngine

THETA = 400


def _dies_on_block_1(indices, seed, edge_flip, extent, sleep_s=0.0):
    """Pool task whose worker dies mid-block on block 1 of a
    ``chunk_size=50`` run (the block starting at sample 50)."""
    if indices[0] == 50:
        os._exit(1)
    return _worker_block(indices, seed, edge_flip, extent, sleep_s)


@pytest.fixture
def crash_block_1(monkeypatch):
    """Swap the crashing task in as the engine's pool task."""
    monkeypatch.setattr(
        ParallelSamplingEngine, "_block_task", staticmethod(_dies_on_block_1)
    )


def _reference(graph, model, theta, seed):
    """Batched-engine ground truth: (flat, indptr, per-sample edges)."""
    coll = SortedRRRCollection(graph.n)
    indices = np.arange(theta, dtype=np.int64)
    edges = BatchedRRRSampler(graph, model).sample_into(coll, indices, seed)
    flat, indptr = coll.flattened()
    return flat, indptr, edges


def _drive(engine, graph, theta, seed, chunk_size=None):
    coll = SortedRRRCollection(graph.n)
    indices = np.arange(theta, dtype=np.int64)
    edges = engine.sample_into(coll, indices, seed, chunk_size=chunk_size)
    flat, indptr = coll.flattened()
    return flat, indptr, edges


class TestDegenerateSingleWorker:
    def test_no_pool_no_shared_memory(self, ba_graph):
        with ParallelSamplingEngine(ba_graph, "IC", workers=1) as eng:
            assert eng._pool is None
            assert eng._segments == []

    def test_bitwise_equal_to_batched(self, ba_graph):
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with ParallelSamplingEngine(ba_graph, "IC", workers=1) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_count_partitioned_serial_fallback(self, ba_graph):
        flat = np.arange(100, dtype=np.int64) % ba_graph.n
        with ParallelSamplingEngine(ba_graph, "IC", workers=1) as eng:
            counts = eng.count_partitioned(flat, ba_graph.n)
        assert np.array_equal(counts, np.bincount(flat, minlength=ba_graph.n))

    def test_constructor_validation(self, ba_graph):
        with pytest.raises(ValueError):
            ParallelSamplingEngine(ba_graph, "IC", workers=0)
        with pytest.raises(ValueError):
            ParallelSamplingEngine(ba_graph, "IC", workers=1, chunk_size=0)


@pytest.mark.parallel
class TestPoolEquivalence:
    @pytest.fixture(scope="class")
    def ic_engine(self, ba_graph):
        with ParallelSamplingEngine(ba_graph, "IC", workers=2) as eng:
            yield eng

    def test_bitwise_equal_default_chunk(self, ic_engine, ba_graph):
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        got = _drive(ic_engine, ba_graph, THETA, seed=3)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("chunk", [17, 101, THETA])
    def test_bitwise_equal_any_chunk(self, ic_engine, ba_graph, chunk):
        """Chunk size changes the fan-out, never the bits."""
        ref = _reference(ba_graph, "IC", THETA, seed=5)
        got = _drive(ic_engine, ba_graph, THETA, seed=5, chunk_size=chunk)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_nonzero_sample_offset(self, ic_engine, ba_graph):
        """Global indices [200, 600) — workers must not renumber from 0."""
        indices = np.arange(200, 600, dtype=np.int64)
        ref_coll = SortedRRRCollection(ba_graph.n)
        BatchedRRRSampler(ba_graph, "IC").sample_into(ref_coll, indices, 7)
        coll = SortedRRRCollection(ba_graph.n)
        ic_engine.sample_into(coll, indices, 7, chunk_size=64)
        a, ai = coll.flattened()
        b, bi = ref_coll.flattened()
        assert np.array_equal(a, b) and np.array_equal(ai, bi)

    def test_empty_batch(self, ic_engine, ba_graph):
        coll = SortedRRRCollection(ba_graph.n)
        edges = ic_engine.sample_into(coll, np.empty(0, dtype=np.int64), 3)
        assert len(edges) == 0 and len(coll) == 0

    def test_count_partitioned_equals_bincount(self, ic_engine, ba_graph):
        rng = np.random.default_rng(11)
        flat = rng.integers(
            0, ba_graph.n, size=PARALLEL_COUNT_THRESHOLD + 17, dtype=np.int64
        )
        counts = ic_engine.count_partitioned(flat, ba_graph.n)
        assert np.array_equal(counts, np.bincount(flat, minlength=ba_graph.n))
        assert counts.dtype == np.int64

    def test_lt_shared_cumweights(self, ba_graph_lt):
        """LT shares one cumulative-weight table; output stays bit-equal."""
        ref = _reference(ba_graph_lt, "LT", THETA, seed=9)
        with ParallelSamplingEngine(ba_graph_lt, "LT", workers=2) as eng:
            got = _drive(eng, ba_graph_lt, THETA, seed=9, chunk_size=77)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


@pytest.mark.parallel
class TestStartMethods:
    """Bit-identity must hold for explicitly chosen start methods.

    ``fork`` inherits the parent's memory, ``spawn`` re-imports from a
    pristine interpreter — a stream-addressing scheme that leaned on
    inherited state would pass one and fail the other.
    """

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_method_bitwise(self, ba_graph, method):
        ref = _reference(ba_graph, "IC", 120, seed=4)
        with ParallelSamplingEngine(
            ba_graph, "IC", workers=2, start_method=method
        ) as eng:
            got = _drive(eng, ba_graph, 120, seed=4, chunk_size=31)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


class TestAdaptiveChunkPolicy:
    """Probe-then-grow sizing is scheduling-only, so these are pure
    unit tests: probe size, fair-share cap, and monotone bounded growth.
    """

    def test_probe_size_and_cap(self):
        pol = AdaptiveChunkPolicy(6400, 2)
        assert pol.initial == pol.size == max(32, 6400 // (16 * 2))
        assert pol.cap == 3200

    def test_tiny_total_clamps_to_cap(self):
        pol = AdaptiveChunkPolicy(10, 4)
        assert pol.cap == 3  # ceil(10 / 4): late planning still spans the pool
        assert pol.size == 3  # the probe floor is clamped down to the cap

    def test_growth_is_monotone_and_bounded(self):
        pol = AdaptiveChunkPolicy(100_000, 2, target_seconds=0.25, growth=2.0)
        start = pol.size
        pol.observe(start, 1e-3)  # blazing fast block wants a huge size...
        assert pol.size == start * 2  # ...but one step grows at most ×2
        grown = pol.size
        pol.observe(grown, 10.0)  # a slow block must never shrink the size
        assert pol.size == grown
        pol.observe(0, 1.0)  # degenerate observations are ignored
        pol.observe(5, 0.0)
        assert pol.size == grown

    def test_never_exceeds_cap(self):
        pol = AdaptiveChunkPolicy(1000, 4)
        for _ in range(20):
            pol.observe(pol.size, 1e-9)
        assert pol.size == pol.cap == 250

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveChunkPolicy(-1, 2)
        with pytest.raises(ValueError):
            AdaptiveChunkPolicy(100, 0)


@pytest.mark.parallel
class TestOutputArena:
    """Shared-memory output arena: growth, lifecycle, descriptor size,
    and the fused-counter merge that rides in the same worker pass.
    """

    def test_tiny_arena_grows_and_stays_bitwise(self, ba_graph):
        """A 4 KiB first segment cannot hold θ samples: the growable-
        segment escape hatch must fire without changing a byte."""
        ref = _reference(ba_graph, "IC", THETA, seed=3)
        with ParallelSamplingEngine(
            ba_graph, "IC", workers=2, arena_bytes=4096
        ) as eng:
            got = _drive(eng, ba_graph, THETA, seed=3, chunk_size=50)
            assert eng.stats.arena_segments >= 2
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_arena_unlinked_on_success(self, ba_graph):
        eng = ParallelSamplingEngine(ba_graph, "IC", workers=2)
        coll = SortedRRRCollection(ba_graph.n)
        eng.sample_into(coll, np.arange(200, dtype=np.int64), 3)
        names = [rec["seg"].name for rec in eng._arena]
        assert names  # the run really wrote through an arena segment
        eng.close()
        for name in names:  # unlinked: attaching must fail
            with pytest.raises(FileNotFoundError):
                _shm.SharedMemory(name=name)

    def test_arena_unlinked_on_worker_crash(self, ba_graph, crash_block_1):
        """The crash path must unlink every arena segment, including
        growth segments allocated mid-run (4 KiB start forces them)."""
        eng = ParallelSamplingEngine(
            ba_graph, "IC", workers=2, chunk_size=50, arena_bytes=4096
        )
        names: list[str] = []
        orig = eng._new_arena_segment

        def spy(min_bytes):
            out = orig(min_bytes)
            names.append(eng._arena[-1]["seg"].name)
            return out

        eng._new_arena_segment = spy
        coll = SortedRRRCollection(ba_graph.n)
        with pytest.raises(WorkerCrashError):
            eng.sample_into(coll, np.arange(200, dtype=np.int64), 3)
        assert eng.closed and names
        for name in names:
            with pytest.raises(FileNotFoundError):
                _shm.SharedMemory(name=name)

    def test_descriptor_stays_within_byte_budget(self, ba_graph):
        """Workers return tiny descriptors, not pickled payloads: the
        per-block IPC bytes must stay under the fixed budget."""
        with ParallelSamplingEngine(ba_graph, "IC", workers=2) as eng:
            _drive(eng, ba_graph, THETA, seed=3, chunk_size=50)
            s = eng.stats
            assert s.blocks_landed > 0
            assert s.arena_overflows == 0  # nothing rode back inline
            assert s.ipc_descriptor_bytes / s.blocks_landed <= DESCRIPTOR_BYTE_BUDGET

    def test_fused_merge_equals_bincount(self, ba_graph):
        with ParallelSamplingEngine(ba_graph, "IC", workers=2) as eng:
            coll = SortedRRRCollection(ba_graph.n)
            eng.sample_into(coll, np.arange(THETA, dtype=np.int64), 3)
            flat, _ = coll.flattened()
            expect = np.bincount(flat, minlength=ba_graph.n)
            counts = eng.count_partitioned(flat, ba_graph.n)
            assert np.array_equal(counts, expect)
            assert eng.stats.fused_count_merges == 1
            # A pool rebuild wipes the worker counter rows, so the fused
            # path must refuse and fall back — still the exact answer.
            eng.rebuild_pool()
            assert eng.stats.fused_invalidations >= 1
            counts = eng.count_partitioned(flat, ba_graph.n)
            assert np.array_equal(counts, expect)
            assert eng.stats.fused_count_merges == 1  # no second merge


@pytest.mark.parallel
class TestFailureModes:
    def test_worker_crash_raises_typed_error_and_unlinks(self, ba_graph, crash_block_1):
        """A worker dying mid-block must not hang or leak segments."""
        eng = ParallelSamplingEngine(ba_graph, "IC", workers=2, chunk_size=50)
        seg_names = [seg.name for seg in eng._segments]
        assert seg_names  # the pool mode really did share memory
        coll = SortedRRRCollection(ba_graph.n)
        with pytest.raises(WorkerCrashError):
            eng.sample_into(coll, np.arange(200, dtype=np.int64), 3)
        assert eng.closed
        for name in seg_names:  # unlinked: attaching must fail
            with pytest.raises(FileNotFoundError):
                _shm.SharedMemory(name=name)

    @pytest.mark.parametrize(
        "engine_cls", [ParallelSamplingEngine, SupervisedSamplingEngine]
    )
    def test_bad_edge_flip_refused_before_any_block(self, ba_graph_lt, engine_cls):
        """An edge-coin mode the model cannot draw is refused in the
        parent: no block is submitted and the engine keeps sampling."""
        ref = _reference(ba_graph_lt, "LT", 120, seed=2)
        with engine_cls(ba_graph_lt, "LT", workers=2, chunk_size=31) as eng:
            for bad in ("bogus", "hash"):
                with pytest.raises(ValueError):
                    eng.sample_into(
                        SortedRRRCollection(ba_graph_lt.n),
                        np.arange(120, dtype=np.int64),
                        2,
                        edge_flip=bad,
                    )
                assert eng.stats.tasks_submitted == 0
            got = _drive(eng, ba_graph_lt, 120, seed=2)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_close_is_idempotent_and_fences(self, ba_graph):
        eng = ParallelSamplingEngine(ba_graph, "IC", workers=2)
        eng.close()
        eng.close()  # second close is a no-op
        assert eng.closed
        with pytest.raises(ParallelEngineError):
            eng.sample_into(
                SortedRRRCollection(ba_graph.n), np.arange(4, dtype=np.int64), 0
            )
        with pytest.raises(ParallelEngineError):
            eng.count_partitioned(np.zeros(4, dtype=np.int64), ba_graph.n)

    def test_no_resource_tracker_warnings(self, tmp_path):
        """End-to-end run in a fresh interpreter leaves stderr clean.

        The parent owns create+unlink and workers never unregister; a
        violation of that discipline surfaces as resource_tracker
        KeyErrors or "leaked shared_memory" warnings at interpreter
        shutdown — exactly what this subprocess scan would catch.
        """
        script = tmp_path / "engine_cleanliness.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.graph import barabasi_albert, uniform_random_weights\n"
            "from repro.sampling import ParallelSamplingEngine, SortedRRRCollection\n"
            "if __name__ == '__main__':\n"
            "    g = uniform_random_weights(barabasi_albert(200, 3, seed=7), seed=3)\n"
            "    # 4 KiB arena: growth segments must be tracked and unlinked too\n"
            "    with ParallelSamplingEngine(g, 'IC', workers=2, arena_bytes=4096) as eng:\n"
            "        coll = SortedRRRCollection(g.n)\n"
            "        eng.sample_into(coll, np.arange(150, dtype=np.int64), 1)\n"
            "    print('OK', len(coll))\n"
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK 150" in proc.stdout
        assert "resource_tracker" not in proc.stderr
        assert "leaked" not in proc.stderr


@pytest.mark.parallel
class TestDriverEquivalence:
    """``workers=w`` must be invisible in every driver's answer."""

    def test_imm_workers_bit_identical(self, ba_graph):
        serial = imm(ba_graph, k=8, eps=0.5, seed=4)
        par = imm(ba_graph, k=8, eps=0.5, seed=4, workers=2)
        assert np.array_equal(serial.seeds, par.seeds)
        assert serial.theta == par.theta
        assert serial.coverage == par.coverage
        assert par.extra["workers"] == 2

    def test_imm_mt_real_parallel_bit_identical(self, ba_graph):
        modeled = imm_mt(ba_graph, k=8, eps=0.5, num_threads=2, seed=3)
        real = imm_mt(
            ba_graph, k=8, eps=0.5, num_threads=2, seed=3, real_parallel=True
        )
        assert np.array_equal(modeled.seeds, real.seeds)
        assert modeled.theta == real.theta
        assert modeled.breakdown == real.breakdown  # modeled time unchanged
        assert real.extra["real_parallel"] is True
        assert real.extra["engine_workers"] == 2
        assert "measured" in real.extra["time_report"]
        assert "modeled(p=2)" in real.extra["time_report"]

    def test_imm_sweep_workers_bit_identical(self, ba_graph):
        serial = imm_sweep(ba_graph, [5, 10], 0.5, seed=1)
        par = imm_sweep(ba_graph, [5, 10], 0.5, seed=1, workers=2)
        for s, p in zip(serial, par):
            assert np.array_equal(s.seeds, p.seeds)
            assert s.theta == p.theta

    def test_driver_validation(self, ba_graph):
        with pytest.raises(ValueError):
            imm(ba_graph, k=5, eps=0.5, seed=1, workers=0)
        with pytest.raises(ValueError):
            imm(ba_graph, k=5, eps=0.5, seed=1, layout="hypergraph", workers=2)
        with pytest.raises(ValueError):
            imm_mt(ba_graph, k=5, eps=0.5, num_threads=2, seed=1, workers=2)
