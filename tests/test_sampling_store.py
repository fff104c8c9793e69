"""The durable RRR store (repro.sampling.store) behind the checkpoint
spill and the frozen index.

The crash-point sweep over every durable write, generation files on a
re-freeze, an open that loses the race to their unlink, the typed error
of a run directory without a readable manifest, and directories written
in the format the store keeps for compatibility (an ``INDEX.json`` that
names no files; a ``MANIFEST.json`` plus ``cursor.json`` run directory).
"""

import json

import numpy as np
import pytest

from repro import imm
from repro.datasets import load
from repro.rng.streams import stream_seeds_array
from repro.sampling import (
    BatchedRRRSampler,
    BlockCheckpointSink,
    CheckpointError,
    SortedRRRCollection,
    SupervisedSamplingEngine,
    sample_batch,
)
from repro.serving import FrozenIndexError, FrozenRRRIndex, InfluenceQueryEngine, freeze_index
from repro.validate.durability import check_crash_points
from repro.validate.oracle import quick_config

SEED = 3
FILES = ("flat.i32.bin", "sizes.i64.bin", "edges.i64.bin")


def _fold(seed, num):
    """The seal as a plain XOR fold of the stream seeds of [0, num)."""
    seeds = stream_seeds_array(seed, np.arange(num, dtype=np.int64))
    return int(np.bitwise_xor.reduce(seeds)) if num else 0


def _freeze(graph, out, seed=SEED, theta=60):
    coll = SortedRRRCollection(graph.n)
    batch = sample_batch(graph, "IC", coll, theta, seed)
    return FrozenRRRIndex.freeze(
        coll, out, graph=graph, model="IC", seed=seed, k=5, eps=0.5,
        edges=batch.per_sample_edges,
    )


class TestCrashPoints:
    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_every_durable_write_leaves_a_sealed_state(self, model):
        # Each write, truncate, fsync and rename of sink init,
        # append_block, freeze, re-freeze, extend and amend raises in
        # turn; every reopen is the old or new sealed state and answers
        # as a fresh imm(), and every open handle holds the old state.
        report = check_crash_points(load("cit-HepTh", model), model, quick_config(), model)
        assert report.ok, [str(v) for v in report.violations[:5]]
        # 70 interrupted operations and 6 completed ones, each reopened;
        # the 47 of them with an open handle also check that handle.
        assert report.checks_run == 76 + 47


class TestGenerations:
    def test_refreeze_writes_new_files_and_retires_the_old(self, ba_graph, tmp_path):
        out = tmp_path / "idx"
        _freeze(ba_graph, out).close()
        assert "files" not in json.loads((out / "INDEX.json").read_text())
        with FrozenRRRIndex.open(out) as held:
            want = np.array(held.rows()[0])
            for gen in (1, 2):
                _freeze(ba_graph, out, seed=SEED + gen).close()
                names = [f.replace(".", f".{gen}.", 1) for f in FILES]
                assert json.loads((out / "INDEX.json").read_text())["files"] == names
                assert sorted(p.name for p in out.glob("*.bin")) == sorted(names)
            # The handle opened before keeps the generation it mapped.
            assert np.array_equal(np.asarray(held.rows()[0]), want)
        with FrozenRRRIndex.open(out) as back:
            assert back.seed == SEED + 2
            back.extend(*_tail(ba_graph, back), start=back.num_samples)
        with FrozenRRRIndex.open(out) as back:
            assert back.num_samples == 80

    def test_stale_handle_refuses_to_amend(self, ba_graph, tmp_path):
        # Amending through a handle opened before a re-freeze would seal
        # the old seed's facts over the new seed's samples.
        out = tmp_path / "idx"
        _freeze(ba_graph, out).close()
        with FrozenRRRIndex.open(out) as stale:
            _freeze(ba_graph, out, seed=SEED + 1).close()
            with pytest.raises(FrozenIndexError, match="behind this handle"):
                stale.amend(eps=0.3)
        with FrozenRRRIndex.open(out) as back:
            assert (back.seed, back.manifest["eps"]) == (SEED + 1, 0.5)

    def test_open_that_loses_the_unlink_race_retries(self, ba_graph, tmp_path, monkeypatch):
        # A re-freeze commits and unlinks the files the manifest an
        # open() just read names: the open re-reads and maps the new
        # generation, never a mix of the two.
        out = tmp_path / "idx"
        _freeze(ba_graph, out).close()
        verify = FrozenRRRIndex._verify

        def racing(self):
            monkeypatch.setattr(FrozenRRRIndex, "_verify", verify)
            _freeze(ba_graph, out, seed=SEED + 1).close()
            verify(self)

        monkeypatch.setattr(FrozenRRRIndex, "_verify", racing)
        with FrozenRRRIndex.open(out) as back:
            assert back.seed == SEED + 1
            assert back.manifest["files"][0] == "flat.1.i32.bin"
            ref = SortedRRRCollection(ba_graph.n)
            sample_batch(ba_graph, "IC", ref, 60, SEED + 1)
            assert np.array_equal(np.asarray(back.rows()[0]), ref.flattened()[0])


def _tail(graph, index, extra=20):
    start = index.num_samples
    coll = SortedRRRCollection(graph.n)
    edges = BatchedRRRSampler(graph, "IC").sample_into(
        coll, np.arange(start, start + extra, dtype=np.int64), index.seed
    )
    flat, indptr = coll.flattened()
    return flat, np.diff(indptr), edges


class TestRunDirectorySource:
    @pytest.mark.parametrize("manifest", [None, "{not json", '["a list"]'])
    def test_unreadable_checkpoint_manifest_is_typed(self, ba_graph, tmp_path, manifest):
        run = tmp_path / "run"
        with BlockCheckpointSink(run, n=ba_graph.n, model="IC", seed=SEED):
            pass
        if manifest is None:
            (run / "MANIFEST.json").unlink()
        else:
            (run / "MANIFEST.json").write_text(manifest)
        with pytest.raises(CheckpointError):
            FrozenRRRIndex.freeze(
                run, tmp_path / "idx", graph=ba_graph, model="IC", seed=SEED, k=5, eps=0.5,
            )


class TestCompatibleFormats:
    """Directories written field for field in the format the store keeps."""

    def test_index_without_file_names_serves_imm(self, tmp_path):
        graph = load("cit-HepTh", "IC")
        sampled, _ = freeze_index(graph, 10, 0.5, "IC", SEED, out_dir=tmp_path / "src")
        flat, indptr = sampled.rows()
        out = tmp_path / "idx"
        out.mkdir()
        np.asarray(flat, dtype=np.int32).tofile(out / FILES[0])
        np.diff(indptr).astype(np.int64).tofile(out / FILES[1])
        np.asarray(sampled.per_sample_edges(), dtype=np.int64).tofile(out / FILES[2])
        mf = sampled.manifest
        manifest = {
            "format": "repro-frozen-rrr-index", "version": 1,
            "n": graph.n, "model": "IC", "seed": SEED,
            "k": 10, "eps": 0.5, "l": 1.0, "theta": mf["theta"], "lb": mf["lb"],
            "theta_cap": None, "estimation_rounds": mf["estimation_rounds"],
            "coverage_history": mf["coverage_history"],
            "num_samples": len(indptr) - 1, "entries": len(flat), "layout": "flat",
            "stream_fold": _fold(SEED, len(indptr) - 1),
            "graph_fingerprint": mf["graph_fingerprint"], "created_unix": 0.0,
        }
        (out / "INDEX.json").write_text(json.dumps(manifest, indent=2))
        sampled.close()
        fresh = imm(graph, 10, 0.5, "IC", seed=SEED)
        with FrozenRRRIndex.open(out, graph=graph) as index:
            served = InfluenceQueryEngine(index).top_k()
            assert np.array_equal(served.seeds, fresh.seeds)
            assert served.theta == fresh.theta
            # It extends in place, under today's names.
            tightened = InfluenceQueryEngine(index, graph=graph).tighten(0.4)
        assert np.array_equal(tightened.seeds, imm(graph, 10, 0.4, "IC", seed=SEED).seeds)
        assert sorted(p.name for p in out.glob("*.bin")) == sorted(FILES)

    def test_run_directory_resumes_a_supervised_run(self, ba_graph, tmp_path):
        theta, landed = 120, 50
        ref = SortedRRRCollection(ba_graph.n)
        ref_edges = BatchedRRRSampler(ba_graph, "IC").sample_into(
            ref, np.arange(theta, dtype=np.int64), SEED
        )
        flat, indptr = ref.flattened()
        run = tmp_path / "run"
        run.mkdir()
        (run / "MANIFEST.json").write_text(json.dumps({
            "format": "repro-block-checkpoint", "version": 1,
            "n": ba_graph.n, "model": "IC", "seed": SEED, "created_unix": 0.0,
        }, indent=2))
        flat[: indptr[landed]].astype(np.int32).tofile(run / FILES[0])
        np.diff(indptr)[:landed].astype(np.int64).tofile(run / FILES[1])
        ref_edges[:landed].astype(np.int64).tofile(run / FILES[2])
        (run / "cursor.json").write_text(json.dumps({
            "landed": landed, "entries": int(indptr[landed]),
            "stream_fold": _fold(SEED, landed),
        }))
        with SupervisedSamplingEngine(ba_graph, "IC", workers=1, resume_from=run) as eng:
            coll = SortedRRRCollection(ba_graph.n)
            edges = eng.sample_into(coll, np.arange(theta, dtype=np.int64), SEED)
            assert eng.stats.resumed_samples == landed
        got_flat, got_indptr = coll.flattened()
        assert np.array_equal(got_flat, flat)
        assert np.array_equal(got_indptr, indptr)
        assert np.array_equal(edges, ref_edges)
