"""Frozen index format tests (repro.serving.frozen).

Freeze/open round trips, the integrity seal, the graph fingerprint
binding, the refusal of any layout but flat, zero-copy prefix views,
in-place extension and its writer lock, manifest amendment, and crash
consistency of both write paths.
"""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.sampling.store as store_mod
from repro import imm
from repro.datasets import load
from repro.graph import CSRGraph
from repro.imm.select import select_seeds
from repro.sampling import SortedRRRCollection, sample_batch
from repro.serving import (
    FrozenCollectionView,
    FrozenIndexError,
    FrozenRRRIndex,
    InfluenceQueryEngine,
    StaleIndexError,
    UnknownLayoutError,
    freeze_index,
    graph_fingerprint,
)

SEED = 3
THETA = 60


def _sampled(graph, theta=THETA):
    coll = SortedRRRCollection(graph.n)
    batch = sample_batch(graph, "IC", coll, theta, SEED)
    return coll, batch


def _freeze(graph, coll, batch, out_dir, **kw):
    kw.setdefault("graph", graph)
    kw.setdefault("seed", SEED)
    return FrozenRRRIndex.freeze(
        coll, out_dir, model="IC", k=5, eps=0.5,
        edges=batch.per_sample_edges, **kw,
    )


def _tail(graph, start, extra=20, seed=SEED):
    """``extend`` arguments for samples ``[start, start + extra)``."""
    full = SortedRRRCollection(graph.n)
    batch = sample_batch(graph, "IC", full, start + extra, seed)
    flat, indptr = full.flattened()
    return (
        flat[indptr[start]:], np.diff(indptr)[start:], batch.per_sample_edges[start:],
    )


class TestFreezeOpen:
    def test_roundtrip_bitwise(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        index.close()
        with FrozenRRRIndex.open(tmp_path / "idx", graph=ba_graph) as back:
            flat, indptr, sample_of = back.arrays()
            ref_flat, ref_indptr = coll.flattened()
            assert np.array_equal(np.asarray(flat), ref_flat)
            assert np.array_equal(indptr, ref_indptr)
            # Each entry's owner is the sample whose row holds it.
            assert sample_of.dtype == np.int64 and len(sample_of) == len(flat)
            for j in range(len(indptr) - 1):
                assert (sample_of[indptr[j] : indptr[j + 1]] == j).all()
            assert np.array_equal(
                np.asarray(back.per_sample_edges()), batch.per_sample_edges
            )
            assert back.n == ba_graph.n
            assert back.num_samples == THETA

    def test_freeze_from_collection_needs_edge_meters(self, ba_graph, tmp_path):
        coll, _ = _sampled(ba_graph)
        with pytest.raises(ValueError, match="examined-edge meters"):
            FrozenRRRIndex.freeze(
                coll, tmp_path / "idx", graph=ba_graph,
                model="IC", seed=SEED, k=5, eps=0.5,
            )

    def test_open_is_zero_copy(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        index.close()
        with FrozenRRRIndex.open(tmp_path / "idx") as back:
            flat, _ = back.rows()
            assert isinstance(flat, np.memmap)
            assert flat is back.arrays()[0]

    def test_open_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "INDEX.json").write_text('{"format": "something-else"}')
        with pytest.raises(FrozenIndexError, match="not a frozen RRR index"):
            FrozenRRRIndex.open(tmp_path)

    def test_closed_index_refuses_reads(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        index.close()
        with pytest.raises(FrozenIndexError, match="closed"):
            index.arrays()


class TestSeal:
    def test_wrong_file_size_fails(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        p = tmp_path / "idx" / "sizes.i64.bin"
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FrozenIndexError, match="torn or was edited"):
            FrozenRRRIndex.open(tmp_path / "idx")

    def test_tampered_sample_count_fails_stream_fold(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        mpath = tmp_path / "idx" / "INDEX.json"
        manifest = json.loads(mpath.read_text())
        # Claim one sample fewer, shaving the binaries to match the fake
        # count so only the stream fingerprint can notice.
        last = manifest["num_samples"] - 1
        sizes = np.fromfile(tmp_path / "idx" / "sizes.i64.bin", dtype=np.int64)
        manifest["num_samples"] = last
        manifest["entries"] = int(sizes[:last].sum())
        mpath.write_text(json.dumps(manifest))
        for name, width in (("flat.i32.bin", 4), ("sizes.i64.bin", 8),
                            ("edges.i64.bin", 8)):
            p = tmp_path / "idx" / name
            want = (manifest["entries"] if name.startswith("flat") else last) * width
            p.write_bytes(p.read_bytes()[:want])
        with pytest.raises(FrozenIndexError, match="stream fingerprint"):
            FrozenRRRIndex.open(tmp_path / "idx")


class TestLayout:
    def test_new_manifests_name_the_flat_layout(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        manifest = json.loads((tmp_path / "idx" / "INDEX.json").read_text())
        assert manifest["layout"] == "flat"

    def test_compressed_layout_index_is_refused(self, tmp_path):
        # Earlier versions could freeze a frequency-ranked delta+varint
        # section in place of flat.i32.bin.  Written here by hand: three
        # samples over four vertices under the identity rank
        # permutation, each coded as its first rank then positive gaps,
        # one LEB128 byte apiece.  This reader refuses it by name.
        out = tmp_path / "idx"
        out.mkdir()
        files = {
            "coded.u8.bin": np.asarray([0, 2, 1, 2, 1], dtype=np.uint8),  # [0,2] [1] [2,3]
            "offsets.i64.bin": np.asarray([2, 3, 5], dtype=np.int64),
            "perm.i64.bin": np.arange(4, dtype=np.int64),
            "sizes.i64.bin": np.asarray([2, 1, 2], dtype=np.int64),
            "edges.i64.bin": np.asarray([1, 0, 2], dtype=np.int64),
        }
        for name, arr in files.items():
            arr.tofile(out / name)
        manifest = {
            "format": "repro-frozen-rrr-index", "version": 1,
            "n": 4, "model": "IC", "seed": SEED, "k": 1, "eps": 0.5, "l": 1.0,
            "theta": 3, "lb": None, "theta_cap": None,
            "estimation_rounds": None, "coverage_history": [],
            "num_samples": 3, "entries": 5,
            "layout": "compressed", "encoding_version": 1, "coded_bytes": 5,
            "stream_fold": store_mod._fold_range(SEED, 0, 3),
            "graph_fingerprint": None, "created_unix": 0.0,
        }
        (out / "INDEX.json").write_text(json.dumps(manifest))
        with pytest.raises(UnknownLayoutError, match="'compressed'.*re-freeze"):
            FrozenRRRIndex.open(out)


class TestGraphBinding:
    def test_fingerprint_is_content_addressed(self, ba_graph):
        clone = CSRGraph(
            ba_graph.n,
            ba_graph.out_indptr.copy(), ba_graph.out_indices.copy(),
            ba_graph.out_probs.copy(),
            ba_graph.in_indptr.copy(), ba_graph.in_indices.copy(),
            ba_graph.in_probs.copy(),
        )
        assert graph_fingerprint(clone) == graph_fingerprint(ba_graph)
        nudged = CSRGraph(
            ba_graph.n,
            ba_graph.out_indptr, ba_graph.out_indices, ba_graph.out_probs * 0.999,
            ba_graph.in_indptr, ba_graph.in_indices, ba_graph.in_probs * 0.999,
        )
        assert graph_fingerprint(nudged) != graph_fingerprint(ba_graph)

    def test_open_with_changed_graph_raises(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        changed = CSRGraph(
            ba_graph.n,
            ba_graph.out_indptr, ba_graph.out_indices, ba_graph.out_probs * 0.5,
            ba_graph.in_indptr, ba_graph.in_indices, ba_graph.in_probs * 0.5,
        )
        with pytest.raises(StaleIndexError, match="stale index"):
            FrozenRRRIndex.open(tmp_path / "idx", graph=changed)
        # Without a graph the open still succeeds (pure in-index serving).
        FrozenRRRIndex.open(tmp_path / "idx").close()

    def test_unbound_index_accepts_any_graph(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = FrozenRRRIndex.freeze(
            coll, tmp_path / "idx", graph=None,
            model="IC", seed=SEED, k=5, eps=0.5,
            edges=batch.per_sample_edges,
        )
        index.close()
        FrozenRRRIndex.open(tmp_path / "idx", graph=ba_graph).close()


class TestPrefixViews:
    def test_view_matches_prefix_selection(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        try:
            for m in (1, 7, THETA // 2, THETA):
                view = index.collection_view(m)
                assert len(view) == m
                prefix = SortedRRRCollection(ba_graph.n)
                sample_batch(ba_graph, "IC", prefix, m, SEED)
                got = select_seeds(view, ba_graph.n, 3)
                want = select_seeds(prefix, ba_graph.n, 3)
                assert np.array_equal(got.seeds, want.seeds)
                assert got.covered_samples == want.covered_samples
        finally:
            index.close()

    def test_views_are_read_only(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        try:
            view = index.collection_view()
            with pytest.raises(FrozenIndexError, match="read-only"):
                view.append(np.asarray([1, 2], dtype=np.int64))
            with pytest.raises(FrozenIndexError, match="read-only"):
                view.append_batch(
                    np.asarray([1], dtype=np.int64),
                    np.asarray([1], dtype=np.int64),
                )
            assert isinstance(view, FrozenCollectionView)
        finally:
            index.close()


class TestExtend:
    def test_extend_appends_and_reseals(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        try:
            full = SortedRRRCollection(ba_graph.n)
            full_batch = sample_batch(ba_graph, "IC", full, THETA + 20, SEED)
            f_flat, f_indptr = full.flattened()
            tail_lo = f_indptr[THETA]
            index.extend(
                f_flat[tail_lo:].astype(np.int32),
                np.diff(f_indptr)[THETA:],
                full_batch.per_sample_edges[THETA:],
                start=THETA,
            )
            assert index.num_samples == THETA + 20
            flat, indptr, _ = index.arrays()
            assert np.array_equal(np.asarray(flat), f_flat)
            assert np.array_equal(indptr, f_indptr)
        finally:
            index.close()
        # The extended artifact survives a fresh open + seal check.
        with FrozenRRRIndex.open(tmp_path / "idx", graph=ba_graph) as back:
            assert back.num_samples == THETA + 20

    def test_stale_handle_refuses_to_extend(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        full = SortedRRRCollection(ba_graph.n)
        full_batch = sample_batch(ba_graph, "IC", full, THETA + 20, SEED)
        f_flat, f_indptr = full.flattened()
        tail = (
            f_flat[f_indptr[THETA]:].astype(np.int32),
            np.diff(f_indptr)[THETA:],
            full_batch.per_sample_edges[THETA:],
        )
        with FrozenRRRIndex.open(tmp_path / "idx") as writer, \
                FrozenRRRIndex.open(tmp_path / "idx") as stale:
            writer.extend(*tail, start=THETA)
            # The stale handle still certifies THETA samples; truncating
            # to that would cut the samples the writer just sealed.
            with pytest.raises(FrozenIndexError, match="behind this handle"):
                stale.extend(*tail, start=THETA)
        with FrozenRRRIndex.open(tmp_path / "idx") as back:
            assert back.num_samples == THETA + 20
            assert np.array_equal(np.asarray(back.arrays()[0]), f_flat)

    def test_racing_writer_waits_then_refuses(self, ba_graph, tmp_path, monkeypatch):
        # Two handles race one extension: the first passes the stale
        # check and stalls there.  The second must wait for the first's
        # seal and refuse — it must not extend in that window, after
        # which the first would truncate to the old seal under the
        # second's mapped pages (reading them raises SIGBUS).
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        full = SortedRRRCollection(ba_graph.n)
        full_batch = sample_batch(ba_graph, "IC", full, THETA + 20, SEED)
        f_flat, f_indptr = full.flattened()
        tail = (
            f_flat[f_indptr[THETA]:],
            np.diff(f_indptr)[THETA:],
            full_batch.per_sample_edges[THETA:],
        )
        checked, sealed = threading.Event(), threading.Event()
        read = store_mod._read_manifest

        def stalled_read(*args):
            manifest = read(*args)
            if threading.current_thread().name == "first":
                checked.set()
                sealed.wait(timeout=0.3)
            return manifest

        outcome = {}

        def extend(handle):
            name = threading.current_thread().name
            try:
                handle.extend(*tail, start=THETA)
                outcome[name] = "extended"
            except FrozenIndexError:
                outcome[name] = "refused"
            finally:
                if name == "second":
                    sealed.set()

        with FrozenRRRIndex.open(tmp_path / "idx") as a, \
                FrozenRRRIndex.open(tmp_path / "idx") as b:
            monkeypatch.setattr(store_mod, "_read_manifest", stalled_read)
            first = threading.Thread(target=extend, args=(a,), name="first")
            second = threading.Thread(target=extend, args=(b,), name="second")
            first.start()
            assert checked.wait(timeout=10)
            second.start()
            first.join()
            second.join()
            assert outcome == {"first": "extended", "second": "refused"}
            assert np.array_equal(np.asarray(a.arrays()[0]), f_flat)
            assert b.num_samples == THETA
        with FrozenRRRIndex.open(tmp_path / "idx") as back:
            assert back.num_samples == THETA + 20
            assert np.array_equal(np.asarray(back.arrays()[0]), f_flat)

    def test_extend_waits_for_a_refreeze_then_refuses(self, ba_graph, tmp_path, monkeypatch):
        # A re-freeze under the next seed stalls with its data durable
        # and its manifest not yet renamed in.  An extend through a
        # handle opened before it must wait for the new manifest and then
        # refuse: extending in that window would append the old seed's
        # samples to the files the new manifest retires.
        out = tmp_path / "idx"
        index, _ = freeze_index(ba_graph, 5, 0.5, "IC", SEED, out_dir=out)
        tail = _tail(ba_graph, index.num_samples)
        renamed, release = threading.Event(), threading.Event()
        replace = os.replace

        def stalled_replace(src, dst):
            if threading.current_thread().name == "refreeze" and Path(dst).name == "INDEX.json":
                renamed.set()
                release.wait(timeout=30)
            replace(src, dst)

        outcome = {}

        def extend():
            try:
                index.extend(*tail, start=index.num_samples)
                outcome["extend"] = "extended"
            except FrozenIndexError:
                outcome["extend"] = "refused"

        monkeypatch.setattr(store_mod.os, "replace", stalled_replace)
        refreeze = threading.Thread(
            target=lambda: freeze_index(ba_graph, 5, 0.5, "IC", SEED + 1, out_dir=out)[0].close(),
            name="refreeze",
        )
        writer = threading.Thread(target=extend, name="extend")
        try:
            refreeze.start()
            assert renamed.wait(timeout=30)
            writer.start()
            writer.join(timeout=0.5)
            assert writer.is_alive()  # waiting for the re-freeze's lock
        finally:
            release.set()
            refreeze.join(timeout=60)
            writer.join(timeout=60)
            index.close()
        monkeypatch.undo()
        assert not refreeze.is_alive() and not writer.is_alive()
        assert outcome == {"extend": "refused"}
        fresh = imm(ba_graph, 5, 0.5, "IC", seed=SEED + 1)
        with FrozenRRRIndex.open(out, graph=ba_graph) as back:
            served = InfluenceQueryEngine(back).top_k()
        assert np.array_equal(served.seeds, fresh.seeds)
        assert served.theta == fresh.theta

    def test_equal_size_refreeze_under_another_seed_refuses_extend(self, ba_graph, tmp_path):
        # The same samples frozen again under another seed label leave
        # every certified byte size as it was; only the seal moves.
        coll, batch = _sampled(ba_graph)
        _freeze(ba_graph, coll, batch, tmp_path / "idx").close()
        with FrozenRRRIndex.open(tmp_path / "idx") as stale:
            _freeze(ba_graph, coll, batch, tmp_path / "idx", seed=SEED + 1).close()
            with pytest.raises(FrozenIndexError, match="behind this handle"):
                stale.extend(*_tail(ba_graph, THETA), start=THETA)
        with FrozenRRRIndex.open(tmp_path / "idx") as back:
            assert (back.seed, back.num_samples) == (SEED + 1, THETA)

    def test_extend_must_start_at_sealed_count(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        try:
            one = np.asarray([2], dtype=np.int64)
            with pytest.raises(FrozenIndexError, match="must start at"):
                index.extend(
                    np.asarray([1, 3], dtype=np.int32), one * 2, one,
                    start=THETA + 1,
                )
            with pytest.raises(FrozenIndexError, match="inconsistent"):
                index.extend(
                    np.asarray([1], dtype=np.int32),
                    np.asarray([2], dtype=np.int64),
                    one, start=THETA,
                )
        finally:
            index.close()


class TestAmend:
    def test_amend_persists_and_restricts(self, ba_graph, tmp_path):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        try:
            index.amend(eps=0.3, theta=THETA, coverage_history=[(THETA, 0.5)])
            with pytest.raises(ValueError, match="not amendable"):
                index.amend(seed=99)
            with pytest.raises(ValueError, match="not amendable"):
                index.amend(num_samples=1)
        finally:
            index.close()
        with FrozenRRRIndex.open(tmp_path / "idx") as back:
            assert back.manifest["eps"] == 0.3
            assert back.manifest["coverage_history"] == [[THETA, 0.5]]
            assert back.seed == SEED  # identity untouched

    def test_failed_write_leaves_manifest(self, ba_graph, tmp_path, monkeypatch):
        coll, batch = _sampled(ba_graph)
        index = _freeze(ba_graph, coll, batch, tmp_path / "idx")
        try:
            before = dict(index.manifest)
            monkeypatch.setattr(store_mod, "_write_manifest", _fail_write)
            with pytest.raises(OSError, match="injected"):
                index.amend(eps=0.3)
            assert index.manifest == before
        finally:
            index.close()


def _fail_write(*args):
    raise OSError("injected manifest-write failure")


def _certified(manifest) -> dict:
    """Byte sizes of the appended data files that ``manifest`` seals."""
    num = manifest["num_samples"]
    return {
        "flat.i32.bin": manifest["entries"] * 4,
        "sizes.i64.bin": num * 8,
        "edges.i64.bin": num * 8,
    }


def _sizes(path, names) -> dict:
    return {name: (path / name).stat().st_size for name in names}


def _answers(engine):
    """What a client sees: a default top_k and a what_if over the index."""
    out = []
    for res in (engine.top_k(), engine.what_if(10)):
        out.append((
            res.seeds.tolist(), res.theta, res.num_samples_used, res.coverage,
        ))
    return out


class TestCrashConsistency:
    """A failed manifest write in the middle of ``tighten`` — data
    appended and fsync'd, manifest not renamed — must leave the index
    openable and the live engine answering at the old sealed state."""

    def test_failed_tighten_keeps_old_state(self, tmp_path, monkeypatch):
        graph = load("cit-HepTh", "IC")
        out = tmp_path / "idx"
        index, _ = freeze_index(graph, 10, 0.5, "IC", 0, out_dir=out)
        try:
            engine = InfluenceQueryEngine(index, graph=graph)
            sealed = dict(index.manifest)
            certified = _certified(sealed)
            before = _answers(engine)

            with monkeypatch.context() as mp:
                mp.setattr(store_mod, "_write_manifest", _fail_write)
                with pytest.raises(OSError, match="injected"):
                    engine.tighten(0.3)
            torn = _sizes(out, certified)
            # Every appended file carries an unsealed tail.
            assert all(torn[name] > want for name, want in certified.items())
            assert index.manifest == sealed
            assert _answers(engine) == before

            # open() maps the certified bytes and leaves the tail alone.
            with FrozenRRRIndex.open(out, graph=graph) as back:
                assert back.num_samples == sealed["num_samples"]
                assert _answers(InfluenceQueryEngine(back)) == before
            assert _sizes(out, certified) == torn

            res = engine.tighten(0.3)
        finally:
            index.close()
        fresh = imm(graph, 10, 0.3, "IC", seed=0)
        assert np.array_equal(res.seeds, fresh.seeds)
        with FrozenRRRIndex.open(out, graph=graph) as back:
            served = InfluenceQueryEngine(back).top_k(10, 0.3)
            assert np.array_equal(served.seeds, fresh.seeds)
            assert served.theta == fresh.theta
            assert served.coverage_history == fresh.extra["coverage_history"]
            # The retried extension cut the torn tail before appending.
            certified = _certified(back.manifest)
            assert _sizes(out, certified) == certified
