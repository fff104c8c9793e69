"""Query-engine tests (repro.serving.query / repro.serving.cache).

The load-bearing property is prefix-view parity: the greedy kernel over
a frozen prefix cut from the engine's cached hit index must
reproduce ``select_seeds`` over the same samples bit for bit (same
seeds, same covered count, same smallest-id tie-break) on any prefix —
that parity is what makes the θ-estimation replay, and therefore every
served answer, bit-identical to a fresh ``imm()``.
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.sampling.store as store_module
from repro.datasets import load
from repro.graph import CSRGraph
from repro.imm import imm
from repro.imm.select import drive, greedy_cover, select_seeds
from repro.serving import (
    FrozenIndexError,
    FrozenRRRIndex,
    IndexCache,
    InfluenceQueryEngine,
    StaleIndexError,
    freeze_index,
)

K = 5
EPS = 0.5
SEED = 3
CAP = 300


@pytest.fixture(scope="module")
def frozen(ba_graph, tmp_path_factory):
    """One capped frozen index shared by the read-only tests."""
    out = tmp_path_factory.mktemp("serving") / "index"
    index, res = freeze_index(
        ba_graph, K, EPS, "IC", SEED, theta_cap=CAP, out_dir=out
    )
    index.close()
    return out, res


class TestCelfParity:
    """The kernel over the engine's prefix view against ``select_seeds``
    over a fresh collection view of the same samples."""

    def test_matches_eager_selector_on_prefixes(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out, graph=ba_graph) as index:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            for m in (1, 3, 17, CAP // 2, index.num_samples):
                for k in (1, 2, K):
                    seeds, state = drive(greedy_cover(eng._prefix(m), k))
                    want = select_seeds(
                        index.collection_view(m), ba_graph.n, k
                    )
                    assert np.array_equal(seeds, want.seeds), (m, k)
                    assert state.covered == want.covered_samples, (m, k)

    def test_forced_vertices_seat_first(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out, graph=ba_graph) as index:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            view = eng._prefix(index.num_samples)
            seeds, _ = drive(greedy_cover(view, K, forced=(42, 7)))
            assert seeds[:2].tolist() == [42, 7]
            assert len(np.unique(seeds)) == K

    def test_excluded_vertices_never_picked(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out, graph=ba_graph) as index:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            m = index.num_samples
            free, _ = drive(greedy_cover(eng._prefix(m), K))
            banned = tuple(int(v) for v in free[:2])
            seeds, _ = drive(greedy_cover(eng._prefix(m), K, excluded=banned))
            assert not set(banned) & set(seeds.tolist())

    def test_constraint_errors(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out, graph=ba_graph) as index:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            view = eng._prefix(index.num_samples)
            with pytest.raises(ValueError, match="exceed k"):
                drive(greedy_cover(view, 2, forced=(1, 2, 3)))
            with pytest.raises(ValueError, match="out of range"):
                eng.what_if(2, forced=(ba_graph.n,))
            with pytest.raises(ValueError, match="both forced and excluded"):
                drive(greedy_cover(view, 2, forced=(1,), excluded=(1,)))


class TestTopK:
    def test_bit_identical_to_fresh_imm(self, ba_graph, frozen):
        out, fres = frozen
        fresh = imm(ba_graph, K, EPS, "IC", seed=SEED, theta_cap=CAP)
        assert np.array_equal(fres.seeds, fresh.seeds)
        with FrozenRRRIndex.open(out, graph=ba_graph) as index:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            res = eng.top_k()
            assert np.array_equal(res.seeds, fresh.seeds)
            assert res.theta == fresh.theta
            assert res.coverage_history == fresh.extra["coverage_history"]
            assert res.served_from_index
            assert res.edges_examined == 0

    def test_alternate_k_without_resampling(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out, graph=ba_graph) as index:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            for k in (1, 2, K + 3):
                fresh = imm(ba_graph, k, EPS, "IC", seed=SEED, theta_cap=CAP)
                res = eng.top_k(k)
                assert np.array_equal(res.seeds, fresh.seeds), k
                assert res.theta == fresh.theta
                assert res.samples_added == 0 and res.edges_examined == 0

    def test_in_index_query_needs_no_graph(self, ba_graph, frozen):
        out, _ = frozen
        fresh = imm(ba_graph, K, EPS, "IC", seed=SEED, theta_cap=CAP)
        with FrozenRRRIndex.open(out) as index:  # graph never attached
            eng = InfluenceQueryEngine(index)
            res = eng.top_k()
            assert np.array_equal(res.seeds, fresh.seeds)

    def test_extension_without_graph_is_loud(self, ba_graph, tmp_path):
        # A small index frozen at a saturating cap, queried uncapped-level
        # tight: the replay needs more samples than frozen and must
        # refuse rather than silently answer from too few.
        index, _ = freeze_index(
            ba_graph, K, EPS, "IC", SEED, theta_cap=40, out_dir=tmp_path / "i"
        )
        index.close()
        with FrozenRRRIndex.open(tmp_path / "i") as back:
            back.manifest["theta_cap"] = None  # serve uncapped queries
            eng = InfluenceQueryEngine(back)
            with pytest.raises(FrozenIndexError, match="no graph is attached"):
                eng.top_k()

    def test_stale_graph_is_refused_at_engine(self, ba_graph, frozen):
        out, _ = frozen
        changed = CSRGraph(
            ba_graph.n,
            ba_graph.out_indptr, ba_graph.out_indices, ba_graph.out_probs * 0.5,
            ba_graph.in_indptr, ba_graph.in_indices, ba_graph.in_probs * 0.5,
        )
        with FrozenRRRIndex.open(out) as index:
            with pytest.raises(StaleIndexError):
                InfluenceQueryEngine(index, graph=changed)


class TestTightenAndExtend:
    def test_tighten_reuses_all_landed_samples(self, ba_graph, tmp_path):
        # Uncapped: tightening eps genuinely demands a longer prefix.
        index, _ = freeze_index(
            ba_graph, K, 0.6, "IC", SEED, out_dir=tmp_path / "i"
        )
        try:
            before = index.num_samples
            flat_before = np.asarray(index.arrays()[0]).copy()
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            fresh = imm(ba_graph, K, 0.5, "IC", seed=SEED)
            res = eng.tighten(0.5)
            assert np.array_equal(res.seeds, fresh.seeds)
            assert res.theta == fresh.theta
            assert res.coverage_history == fresh.extra["coverage_history"]
            assert res.samples_reused == min(before, res.num_samples_used)
            assert res.samples_added == index.num_samples - before
            # The sealed prefix is untouched byte for byte.
            flat_now, _, _ = index.arrays()
            assert np.array_equal(
                np.asarray(flat_now[: len(flat_before)]), flat_before
            )
            # The manifest now serves the tightened guarantee by default.
            assert index.manifest["eps"] == 0.5
        finally:
            index.close()
        with FrozenRRRIndex.open(tmp_path / "i", graph=ba_graph) as back:
            assert back.manifest["eps"] == 0.5

    def test_extension_accounts_edges(self, ba_graph, tmp_path):
        index, _ = freeze_index(
            ba_graph, K, 0.6, "IC", SEED, out_dir=tmp_path / "i"
        )
        try:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            res = eng.top_k(eps=0.5)
            assert res.samples_added > 0
            assert res.edges_examined > 0
            assert eng.edges_examined == res.edges_examined
        finally:
            index.close()


class TestWhatIfAndMarginal:
    def test_what_if_is_pure_index_read(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            res = eng.what_if(K, forced=(11,), excluded=(1,))
            assert res.seeds[0] == 11
            assert 1 not in res.seeds.tolist()
            assert res.samples_added == 0 and res.edges_examined == 0

    def test_repeated_excluded_id_counts_once(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            twice = eng.what_if(K, excluded=(2, 2))
            once = eng.what_if(K, excluded=(2,))
            assert np.array_equal(twice.seeds, once.seeds)
            assert 2 not in twice.seeds.tolist()
            with pytest.raises(ValueError, match="both forced and excluded"):
                eng.what_if(K, forced=(2,), excluded=(2, 2))

    def test_float_forced_id_is_rejected(self, frozen):
        with FrozenRRRIndex.open(frozen[0]) as index:
            with pytest.raises(ValueError, match="forced vertex 1.7 is not an integer"):
                InfluenceQueryEngine(index).what_if(K, forced=(1.7,))

    def test_bool_forced_id_is_rejected(self, frozen):
        with FrozenRRRIndex.open(frozen[0]) as index:
            with pytest.raises(ValueError, match="forced vertex True is not an integer"):
                InfluenceQueryEngine(index).what_if(K, forced=(True,))

    def test_float_seed_id_is_rejected(self, frozen):
        with FrozenRRRIndex.open(frozen[0]) as index:
            with pytest.raises(ValueError, match="seed vertex 0.9 is not an integer"):
                InfluenceQueryEngine(index).marginal_gain([0.9])

    def test_marginal_gain_matches_manual_count(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            seed_set = np.asarray([5, 9], dtype=np.int64)
            mg = eng.marginal_gain(seed_set)
            n, m = index.n, index.num_samples
            view = index.collection_view()
            covered = sum(
                1 for s in view if np.intersect1d(s, seed_set).size
            )
            assert mg.covered_samples == covered
            assert mg.spread == pytest.approx(covered * n / m)
            assert mg.gains[5] == 0.0 and mg.gains[9] == 0.0
            # Manual marginal for one vertex: alive samples containing it.
            v = int(np.argmax(mg.gains))
            manual = sum(
                1 for s in view
                if v in s and not np.intersect1d(s, seed_set).size
            )
            assert mg.gains[v] == pytest.approx(manual * n / m)

    def test_marginal_gain_cuts_to_sample_prefix(self, ba_graph, frozen):
        """The front end runs pure reads concurrently with one extension
        writer, so the mapped arrays (and the hit index) can already
        cover samples past a reader's ``num_samples`` snapshot.  Every
        read must cut to that prefix — before the cut this raised a
        numpy ``IndexError`` (``alive`` is ``m``-long, the hit index
        covers the grown tail)."""
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            full_m = index.num_samples
            m = full_m - 10
            seed_set = np.asarray([5, 9], dtype=np.int64)
            view = index.collection_view(m)
            covered = sum(
                1 for s in view if np.intersect1d(s, seed_set).size
            )
            eng.marginal_gain(seed_set)  # hit index over the full maps
            # Simulate the race: the sealed-count snapshot lags the maps.
            index.manifest["num_samples"] = m
            mg = eng.marginal_gain(seed_set)
            assert mg.num_samples == m
            assert mg.covered_samples == covered
            assert mg.spread == pytest.approx(covered * index.n / m)
            # The inverse tear (count committed before the remap lands)
            # clamps to the mapped prefix instead of indexing past it.
            index.manifest["num_samples"] = full_m + 10
            over = eng.marginal_gain(seed_set)
            assert over.num_samples == full_m
            eng.what_if(K)  # the kernel's prefix view clamps the same way

    def test_marginal_gain_candidates_slice(self, ba_graph, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            full = eng.marginal_gain([5], candidates=None)
            some = eng.marginal_gain([5], candidates=np.asarray([0, 5, 17]))
            assert np.array_equal(some.gains, full.gains[[0, 5, 17]])


class TestIndexCache:
    def test_lru_bounds_and_books(self, ba_graph, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        freeze_index(ba_graph, K, EPS, "IC", SEED, theta_cap=CAP,
                     out_dir=a_dir)[0].close()
        freeze_index(ba_graph, K, 0.6, "IC", SEED, theta_cap=CAP,
                     out_dir=b_dir)[0].close()
        cache = IndexCache(capacity=1)
        try:
            e1 = cache.engine(a_dir, graph=ba_graph)
            assert cache.engine(a_dir) is e1  # hit
            cache.engine(b_dir)  # evicts a
            assert (cache.hits, cache.misses, cache.evictions) == (1, 2, 1)
            assert len(cache) == 1
            e3 = cache.engine(a_dir)  # reopened, a fresh engine
            assert e3 is not e1
        finally:
            cache.close()

    def test_rekeys_after_tighten(self, ba_graph, tmp_path):
        out = tmp_path / "i"
        freeze_index(ba_graph, K, 0.6, "IC", SEED, out_dir=out)[0].close()
        cache = IndexCache(capacity=2)
        try:
            eng = cache.engine(out, graph=ba_graph)
            eng.tighten(0.5)  # amends the manifest in place
            again = cache.engine(out, graph=ba_graph)
            assert len(cache) == 1  # the stale-eps alias was dropped
            assert again.index.manifest["eps"] == 0.5
        finally:
            cache.close()

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)

    def test_other_seed_at_another_path_is_not_aliased(self, tmp_path):
        # Same graph, model, eps and cap; only the seed differs.
        graph = load("cit-HepTh", "IC")
        p0, p1 = tmp_path / "s0", tmp_path / "s1"
        freeze_index(graph, 10, 0.5, "IC", 0, out_dir=p0)[0].close()
        freeze_index(graph, 10, 0.5, "IC", 1, out_dir=p1)[0].close()
        fresh = imm(graph, 10, 0.5, "IC", seed=1)
        cache = IndexCache(capacity=2)
        try:
            e0 = cache.engine(p0)
            e1 = cache.engine(p1)
            assert e1 is not e0
            assert e1.index.seed == 1
            assert np.array_equal(e1.top_k().seeds, fresh.seeds)
        finally:
            cache.close()

    def test_refreeze_over_leased_path_serves_new_seed(self, tmp_path):
        graph = load("cit-HepTh", "IC")
        path = tmp_path / "i"
        freeze_index(graph, 10, 0.5, "IC", 0, out_dir=path)[0].close()
        fresh = imm(graph, 10, 0.5, "IC", seed=1)
        cache = IndexCache(capacity=2)
        try:
            with cache.lease(path) as old:
                old.top_k()
                freeze_index(graph, 10, 0.5, "IC", 1, out_dir=path)[0].close()
                new = cache.engine(path)
                assert new is not old
                assert np.array_equal(new.top_k().seeds, fresh.seeds)
            assert old.index._rows is None  # retired, closed on release
        finally:
            cache.close()


def _fields(res) -> dict:
    """Every ServingResult field but the wall-clock ``seconds``."""
    out = {}
    for f in dataclasses.fields(res):
        if f.name != "seconds":
            value = getattr(res, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


class TestGreedyMemo:
    """Each engine remembers unconstrained greedy answers per (sealed
    prefix length, k); a repeat must be indistinguishable from a
    computed answer."""

    def test_repeat_equals_first_and_fresh_engine(self, frozen, monkeypatch):
        from repro.serving import query

        runs = []
        kernel = query.greedy_cover
        monkeypatch.setattr(
            query, "greedy_cover", lambda *a, **kw: runs.append(1) or kernel(*a, **kw)
        )
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            for k in (K, 2):
                first = eng.top_k(k)
                computed = len(runs)
                again = eng.top_k(k)
                assert len(runs) == computed  # no kernel run on a repeat
                other = InfluenceQueryEngine(index).top_k(k)
                assert _fields(again) == _fields(first) == _fields(other)
                assert again.samples_added == again.edges_examined == 0
            deg = eng.degraded(K, EPS, "test")
            assert _fields(eng.degraded(K, EPS, "test")) == _fields(deg)

    def test_remembered_top_k_reads_only_the_memo(self, ba_graph, tmp_path, monkeypatch):
        from repro.serving import query

        path = tmp_path / "i"
        freeze_index(ba_graph, K, EPS, "IC", SEED, out_dir=path)[0].close()
        with FrozenRRRIndex.open(path) as index:
            eng = InfluenceQueryEngine(index)
            # Cold: nothing remembered, and nothing built.
            assert eng.top_k(remembered=True) is None
            assert eng._vert_cache is None
            computed = eng.top_k()
            assert eng.top_k(2, remembered=True) is None  # another k
            # Past the sealed prefix a computed read raises (no graph to
            # extend with) after remembering the rounds inside it; a
            # remembered read walks those rounds, then gives up.
            with pytest.raises(FrozenIndexError):
                eng.top_k(K, 0.3)
            assert eng.top_k(K, 0.3, remembered=True) is None

            def refuse(*args, **kwargs):
                raise AssertionError("a remembered read touched the rows")

            monkeypatch.setattr(index, "rows", refuse)
            monkeypatch.setattr(query, "greedy_cover", refuse)
            monkeypatch.setattr(query, "vertex_index", refuse)
            again = eng.top_k(remembered=True)
            again.seeds[:] = -1  # the caller owns its copy
            assert _fields(eng.top_k(remembered=True)) == _fields(computed)

    def test_caller_mutation_does_not_leak(self, frozen):
        out, fres = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            first = eng.top_k()
            first.seeds[:] = -1
            assert np.array_equal(eng.top_k().seeds, fres.seeds)
            deg = eng.degraded(K, EPS, "test")
            want = deg.seeds.copy()
            deg.seeds[:] = -1
            assert np.array_equal(eng.degraded(K, EPS, "test").seeds, want)

    def test_pairs_stay_fresh_across_tighten(self, ba_graph, tmp_path):
        index, _ = freeze_index(
            ba_graph, K, 0.6, "IC", SEED, out_dir=tmp_path / "i"
        )
        try:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            eng.top_k()
            eng.top_k(2)
            before = index.num_samples
            eng.tighten(0.5)
            assert index.num_samples > before
            for k, eps in ((K, 0.6), (2, 0.6), (K, 0.5), (2, 0.5)):
                fresh = imm(ba_graph, k, eps, "IC", seed=SEED)
                res = eng.top_k(k, eps)
                assert np.array_equal(res.seeds, fresh.seeds), (k, eps)
                assert res.theta == fresh.theta
                assert res.coverage_history == fresh.extra["coverage_history"]
        finally:
            index.close()

    def test_table_is_bounded(self, frozen, monkeypatch):
        from repro.serving import query

        monkeypatch.setattr(query, "_MEMO_ENTRIES", 3)
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            for k in range(1, 8):
                eng.top_k(k)
                assert len(eng._memo) <= 3
            again = eng.top_k(1)  # evicted long ago: computed again
            assert _fields(again) == _fields(InfluenceQueryEngine(index).top_k(1))

    def test_constrained_reads_are_not_remembered(self, frozen):
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            eng.what_if(K)
            eng.what_if(K, forced=(11,), excluded=(1,))
            eng.marginal_gain([5])
            assert len(eng._memo) == 0

    def test_concurrent_threads_agree(self, frozen, monkeypatch):
        from repro.serving import query

        # A bound below the working set keeps the threads evicting each
        # other's entries; a short switch interval interleaves them.
        monkeypatch.setattr(query, "_MEMO_ENTRIES", 3)
        out, _ = frozen
        ks = (1, 2, 3, K, K + 3) * 6
        with FrozenRRRIndex.open(out) as index:
            want = {k: _fields(InfluenceQueryEngine(index).top_k(k)) for k in set(ks)}
            eng = InfluenceQueryEngine(index)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [(k, pool.submit(eng.top_k, k)) for k in ks]
                    got = [(k, _fields(f.result(timeout=60))) for k, f in futures]
            finally:
                sys.setswitchinterval(interval)
            assert len(eng._memo) <= 3
        assert all(res == want[k] for k, res in got)

    def test_engine_holds_no_owner_array(self, frozen):
        # After the router's probe read and one read of each kind, the
        # only per-entry arrays are the mapped rows and the int32 hit
        # index: no owner array, no int64 positions.
        out, _ = frozen
        with FrozenRRRIndex.open(out) as index:
            eng = InfluenceQueryEngine(index)
            eng.what_if(1)
            eng.top_k()
            eng.what_if(K, forced=(1,))
            eng.marginal_gain([2, 3])
            per_entry = sorted(
                (f"{owner}.{name}", str(value.dtype))
                for owner, obj in (("engine", eng), ("index", index))
                for name, attr in vars(obj).items()
                for value in (attr if isinstance(attr, tuple) else (attr,))
                if isinstance(value, np.ndarray) and len(value) >= index.entries
            )
            # The hit index and the mapped flat rows, nothing else.
            assert per_entry == [
                ("engine._vert_cache", "int32"), ("index._rows", "int32"),
            ]

    def test_read_inside_remap_sees_one_mapping(self, ba_graph, tmp_path, monkeypatch):
        # The front end runs reads in worker threads while an extension
        # remaps the index.  Replay a first read at the point where the
        # extension's _map() has reopened the row data but not the
        # sizes yet: the read must see the rows of one mapping (here
        # the old one) and answer as an engine over that mapping does.
        path = tmp_path / "i"
        freeze_index(ba_graph, K, 0.6, "IC", SEED, out_dir=path)[0].close()
        with FrozenRRRIndex.open(path) as old:
            want = (
                _fields(InfluenceQueryEngine(old).what_if(K)),
                _fields(InfluenceQueryEngine(old).marginal_gain([2, 3])),
            )
        with FrozenRRRIndex.open(path) as index:
            before = index.num_samples
            reader = InfluenceQueryEngine(index)
            got = []

            class _Numpy:
                def __getattr__(self, name):
                    return getattr(np, name)

                def memmap(self, filename, *args, **kwargs):
                    if filename.name == "sizes.i64.bin" and not got:
                        got.append((
                            _fields(reader.what_if(K)),
                            _fields(reader.marginal_gain([2, 3])),
                        ))
                    return np.memmap(filename, *args, **kwargs)

            monkeypatch.setattr(store_module, "np", _Numpy())
            # Extends without reading the rows first, so the reader's
            # read is this handle's first.
            InfluenceQueryEngine(index, graph=ba_graph)._ensure_samples(
                before + 200, allow_extend=True
            )
            monkeypatch.undo()
            assert index.num_samples == before + 200
            assert got == [want]

    def test_vertex_index_of_older_mapping_is_rebuilt(self, ba_graph, tmp_path):
        # A reader that raced an extension can store the hit index
        # of the shorter mapping after the writer moved on; the next
        # read must not cut its hit lists to that mapping.
        index, _ = freeze_index(
            ba_graph, K, 0.6, "IC", SEED, out_dir=tmp_path / "i"
        )
        try:
            eng = InfluenceQueryEngine(index, graph=ba_graph)
            eng.top_k()
            stale = eng._vert_cache
            eng.tighten(0.5)
            eng._vert_cache = stale
            got = eng.what_if(K)
            want = InfluenceQueryEngine(index).what_if(K)
            assert _fields(got) == _fields(want)
        finally:
            index.close()
