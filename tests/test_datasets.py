"""Tests for the dataset registry (repro.datasets)."""

import hashlib

import numpy as np
import pytest

from repro.datasets import REGISTRY, load, names, paper_table2_row, spec
from repro.graph import graph_stats


class TestRegistry:
    def test_all_eight_table2_graphs_present(self):
        assert names() == [
            "cit-HepTh",
            "soc-Epinions1",
            "com-Amazon",
            "com-DBLP",
            "com-YouTube",
            "soc-Pokec",
            "soc-LiveJournal1",
            "com-Orkut",
        ]

    def test_unknown_name_helpful_error(self):
        with pytest.raises(KeyError, match="available"):
            spec("com-Facebook")

    def test_paper_metadata_matches_table2(self):
        s = spec("cit-HepTh")
        assert s.paper_nodes == 27_770
        assert s.paper_edges == 352_807
        assert paper_table2_row("com-Orkut") == (3_072_441, 117_185_083, 76.28, 33_313)

    def test_paper_reference_runtimes_recorded(self):
        s = spec("com-Orkut")
        assert s.paper_imm_seconds == 28024.56
        assert s.paper_immopt_seconds == 9027.50
        # the ◦ cells of Table 2
        assert s.paper_imm_mb is None and s.paper_immopt_mb is None

    def test_scale_factor(self):
        s = spec("cit-HepTh")
        assert s.scale_factor == s.paper_nodes / s.build().n


class TestStandins:
    def test_deterministic(self):
        assert load("cit-HepTh") == load("cit-HepTh")

    def test_size_ordering_preserved(self):
        """Stand-in sizes keep the original smallest-to-largest order of
        vertex counts within each generator family — and edge counts
        globally track the originals' ordering of the extremes."""
        ms = {name: load(name).m for name in names()}
        assert ms["com-Orkut"] == max(ms.values())  # largest original
        assert ms["cit-HepTh"] == min(ms.values())  # smallest original

    def test_avg_degree_ordering_preserved(self):
        """The originals' avg-degree ordering (Orkut > Pokec > LJ >
        Epinions/cit > DBLP/Amazon > YouTube) survives scaling."""
        avg = {name: graph_stats(load(name)).avg_degree for name in names()}
        assert avg["com-Orkut"] > avg["soc-Pokec"] > avg["soc-LiveJournal1"]
        assert avg["soc-LiveJournal1"] > avg["com-DBLP"]
        assert avg["com-YouTube"] == min(avg.values())

    def test_lt_weights_normalized(self):
        g = load("cit-HepTh", model="LT")
        for v in range(g.n):
            assert g.in_edge_probs(v).sum() <= 1.0 + 1e-9

    def test_ic_weights_within_scale(self):
        s = spec("soc-Pokec")
        g = load("soc-Pokec", model="IC")
        assert g.out_probs.max() < s.weight_scale

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            load("cit-HepTh", model="SIR")

    def test_weight_seed_changes_probs_not_topology(self):
        a = load("cit-HepTh", weight_seed=0)
        b = load("cit-HepTh", weight_seed=1)
        assert np.array_equal(a.out_indices, b.out_indices)
        assert not np.array_equal(a.out_probs, b.out_probs)

    def test_heavy_tail_standins_skewed(self):
        """Graphs standing in for social networks keep degree skew; the
        co-purchase stand-ins stay flat."""
        assert graph_stats(load("soc-Epinions1")).degree_skew > 5
        assert graph_stats(load("com-Amazon")).degree_skew < 3


#: sha256 over every CSR array of each registry instance (dtype tag,
#: then bytes; out- then in-adjacency).  A generator rewrite must keep
#: these byte for byte: every recorded seed set and benchmark answer
#: depends on them.
INSTANCE_SHA256 = {
    ("cit-HepTh", "IC"): "298a58764741a5512e001b1107990f350d60ed6c8bd7d741ee035c71d3a4d853",
    ("cit-HepTh", "LT"): "98df8d1d5231f7f400fc22e4fa91ee08d5a249cd7349f471b1e5fcb0f2f079b1",
    ("soc-Epinions1", "IC"): "d70e804cb7102c357a6ab2330998ae4de6d39dbf8a4ccce840944f6737b15f61",
    ("soc-Epinions1", "LT"): "f7b5cda0e566c3531bd0169e91f2d5001561497f6cbe437ebca50989bef2621e",
    ("com-Amazon", "IC"): "fe1afff1cce58c23b4c0a6340ca1225f137ba8963e97c9e38db1bd4e1b7fb6e0",
    ("com-Amazon", "LT"): "69336da31bdfb1038d55d96e2711109b30dd9b8d36ed8d147ce78c1439e95991",
    ("com-DBLP", "IC"): "40f7ce039108f018ce101d10dc4ff234e218a4402ffcf0ff8de7a7c6d363d413",
    ("com-DBLP", "LT"): "2db47a2ca53c77f2fcca33d4d2a684e9952b7eacb8525de15c598dc0216f977a",
    ("com-YouTube", "IC"): "91b4369634aff85866a38f13900c2a186bbc41c14b9fc33ad039d80ab64e5ad4",
    ("com-YouTube", "LT"): "8b4a60bd100937f8c548f1a72f447735d737dc611264f5e1b220c39c170541bb",
    ("soc-Pokec", "IC"): "09d947f73ce18bf23ba2e94560ad0393fe371fc2575bd78ef6b8dce96cade866",
    ("soc-Pokec", "LT"): "fcd38abbafef8b5a7907ce799205e94783171993e096f2fca74d235de5080d95",
    ("soc-LiveJournal1", "IC"): "7959f7044add639482dfbaca30904d665324e0e6f1330ff777b4fc718e687da9",
    ("soc-LiveJournal1", "LT"): "d6f7fe2efaa401a5a9ef9a59300e5a7c62323a17ffb223f77df3f4522cce753a",
    ("com-Orkut", "IC"): "01e40e1c4d2f4e6f5a3289d7b24f8b4e741120c0011338839dc7bdbf132843ed",
    ("com-Orkut", "LT"): "42018d85e0938a78e8d6baf8b83b690f092a48cc2f0d05cf4c46997024dc9bd7",
}


def _csr_sha256(graph) -> str:
    h = hashlib.sha256()
    for arr in (
        graph.out_indptr, graph.out_indices, graph.out_probs,
        graph.in_indptr, graph.in_indices, graph.in_probs,
    ):
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,model", sorted(INSTANCE_SHA256))
def test_registry_instance_bytes_pinned(name, model):
    assert _csr_sha256(load(name, model)) == INSTANCE_SHA256[(name, model)]
