"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def edgelist_file(tmp_path):
    path = tmp_path / "g.txt"
    lines = ["# tiny test graph"]
    # a denser ring so IMM has something to chew on
    n = 40
    for i in range(n):
        lines.append(f"{i} {(i + 1) % n} 0.4")
        lines.append(f"{i} {(i + 2) % n} 0.3")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_dataset_and_edgelist_exclusive(self, edgelist_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "cit-HepTh", "--edgelist", edgelist_file]
            )


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cit-HepTh" in out and "com-Orkut" in out

    def test_run_serial_on_edgelist(self, edgelist_file, capsys):
        code = main(
            [
                "run",
                "--edgelist",
                edgelist_file,
                "--k",
                "3",
                "--eps",
                "0.5",
                "--theta-cap",
                "500",
                "--evaluate",
                "--trials",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seeds:" in out
        assert "expected spread" in out

    def test_run_mt_variant(self, edgelist_file, capsys):
        code = main(
            [
                "run",
                "--edgelist",
                edgelist_file,
                "--variant",
                "mt",
                "--threads",
                "4",
                "--k",
                "3",
                "--theta-cap",
                "500",
            ]
        )
        assert code == 0
        assert "(simulated)" in capsys.readouterr().out

    def test_run_dist_variant(self, edgelist_file, capsys):
        code = main(
            [
                "run",
                "--edgelist",
                edgelist_file,
                "--variant",
                "dist",
                "--nodes",
                "2",
                "--k",
                "3",
                "--theta-cap",
                "500",
            ]
        )
        assert code == 0

    def test_run_lt_model(self, edgelist_file):
        assert (
            main(
                [
                    "run",
                    "--edgelist",
                    edgelist_file,
                    "--model",
                    "LT",
                    "--k",
                    "2",
                    "--theta-cap",
                    "500",
                ]
            )
            == 0
        )

    def test_run_with_profile(self, edgelist_file, capsys):
        code = main(
            [
                "run",
                "--edgelist",
                edgelist_file,
                "--k",
                "2",
                "--theta-cap",
                "200",
                "--profile",
            ]
        )
        assert code == 0
        assert "cumulative" in capsys.readouterr().out

    def test_spread_command(self, edgelist_file, capsys):
        code = main(
            [
                "spread",
                "--edgelist",
                edgelist_file,
                "--seeds",
                "0,5,10",
                "--trials",
                "50",
            ]
        )
        assert code == 0
        assert "expected spread of 3 seeds" in capsys.readouterr().out


class TestNewSubcommands:
    def test_sweep_command(self, edgelist_file, capsys):
        code = main(
            [
                "sweep",
                "--edgelist",
                edgelist_file,
                "--ks",
                "2,4",
                "--theta-cap",
                "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reused" in out

    def test_community_command(self, edgelist_file, capsys):
        code = main(
            [
                "community",
                "--edgelist",
                edgelist_file,
                "--k",
                "3",
                "--theta-cap",
                "400",
            ]
        )
        assert code == 0
        assert "communities used" in capsys.readouterr().out

    def test_validate_quick_single_dataset(self, capsys):
        code = main(["validate", "--quick", "--dataset", "cit-HepTh"])
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence oracle (quick)" in out
        assert "OK" in out

    def test_validate_mutate_only(self, capsys):
        code = main(["validate", "--mutate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mutants killed" in out
        assert "SURVIVED" not in out

    def test_validate_quick_and_full_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "--quick", "--full"])

    def test_validate_mutate_smoke(self, capsys):
        code = main(["validate", "--mutate-smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke subset" in out
        assert "SURVIVED" not in out

    def test_validate_shard(self, capsys):
        code = main(
            ["validate", "--quick", "--dataset", "cit-HepTh",
             "--no-faults", "--shard", "2/2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard 2/2" in out
        assert "OK" in out

    def test_validate_bad_shard(self):
        with pytest.raises(SystemExit):
            main(["validate", "--quick", "--shard", "nope"])

    def test_serve_summary_counts_remembered_reads(self, ba_graph, tmp_path, capsys):
        from repro.serving import freeze_index

        out = tmp_path / "index"
        freeze_index(ba_graph, 5, 0.5, "IC", 3, theta_cap=300, out_dir=out)[0].close()
        assert main(["serve", "--index", str(out), "--requests", "5"]) == 0
        text = capsys.readouterr().out
        assert "served 5/5 (coalesced 1, remembered 0, degraded 0," in text

    def test_dist_fault_plan_and_policy(self, capsys):
        code = main(
            ["dist", "--dataset", "cit-HepTh", "--k", "3", "--theta-cap",
             "150", "--nodes", "3", "--fault-plan", "crash:1@3",
             "--policy", "respawn"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy: respawn" in out
        assert "respawns=1" in out

    def test_dist_checkpoint_round_trip(self, tmp_path, capsys):
        ck = tmp_path / "trail.json"
        base = ["dist", "--dataset", "cit-HepTh", "--k", "3",
                "--theta-cap", "150", "--nodes", "2"]
        assert main(base + ["--checkpoint-out", str(ck)]) == 0
        first = capsys.readouterr().out
        assert "checkpoint(s)" in first
        assert main(base + ["--resume-from", str(ck)]) == 0
        second = capsys.readouterr().out
        seeds = [l for l in first.splitlines() if l.startswith("seeds:")]
        assert seeds and seeds[0] in second

    def test_dist_degraded_shrink(self, capsys):
        code = main(
            ["dist", "--dataset", "cit-HepTh", "--k", "3", "--theta-cap",
             "150", "--nodes", "3", "--fault-plan",
             "crash:2@phase=SelectSeeds", "--policy", "shrink"]
        )
        assert code == 0
        assert "DEGRADED" in capsys.readouterr().out

    def test_metis_input(self, tmp_path, capsys):
        path = tmp_path / "g.metis"
        # a 4-cycle, both directions
        path.write_text("4 4\n2 4\n1 3\n2 4\n1 3\n")
        code = main(
            ["run", "--metis", str(path), "--k", "2", "--theta-cap", "200"]
        )
        assert code == 0

    def test_mtx_input(self, tmp_path, capsys):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "5 5 4\n2 1 0.5\n3 2 0.5\n4 3 0.5\n5 4 0.5\n"
        )
        code = main(
            ["run", "--mtx", str(path), "--k", "2", "--theta-cap", "200"]
        )
        assert code == 0
