import argparse
import hashlib
import io
import json
import math
import os
import pickle
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import cli, graphs
from ramseykit.graphs import (
    RED,
    Coloring,
    parse_coloring,
    parse_graph,
    serialize_coloring,
    serialize_graph,
)
from ramseykit.patterns import ShorthandError, load_pattern, named_graph
from ramseykit.randomlab import sample_gnp

from references import reference_serialize_graph
from test_graphs import row_blocks_of


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


class TestBounds:
    def test_main_dense_anchor(self, capsys):
        code, out = run_capture(capsys, ["bounds", "--theorem", "main-dense",
                                         "--t", "64", "--rho", "1/16"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["log2_bound"] == 1200.0
        assert payload["manifest"]["subcommand"] == "bounds"

    def test_grid_csv(self, capsys):
        code, out = run_capture(capsys, ["bounds", "--theorem", "main-dense",
                                         "--t", "16,32", "--rho", "1/16", "--grid"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theorem,t,rho,log2_bound,preconditions_met"
        assert len(lines) == 3

    def test_usage_error_exit_1(self, capsys):
        assert cli.run(["bounds", "--theorem", "nonsense", "--t", "4"]) == 1

    def test_bad_rho_is_usage_error(self, capsys):
        assert cli.run(["bounds", "--theorem", "main-dense", "--t", "4",
                        "--rho", "0"]) == 1
        assert capsys.readouterr().err == "usage error: --rho must be in (0, 1], got 0\n"

    @pytest.mark.parametrize("theorem, flag", [("base-case", "--s"),
                                               ("induction-step", "--s"),
                                               ("edges-form", "--m")])
    def test_missing_parameter_is_usage_error(self, capsys, theorem, flag):
        assert cli.run(["bounds", "--theorem", theorem, "--t", "8", "--rho", "1/4"]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: {flag} is required for theorem {theorem}\n")

    def test_grid_multi_rho(self, capsys):
        code, out = run_capture(capsys, ["bounds", "--theorem", "main-dense",
                                         "--t", "16:64:16", "--rho", "1/16,1/64",
                                         "--grid"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[1], r[2]) for r in rows] == [
            (str(t), rho) for t in (16, 32, 48, 64) for rho in ("1/16", "1/64")]

    def test_missing_rho_is_usage_error(self, capsys):
        assert cli.run(["bounds", "--theorem", "main-dense", "--t", "64"]) == 1
        assert "--rho" in capsys.readouterr().err


class TestOracle:
    def test_ramsey_k3(self, capsys):
        code, out = run_capture(capsys, ["oracle", "ramsey", "--h1", "k3",
                                         "--h2", "k3", "--nmax", "8"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n"] == 6
        assert result["witness_at"] == 5
        assert result["verified"]
        witness = parse_coloring(result["witness"])
        assert witness.n == 5
        assert result["classes"] == [1, 2, 2, 3, 1]  # good colorings of K_1..K_5

    def test_lower_certificate_has_no_classes(self, capsys):
        code, out = run_capture(capsys, ["oracle", "ramsey", "--h1", "k3",
                                         "--h2", "k3", "--nmax", "4"])
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["kind"], result["n"], result["witness_at"]) == ("lower", 4, 4)
        assert "classes" not in result

    def test_find(self, capsys):
        code, out = run_capture(capsys, ["oracle", "find",
                                         "--coloring", "mono:6:R",
                                         "--pattern", "k3", "--color", "R"])
        assert code == 0
        assert json.loads(out)["result"]["found"]

    def test_certify_lower(self, capsys):
        code, out = run_capture(capsys, ["oracle", "certify-lower", "--pattern", "k3",
                                         "--n", "5", "--tries", "500", "--seed", "0"])
        assert code == 0
        assert json.loads(out)["result"]["verified"]


class TestSearchCmd:
    def test_pentagon_exhausted(self, capsys, tmp_path):
        from ramseykit.graphs import Coloring

        col = Coloring.from_red_graph(named_graph("c", 5))
        path = tmp_path / "pent5.col"
        path.write_text(serialize_coloring(col))
        code, out = run_capture(capsys, ["search", "--coloring", str(path),
                                         "--pattern", "k3", "--mode", "mono",
                                         "--rho", "0.4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["outcome"] == "exhausted"
        assert "coloring" in payload["manifest"]["input_hashes"]

    def test_random_shorthand(self, capsys):
        code, out = run_capture(capsys, ["search", "--coloring", "random:20:0.5:4",
                                         "--pattern", "k3", "--rho", "0.4"])
        assert code == 0
        assert json.loads(out)["result"]["outcome"] in ("found_mono", "exhausted")

    @pytest.mark.parametrize("argv", [
        ["search", "--coloring", "random:20:0.5:4", "--pattern", "k3"],
        ["random", "spread", "--graph", "gnp:30:0.3:2", "--delta", "0.2", "--eps", "0.5",
         "--budget", "10"],
    ], ids=lambda a: a[0])
    def test_rho_reaches_the_manifest_as_typed(self, capsys, argv):
        code, out = run_capture(capsys, argv + ["--rho", "0.40"])
        assert code == 0
        assert json.loads(out)["manifest"]["flags"]["rho"] == "0.40"

    def test_missing_coloring_exit_2(self, capsys):
        assert cli.run(["search", "--coloring", "/no/such/file",
                        "--pattern", "k3"]) == 2


class TestRandomCmd:
    def test_gnp_to_file(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        code = cli.run(["random", "gnp", "--t", "12", "--rho", "1/4",
                        "--seed", "3", "--out", str(path)])
        assert code == 0
        g = parse_graph(path.read_text())
        assert g.t == 12

    @staticmethod
    def gnp_bytes(capsys, tmp_path, t, rho, seed):
        """The bytes ``random gnp`` writes to --out, those it writes to stdout
        and those of ``reference_serialize_graph`` on the same sample."""
        argv = ["random", "gnp", "--t", str(t), "--rho", rho, "--seed", str(seed)]
        path = tmp_path / "g.graph"
        assert cli.run(argv + ["--out", str(path)]) == 0
        code, out = run_capture(capsys, argv)
        assert code == 0
        want = reference_serialize_graph(sample_gnp(t, float(rho), seed))
        return path.read_bytes(), out.encode(), want.encode()

    @pytest.mark.parametrize("t, rho", [(1, "0.2"), (1, "1"), (2048, "0.2")])
    def test_gnp_out_stdout_and_reference_agree(self, capsys, tmp_path, t, rho):
        written, printed, want = self.gnp_bytes(capsys, tmp_path, t, rho, 1)
        assert written == printed == want

    # Bands of 4 rows, 4t entries, listed a chunk of entries at a time.  At
    # t = 8 a band is 32 entries, so chunks of 31 and 32 entries end one entry
    # before its end (between the edges (3, 6) and (3, 7) at rho 1) and at
    # it, and one of 33 runs past it, where it is cut short; t = 3, 4, 5, 8
    # and 9 end the rows inside, at and one row past a band.
    @pytest.mark.parametrize("t", [3, 4, 5, 8, 9])
    @pytest.mark.parametrize("chunk", [1, 31, 32, 33])
    @pytest.mark.parametrize("rho", ["1", "0.5"])
    def test_gnp_bytes_across_band_and_chunk_edges(self, capsys, tmp_path, monkeypatch,
                                                   t, chunk, rho):
        monkeypatch.setattr(graphs, "_SERIALIZE_CHUNK", chunk)
        with row_blocks_of(4 * t):
            written, printed, want = self.gnp_bytes(capsys, tmp_path, t, rho, 3)
        assert written == printed == want

    def test_gnp_peak_memory(self, tmp_path):
        """The text is written a chunk at a time: it is never whole in memory."""
        argv = ["random", "gnp", "--t", "2048", "--rho", "0.2", "--seed", "1",
                "--out", str(tmp_path / "g.graph")]
        cli.run(argv)  # the bit generator exists
        tracemalloc.start()
        try:
            code = cli.run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 7 << 20  # 5.1 MB measured; 15.4 MB with the text made whole

    def test_partition_file_peak_memory(self, capsys, tmp_path):
        """The graph file is read a block at a time and its rows filled and
        checked in bands: neither its bytes nor a t x t matrix are whole."""
        path = tmp_path / "g.graph"
        cli.run(["random", "gnp", "--t", "2048", "--rho", "0.2", "--seed", "1",
                 "--out", str(path)])
        argv = ["random", "partition", "--graph", str(path), "--seed", "0"]
        cli.run(argv)
        tracemalloc.start()
        try:
            code = cli.run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 6 << 20  # 4.2 MB measured; 10.8 MB with the file's bytes whole

    def test_traced_file_read(self, capsys, tmp_path):
        """perfbench's tracer wraps ``graphs.parse_graph`` by name and counts
        len() of its first argument as the bytes parsed: a file is read
        through one call whose argument's len() is the file's size."""
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
        try:
            from tracer import Tracer
        finally:
            sys.path.pop(0)
        path = tmp_path / "g.graph"
        cli.run(["random", "gnp", "--t", "300", "--rho", "0.2", "--seed", "1",
                 "--out", str(path)])
        tracer = Tracer()
        tracer.install()
        try:
            code = cli.run(["random", "partition", "--graph", str(path), "--seed", "0"])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert code == 0
        assert tracer.calls["graphs.parse"] == 1
        assert tracer.counts["graphs.parse_bytes"] == path.stat().st_size
        assert tracer.counts["graphs.edges_validated"] == sample_gnp(300, 0.2, 1).m

    def test_partition(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        cli.run(["random", "gnp", "--t", "64", "--rho", "0.3", "--seed", "1",
                 "--out", str(path)])
        code, out = run_capture(capsys, ["random", "partition", "--graph", str(path),
                                         "--seed", "0"])
        assert code == 0
        result = json.loads(out)["result"]
        assert set(result) >= {"v1", "v2", "accepted", "tries_used"}

    def test_chernoff(self, capsys):
        code, out = run_capture(capsys, ["random", "chernoff", "--n", "400",
                                         "--p", "0.5", "--theta", "0.2"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["bound"] == pytest.approx(0.1353352832366127)

    def test_spread(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        cli.run(["random", "gnp", "--t", "40", "--rho", "0.3", "--seed", "2",
                 "--out", str(path)])
        code, out = run_capture(capsys, ["random", "spread", "--graph", str(path),
                                         "--delta", "0.25", "--eps", "1.0",
                                         "--rho", "0.3", "--budget", "200"])
        assert code == 0
        assert "worst_count" in json.loads(out)["result"]


class TestEmbedCmd:
    def test_embed_with_sigma(self, capsys, tmp_path):
        path = tmp_path / "host.graph"
        cli.run(["random", "gnp", "--t", "60", "--rho", "0.9", "--seed", "5",
                 "--out", str(path)])
        code, out = run_capture(capsys, ["embed", "--pattern", "p3",
                                         "--host", str(path), "--delta", "0.4",
                                         "--sigma", "0.05"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] in ("embedded", "failure")
        assert "bidense" in result

    def test_readme_example_yields_witness(self, capsys):
        # C(60,3) * 60 = 2,053,200 counts fit the default budget
        code, out = run_capture(capsys, ["embed", "--pattern", "p3", "--host",
                                         "gnp:60:0.8:5", "--delta", "0.4",
                                         "--sigma", "0.05"])
        assert code == 0
        assert json.loads(out)["result"]["bidense"] == {
            "status": "witness", "X": [0, 1, 2], "Y": [5, 17, 26], "density": "1/3",
            "sigma": 0.05, "delta": 0.4}

    def test_budget_in_counts(self, capsys):
        argv = ["embed", "--pattern", "p3", "--host", "gnp:40:0.9:5", "--delta", "0.3",
                "--sigma", "0.1", "--budget"]
        code, out = run_capture(capsys, argv + ["3655600"])  # C(40,4) * 40
        assert code == 0
        assert json.loads(out)["result"]["bidense"] == {
            "status": "certified", "set_size": 4, "sets_checked": 91390,
            "sigma": 0.1, "delta": 0.3}
        code, out = run_capture(capsys, argv + ["3655599"])
        assert json.loads(out)["result"]["bidense"] == {
            "status": "too_large", "required": 3655600, "budget": 3655599}


class TestSweepCmd:
    def test_search_sweep_csv(self, capsys):
        code, out = run_capture(capsys, ["sweep", "--kind", "search",
                                         "--pattern", "k3", "--n", "10:20:10",
                                         "--seeds", "0:1:1", "--rho", "0.4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,seed,pattern,mode,outcome,color"
        assert len(lines) == 5

    def test_pattern_loaded_once_for_all_cells(self, capsys):
        with mock.patch.object(cli, "_load_graph_arg", wraps=cli._load_graph_arg) as load:
            code, out = run_capture(capsys, ["sweep", "--kind", "search",
                                             "--pattern", "gnp:6:0.5:3", "--n", "12,20",
                                             "--seeds", "0:2:1"])
        assert code == 0
        assert load.call_count == 1
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["gnp:6:0.5:3"] * 6


class TestSweepWorkers:
    SEARCH = ["sweep", "--kind", "search", "--pattern", "k3", "--n", "10:20:10",
              "--seeds", "0:3:1"]

    @staticmethod
    def pools(monkeypatch) -> list[int]:
        """The size of each pool a sweep starts, none of them started."""
        import multiprocessing

        started = []

        def pool(processes):
            started.append(processes)
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", pool)
        return started

    @pytest.mark.parametrize("text", ["abc", "0", "-3", str((os.cpu_count() or 1) + 1)])
    def test_out_of_range_refused_before_any_worker(self, capsys, monkeypatch, text):
        started = self.pools(monkeypatch)
        monkeypatch.setenv("RAMSEYKIT_WORKERS", text)
        assert cli.run(self.SEARCH) == 1
        top = os.cpu_count() or 1
        assert capsys.readouterr() == (
            "", f"usage error: RAMSEYKIT_WORKERS must be an integer in [1, {top}], got {text}\n")
        assert started == []

    def test_bounds_sweep_does_not_read_it(self, capsys, monkeypatch):
        monkeypatch.setenv("RAMSEYKIT_WORKERS", "abc")
        code, out = run_capture(capsys, ["sweep", "--kind", "bounds", "--theorem", "main-dense",
                                         "--t", "8", "--rho", "1/4"])
        assert code == 0 and out.startswith("theorem,t,rho,")

    def test_no_more_workers_than_cells(self, capsys, monkeypatch):
        started = self.pools(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("RAMSEYKIT_WORKERS", "4")
        code, _ = run_capture(capsys, ["sweep", "--kind", "search", "--pattern", "k3",
                                       "--n", "10", "--seeds", "0"])
        assert code == 0 and started == []

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_csv_same_at_one_and_two_workers(self, capsys, monkeypatch):
        csv = []
        for workers in ("1", "2"):
            monkeypatch.setenv("RAMSEYKIT_WORKERS", workers)
            csv.append(run_capture(capsys, self.SEARCH))
        assert csv[0] == csv[1] and csv[0][0] == 0


class TestReproducibility:
    MANIFESTS = [
        ["bounds", "--theorem", "main-dense", "--t", "64", "--rho", "1/16"],
        ["bounds", "--theorem", "lower", "--t", "16", "--rho", "1/4"],
        ["oracle", "ramsey", "--h1", "p3", "--h2", "p3", "--nmax", "6"],
        ["oracle", "certify-lower", "--pattern", "k3", "--n", "5",
         "--tries", "200", "--seed", "1"],
        ["search", "--coloring", "random:20:0.5:4", "--pattern", "k3",
         "--rho", "0.4", "--seed", "0"],
        ["random", "partition", "--graph", "gnp:64:0.3:1", "--seed", "0"],
        ["random", "chernoff", "--n", "100", "--p", "0.1", "--theta", "0.5",
         "--empirical", "1000", "--seed", "2"],
        ["random", "spread", "--graph", "gnp:30:0.3:2", "--delta", "0.2",
         "--eps", "0.5", "--rho", "0.3", "--budget", "100", "--seed", "3"],
        ["oracle", "find", "--coloring", "random:10:0.5:0", "--pattern", "p4",
         "--color", "B"],
        ["sweep", "--kind", "bounds", "--theorem", "clique-maxdeg",
         "--t", "8:32:8", "--rho", "1/16,1/32"],
    ]

    @pytest.mark.parametrize("argv", MANIFESTS, ids=lambda a: " ".join(a[:2]))
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1 = run_capture(capsys, argv)
        code2, out2 = run_capture(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        if argv[0] != "sweep" and "--grid" not in argv:
            payload = json.loads(out1)
            assert set(payload) == {"schema", "manifest", "result"}
            assert payload["schema"] == cli.SCHEMA


def _cases(base: list[str], *cases) -> list[tuple[list[str], str]]:
    """(base + flags, message) for each (flags, message) case."""
    return [(base + flags, message) for flags, message in cases]


class TestFailuresAreOneLine:
    # flag values outside the range a subcommand can use: usage errors, each
    # with its whole message; the flag at fault is the last one, argv[-2]
    OUT_OF_RANGE = [
        *_cases(["embed", "--pattern", "p3", "--host", "gnp:20:0.8:5", "--delta", "0.4"],
                (["--sigma", "-1"], "--sigma must be in (0, 1/2], got -1.0"),
                (["--sigma", "0"], "--sigma must be in (0, 1/2], got 0.0"),
                (["--sigma", "0.6"], "--sigma must be in (0, 1/2], got 0.6"),
                (["--sigma", "nan"], "--sigma must be in (0, 1/2], got nan"),
                (["--delta", "0"], "--delta must be in (0, 1], got 0.0"),
                (["--delta", "1.5"], "--delta must be in (0, 1], got 1.5"),
                (["--delta", "nan"], "--delta must be in (0, 1], got nan"),
                (["--budget", "0"], "--budget must be at least 1, got 0"),
                (["--budget", "-1"], "--budget must be at least 1, got -1")),
        *_cases(["search", "--coloring", "random:60:0.25:4", "--pattern", "k3", "--mode",
                 "vs-clique"],
                (["--budget", "-1"], "--budget must be at least 1, got -1"),
                (["--budget", "0"], "--budget must be at least 1, got 0"),
                (["--clique-s", "-2"], "--clique-s must be in [1, 16384], got -2"),
                (["--clique-s", "0"], "--clique-s must be in [1, 16384], got 0"),
                (["--clique-s", "16385"], "--clique-s must be in [1, 16384], got 16385"),
                (["--seed", "-1"], "--seed must be in [0, 2**128), got -1"),
                (["--seed", str(2 ** 128)], f"--seed must be in [0, 2**128), got {2 ** 128}"),
                (["--rho", "0"], "--rho must be in (0, 1], got 0"),
                (["--rho", "2"], "--rho must be in (0, 1], got 2"),
                (["--rho", "nan"], "--rho must be in (0, 1], got nan")),
        *_cases(["oracle", "certify-lower", "--pattern", "k3"],
                (["--n", "5", "--tries", "0"], "--tries must be in [1, 1000000], got 0"),
                (["--n", "5", "--tries", "-5"], "--tries must be in [1, 1000000], got -5"),
                (["--n", "5", "--tries", "1000001"],
                 "--tries must be in [1, 1000000], got 1000001"),
                (["--n", "200", "--tries", "50252"],
                 "--tries must be in [1, 50251] at --n 200, 1000000000 pairs drawn in "
                 "all, got 50252"),
                (["--n", "-2"], "--n must be at least 1, got -2"),
                (["--n", "0"], "--n must be at least 1, got 0"),
                (["--n", "5", "--seed", "-1"], "--seed must be in [0, 2**128 - 999), got -1"),
                (["--n", "5", "--tries", "1", "--seed", str(2 ** 128)],
                 f"--seed must be in [0, 2**128), got {2 ** 128}"),
                # the last try's seed, seed + tries - 1, is 2**128
                (["--n", "5", "--tries", "10", "--seed", str(2 ** 128 - 9)],
                 f"--seed must be in [0, 2**128 - 9), got {2 ** 128 - 9}")),
        *_cases(["oracle", "ramsey", "--h1", "k3", "--h2", "k3"],
                (["--nmax", "-3"], "--nmax must be at least 1, got -3"),
                (["--nmax", "0"], "--nmax must be at least 1, got 0")),
        *_cases(["random", "gnp", "--t", "8", "--rho", "0.5"],
                (["--seed", "-1"], "--seed must be in [0, 2**128), got -1"),
                (["--seed", str(2 ** 128)], f"--seed must be in [0, 2**128), got {2 ** 128}")),
        *_cases(["random", "gnp", "--rho", "0.5"],
                (["--t", "0"], "--t must be in [1, 16384], got 0"),
                (["--t", "-2"], "--t must be in [1, 16384], got -2"),
                (["--t", "99999"], "--t must be in [1, 16384], got 99999")),
        *_cases(["random", "gnp", "--t", "8"],
                (["--rho", "-0.1"], "--rho must be in [0, 1], got -0.1"),
                (["--rho", "1.5"], "--rho must be in [0, 1], got 1.5"),
                (["--rho", "nan"], "--rho must be in [0, 1], got nan")),
        *_cases(["random", "partition", "--graph", "gnp:20:0.5:1"],
                (["--seed", "-1"], "--seed must be in [0, 2**128), got -1"),
                (["--seed", str(2 ** 128)], f"--seed must be in [0, 2**128), got {2 ** 128}"),
                (["--max-tries", "-3"], "--max-tries must be at least 1, got -3"),
                (["--max-tries", "0"], "--max-tries must be at least 1, got 0")),
        *_cases(["random", "chernoff"],
                (["--n", "40", "--p", "0.5", "--theta", "0.2", "--empirical", "10",
                  "--seed", str(2 ** 128)], f"--seed must be in [0, 2**128), got {2 ** 128}"),
                (["--n", "40", "--p", "0.5", "--theta", "0.2", "--seed", "-1"],
                 "--seed must be in [0, 2**128), got -1"),
                (["--p", "0.5", "--theta", "0.2", "--n", "0"],
                 "--n must be in [1, 2**63), got 0"),
                (["--p", "0.5", "--theta", "0.2", "--n", "-4"],
                 "--n must be in [1, 2**63), got -4"),
                (["--p", "0.5", "--theta", "0.2", "--empirical", "5", "--n", str(2 ** 128)],
                 f"--n must be in [1, 2**63), got {2 ** 128}"),
                *((["--n", "40", "--theta", "0.2", "--p", p], f"--p must be in (0, 1), got {got}")
                  for p, got in (("0", "0.0"), ("1", "1.0"), ("-0.5", "-0.5"),
                                 ("1.5", "1.5"), ("nan", "nan"))),
                *((["--n", "40", "--p", "0.5", "--theta", theta],
                   f"--theta must be in [0, 1], got {theta}")
                  for theta in ("-0.1", "1.01", "nan")),
                # past EMPIRICAL_LIMIT, 10**8 samples
                *((["--n", "40", "--p", "0.5", "--theta", "0.2", "--empirical", e],
                   f"--empirical must be in [1, 100000000], got {e}")
                  for e in ("0", "-5", str(10 ** 8 + 1), str(2 ** 128)))),
        *_cases(["random", "spread", "--graph", "gnp:30:0.3:2", "--delta", "0.2", "--eps",
                 "0.5", "--rho", "0.3"],
                # SPREAD_SETS_LIMIT, 10**6 sets
                *((["--budget", b], f"--budget must be in [1, 1000000], got {b}")
                  for b in ("-5", "0", str(10 ** 6 + 1), str(2 ** 128))),
                (["--seed", "-1"], "--seed must be in [0, 2**128), got -1"),
                (["--seed", str(2 ** 128)], f"--seed must be in [0, 2**128), got {2 ** 128}"),
                (["--delta", "0"], "--delta must be in (0, 1], got 0.0"),
                (["--delta", "-0.2"], "--delta must be in (0, 1], got -0.2"),
                (["--delta", "1.5"], "--delta must be in (0, 1], got 1.5"),
                (["--delta", "nan"], "--delta must be in (0, 1], got nan"),
                (["--eps", "0"], "--eps must be positive, got 0.0"),
                (["--eps", "-1"], "--eps must be positive, got -1.0"),
                (["--eps", "nan"], "--eps must be positive, got nan"),
                (["--rho", "0"], "--rho must be in (0, 1], got 0"),
                (["--rho", "-0.25"], "--rho must be in (0, 1], got -0.25"),
                (["--rho", "3/2"], "--rho must be in (0, 1], got 3/2"),
                (["--rho", "nan"], "--rho must be in (0, 1], got nan")),
        *_cases(["search", "--coloring", "random:30:0.5:1", "--pattern", "c4", "--mode",
                 "random-bounded"],
                (["--degree-cap", "-1"], "--degree-cap must be at least 0, got -1"),
                (["--degree-cap", "-5"], "--degree-cap must be at least 0, got -5")),
        # shorthand seeds that are no Philox key
        *((argv, f"{argv[-2]} must be a shorthand whose seed is in [0, 2**128), "
                 f"got {argv[-1]!r}")
          for argv in (["search", "--pattern", "k3", "--coloring", "random:10:0.5:-1"],
                       ["oracle", "find", "--pattern", "k3", "--color", "R",
                        "--coloring", f"random:10:0.5:{2 ** 128}"],
                       ["embed", "--pattern", "p3", "--delta", "0.4",
                        "--host", f"gnp:10:0.5:{2 ** 128}"],
                       ["oracle", "ramsey", "--h2", "k3", "--h1", f"gnp:4:0.5:{2 ** 128}"],
                       ["sweep", "--kind", "search", "--n", "8",
                        "--pattern", f"gnp:3:0.5:{2 ** 128}"])),
        (["sweep", "--kind", "search", "--n", "8", "--pattern", "k3",
          "--seeds", f"0:{2 ** 128}:{2 ** 128}"],
         f"--seeds must be in [0, 2**128), got {2 ** 128}"),
        *_cases(["sweep", "--kind", "search", "--pattern", "k3", "--n", "20"],
                (["--rho", "2"], "--rho must be in (0, 1], got 2"),
                (["--rho", "1/0"], "--rho must be in (0, 1], got 1/0"),
                # a p/q too large for a float
                (["--rho", f"{10 ** 400}/3"], f"--rho must be in (0, 1], got {10 ** 400}/3")),
        # each value of a bounds --rho list, in the range of search --rho
        *_cases(["bounds", "--theorem", "main-dense", "--t", "64"],
                *((["--rho", rho], f"--rho must be in (0, 1], got {rho}")
                  for rho in ("1/0", "abc", "2", "0", "-0.25", "nan", "inf", f"{10 ** 400}/3"))),
        *_cases(["bounds", "--theorem", "base-case", "--s", "3", "--grid", "--t", "8,16"],
                (["--rho", "1/16,2"], "--rho must be in (0, 1], got 2"),
                (["--rho", "1/16,"], "--rho must be in (0, 1], got ")),
        # base-case takes one step per unit of --s
        *_cases(["bounds", "--theorem", "base-case", "--t", "8"],
                (["--s", "-1"], "--s must be in [0, 1000000], got -1"),
                (["--s", "1000001"], "--s must be in [0, 1000000], got 1000001")),
        *_cases(["sweep", "--kind", "bounds", "--theorem", "base-case", "--t", "8,16"],
                (["--s", "-1"], "--s must be in [0, 1000000], got -1"),
                (["--s", str(10 ** 7)], "--s must be in [0, 1000000], got 10000000")),
        *_cases(["sweep", "--kind", "bounds", "--theorem", "lower", "--t", "8:16:8"],
                (["--rho", "1/0"], "--rho must be in (0, 1], got 1/0"),
                (["--rho", "0.5,abc"], "--rho must be in (0, 1], got abc")),
        # a gnp shorthand whose rho is no number
        *((argv, f"{argv[-2]} must be gnp:<t>:<rho>:<seed> with a number as rho, "
                 f"got {argv[-1]!r}")
          for argv in (["search", "--coloring", "mono:6:R", "--pattern", "gnp:4:1/0:1"],
                       ["sweep", "--kind", "search", "--n", "8", "--pattern", "gnp:4:1.2.3:1"],
                       ["oracle", "ramsey", "--h2", "k3", "--h1", "gnp:4:0/0:1"])),
        # a gnp shorthand whose rho is a number outside [0, 1]
        *((argv, f"{argv[-2]} must be gnp:<t>:<rho>:<seed> with rho in [0, 1], "
                 f"got {argv[-1]!r}")
          for argv in (["search", "--coloring", "mono:6:R", "--pattern", "gnp:4:2:1"],
                       ["oracle", "ramsey", "--h2", "k3", "--h1", "gnp:4:1.5:1"],
                       ["embed", "--pattern", "p3", "--delta", "0.4", "--host", "gnp:10:3/2:5"],
                       ["sweep", "--kind", "search", "--n", "8", "--pattern", "gnp:4:9/8:1"])),
        *_cases(["sweep", "--kind", "search", "--pattern", "k3", "--n", "8"],
                (["--p-red", "-0.5"], "--p-red must be in [0, 1], got -0.5"),
                (["--p-red", "1.5"], "--p-red must be in [0, 1], got 1.5"),
                (["--p-red", "nan"], "--p-red must be in [0, 1], got nan")),
        # grid specs: integer fields, three of them with a colon, a step of at least 1
        *_cases(["sweep", "--kind", "search", "--pattern", "k3"],
                *((["--n", spec], f"--n must be start:stop:step with a step of at least 1, "
                                  f"got {spec!r}") for spec in ("8:64:0", "8:40:-1")),
                *((["--n", spec], f"--n must be an integer, a comma list of them or "
                                  f"start:stop:step, got {spec!r}")
                  for spec in ("x7", "8:64", "8,,16")),
                (["--n", "8", "--seeds", "x7"], "--seeds must be an integer, a comma list "
                                                "of them or start:stop:step, got 'x7'"),
                (["--n", "8", "--seeds", "0:4:0"], "--seeds must be start:stop:step with a "
                                                   "step of at least 1, got '0:4:0'")),
        (["sweep", "--kind", "bounds", "--theorem", "main-dense", "--rho", "1/16",
          "--t", "8:64:0"], "--t must be start:stop:step with a step of at least 1, "
                            "got '8:64:0'"),
        # grids of more than GRID_LIMIT, 10**4 values, refused before their lists exist
        *_cases(["sweep", "--kind", "search", "--pattern", "k3"],
                (["--n", "8", "--seeds", f"0:{10 ** 12}:1"],
                 f"--seeds must be a grid of at most 10000 values, got {10 ** 12 + 1} "
                 f"in '0:{10 ** 12}:1'"),
                (["--n", "1:10001:1"], "--n must be a grid of at most 10000 values, "
                                       "got 10001 in '1:10001:1'")),
        (["bounds", "--theorem", "main-dense", "--rho", "1/16", "--grid",
          "--t", f"2:{2 ** 128}:3"], f"--t must be a grid of at most 10000 values, "
                                     f"got {(2 ** 128 - 2) // 3 + 1} in '2:{2 ** 128}:3'"),
        (["bounds", "--theorem", "main-dense", "--rho", "1/16", "--grid", "--t", "x7"],
         "--t must be an integer, a comma list of them or start:stop:step, got 'x7'"),
        (["bounds", "--theorem", "main-dense", "--rho", "1/16", "--t", "x7"],
         "--t must be an integer, got 'x7'"),
    ]
    PROBES = [
        ["search", "--coloring", "mono:6:X", "--pattern", "k3"],
        ["search", "--coloring", "mono:6", "--pattern", "k3"],
        ["search", "--coloring", "random:10:0.5", "--pattern", "k3"],
        ["search", "--coloring", "random:10:0.5:1:2", "--pattern", "k3"],
        ["oracle", "find", "--coloring", "random:ten:0.5:1", "--pattern", "k3",
         "--color", "R"],
        ["sweep", "--kind", "search"],
        ["sweep", "--kind", "search", "--pattern", "k3"],
        ["sweep", "--kind", "bounds", "--t", "8:16:8", "--rho", "1/4"],
        ["oracle", "ramsey", "--h1", "k3", "--h2", "k3", "--nmax", "11"],
        ["bounds", "--theorem", "main-dense", "--t", "64"],
        ["bounds", "--theorem", "main-dense", "--t", "8:16:8", "--grid"],
        ["bounds", "--theorem", "main-dense", "--t", "8:16:8", "--rho", "1/4"],
        ["bounds", "--theorem", "main-dense", "--t", "64", "--rho", "1/0"],
        ["search", "--coloring", "mono:50000:B", "--pattern", "k3"],
        ["search", "--coloring", "mono:6:R", "--pattern", "e50000"],
        ["search", "--coloring", "BAD_COLORING_FILE", "--pattern", "k3"],
        ["search", "--coloring", "mono:6:R", "--pattern", "NON_UTF8_GRAPH"],
        ["search", "--coloring", "NON_UTF8_COLORING", "--pattern", "k3"],
        ["bounds", "--theorem", "main-dense", "--t", "64", "--rho", "1/16",
         "--format", "csv"],
        ["embed", "--pattern", "p3", "--host", "gnp:20:0.8:5", "--delta", "0.4",
         "--seed", "0"],
        ["sweep", "--kind", "search", "--pattern", "k3", "--n", "20", "--rho", "0"],
        *(argv for argv, _ in OUT_OF_RANGE),
    ]

    @pytest.fixture
    def bad_coloring(self, tmp_path):
        path = tmp_path / "bad.coloring"
        path.write_text("n 3\n0 1 R\n0 x R\n1 2 B\n")  # line 3: endpoint "x"
        return str(path)

    @pytest.fixture
    def non_utf8(self, tmp_path):
        graph = tmp_path / "latin1.graph"
        graph.write_bytes(b"t 3 m 1\n0 \xff\n")  # line 2
        coloring = tmp_path / "latin1.coloring"
        coloring.write_bytes(b"n 3\n0 1 R\n0 2 \xffR\n1 2 B\n")  # line 3
        return {"NON_UTF8_GRAPH": str(graph), "NON_UTF8_COLORING": str(coloring)}

    @pytest.mark.parametrize("argv", PROBES, ids=" ".join)
    def test_exit_code_and_no_traceback(self, capsys, bad_coloring, non_utf8, argv):
        files = {"BAD_COLORING_FILE": bad_coloring, **non_utf8}
        argv = [files.get(a, a) for a in argv]
        code = cli.run(argv)
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        pytest.param(argv, message, id=" ".join(argv)) for argv, message in OUT_OF_RANGE])
    def test_out_of_range_flag_is_usage_error(self, capsys, argv, message):
        assert message.startswith(f"{argv[-2]} must be ")
        assert cli.run(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("spec, need", [("gnp:4:1/0:1", "a number as rho"),
                                            ("gnp:4:2:1", "rho in [0, 1]")])
    def test_bad_gnp_rho_is_a_sentence_outside_the_cli(self, spec, need):
        with pytest.raises(ShorthandError) as info:
            load_pattern(spec)
        sentence = f"a gnp shorthand must be gnp:<t>:<rho>:<seed> with {need}, got {spec!r}"
        assert str(info.value) == str(pickle.loads(pickle.dumps(info.value))) == sentence

    @pytest.mark.parametrize("samples", [cli.randomlab.EMPIRICAL_LIMIT + 1, 2 ** 128])
    def test_empirical_cap_refused_before_drawing(self, capsys, samples):
        argv = ["random", "chernoff", "--n", "40", "--p", "0.5", "--theta", "0.2",
                "--empirical", str(samples)]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: --empirical must be in [1, {cli.randomlab.EMPIRICAL_LIMIT}], "
            f"got {samples}\n")

    def test_bad_coloring_endpoint_names_file_and_line(self, capsys, bad_coloring):
        assert cli.run(["search", "--coloring", bad_coloring, "--pattern", "k3"]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {bad_coloring}: line 3: non-integer endpoint\n"

    @pytest.mark.parametrize("flag, name, where", [
        ("--pattern", "NON_UTF8_GRAPH", "line 2: non-integer endpoint"),
        ("--coloring", "NON_UTF8_COLORING", "line 3: expected '<u> <v> <R|B>'"),
    ])
    def test_non_utf8_file_names_file_and_line(self, capsys, non_utf8, flag, name, where):
        args = {"--coloring": "mono:6:R", "--pattern": "k3", flag: non_utf8[name]}
        assert cli.run(["search", *(a for pair in args.items() for a in pair)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {non_utf8[name]}: {where}\n"

    @pytest.mark.parametrize("flag, data, where", [
        ("--coloring", b"n -1\n", "line 1: non-integer vertex count"),
        ("--coloring", b"n 5 hex 0x8\n", "line 1: invalid hex string"),
        ("--coloring", b"n 5 hex f_f\n", "line 1: invalid hex string"),
        ("--coloring", b"n 3 hex 8\n0 1 R\njunk\n",
         "line 2: expected no line after 'n <n> hex <string>'"),
        ("--coloring", b"n 1 hex f\n", "line 1: padding bits must be zero"),
        ("--coloring", b"n 0 hex 1\n", "line 1: padding bits must be zero"),
        ("--coloring", b"n 2\r\n0 1 R\r\n", "line 1: non-integer vertex count"),
        ("--coloring", b"\nn 2\n0 1 R\n",
         "line 1: expected header 'n <n>' or 'n <n> hex <string>'"),
        ("--coloring", b"n 3\n0 1 R\n0 +2 B\n1 2 B\n", "line 3: non-integer endpoint"),
        ("--pattern", b"t 3 m -0\n", "line 1: non-integer header fields"),
        ("--pattern", b"t 3 m 1\n0 1_0\n", "line 2: non-integer endpoint"),
        ("--pattern", b"t 3 m 1\n+0 2\n", "line 2: non-integer endpoint"),
        ("--pattern", "t 3 m 1\n0 \uff12\n".encode(), "line 2: non-integer endpoint"),
        ("--pattern", b"t 3 m 2\n0 1\x0c1 2\n", "line 1: expected 2 edge lines, found 1"),
        ("--pattern", b"t 3 m 1\n0\x1f2\n", "line 2: expected '<u> <v>'"),
        ("--pattern", b"t 3 m 1\r\n0 2\r\n", "line 1: non-integer header fields"),
        ("--pattern", b"\nt 3 m 1\n0 2\n", "line 1: expected header 't <t> m <m>'"),
    ])
    def test_forms_outside_the_grammar_name_file_and_line(self, capsys, tmp_path, flag, data,
                                                          where):
        """Files outside the byte grammar: one line on stderr, which names the
        file and the line at fault."""
        path = tmp_path / "odd.file"
        path.write_bytes(data)
        args = {"--coloring": "mono:6:R", "--pattern": "k3", flag: str(path)}
        assert cli.run(["search", *(a for pair in args.items() for a in pair)]) == 2
        assert capsys.readouterr() == ("", f"input error: {path}: {where}\n")


    @pytest.mark.parametrize("kind", ["missing", "malformed"])
    def test_pattern_file_error_is_the_same_in_every_command(self, capsys, tmp_path, kind):
        path = tmp_path / "pattern.graph"
        if kind == "malformed":
            path.write_text("t 3 m 1\n0 x\n")  # line 2
        errs = []
        for argv in (["search", "--coloring", "mono:6:R"],
                     ["oracle", "find", "--coloring", "mono:6:R", "--color", "R"],
                     ["sweep", "--kind", "search", "--n", "8"]):
            assert cli.run([*argv, "--pattern", str(path)]) == 2
            errs.append(capsys.readouterr().err)
        want = (f"input error: {path}: line 2: non-integer endpoint\n" if kind == "malformed"
                else f"input error: {str(path)!r} is neither a pattern shorthand (k3, p4, c5, "
                     f"s4, m2, e3, gnp:t:rho:seed) nor an existing file\n")
        assert errs == [want] * 3


class TestSharedParser:
    """``run`` builds its parser once per process; no call may leak into the next."""

    ARGV = [
        ["bounds", "--theorem", "main-dense", "--t", "64", "--rho", "1/16"],
        ["bounds", "--theorem", "main-dense", "--t", "16:64:16", "--rho", "1/16",
         "--grid", "--out", "OUT"],
        ["search", "--coloring", "random:40:0.5:7", "--pattern", "c4", "--rho", "0.5"],
        ["bounds", "--theorem", "main-dense", "--t", "64", "--format", "csv"],
        ["oracle", "ramsey", "--h1", "k3", "--h2", "k3", "--nmax", "6"],
        ["sweep", "--kind", "search", "--pattern", "k3", "--n", "10:20:10",
         "--seeds", "0:1:1"],
    ]

    @staticmethod
    def outcome(run, argv, out_file):
        """(exit code, stdout, stderr, --out file text) of one call."""
        code, out, err = run([out_file if a == "OUT" else a for a in argv])
        return code, out, err, Path(out_file).read_text() if "OUT" in argv else None

    def test_in_process_calls_match_fresh_processes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("RAMSEYKIT_WORKERS", raising=False)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "ramseykit.cli", *argv],
                                  capture_output=True, text=True, env=env)
            return proc.returncode, proc.stdout, proc.stderr

        def in_process(argv):
            code = cli.run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        expected = [self.outcome(fresh, argv, str(tmp_path / f"fresh{i}"))
                    for i, argv in enumerate(self.ARGV)]
        assert [e[0] for e in expected] == [0, 0, 0, 1, 0, 0]
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._shared_parser.cache_clear()
        for order in (range(len(self.ARGV)), reversed(range(len(self.ARGV)))):
            for i in order:
                got = self.outcome(in_process, self.ARGV[i], str(tmp_path / f"run{i}"))
                assert got == expected[i], self.ARGV[i]
        assert len(builds) == 1


class TestInputFiles:
    def test_each_file_read_once_and_its_bytes_hashed(self, capsys, tmp_path, monkeypatch):
        coloring = tmp_path / "c.coloring"
        coloring.write_text(serialize_coloring(Coloring.monochromatic(6, RED)))
        pattern = tmp_path / "p.graph"
        pattern.write_text(serialize_graph(named_graph("k", 3)))
        reads = []
        open_path = Path.open  # read_bytes opens the file through it too
        monkeypatch.setattr(Path, "open", lambda self, *a, **k:
                            reads.append(self.name) or open_path(self, *a, **k))
        code, out = run_capture(capsys, ["search", "--coloring", str(coloring),
                                         "--pattern", str(pattern)])
        assert code == 0
        assert sorted(reads) == ["c.coloring", "p.graph"]
        assert json.loads(out)["manifest"]["input_hashes"] == {
            "coloring": hashlib.sha256(coloring.read_bytes()).hexdigest(),
            "pattern": hashlib.sha256(pattern.read_bytes()).hexdigest(),
        }

    def test_shorthand_wins_over_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k3").write_text("t 2 m 1\n0 1\n")
        code, out = run_capture(capsys, ["search", "--coloring", "mono:6:R",
                                         "--pattern", "k3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["outcome"] == "found_mono"
        assert payload["manifest"]["input_hashes"] == {}  # nothing was read


class TestReadmeExamples:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def cli_block(self) -> list[str]:
        """The ``ramseykit`` lines of the README's CLI code block."""
        section = self.README.read_text().split("\n## CLI\n", 1)[1]
        block = section.split("```\n", 2)[1]
        return [line for line in block.splitlines() if line.startswith("ramseykit ")]

    def test_every_cli_example_runs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # examples write and read g.graph
        monkeypatch.delenv("RAMSEYKIT_WORKERS", raising=False)
        lines = self.cli_block()
        assert len(lines) >= 10
        for line in lines:
            code = cli.run(shlex.split(line)[1:])
            assert (code, capsys.readouterr().err) == (0, ""), line


# Flag values of the generated-argv test: per flag, small valid values and
# odd ones.  The numeric flags' odd values are 0, -1, nan, inf, 2**128 and junk
# text, but flags that set how much work is done (sizes, tries, budgets) keep
# to small values and get 2**128 only where it is refused before any work.
_BIG = str(2 ** 128)
_ODD = ["0", "-1", "nan", "inf", "x7"]
_PATTERN = (["k3", "p3", "c4", "gnp:6:0.5:1"], ["gnp:6:0.5:-1", "gnp:6:2:1", "e0", "x7"])
_COLORING = (["random:20:0.5:1", "random:40:0.25:3", "mono:8:R"],
             ["random:10:0.5:-1", "random:10:2:1", "mono:8", "x7"])
_GRAPH = (["gnp:20:0.5:1", "gnp:40:0.2:3"], ["gnp:20:2:1", "gnp:-1:0.5:1", "x7"])
_SEED = (["0", "7"], ["-1", _BIG, "nan", "x7"])
_COLOR = (["R", "B"], ["x7"])
_RHO = (["0.3", "1/2", "1"], [*_ODD, _BIG, "1/0"])
_REAL = (["0.3", "0.5"], [*_ODD, _BIG])
_COUNT = (["1", "5"], _ODD)
_BOUNDS_FLAGS = {"--theorem": (["main-dense", "clique-dense", "edges-form", "lower"], ["x7"]),
                 "--t": (["8", "64", "8:32:8"], [*_ODD, _BIG]),
                 "--rho": (["1/4", "0.5", "1/4,1/16"], [*_ODD, _BIG, "1/0"]),
                 "--s": (["1", "3"], [*_ODD, _BIG]), "--m": (["1", "3"], [*_ODD, _BIG])}
GENERATED_LEAVES = {
    ("bounds",): {**_BOUNDS_FLAGS, "--grid": ([None], [None])},
    ("embed",): {"--pattern": _PATTERN,
                 "--host": (["gnp:12:0.8:5", "gnp:20:0.5:1", *_COLORING[0]], _COLORING[1]),
                 "--color": _COLOR, "--delta": (["0.3", "1"], [*_ODD, _BIG]),
                 "--sigma": (["0.1", "0.25", "0.5"], [*_ODD, _BIG]),
                 "--budget": (["10", "1000000"], [*_ODD, _BIG])},
    ("search",): {"--coloring": _COLORING, "--pattern": _PATTERN,
                  "--mode": (["mono", "vs-clique", "random-bounded"], ["x7"]),
                  "--rho": (["0.5", "1/4"], [*_ODD, _BIG, "1/0"]),
                  "--clique-s": (["2", "4"], [*_ODD, _BIG]),
                  "--degree-cap": (["0", "2"], [*_ODD, _BIG]),
                  "--budget": (["1", "3"], [*_ODD, _BIG]), "--seed": _SEED,
                  "--trace-full": ([None], [None])},
    ("random", "gnp"): {"--t": (["8", "64"], [*_ODD, _BIG]), "--rho": _RHO,
                        "--seed": _SEED},
    ("random", "partition"): {"--graph": _GRAPH, "--max-tries": _COUNT,
                              "--seed": _SEED},
    ("random", "spread"): {"--graph": _GRAPH, "--delta": _REAL, "--eps": _REAL,
                           "--rho": _RHO, "--mode": (["sampled", "exhaustive"], ["x7"]),
                           "--budget": _COUNT, "--seed": _SEED},
    ("random", "chernoff"): {"--n": (["40", "400"], [*_ODD, _BIG]), "--p": _REAL,
                             "--theta": (["0.2", "1"], [*_ODD, _BIG]),
                             "--empirical": (["10", "1000"], [*_ODD, _BIG]),
                             "--seed": _SEED},
    ("oracle", "find"): {"--coloring": _COLORING, "--pattern": _PATTERN, "--color": _COLOR},
    ("oracle", "ramsey"): {"--h1": _PATTERN, "--h2": _PATTERN,
                           "--nmax": (["3", "6"], [*_ODD, _BIG])},
    ("oracle", "certify-lower"): {"--pattern": _PATTERN,
                                  "--n": (["5", "6", "40"], [*_ODD, _BIG]),
                                  "--tries": _COUNT, "--seed": _SEED},
    ("sweep",): {"--kind": (["bounds", "search"], ["x7"]), **_BOUNDS_FLAGS,
                 "--pattern": _PATTERN, "--mode": (["mono", "vs-clique"], ["x7"]),
                 "--n": (["8", "20", "8:40:16"], [*_ODD, _BIG]),
                 "--seeds": (["0:2:1", "3"], ["-1", _BIG, "x7"]),
                 "--p-red": (["0.5", "0.3"], [*_ODD, _BIG])},
}


@st.composite
def generated_argv(draw):
    """A leaf subcommand and most of its flags, each with a valid value but at
    most one, which gets an odd value."""
    leaf = draw(st.sampled_from(sorted(GENERATED_LEAVES)))
    flags = GENERATED_LEAVES[leaf]
    odd = draw(st.sampled_from([None, *flags]))
    argv = list(leaf)
    for flag, (valid, bad) in flags.items():
        if draw(st.integers(0, 9)) == 0:  # sometimes left out, required or not
            continue
        value = draw(st.sampled_from(bad if flag == odd else valid))
        argv += [flag] if value is None else [flag, value]
    return argv


class TestGeneratedArgv:
    @settings(max_examples=300, deadline=None)
    @given(generated_argv())
    def test_exit_code_and_one_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop("RAMSEYKIT_WORKERS", None)
            code = cli.run(argv)
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()


class TestRangeDeclarations:
    """Every flag whose type is a declared range is probed below its low end
    and above its high end, if it has one, by hand-written OUT_OF_RANGE
    values, and is drawn by the generated-argv strategy."""

    @staticmethod
    def ranged_flags():
        """(leaf subcommand, flag, range) of each flag typed by a ``cli._Range``."""
        def walk(parser, leaf):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from walk(sub, leaf + (name,))
                elif isinstance(action.type, cli._Range):
                    yield leaf, action.option_strings[0], action.type
        return list(walk(cli.build_parser(), ()))

    def test_each_ranged_flag_has_probes_past_both_ends(self):
        ranged = self.ranged_flags()
        assert len(ranged) >= 25
        for leaf, flag, rng in ranged:
            assert rng.flag == flag
            assert flag in GENERATED_LEAVES[leaf], (leaf, flag)
            values = [rng.parse(argv[-1]) for argv, _ in TestFailuresAreOneLine.OUT_OF_RANGE
                      if tuple(argv[:len(leaf)]) == leaf and argv[-2] == flag]
            lo_open, hi_open = rng.ends[0] == "(", rng.ends[1] == ")"
            assert any(v < rng.lo or (lo_open and v == rng.lo) for v in values), (leaf, flag)
            if rng.hi < math.inf:
                assert any(v > rng.hi or (hi_open and v == rng.hi) for v in values), (leaf, flag)

    def test_junk_keeps_argparse_message(self, capsys):
        argv = ["embed", "--pattern", "p3", "--host", "k5", "--delta", "0.4", "--budget", "x7"]
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == (
            "usage error: argument --budget: invalid int value: 'x7'\n")

    @pytest.mark.parametrize("rho", ["x7", "1/0", "", pytest.param(f"{10 ** 400}/3",
                                                                   id="10**400/3")])
    def test_unparseable_rho_is_one_usage_line(self, capsys, rho):
        assert cli.run(["random", "gnp", "--t", "8", "--rho", rho]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: argument --rho: invalid density value: {rho!r}\n")
