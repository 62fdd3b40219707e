"""Every committed BENCH json has the layout ``scripts/bench.py`` writes, and
the tool's oracle rows still run on this checkout."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    bench.check_record(json.loads(path.read_text()))


def _record() -> dict:
    return {
        "env": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "machine": "x86_64"},
        "method": "one fresh process per measurement",
        "rounds": {"primitives": 3},
        "rows": [{"name": "a", "unit": "s", "before": 1.0, "after": 0.5},
                 {"name": "b", "unit": "s", "before": None, "after": 2.0,
                  "before_result": None, "after_result": "upper 9", "timeout_s": 150}],
    }


def test_accepts_a_well_formed_record():
    bench.check_record(_record())


@pytest.mark.parametrize("break_it", [
    lambda r: r.pop("method"),
    lambda r: r.update(extra=1),
    lambda r: r["env"].pop("numpy"),
    lambda r: r.update(rows=[]),
    lambda r: r["rows"][0].pop("after"),
    lambda r: r["rows"][0].update(before="1.0"),
    lambda r: r["rows"][0].update(before=True),
    lambda r: r["rows"][0].update(after=None),  # null without timeout_s
    lambda r: r["rows"][0].update(note="x"),
    lambda r: r["rows"][1].update(name="a"),
], ids=["no method", "extra key", "env key", "no rows", "no after", "text value",
        "bool value", "null without timeout", "unknown row key", "repeated name"])
def test_rejects_a_broken_record(break_it):
    record = copy.deepcopy(_record())
    break_it(record)
    with pytest.raises(ValueError):
        bench.check_record(record)


def _runs(values: dict, sha=("a",)) -> dict:
    """Pair runs whose metrics all read the given value lists, per side."""
    return {label: [{"metrics": dict.fromkeys(bench.WORKLOAD_METRICS, v),
                     "sha256": [list(sha)]} for v in vs] for label, vs in values.items()}


# before runs with a median of 1 and an interquartile range of 0.175
BEFORE = [0.8, 0.85, 0.9, 0.95, 1.0, 1.0, 1.05, 1.1, 1.15, 1.2]


@pytest.mark.parametrize("after, verdicts", [
    # lower is better for op_p50_s, higher for ops_per_s
    ([b / 2 for b in BEFORE], {"op_p50_s": "gain", "ops_per_s": "loss"}),
    ([b * 2 for b in BEFORE], {"op_p50_s": "loss", "ops_per_s": "gain"}),
    # 8 of 10 wins
    ([b / 2 for b in BEFORE[:8]] + [b * 2 for b in BEFORE[8:]],
     {"op_p50_s": "unresolved", "ops_per_s": "unresolved"}),
    # 10 of 10 wins, but a median gap of 0.01, inside the before runs' spread
    ([b - 0.01 for b in BEFORE], {"op_p50_s": "unresolved", "ops_per_s": "unresolved"}),
])
def test_pair_rows_verdict(after, verdicts):
    rows = {r["name"]: r for r in bench.pair_rows("w", _runs({"before": BEFORE,
                                                               "after": after}))}
    for metric, verdict in verdicts.items():
        row = rows[f"w {metric}"]
        assert row["verdict"] == verdict
        assert row["before"] == 1.0 and row["ratio"] == row["after"]
        assert row["parent_iqr_over_median"] == pytest.approx(0.175)
    assert rows["w ops whose output sha256 differs"]["after"] == 0
    record = copy.deepcopy(_record())
    record["rows"] = list(rows.values())
    bench.check_record(record)


def test_pair_rows_count_ops_whose_output_differs():
    runs = _runs({"before": [1.0, 1.0]})
    runs["after"] = _runs({"after": [1.0, 1.0]}, sha=("b",))["after"]
    rows = bench.pair_rows("w", runs)
    assert rows[-1] == {"name": "w ops whose output sha256 differs", "unit": "ops",
                        "before": 0, "after": 1}


def test_pair_seeds_start_with_the_held_out_one():
    assert bench.pair_seeds(10) == [90417, *range(1, 10)]


def _bench_row(flag: str) -> dict:
    """``bench.py`` run on R(3,3) at n_max 8 with one of its oracle-row flags,
    in a fresh process on this checkout's ``src`` as the tool runs it
    (``oracle_calls`` leaves the ``oracle`` functions it wraps rebound)."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), flag,
                           "k3", "k3", "8", "10"], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120,
                          check=True)
    return json.loads(proc.stdout)


def test_oracle_call_row_runs_on_this_checkout():
    row = _bench_row("--oracle-call")
    assert row["result"].startswith("upper 6 ") and row["s"] > 0


def test_oracle_calls_row_counts_on_this_checkout():
    # the counts wrap ``oracle`` functions by name: after a rename they fail or read 0
    row = _bench_row("--oracle-calls")
    assert set(row) == {"canonical_forms", "embed_backtrack"}
    assert all(count > 0 for count in row.values())
