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
