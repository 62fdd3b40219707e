"""Every committed BENCH json has the layout ``scripts/bench.py`` writes."""

import copy
import importlib.util
import json
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
