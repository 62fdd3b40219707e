"""Golden corpus: the outcomes of the three search modes on a fixed grid.

Each cell runs ``ramseykit search`` on a seeded random coloring and records
the exit code, the outcome, the colour, the embedding or clique and the
reason.  A change that means to keep search behaviour must keep every cell.
A few extra cells beside the grid reach the search paths that no grid cell
reaches.  ``data/two_sided_lift.txt`` is the coloring on 126 vertices in
which vertices 0-2 are red to every later vertex and every other pair is
blue, so both chases keep 120 vertices and the red/blue descent lifts and
assembles a blue C9.
Regenerate the data only for an intended change of outcome, and name it:

    PYTHONPATH=src python tests/test_search_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ramseykit import cli

DATA = Path(__file__).parent / "data" / "search_golden.json"
NS = (12, 20, 40, 80, 160)
SEEDS = range(6)
# (mode, red probability of the coloring, pattern, extra flags); vs-clique
# runs on sparser red so the sparse-pair descent is reached, and the last two
# rows end random-bounded searches in a chase: a clique of the other colour's
# letters, then a clique of red pivots
PATTERNS = (
    ("mono", 0.5, "c5", ()),
    ("mono", 0.5, "k4", ()),
    ("mono", 0.5, "p4", ()),
    ("vs-clique", 0.25, "gnp:10:0.5:1", ("--rho", "0.3")),
    ("vs-clique", 0.25, "k3", ("--clique-s", "5")),
    ("random-bounded", 0.5, "c9", ("--degree-cap", "2")),
    ("random-bounded", 0.5, "s4", ("--degree-cap", "2")),
    ("random-bounded", 0.5, "m3", ()),
    ("random-bounded", 0.5, "s3", ("--rho", "0.9")),
    ("random-bounded", 0.5, "p4", ("--degree-cap", "0", "--rho", "0.02")),
)
# beside the grid: the bounded red/blue descent's greedy try, sparse pair and
# bisection at n = 1280; its lift and assembly on a constructed coloring; and
# the mono search's route from the pivots into the red/blue descent
EXTRA = (
    *(["search", "--coloring", f"random:1280:0.5:{seed}", "--pattern", "c9",
       "--mode", "random-bounded", "--degree-cap", "2", "--seed", str(seed)] for seed in (1, 2)),
    ["search", "--coloring", "tests/data/two_sided_lift.txt", "--pattern", "c9",
     "--mode", "random-bounded", "--degree-cap", "2"],
    ["search", "--coloring", "mono:120:R", "--pattern", "m25", "--mode", "mono"],
)
FIELDS = ("outcome", "color", "embedding", "clique", "reason")
ROOT = Path(__file__).parent.parent


def cells() -> list[list[str]]:
    return [["search", "--coloring", f"random:{n}:{p}:{seed}", "--pattern", pattern,
             "--mode", mode, "--seed", str(seed), *extra]
            for mode, p, pattern, extra in PATTERNS for n in NS for seed in SEEDS] + \
        [list(argv) for argv in EXTRA]


def record(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run([str(ROOT / a) if a.startswith("tests/") else a for a in argv])
    result = json.loads(out.getvalue())["result"] if code == 0 else {}
    return {"argv": argv, "exit": code, **{k: result.get(k) for k in FIELDS}}


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else []


def test_corpus_covers_the_grid():
    assert [cell["argv"] for cell in GOLDEN] == cells()


@pytest.mark.parametrize("cell", GOLDEN, ids=lambda c: " ".join(c["argv"][2:7:2]))
def test_cell_outcome_unchanged(cell):
    assert record(cell["argv"]) == cell


if __name__ == "__main__":
    DATA.write_text(json.dumps([record(argv) for argv in cells()], indent=1) + "\n")
