"""Golden bytes: the stdout of ``ramseykit bounds`` and ``sweep --kind bounds``.

Each cell is one argv on a small grid of every theorem, t, rho (as p/q and as
a float), s and m, in both output forms: JSON from ``bounds`` and CSV from
``bounds --grid`` and ``sweep --kind bounds``.  The corpus keeps the sha256 of
the stdout of every cell that exits 0, keyed by its argv joined with spaces.
A change that means to keep the bounds output must keep every digest.  A
cell that gives ``--rho`` to a theorem that does not take it is refused, and
its exit code and message are checked instead.  Regenerate the data only for an intended change of output, and name it:

    PYTHONPATH=src python tests/test_bounds_golden.py
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from ramseykit import bounds, cli

DATA = Path(__file__).parent / "data" / "bounds_golden.json"
THEOREMS = ("main-dense", "clique-maxdeg", "clique-dense", "edges-form", "random-graph",
            "base-case", "induction-step", "lower")
TS = ("1", "2", "17", "1000")
RHOS = ("1/16", "1/50", "2/3", "1", "0.05", "1e-3")
SS = ("0", "1", "5", "40")
MS = ("1", "3", "100")


# the flags each theorem is given besides --t, edges-form's --rho to be refused;
# it is also run once with the others
READS = {"edges-form": ("--m", "--rho"), "base-case": ("--s", "--rho"),
         "induction-step": ("--s", "--rho")}
VALUES = {"--rho": RHOS, "--s": SS, "--m": MS}
EXTRA = ("--rho", "1/16", "--s", "5", "--m", "3")


def _combos(flags, values) -> list[list[str]]:
    """Each choice of no value or one of ``values[flag]`` for every flag."""
    return [sum(pick, []) for pick in product(*([[]] + [[f, v] for v in values[f]]
                                                for f in flags))]


def cells() -> list[list[str]]:
    """Every argv of the grid, in a fixed order; cells that exit nonzero, such
    as those that lack a flag their theorem needs, are left out of the corpus."""
    out = []
    for theorem in THEOREMS:
        head = ["--theorem", theorem]
        flags = READS.get(theorem, ("--rho",))
        for t, combo in product(TS, _combos(flags, VALUES)):
            out.append(["bounds", *head, "--t", t, *combo])
        out.append(["bounds", *head, "--t", "17", *EXTRA])
        grid = {"--rho": (",".join(RHOS), "1/16"), "--s": SS[1:3], "--m": MS[:2]}
        for combo in _combos(flags, grid):
            out.append(["bounds", *head, "--t", ",".join(TS[1:]), *combo, "--grid"])
            out.append(["sweep", "--kind", "bounds", *head, "--t", "2:1000:499", *combo])
    return out


def record(argv: list[str]) -> tuple[int, str]:
    """The exit code of ``argv`` and the sha256 of its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def unread_rho_cells() -> list[list[str]]:
    """The cells that give --rho to a theorem whose ``bounds.TABLE`` row does
    not take it, and that exit 0 without their --rho."""
    out = []
    for argv in cells():
        row = bounds.TABLE[argv[argv.index("--theorem") + 1]]
        if "--rho" in argv and "rho" not in row.required + row.optional:
            at = argv.index("--rho")
            if record(argv[:at] + argv[at + 2:])[0] == 0:
                out.append(argv)
    return out


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_corpus_covers_every_theorem_and_output_form():
    grid = {" ".join(argv) for argv in cells()}
    assert set(GOLDEN) <= grid
    for theorem in THEOREMS:
        keys = [k for k in GOLDEN if f"--theorem {theorem} " in k]
        assert any(k.startswith("bounds ") and "--grid" not in k for k in keys), theorem
        assert any(k.startswith("bounds ") and k.endswith("--grid") for k in keys), theorem
        assert any(k.startswith("sweep ") for k in keys), theorem


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_unchanged(key):
    assert record(key.split(" ")) == (0, GOLDEN[key])


@pytest.mark.parametrize("argv", unread_rho_cells(), ids=" ".join)
def test_unread_rho_refused(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    theorem = argv[argv.index("--theorem") + 1]
    assert (code, out.getvalue(), err.getvalue()) == \
        (1, "", f"usage error: --rho is not a parameter of theorem {theorem}\n")


if __name__ == "__main__":
    kept = {}
    for argv in cells():
        code, digest = record(argv)
        if code == 0:
            kept[" ".join(argv)] = digest
    DATA.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                       for k, v in kept.items()) + "\n}\n")
