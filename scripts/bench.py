"""Time two checkouts side by side and write a BENCH json.

    python3 scripts/bench.py --before OLD --after NEW --out BENCH_24.json [--pairs 10]

OLD and NEW are checkouts of this repository.  Each is copied, without
``.git``, ``perfbench/out`` and caches, into a sibling directory of one
temporary parent, the two names of equal length, and every measurement runs
on those copies (each one's ``src`` is put on PYTHONPATH; the tier-1 suite
and perfbench run inside it), so the two sides' paths differ in one
directory name and not in length or place.  Every measurement runs in a
fresh process, and the two checkouts alternate (the one that goes first
switches every round), so a slow spell of the host lands on both.
A row's value is the median over rounds; each primitive is itself the median
of a few in-process repeats (the t = 5 and 9 constructions: the best of five
runs of 20,000 calls).  Rows:

* primitives: ``sample_gnp`` at t = 2048 and 4096 (rho 0.2, seed 1) and at
  t = 16384 (seed 5),
  ``sample_coloring`` at n = 20, 80 and 320 (p 1/2, the ``search_sweep``
  sizes; the median of 21 calls) and at n = 1024 (past one tile, a stack of
  one), ``sample_red_rows`` of 2000 seeds at n = 20 (p 1/2, stacks of seed
  blocks), ``Graph``
  validation at t = 256 and 320 (one 256 x 256 tile, compared whole, and
  past it; the median of 21 calls) and at 1024, 2048, 4096 and 8192,
  ``Graph.complete(16384)`` (the K_s ``search --mode vs-clique`` builds for
  ``--clique-s``), ``serialize_graph`` at
  t = 2048, the text of G(2048, 0.2) written to the null device as
  ``random gnp`` writes it (a chunk at a time where ``serialize_graph``
  streams, whole where it does not), ``parse_graph`` at t = 1024, 2048,
  4096 (G(t, 0.2) each) and on the bytes of the G(2048, 0.2) text, its
  byte pass alone (``_read_edge_lines`` over every block of the G(2048, 0.2)
  text),
  ``verify_degree_spread`` on G(2048, 0.2) as ``dense_sampling`` runs it
  (delta 0.1, eps 0.5, rho 0.2, 50 sampled sets), ``serialize_coloring`` and
  ``parse_coloring`` of the compact form of ``random:512:0.5:1``,
  ``parse_coloring`` of its long form (130,816 pair lines, read line by line),
  ``Coloring.swapped()`` at n = 400,
  ``Graph`` construction at t = 5 and 9, ``check_bidense_exact`` on the
  hosts of ``BIDENSE_CASES``, each of which certifies (a budget of 10**10
  admits them in either budget unit, C(n, s) * n counts or C(n, s)**2),
  ``lower_bound_certificate_random`` on each case of
  ``CERTIFY_LOWER_CASES`` (n = R(H, H), so every try runs) at 300 and 128
  tries and at one try (the best of five runs of 2,000 calls, which shows
  the cost of building the copy table), the last case past the copy table's
  size limit, and
  ``find_mono_subgraph_exact`` for K4 in the red class of
  ``random:40:0.5:1`` (the best of five runs of 2,000 calls),
  ``Coloring.induced`` on all vertices and on the even ones of
  ``random:320:0.25:1`` and on the even ones of ``random:4096:0.5:1``,
  ``Graph.induced`` of 7 of the 10 vertices of ``gnp:10:0.5:1`` (the best of
  five runs of 20,000 calls), ``neighborhood_chase`` on ``random:320:0.5:1``
  (threshold 1/2, 8 letters of each colour at most),
  ``find_red_H_or_blue_clique`` on the n = 320 vs-clique input of
  ``search_sweep`` (``gnp:10:0.5:1`` against a blue K10 in
  ``random:320:0.25:1``, rho 0.3, seed 1) and ``find_sparse_pair_heuristic``
  on the red class of ``random:320:0.5:1`` and ``random:640:0.5:1`` at the
  search's own settings (sigma 0.05, delta 0.3, 40 tries, seed 1);
* per-op memory: the tracemalloc peak, in MB above the heap before the op,
  of ``sample_gnp`` and of reading and parsing a G(t, 0.2) file
  (``read_pattern``, as every ``--graph`` is read) at t = 2048 and 4096, of
  ``serialize_graph``, of the text ``random gnp`` writes and of
  ``parse_graph`` on the text's bytes at t = 2048, of ``sample_gnp`` at
  t = 16384 (seed 5; its packed upper matrix alone is 32 MB), of
  ``parse_coloring`` and ``serialize_coloring`` of the compact form of
  ``random:4096:0.5:1``, of its ``Coloring.induced`` on the even vertices,
  of ``Graph`` validation at t = 4096 (the rows made before), of
  ``Graph.complete(16384)`` and of the ``verify_degree_spread`` row.  These tracemalloc peaks do not
  depend on the process's memory layout, as ``peak_rss_mb`` does;
* ``ramsey_number_exact`` on each ``exact_oracle`` anchor of
  ``perfbench/workloads.py``, on R(3,4) at n_max = 10, on R(3,5) at
  n_max = guard = 14, and on (K3, C6) at 11, (K3, C7) at 13 and (C5, K4) at
  13, each at guard = n_max, one call per fresh process, whose result (kind,
  n and, for an "upper" result, the class counts) the row keeps.  A call that
  runs past ``ORACLE_TIMEOUT_S`` is stopped; that side records null and the
  timeout, and is not run again for the row.  One more fresh process per
  side counts, in an untimed call, the canonical forms the call computes
  (the patterns' own included) and its ``_embed_backtrack`` calls, by
  wrapping those functions of ``ramseykit.oracle``; the row keeps them as
  ``before_calls`` and ``after_calls``;
* the tier-1 suite's wall time;
* workload pairs (``--pairs N``, 10 by default): ``perfbench/run.py
  --seconds 30 --trace 0`` of each workload on both checkouts, one pair per
  seed of 90417 (the held-out one) and 1 .. N-1, the first checkout
  switching every pair.  Each end-to-end metric's row gives both medians,
  ``ratio`` (after / before), ``wins`` (the pairs whose after value is
  better), the before runs' ``parent_iqr_over_median`` and a ``verdict``:
  "gain" only when wins >= 0.9 N and the medians differ by more than the
  before runs' interquartile range, "loss" when the losses meet the same
  test, and "unresolved" otherwise.  One more row per workload counts the
  ops whose output sha256 differs between the two sides of some pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path
from typing import Optional

WORKLOADS = ("dense_sampling", "search_sweep", "exact_oracle")
WORKLOAD_METRICS = ("ops_per_s", "op_p50_s", "op_tail_s", "found_frac", "ok_frac",
                    "peak_rss_mb", "setup_s")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
PRIMITIVE_ROUNDS = 3
ORACLE_ROUNDS = 3
ORACLE_TIMEOUT_S = 150
TIER1_ROUNDS = 1
HELD_OUT_SEED = 90417  # the first pair's seed; the others are 1 .. N-1
# metrics where a larger value is better; for the others a smaller one is
HIGHER_BETTER = {"ops_per_s", "found_frac", "ok_frac"}
GAIN_WINS = 0.9  # least share of pairs a gain or a loss must win
# (host, sigma, delta) of each check_bidense_exact row
BIDENSE_CASES = (("gnp:40:0.9:5", 0.1, 0.3), ("gnp:60:0.95:5", 0.05, 0.3))
# (pattern, n) of each lower_bound_certificate_random row, one per count of
# CERTIFY_TRIES, from seed 1: the first three build the copy table on every
# call, and K4 at n = 18 has 9180 words of copies, past oracle.COPY_TABLE_WORDS
CERTIFY_LOWER_CASES = (("k3", 6), ("c4", 6), ("c5", 9), ("k4", 18))
CERTIFY_TRIES = (300, 128, 1)
# keys of a BENCH json, of its env, and the optional keys of a row
RECORD_KEYS = {"env", "method", "rounds", "rows"}
ENV_KEYS = {"python", "numpy", "nproc", "machine"}
ROW_EXTRAS = {"per_seed", "before_result", "after_result", "before_calls", "after_calls",
              "timeout_s", "ratio", "wins", "parent_iqr_over_median", "verdict"}
ROOT = Path(__file__).resolve().parent.parent
# the directory each side is copied to: names of equal length, in one parent
COPY_NAMES = {"before": "old", "after": "new"}
# left out of the copies: what building, testing and running leave behind
NOT_COPIED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
              "*.egg-info")


def oracle_cases() -> list[tuple[str, str, int, int]]:
    """(h1, h2, n_max, guard) of each ``ramsey_number_exact`` row."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import RAMSEY_ANCHORS

    cases = [(h1, h2, nmax, 10) for h1, h2, nmax, _ in RAMSEY_ANCHORS]
    return cases + [("k3", "k4", 10, 10), ("k3", "k5", 14, 14), ("k3", "c6", 11, 11),
                    ("k3", "c7", 13, 13), ("c5", "k4", 13, 13)]


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _peak_mb(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, in MB above the heap
    before it, after one untraced call has warmed every cache."""
    import tracemalloc

    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _read_all_edge_lines(text: str) -> None:
    """``parse_graph``'s byte pass alone over a text it writes: every block of
    edge lines, read into edge arrays (one of u * t + v where the reader
    takes one, else two of endpoints), and nothing built from them.  The
    reader is given the text as a str too where it takes one."""
    import inspect

    import numpy as np

    from ramseykit.graphs import _read_edge_lines, _text_blocks

    body = text.strip()
    data = body.encode()
    end = data.find(b"\n")
    t, m = map(int, body[:end].split()[1::2])
    params = inspect.signature(_read_edge_lines).parameters
    texts = [body, data] if "text" in params else [data]
    arrays = [np.empty(m, np.int32)] if "at" in params else \
        [np.empty(m, np.int64), np.empty(m, np.int64)]
    read = 0
    for lo, hi in _text_blocks(data, end + 1):
        read = _read_edge_lines(*texts, lo, hi, t, *arrays, read)
    if read != m:
        raise SystemExit(f"the byte pass read {read} of {m} edge lines")


def _gnp_text(g) -> None:
    """Write the text of ``g`` to the null device as ``random gnp`` writes
    it: streamed where ``serialize_graph`` takes an ``out`` stream, whole
    where it does not."""
    import inspect

    from ramseykit.graphs import serialize_graph

    with open(os.devnull, "w") as f:
        if "out" in inspect.signature(serialize_graph).parameters:
            serialize_graph(g, f)
        else:
            f.write(serialize_graph(g))


def primitives() -> dict:
    """Seconds per call of each primitive, in this process."""
    from ramseykit.embedder import Certified, check_bidense_exact, find_sparse_pair_heuristic
    from ramseykit.graphs import (RED, Graph, parse_coloring, parse_graph, serialize_coloring,
                                  serialize_graph)
    from ramseykit.oracle import find_mono_subgraph_exact, lower_bound_certificate_random
    from ramseykit.patterns import load_pattern, read_pattern
    from ramseykit.randomlab import (sample_coloring, sample_gnp, sample_red_rows,
                                     verify_degree_spread)
    from ramseykit.search import SearchConfig, find_red_H_or_blue_clique, neighborhood_chase

    out = {f"sample_gnp({t}, 0.2)": _median_time(lambda: sample_gnp(t, 0.2, 1), 3)
           for t in (2048, 4096)}
    out["sample_gnp(16384, 0.2, 5)"] = _median_time(lambda: sample_gnp(16384, 0.2, 5), 3)
    for n in (20, 80, 320):
        out[f"sample_coloring({n}, 0.5)"] = _median_time(lambda: sample_coloring(n, 0.5, 1), 21)
    out["sample_coloring(1024, 0.5)"] = _median_time(lambda: sample_coloring(1024, 0.5, 1), 5)
    out["sample_red_rows(20, 0.5, 2000 seeds)"] = _median_time(
        lambda: list(sample_red_rows(20, 0.5, range(1, 2001))), 5)
    for t in (256, 320):  # one tile, compared whole, and past it
        rows = sample_gnp(t, 0.2, 1).rows
        out[f"Graph validation, t={t}"] = _median_time(lambda: Graph(t, rows), 21)
    for t in (1024, 2048, 4096, 8192):
        rows = sample_gnp(t, 0.2, 1).rows
        out[f"Graph validation, t={t}"] = _median_time(lambda: Graph(t, rows), 3)
    out["Graph.complete(16384)"] = _median_time(lambda: Graph.complete(16384), 3)
    g = sample_gnp(2048, 0.2, 1)
    out["serialize_graph, t=2048"] = _median_time(lambda: serialize_graph(g), 5)
    out["random gnp text, t=2048"] = _median_time(lambda: _gnp_text(g), 5)
    data = serialize_graph(g).encode()
    out["parse_graph(bytes), t=2048"] = _median_time(lambda: parse_graph(data), 5)
    for t in (1024, 2048, 4096):
        text = serialize_graph(sample_gnp(t, 0.2, 1))
        out[f"parse_graph, t={t}"] = _median_time(lambda: parse_graph(text), 5)
    text = serialize_graph(sample_gnp(2048, 0.2, 1))
    out["_read_edge_lines, every block of G(2048, 0.2)"] = _median_time(
        lambda: _read_all_edge_lines(text), 5)
    g = sample_gnp(2048, 0.2, 1)
    out["verify_degree_spread(G(2048, 0.2), 0.1, 0.5, 0.2, budget=50)"] = _median_time(
        lambda: verify_degree_spread(g, 0.1, 0.5, 0.2, sample_budget=50, seed=1), 5)
    c = sample_coloring(512, 0.5, 1)
    out["serialize_coloring(random:512:0.5:1, compact)"] = _median_time(
        lambda: serialize_coloring(c, compact=True), 3)
    text = serialize_coloring(c, compact=True)
    out["parse_coloring(random:512:0.5:1, compact)"] = _median_time(
        lambda: parse_coloring(text), 3)
    text = serialize_coloring(c)  # 130,816 pair lines
    out["parse_coloring(random:512:0.5:1, long form)"] = _median_time(
        lambda: parse_coloring(text), 3)
    c = sample_coloring(400, 0.5, 1)
    out["Coloring.swapped(), n=400"] = _median_time(c.swapped, 9)
    for t in (5, 9):
        rows = sample_gnp(t, 0.5, 1).rows
        calls = 20_000
        best = min(timeit.repeat(lambda: Graph(t, rows), number=calls, repeat=5))
        out[f"Graph construction, t={t}, G(t, 1/2)"] = best / calls
    for host, sigma, delta in BIDENSE_CASES:
        g = load_pattern(host)
        if not isinstance(check_bidense_exact(g, sigma, delta, budget=10 ** 10), Certified):
            raise SystemExit(f"{host} does not certify at sigma {sigma}, delta {delta}")
        out[f"check_bidense_exact({host}, sigma={sigma}, delta={delta})"] = _median_time(
            lambda: check_bidense_exact(g, sigma, delta, budget=10 ** 10), 3)
    for pattern, n in CERTIFY_LOWER_CASES:
        h = load_pattern(pattern)
        for tries in CERTIFY_TRIES:
            name = f"lower_bound_certificate_random({pattern}, n={n}, tries={tries})"
            if tries > 1:
                out[name] = _median_time(lambda: lower_bound_certificate_random(h, n, tries, 1), 3)
                continue
            calls = 2_000
            out[name] = min(timeit.repeat(lambda: lower_bound_certificate_random(h, n, 1, 1),
                                          number=calls, repeat=5)) / calls
    k4, c = load_pattern("k4"), sample_coloring(40, 0.5, 1)
    calls = 2_000
    best = min(timeit.repeat(lambda: find_mono_subgraph_exact(c, k4, RED), number=calls,
                             repeat=5))
    out["find_mono_subgraph_exact(k4, random:40:0.5:1, R)"] = best / calls
    for spec, name, vertices in (("random:320:0.25:1", "all", range(320)),
                                 ("random:320:0.25:1", "even", range(0, 320, 2)),
                                 ("random:4096:0.5:1", "even", range(0, 4096, 2))):
        n, p, seed = spec.split(":")[1:]
        c, vertices = sample_coloring(int(n), float(p), int(seed)), list(vertices)
        out[f"Coloring.induced({spec}, {name} vertices)"] = \
            _median_time(lambda: c.induced(vertices), 5 if c.n < 4096 else 3)
    g, seven = load_pattern("gnp:10:0.5:1"), [0, 2, 3, 5, 6, 8, 9]
    calls = 20_000
    best = min(timeit.repeat(lambda: g.induced(seven), number=calls, repeat=5))
    out["Graph.induced(gnp:10:0.5:1, 7 vertices)"] = best / calls
    c = sample_coloring(320, 0.5, 1)
    out["neighborhood_chase(random:320:0.5:1, 1/2, 8, 8)"] = \
        _median_time(lambda: neighborhood_chase(c, range(320), 0.5, 8, 8), 9)
    c, config = sample_coloring(320, 0.25, 1), SearchConfig(rho=0.3, seed=1)
    out["find_red_H_or_blue_clique(gnp:10:0.5:1, random:320:0.25:1, s=10)"] = \
        _median_time(lambda: find_red_H_or_blue_clique(c, g, 10, config), 9)
    for n in (320, 640):
        c = sample_coloring(n, 0.5, 1)
        out[f"find_sparse_pair_heuristic(random:{n}:0.5:1, R, 0.05, 0.3, tries=40)"] = \
            _median_time(lambda: find_sparse_pair_heuristic(c, 0.05, 0.3, RED, 40, 1), 5)
    with tempfile.TemporaryDirectory() as tmp:
        for t in (2048, 4096):
            out[f"peak of sample_gnp({t}, 0.2)"] = _peak_mb(lambda: sample_gnp(t, 0.2, 1))
            path = Path(tmp) / f"g{t}.graph"
            path.write_text(serialize_graph(sample_gnp(t, 0.2, 1)))
            out[f"peak of read_pattern(G({t}, 0.2) file)"] = \
                _peak_mb(lambda: read_pattern(str(path)))
    g = sample_gnp(2048, 0.2, 1)
    out["peak of serialize_graph, t=2048"] = _peak_mb(lambda: serialize_graph(g))
    out["peak of random gnp text, t=2048"] = _peak_mb(lambda: _gnp_text(g))
    out["peak of parse_graph(bytes), t=2048"] = _peak_mb(lambda: parse_graph(data))
    out["peak of sample_gnp(16384, 0.2, 5)"] = _peak_mb(lambda: sample_gnp(16384, 0.2, 5))
    c, even = sample_coloring(4096, 0.5, 1), list(range(0, 4096, 2))
    hex_text = serialize_coloring(c, compact=True)
    out["peak of parse_coloring(random:4096:0.5:1, compact)"] = \
        _peak_mb(lambda: parse_coloring(hex_text))
    out["peak of serialize_coloring(random:4096:0.5:1, compact)"] = \
        _peak_mb(lambda: serialize_coloring(c, compact=True))
    out["peak of Coloring.induced(random:4096:0.5:1, even vertices)"] = \
        _peak_mb(lambda: c.induced(even))
    rows = sample_gnp(4096, 0.2, 1).rows
    out["peak of Graph validation, t=4096"] = _peak_mb(lambda: Graph(4096, rows))
    out["peak of Graph.complete(16384)"] = _peak_mb(lambda: Graph.complete(16384))
    out["peak of verify_degree_spread(G(2048, 0.2), 0.1, 0.5, 0.2, budget=50)"] = _peak_mb(
        lambda: verify_degree_spread(g, 0.1, 0.5, 0.2, sample_budget=50, seed=1))
    return out


def oracle_call(h1: str, h2: str, n_max: int, guard: int) -> dict:
    """Seconds of one ``ramsey_number_exact`` call, in this process, and its result."""
    from ramseykit.oracle import ramsey_number_exact
    from ramseykit.patterns import load_pattern

    g1, g2 = load_pattern(h1), load_pattern(h2)
    start = time.perf_counter()
    cert = ramsey_number_exact(g1, g2, n_max, guard=guard)
    result = f"{cert.kind} {cert.n}"
    if cert.classes is not None:
        result += " classes " + ",".join(map(str, cert.classes))
    return {"s": time.perf_counter() - start, "result": result}


def oracle_calls(h1: str, h2: str, n_max: int, guard: int) -> dict:
    """How many canonical forms and ``_embed_backtrack`` calls one
    ``ramsey_number_exact`` call makes, counted by wrapping them."""
    from ramseykit import oracle
    from ramseykit.patterns import load_pattern

    counts = {}
    for name, key in (("canonical_form", "canonical_forms"),
                      ("_embed_backtrack", "embed_backtrack")):
        def counted(*args, _fn=getattr(oracle, name), _key=key):
            counts[_key] += 1
            return _fn(*args)
        counts[key] = 0
        setattr(oracle, name, counted)
    oracle.ramsey_number_exact(load_pattern(h1), load_pattern(h2), n_max, guard=guard)
    return counts


def sibling_copies(roots: dict, parent: Path) -> dict:
    """{label: a copy of ``roots[label]`` in ``parent``, named by
    ``COPY_NAMES``}, without ``NOT_COPIED`` nor ``perfbench/out``."""
    skip = shutil.ignore_patterns(*NOT_COPIED)

    def ignore(directory: str, names: list[str]) -> set[str]:
        left_out = skip(directory, names)
        if Path(directory).name == "perfbench":
            left_out.add("out")
        return left_out

    copies = {}
    for label, root in roots.items():
        copies[label] = parent / COPY_NAMES[label]
        shutil.copytree(root, copies[label], ignore=ignore)
    return copies


def _in_checkout(root: Path, cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "RAMSEYKIT_WORKERS"}
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout, check=True)


def _alternate(roots: dict, rounds: int, measure, first: int = 0) -> dict:
    """{label: [one value per round]}, the first label switching every round.
    A label whose measurement returns None (a timeout) is not measured again."""
    labels = list(roots)
    got = {label: [] for label in labels}
    for r in range(first, first + rounds):
        for label in labels[r % 2:] + labels[:r % 2]:
            if None in got[label]:
                continue
            got[label].append(measure(roots[label]))
            shown = got[label][-1]
            if isinstance(shown, dict) and "metrics" in shown:
                shown = shown["metrics"]  # not a pair run's output hashes
            print(f"  {label}: {shown}", file=sys.stderr, flush=True)
    return got


def _measure_primitives(root: Path) -> dict:
    proc = _in_checkout(root, [sys.executable, str(Path(__file__).resolve()),
                               "--primitives"], 900)
    return json.loads(proc.stdout)


def _measure_oracle(root: Path, case: tuple, flag: str = "--oracle-call") -> Optional[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), flag, *map(str, case)]
    try:
        proc = _in_checkout(root, cmd, ORACLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(proc.stdout)


def _measure_tier1(root: Path) -> dict:
    start = time.perf_counter()
    proc = _in_checkout(root, TIER1, 1800)
    wall = time.perf_counter() - start
    passed = re.search(r"(\d+) passed", proc.stdout)
    return {"wall_s": wall, "passed": int(passed.group(1)) if passed else 0}


def _measure_run(root: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one ``perfbench/run.py`` run and the output
    sha256 of each of its ops."""
    proc = _in_checkout(root, [sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", "30", "--trace", "0"], 1800)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    ops = json.loads((root / record).read_text())["ops"]
    return {"metrics": {k: result["metrics"][k]["value"] for k in WORKLOAD_METRICS},
            "sha256": [op["sha256"] for op in ops]}


def pair_seeds(pairs: int) -> list[int]:
    return [HELD_OUT_SEED, *range(1, pairs)]


def pair_rows(workload: str, runs: dict) -> list[dict]:
    """The rows of one workload's pairs: ``runs[label][k]`` is the run of
    pair k on that side."""
    before, after = runs["before"], runs["after"]
    rows = []
    for metric in WORKLOAD_METRICS:
        b = [r["metrics"][metric] for r in before]
        a = [r["metrics"][metric] for r in after]
        sign = 1 if metric in HIGHER_BETTER else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, a))
        losses = sum(sign * (y - x) < 0 for x, y in zip(b, a))
        mb, ma = statistics.median(b), statistics.median(a)
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive")
        apart = abs(ma - mb) > q3 - q1
        verdict = "gain" if apart and wins >= GAIN_WINS * len(b) else \
            "loss" if apart and losses >= GAIN_WINS * len(b) else "unresolved"
        unit = "1/s" if metric == "ops_per_s" else "MB" if metric == "peak_rss_mb" \
            else "frac" if metric.endswith("_frac") else "s"
        rows.append({"name": f"{workload} {metric}", "unit": unit, "before": mb, "after": ma,
                     "ratio": ma / mb if mb else None, "wins": wins,
                     "parent_iqr_over_median": (q3 - q1) / mb if mb else None,
                     "verdict": verdict, "per_seed": {"before": b, "after": a}})
    differ = {i for x, y in zip(before, after)
              for i, (p, q) in enumerate(zip(x["sha256"], y["sha256"])) if set(p) != set(q)}
    rows.append({"name": f"{workload} ops whose output sha256 differs", "unit": "ops",
                 "before": 0, "after": len(differ)})
    return rows


def run_pairs(roots: dict, pairs: int) -> list[dict]:
    rows = []
    for workload in WORKLOADS:
        runs = {label: [] for label in roots}
        for k, seed in enumerate(pair_seeds(pairs)):
            print(f"{workload} seed {seed}", file=sys.stderr)
            got = _alternate(roots, 1, lambda root: _measure_run(root, workload, seed), first=k)
            for label, values in got.items():
                runs[label] += values
        rows += pair_rows(workload, runs)
    return rows


def print_pairs(rows: list[dict]) -> None:
    for row in rows:
        line = f"{row['name']}: {row['before']:.6g} -> {row['after']:.6g} {row['unit']}"
        if "verdict" in row:
            line += f", wins {row['wins']}/{len(row['per_seed']['before'])}"
            if row["ratio"] is not None:
                line += (f", ratio {row['ratio']:.3f}, parent IQR/median "
                         f"{row['parent_iqr_over_median']:.3f}")
            line += f": {row['verdict']}"
        print(line)


def check_record(record: dict) -> None:
    """Raise ValueError unless ``record`` has the layout ``main`` writes:
    ``env``, ``method``, ``rounds`` and ``rows``, each row with a unique name,
    a unit, and a before and an after value, either of them null only in a
    row that gives its ``timeout_s``."""
    def need(ok: bool, what: str):
        if not ok:
            raise ValueError(what)

    need(isinstance(record, dict) and set(record) == RECORD_KEYS,
         f"a record has exactly the keys {sorted(RECORD_KEYS)}")
    need(isinstance(record["env"], dict) and set(record["env"]) == ENV_KEYS,
         f"env has exactly the keys {sorted(ENV_KEYS)}")
    need(isinstance(record["method"], str) and record["method"] != "", "method is text")
    need(isinstance(record["rounds"], dict) and record["rounds"] != {}, "rounds is a dict")
    rows = record["rows"]
    need(isinstance(rows, list) and rows != [], "rows is a nonempty list")
    names = set()
    for row in rows:
        need(isinstance(row, dict), "each row is a dict")
        name = row.get("name")
        need(isinstance(name, str) and name not in names, f"row name {name!r} is unique text")
        names.add(name)
        need(isinstance(row.get("unit"), str), f"{name}: unit is text")
        need(set(row) - {"name", "unit", "before", "after"} <= ROW_EXTRAS,
             f"{name}: keys beyond name, unit, before and after are among {sorted(ROW_EXTRAS)}")
        for label in ("before", "after"):
            value = row.get(label, "missing")
            need(value is None or isinstance(value, (int, float)) and not isinstance(value, bool),
                 f"{name}: {label} is a number or null")
        if row["before"] is None or row["after"] is None:
            need(isinstance(row.get("timeout_s"), (int, float)),
                 f"{name}: a null value comes with timeout_s")


def _row(name: str, unit: str, per_label: dict) -> dict:
    row = {"name": name, "unit": unit}
    for label, values in per_label.items():
        row[label] = statistics.median(values)
    return row


def measure_rows(roots: dict, pairs: int) -> list[dict]:
    """Every row, measured on the checkouts ``roots``."""
    rows = []

    print("primitives", file=sys.stderr)
    runs = _alternate(roots, PRIMITIVE_ROUNDS, _measure_primitives)
    for name in runs["before"][0]:
        unit = "MB" if name.startswith("peak of ") else "s"
        rows.append(_row(name, unit, {label: [r[name] for r in v] for label, v in runs.items()}))

    for case in oracle_cases():
        h1, h2, n_max, guard = case
        print(f"oracle {case}", file=sys.stderr)
        runs = _alternate(roots, ORACLE_ROUNDS, lambda root: _measure_oracle(root, case))
        row = {"name": f"ramsey_number_exact({h1}, {h2}, n_max={n_max}, guard={guard})",
               "unit": "s"}
        for label, values in runs.items():
            done = [v for v in values if v is not None]
            row[label] = statistics.median(v["s"] for v in done) if len(done) == len(values) \
                else None
            row[f"{label}_result"] = done[0]["result"] if done else None
            if done:
                row[f"{label}_calls"] = _measure_oracle(roots[label], case, "--oracle-calls")
        if any(row[label] is None for label in runs):
            row["timeout_s"] = ORACLE_TIMEOUT_S
        rows.append(row)

    print("tier-1", file=sys.stderr)
    runs = _alternate(roots, TIER1_ROUNDS, _measure_tier1)
    rows.append(_row("tier-1 wall time", "s",
                     {label: [r["wall_s"] for r in v] for label, v in runs.items()}))
    rows.append(_row("tier-1 tests passed", "count",
                     {label: [r["passed"] for r in v] for label, v in runs.items()}))

    pairs = run_pairs(roots, pairs)
    print_pairs(pairs)
    return rows + pairs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before", type=Path, help="checkout measured as 'before'")
    p.add_argument("--after", type=Path, help="checkout measured as 'after'")
    p.add_argument("--out", type=Path, help="BENCH json to write")
    p.add_argument("--pairs", type=int, default=10, help="workload pairs, one per seed")
    p.add_argument("--primitives", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--oracle-call", nargs=4, help=argparse.SUPPRESS)
    p.add_argument("--oracle-calls", nargs=4, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.primitives:
        print(json.dumps(primitives()))
        return 0
    for case, measure in ((args.oracle_call, oracle_call), (args.oracle_calls, oracle_calls)):
        if case:
            h1, h2, n_max, guard = case
            print(json.dumps(measure(h1, h2, int(n_max), int(guard))))
            return 0
    if not (args.before and args.after and args.out):
        p.error("--before, --after and --out are required")
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory() as parent:
        roots = sibling_copies({"before": args.before.resolve(),
                                "after": args.after.resolve()}, Path(parent))
        rows = measure_rows(roots, args.pairs)

    import numpy

    record = {
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(), "machine": platform.machine()},
        "method": __doc__.split("\n\n", 1)[1].strip(),
        "rounds": {"primitives": PRIMITIVE_ROUNDS, "oracle": ORACLE_ROUNDS,
                   "tier1": TIER1_ROUNDS, "pair_seeds": pair_seeds(args.pairs)},
        "rows": rows,
    }
    check_record(record)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
