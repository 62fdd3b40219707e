"""Independent output checks: numpy and networkx only, never ramseykit.

Each check takes an op and its stdout (and, for ``--out`` ops, the file it
wrote) and returns a Verdict.  Random inputs are rebuilt from their seeds
with the documented generator (Philox keyed by the seed, one uniform draw
per pair in lexicographic order, edge iff draw < p), so a check never trusts
the objects the program built.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import networkx as nx
import numpy as np
from networkx.algorithms import isomorphism

from workloads import DIAGONAL_RAMSEY
SEARCH_KINDS = {"found_mono", "found_red_h", "found_blue_clique", "exhausted"}


@dataclass(frozen=True)
class Verdict:
    ok: bool                  # the output is well-formed and every claim holds
    positive: bool = False    # a verified positive outcome (see found_frac)
    cause: str = ""           # why the op failed or is not positive


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@lru_cache(maxsize=8)
def red_matrix(n: int, p: float, seed: int) -> np.ndarray:
    """Symmetric boolean adjacency drawn with the documented generator."""
    draws = np.random.Generator(np.random.Philox(key=seed)).random(n * (n - 1) // 2) < p
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = draws
    adj |= adj.T
    adj.setflags(write=False)  # cached: shared by every caller
    return adj


def blue_matrix(red: np.ndarray) -> np.ndarray:
    return ~red & ~np.eye(len(red), dtype=bool)


def pattern_graph(spec: str) -> nx.Graph:
    kind, rest = spec[0], spec[1:]
    if spec.startswith("gnp:"):
        _, t, rho, seed = spec.split(":")
        return nx.from_numpy_array(red_matrix(int(t), float(Fraction(rho)), int(seed)))
    size = int(rest)
    return {"k": nx.complete_graph, "c": nx.cycle_graph, "p": nx.path_graph}[kind](size)


def _result(stdout: str) -> dict:
    payload = json.loads(stdout)
    _require(payload.get("schema") == "ramseykit/v1", "missing schema tag")
    return payload["result"]


def _check_image(pattern: nx.Graph, cls: np.ndarray, image: list[int], what: str):
    n = len(cls)
    _require(len(image) == pattern.number_of_nodes(), f"{what}: image size")
    _require(len(set(image)) == len(image), f"{what}: image not injective")
    _require(all(0 <= w < n for w in image), f"{what}: image out of range")
    for u, v in pattern.edges():
        _require(bool(cls[image[u], image[v]]), f"{what}: pattern edge {u}-{v} not mapped")


def _contains(cls: np.ndarray, pattern: nx.Graph) -> bool:
    host = nx.from_numpy_array(cls)
    return isomorphism.GraphMatcher(host, pattern).subgraph_is_monomorphic()


def _decode_hex(text: str) -> np.ndarray:
    """Red matrix of a compact coloring 'n <n> hex <digits>' (MSB = first pair)."""
    head = text.split()
    _require(len(head) == 4 and head[0] == "n" and head[2] == "hex", "bad witness format")
    n = int(head[1])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    width = max(1, (len(pairs) + 3) // 4)
    _require(len(head[3]) == width, "witness hex width")
    value = int(head[3], 16)
    red = np.zeros((n, n), dtype=bool)
    for i, (u, v) in enumerate(pairs):
        if value >> (4 * width - 1 - i) & 1:
            red[u, v] = red[v, u] = True
    return red


# --------------------------------------------------------------------------
# dense_sampling
# --------------------------------------------------------------------------


def check_gnp(op, stdout, out_file):
    g = op.params
    text = Path(out_file).read_text()
    head, _, body = text.partition("\n")
    edges = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    expect = np.argwhere(np.triu(red_matrix(g["t"], g["rho"], g["seed"]), 1))
    _require(head == f"t {g['t']} m {len(expect)}", f"header {head!r}")
    _require(np.array_equal(edges, expect), "edge list differs from G(t, rho) draw")
    return Verdict(True)


def check_partition(op, stdout, out_file):
    g = op.params["graph"]
    adj = red_matrix(g["t"], g["rho"], g["seed"])
    t = g["t"]
    r = _result(stdout)
    v1, v2 = r["v1"], r["v2"]
    _require(sorted(v1 + v2) == list(range(t)), "parts do not partition the vertex set")
    side = np.zeros(t, dtype=bool)
    side[v1] = True
    cross = max(int(adj[:, side].sum(axis=1).max(initial=0)),
                int(adj[:, ~side].sum(axis=1).max(initial=0)))
    size_dev = max(abs(len(v1) - t / 2), abs(len(v2) - t / 2))
    dmax = int(adj.sum(axis=1).max())
    size_bound = 2 * math.sqrt(t)
    degree_bound = dmax / 2 + 2 * math.sqrt(dmax * math.log2(max(t, 2)))
    _require(r["max_cross_deg"] == cross, f"max_cross_deg {r['max_cross_deg']} != {cross}")
    _require(math.isclose(r["size_dev"], size_dev), "size_dev")
    _require(math.isclose(r["size_bound"], size_bound), "size_bound")
    _require(math.isclose(r["degree_bound"], degree_bound), "degree_bound")
    _require(1 <= r["tries_used"] <= op.params["max_tries"], "tries_used out of range")
    if r["accepted"]:
        _require(size_dev <= size_bound and cross <= degree_bound,
                 "accepted partition violates its bounds")
        return Verdict(True, True)
    return Verdict(True, False, f"partition rejected after {r['tries_used']} tries")


def check_spread(op, stdout, out_file):
    p = op.params
    g = p["graph"]
    t = g["t"]
    adj = red_matrix(t, g["rho"], g["seed"])
    r = _result(stdout)
    k = max(1, math.ceil(p["delta"] * t))
    cutoff = (1 + p["eps"]) * p["rho"] * p["delta"] * t
    threshold = 12 * math.log(math.e / p["delta"]) / (p["rho"] * p["eps"] ** 2)
    _require(r["set_size"] == k and r["sets_inspected"] == p["budget"], "set size or count")
    worst = r["worst_set"]
    if worst:
        _require(len(worst) == k and len(set(worst)) == k, "worst_set size")
        over = int((adj[:, worst].sum(axis=1) > cutoff).sum())
        _require(over == r["worst_count"], f"worst_count {r['worst_count']} != {over}")
    else:
        _require(r["worst_count"] == 0, "worst_count without a set")
    _require(math.isclose(r["threshold"], threshold), "threshold")
    _require(r["within_threshold"] == (r["worst_count"] <= threshold), "within_threshold")
    _require(r["vacuous"] == (threshold >= t), "vacuous flag")
    return Verdict(True)


def check_chernoff(op, stdout, out_file):
    p = op.params
    r = _result(stdout)
    bound = math.exp(-(p["theta"] ** 2) * p["p"] * p["n"] / 4)
    draws = np.random.Generator(np.random.Philox(key=p["seed"])).binomial(
        p["n"], p["p"], size=p["samples"])
    freq = float(np.mean(draws >= (1 + p["theta"]) * p["p"] * p["n"]))
    _require(math.isclose(r["bound"], bound), "chernoff bound")
    _require(r["empirical"] == freq, f"empirical {r['empirical']} != {freq}")
    _require(freq <= bound, "empirical tail exceeds the Chernoff bound")
    return Verdict(True)


# --------------------------------------------------------------------------
# search_sweep
# --------------------------------------------------------------------------


def check_search(op, stdout, out_file):
    p = op.params
    red = red_matrix(*p["coloring"])
    pattern = pattern_graph(p["pattern"])
    r = _result(stdout)
    kind = r["outcome"]
    _require(kind in SEARCH_KINDS, f"unknown outcome {kind!r}")
    if kind == "exhausted":
        return Verdict(True, False, f"exhausted: {r.get('reason')}")
    cls = red if r["color"] == "R" else blue_matrix(red)
    if kind == "found_blue_clique":
        _require(r["color"] == "B", "clique colour")
        clique = r["clique"]
        s = pattern.number_of_nodes()  # the CLI's default --clique-s
        _require(len(clique) == s and len(set(clique)) == s, "clique size")
        sub = cls[np.ix_(clique, clique)]
        _require(bool((sub | np.eye(s, dtype=bool)).all()), "clique has a red pair")
    else:
        _check_image(pattern, cls, r["embedding"], kind)
    return Verdict(True, True)


def check_oracle_find(op, stdout, out_file):
    p = op.params
    red = red_matrix(*p["coloring"])
    cls = red if p["color"] == "R" else blue_matrix(red)
    pattern = pattern_graph(p["pattern"])
    r = _result(stdout)
    if r["found"]:
        _check_image(pattern, cls, r["embedding"], "oracle find")
        return Verdict(True, True)
    _require(not _contains(cls, pattern), "oracle missed an existing copy")
    return Verdict(True, False, "no copy exists")


def check_sweep_search(op, stdout, out_file):
    p = op.params
    a, b, step = (int(x) for x in p["n"].split(":"))
    cells = [(n, s) for n in range(a, b + 1, step) for s in range(p["seeds"][0], p["seeds"][1] + 1)]
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(rows[0] == ["n", "seed", "pattern", "mode", "outcome", "color"], "csv header")
    body = rows[1:]
    _require([(int(r[0]), int(r[1])) for r in body] == cells, "csv cells")
    for r in body:
        _require(r[2] == p["pattern"] and r[3] == "mono" and r[4] in SEARCH_KINDS, "csv row")
        _require((r[5] == "") == (r[4] == "exhausted"), "csv colour")
    return Verdict(True)


# --------------------------------------------------------------------------
# exact_oracle
# --------------------------------------------------------------------------


def _avoids(red: np.ndarray, blue_pattern: str, red_pattern: str) -> bool:
    return not _contains(blue_matrix(red), pattern_graph(blue_pattern)) and \
        not _contains(red, pattern_graph(red_pattern))


def check_ramsey(op, stdout, out_file):
    p = op.params
    r = _result(stdout)
    _require(r["verified"] is True, "certificate not self-verified")
    witness = _decode_hex(r["witness"])
    if p["nmax"] >= p["value"]:
        _require(r["kind"] == "upper" and r["n"] == p["value"],
                 f"R({p['h1']},{p['h2']}) reported {r['kind']} {r['n']}, DS1 {p['value']}")
        _require(r["witness_at"] == p["value"] - 1 == len(witness), "witness size")
    else:
        _require(r["kind"] == "lower" and r["n"] == p["nmax"] == r["witness_at"],
                 "lower certificate below the DS1 value")
        _require(len(witness) == p["nmax"], "witness size")
    _require(_avoids(witness, p["h1"], p["h2"]), "witness contains a forbidden copy")
    return Verdict(True, True)


def check_certify_lower(op, stdout, out_file):
    p = op.params
    r = _result(stdout)
    _require(r["n"] == p["n"], "n")
    if r["kind"] == "not_found":
        return Verdict(True, False, "no avoiding coloring sampled")
    _require(p["n"] < DIAGONAL_RAMSEY[p["pattern"]], "witness at or above R(H,H)")
    witness = _decode_hex(r["witness"])
    _require(r["kind"] == "lower" and len(witness) == p["n"], "certificate shape")
    _require(_avoids(witness, p["pattern"], p["pattern"]), "witness has a mono copy")
    return Verdict(True, True)


def check_embed(op, stdout, out_file):
    p = op.params
    _, t, rho, seed = p["host"].split(":")
    host = red_matrix(int(t), float(rho), int(seed))
    n = len(host)
    r = _result(stdout)
    s = max(1, math.ceil(p["sigma"] * n))
    if r["status"] == "embedded":
        _check_image(pattern_graph(p["pattern"]), host, r["embedding"], "embed")
    b = r["bidense"]
    if b["status"] == "certified":
        _require(b["set_size"] == s and b["sets_checked"] == math.comb(n, s),
                 f"sets_checked {b['sets_checked']} != C({n},{s})")
        return Verdict(True, True)
    if b["status"] == "too_large":
        _require(b["required"] == math.comb(n, s) ** 2 and b["budget"] == p["budget"],
                 "too_large accounting")
        return Verdict(True, False, f"bidense too_large: required {b['required']} "
                                    f"> budget {b['budget']}")
    X, Y = b["X"], b["Y"]
    _require(len(X) == len(Y) == s and not set(X) & set(Y), "witness sets")
    e = int(host[np.ix_(X, Y)].sum())
    _require(Fraction(e, s * s) == Fraction(b["density"]) < p["delta"], "witness density")
    return Verdict(True, False, "bidense witness: host is not bi-dense")


def log2_bounds(theorem: str, t: int, rho: str) -> list[float]:
    r = float(Fraction(rho))
    ratio = 1 - math.log2(r)
    return {
        "main-dense": [15 * math.sqrt(r) * ratio * t],
        "clique-maxdeg": [12 * r * ratio ** 2 * t],
        "clique-dense": [15 * math.sqrt(r) * ratio ** 1.5 * t],
        "random-graph": [1100 * r * ratio * t],
        "lower": [math.sqrt(r) * t / 4, r * t / 4],
    }[theorem]


def check_bounds(op, stdout, out_file):
    p = op.params
    r = _result(stdout)
    reports = r if isinstance(r, list) else [r]
    want = log2_bounds(p["theorem"], p["t"], p["rho"])
    _require([x["theorem"] for x in reports] == [p["theorem"]] * len(want), "theorem")
    for x, w in zip(reports, want):
        _require(math.isclose(x["log2_bound"], w, rel_tol=1e-12), f"log2 bound {x['log2_bound']}")
    return Verdict(True)


def check_bounds_csv(op, stdout, out_file):
    p = op.params
    a, b, step = p["t"]
    rows = list(csv.reader(io.StringIO(stdout)))
    _require(rows[0] == ["theorem", "t", "rho", "log2_bound", "preconditions_met"], "header")
    cells = [(t, rho) for t in range(a, b + 1, step) for rho in p["rho"]]
    _require(len(rows) - 1 == len(cells), "row count")
    for row, (t, rho) in zip(rows[1:], cells):
        _require(row[:3] == [p["theorem"], str(t), rho], f"row {row}")
        _require(math.isclose(float(row[3]), log2_bounds(p["theorem"], t, rho)[0],
                              rel_tol=1e-11), f"value {row}")
    return Verdict(True)


CHECKS = {
    "gnp": check_gnp,
    "partition": check_partition,
    "spread": check_spread,
    "chernoff": check_chernoff,
    "search": check_search,
    "oracle_find": check_oracle_find,
    "sweep_search": check_sweep_search,
    "ramsey": check_ramsey,
    "certify_lower": check_certify_lower,
    "embed": check_embed,
    "bounds": check_bounds,
    "bounds_csv": check_bounds_csv,
}


def check(op, stdout: str, out_file: str | None) -> Verdict:
    try:
        return CHECKS[op.check](op, stdout, out_file)
    except CheckFailed as e:
        return Verdict(False, False, f"check failed: {e}")
    except (KeyError, ValueError, TypeError, IndexError) as e:
        return Verdict(False, False, f"check failed: malformed output ({type(e).__name__}: {e})")
