"""The three workloads: seeded lists of ``ramseykit`` CLI argv, one list per run.

A run replays its list in whole passes, so every pass issues the same ops in
the same order and the op mix (and every ratio built on it) depends only on
the seed.  Where ops do not depend on each other the list is shuffled by the
seed, so each kind of op is timed at many points of a pass rather than in one
burst, and a short swing in host speed cannot move a whole percentile.  The
program sees nothing but the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

WORK_DIR = "perfbench/out/work"

# Named for confirming later claims on a seed that tuning never used.
HELD_OUT_SEED = 90417


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: str                    # key into checks.CHECKS
    params: dict = field(default_factory=dict)
    can_find: bool = False        # counts in the base of found_frac
    note: str = ""                # a known defect this op exercises, if any


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], list[Op]]
    deadline_s: float             # per-op limit; a miss fails the op
    pass_s: float                 # nominal wall time of one pass; sets the pass count
    tail_pct: int                 # percentile reported as op_tail_s
    spans: tuple[str, ...]        # traced layers that must record calls


def _seed(rng: random.Random) -> int:
    return rng.randrange(1_000_000)


def dense_sampling(seed: int, smoke: bool) -> list[Op]:
    rng = random.Random(f"dense_sampling:{seed}")
    sizes = (48, 96) if smoke else (1024, 2048, 1024, 2048)
    rho, delta, eps, budget = 0.2, 0.1, 0.5, 50
    ops = []
    for i, t in enumerate(sizes):
        path = f"{WORK_DIR}/g{i}.graph"
        graph = {"t": t, "rho": rho, "seed": _seed(rng)}
        ops.append(Op(("random", "gnp", "--t", str(t), "--rho", str(rho),
                       "--seed", str(graph["seed"]), "--out", path), "gnp", graph))
        pseed = _seed(rng)
        ops.append(Op(("random", "partition", "--graph", path, "--seed", str(pseed)),
                      "partition", {"graph": graph, "max_tries": 64}, can_find=True))
        sseed = _seed(rng)
        ops.append(Op(("random", "spread", "--graph", path, "--delta", str(delta),
                       "--eps", str(eps), "--rho", str(rho), "--budget", str(budget),
                       "--seed", str(sseed)), "spread",
                      {"graph": graph, "delta": delta, "eps": eps, "rho": rho,
                       "budget": budget}))
        cseed = _seed(rng)
        ops.append(Op(("random", "chernoff", "--n", "400", "--p", "0.5", "--theta", "0.2",
                       "--empirical", "100000", "--seed", str(cseed)), "chernoff",
                      {"n": 400, "p": 0.5, "theta": 0.2, "samples": 100000, "seed": cseed}))
    return ops


def _search_op(n: int, p: float, cseed: int, pattern: str, mode: str,
               extra: tuple[str, ...] = (), note: str = "") -> Op:
    argv = ("search", "--coloring", f"random:{n}:{p}:{cseed}", "--pattern", pattern,
            "--mode", mode) + extra
    return Op(argv, "search", {"coloring": (n, p, cseed), "pattern": pattern},
              can_find=True, note=note)


def search_sweep(seed: int, smoke: bool) -> list[Op]:
    rng = random.Random(f"search_sweep:{seed}")
    ns = (20, 40) if smoke else (20, 40, 80, 160, 320)
    ops = []
    for n in ns:
        # Fewer colorings at n >= 160 puts op_p50_s inside the dense group of
        # cheap cells (n <= 80), not on the step up to the n = 160 ones.
        for _ in range(1 if smoke else 24 if n <= 80 else 16):
            s = _seed(rng)
            ops.append(_search_op(n, 0.5, s, "c5", "mono"))
            ops.append(_search_op(n, 0.5, s, "k4", "mono"))
            s = _seed(rng)
            ops.append(_search_op(n, 0.25, s, "gnp:10:0.5:1", "vs-clique",
                                  ("--rho", "0.3", "--seed", str(s))))
            s = _seed(rng)
            ops.append(_search_op(n, 0.5, s, "c9", "random-bounded",
                                  ("--degree-cap", "2", "--seed", str(s))))
        s = _seed(rng)
        ops.append(Op(("oracle", "find", "--coloring", f"random:{n}:0.5:{s}",
                       "--pattern", "c5", "--color", "R"), "oracle_find",
                      {"coloring": (n, 0.5, s), "pattern": "c5", "color": "R"},
                      can_find=True))
    for pattern in ("k3", "c5"):
        a = _seed(rng)
        ns_spec = "20:40:10" if smoke else "20:60:10"
        ops.append(Op(("sweep", "--kind", "search", "--pattern", pattern, "--n", ns_spec,
                       "--seeds", f"{a}:{a + 4}:1"), "sweep_search",
                      {"pattern": pattern, "n": ns_spec, "seeds": (a, a + 4)}))
    # Kept in the grid on purpose: on this input the sparse-pair climb scores
    # the Y-side swap against a stale X mask and cycles forever.
    ops.append(_search_op(40, 0.25, 5, "gnp:10:0.5:1", "vs-clique",
                          ("--rho", "0.3", "--seed", "5"),
                          note="sparse-pair climb cycles forever (stale X mask)"))
    rng.shuffle(ops)
    return ops


# (h1, h2, nmax, value from Radziszowski, Small Ramsey Numbers, EJC DS1)
RAMSEY_ANCHORS = (
    ("k3", "k3", 8, 6),
    ("c4", "c4", 8, 6),
    ("k3", "c4", 8, 7),
    ("k3", "c5", 9, 9),
    ("c5", "c5", 9, 9),
    ("k3", "k4", 8, 9),   # nmax below the value: a verified lower certificate
)
SMOKE_ANCHORS = (("k3", "k3", 8, 6), ("k3", "c4", 8, 7), ("k3", "k4", 5, 9))
# R(H, H) from the same survey, for certify-lower
DIAGONAL_RAMSEY = {"k3": 6, "c4": 6, "c5": 9, "k4": 18}

BOUND_THEOREMS = ("main-dense", "clique-maxdeg", "clique-dense", "random-graph", "lower")


def exact_oracle(seed: int, smoke: bool) -> list[Op]:
    rng = random.Random(f"exact_oracle:{seed}")
    ops = []
    for h1, h2, nmax, value in SMOKE_ANCHORS if smoke else RAMSEY_ANCHORS:
        ops.append(Op(("oracle", "ramsey", "--h1", h1, "--h2", h2, "--nmax", str(nmax)),
                      "ramsey", {"h1": h1, "h2": h2, "nmax": nmax, "value": value},
                      can_find=True))
    host = "gnp:16:0.9:5" if smoke else "gnp:40:0.9:5"
    embeds = (
        # the default budget charges C(n,s)^2 for C(n,s) X-sets: too_large
        (host, "0.3", "0.1", None, "bidense budget charges C(n,s)^2"),
        (host, "0.3", "0.1", "10000000000", ""),
        ("gnp:60:0.8:5", "0.4", "0.05", None, "bidense budget charges C(n,s)^2"),
    )
    for h, delta, sigma, budget, note in embeds:
        argv = ("embed", "--pattern", "p3", "--host", h, "--delta", delta, "--sigma", sigma)
        if budget:
            argv += ("--budget", budget)
        ops.append(Op(argv, "embed", {"pattern": "p3", "host": h, "delta": float(delta),
                                      "sigma": float(sigma),
                                      "budget": int(budget or 10 ** 9)},
                      can_find=True, note=note))
    # Below R(H,H) a witness exists and sampling stops at the first one.  At
    # R(H,H) none exists, so every try runs: 24 ops of like cost.  op_tail_s
    # (p75) falls near the middle of them, above the cheap bounds ops and
    # below the six heavy anchors and embeds.
    lower = (("k3", 5, 1000), ("c4", 5, 1000)) if smoke else \
        (("k3", 5, 1000), ("c4", 5, 1000), ("k4", 8, 500)) + \
        (("k3", 6, 300), ("c4", 6, 300), ("c5", 9, 300)) * 8
    for pattern, n, tries in lower:
        s = _seed(rng)
        ops.append(Op(("oracle", "certify-lower", "--pattern", pattern, "--n", str(n),
                       "--tries", str(tries), "--seed", str(s)), "certify_lower",
                      {"pattern": pattern, "n": n}, can_find=n < DIAGONAL_RAMSEY[pattern]))
    ops.append(Op(("bounds", "--theorem", "main-dense", "--t", "64", "--rho", "1/16"),
                  "bounds", {"theorem": "main-dense", "t": 64, "rho": "1/16"}))
    # Cheap ops are about two thirds of a pass, so op_p50_s falls well inside
    # them, not on the step up to dearer ops, and reads argv parsing,
    # manifest and output cost (the cli and bounds layers).
    for _ in range(1 if smoke else 10):
        for theorem in BOUND_THEOREMS:
            t, rho = rng.randrange(16, 257), rng.choice(("1/16", "1/32", "1/64", "1/100"))
            ops.append(Op(("bounds", "--theorem", theorem, "--t", str(t), "--rho", rho),
                          "bounds", {"theorem": theorem, "t": t, "rho": rho}))
    grid = ("--theorem", "main-dense", "--t", "16:64:16")
    ops.append(Op(("bounds",) + grid + ("--rho", "1/16", "--grid"), "bounds_csv",
                  {"theorem": "main-dense", "t": (16, 64, 16), "rho": ["1/16"]}))
    # The README's multi-rho grid exits 2: the comma list reaches Fraction().
    ops.append(Op(("bounds",) + grid + ("--rho", "1/16,1/64", "--grid"), "bounds_csv",
                  {"theorem": "main-dense", "t": (16, 64, 16), "rho": ["1/16", "1/64"]},
                  note="multi-rho --grid parsed as one Fraction"))
    ops.append(Op(("sweep", "--kind", "bounds") + grid + ("--rho", "1/16,1/64"),
                  "bounds_csv",
                  {"theorem": "main-dense", "t": (16, 64, 16), "rho": ["1/16", "1/64"]}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("dense_sampling", dense_sampling, 60.0, 7.0, 75,
                 ("cli.run", "graphs.construct", "graphs.parse", "graphs.serialize",
                  "randomlab.sample", "randomlab.partition", "randomlab.spread")),
        Workload("search_sweep", search_sweep, 1.0, 6.0, 99,
                 ("cli.run", "graphs.construct", "graphs.derive", "randomlab.sample",
                  "search.mono", "search.vs_clique", "search.random_bounded",
                  "search.chase", "embedder.sparse_pair", "embedder.greedy",
                  "oracle.clique", "oracle.subgraph", "oracle.verify")),
        Workload("exact_oracle", exact_oracle, 60.0, 15.0, 75,
                 ("cli.run", "graphs.construct", "graphs.serialize", "oracle.ramsey",
                  "oracle.subgraph", "oracle.verify", "oracle.certify_lower",
                  "embedder.bidense", "embedder.greedy", "bounds.evaluate")),
    )
}
