"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time
from fractions import Fraction

from ramseykit import bounds, cli, embedder, oracle, search
from ramseykit.graphs import BLUE, RED, Coloring, Graph
from ramseykit.patterns import named_graph
from ramseykit.randomlab import (
    chernoff_tail,
    empirical_binomial_tail,
    judicious_partition,
    sample_coloring,
    sample_gnp,
)

from references import check_bidense_bruteforce


def report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_exact_anchors():
    k3 = Graph.complete(3)
    t0 = time.monotonic()
    cert = oracle.ramsey_number_exact(k3, k3, n_max=8)
    dt_k3 = time.monotonic() - t0
    ok_k3 = (cert.kind == "upper" and cert.n == 6 and cert.witness_n == 5
             and cert.verify() and dt_k3 < 60)

    p3 = named_graph("p", 3)
    t0 = time.monotonic()
    cert_p = oracle.ramsey_number_exact(p3, p3, n_max=8)
    dt_p3 = time.monotonic() - t0
    ok_p3 = cert_p.kind == "upper" and cert_p.n == 3 and dt_p3 < 1

    report(1, ok_k3 and ok_p3,
           f"r(K3,K3)=6 in {dt_k3:.2f}s with verified n=5 witness; "
           f"r(P3,P3)=3 in {dt_p3:.3f}s")


def _isolated_free_classes(max_t: int):
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        t = G.number_of_nodes()
        if not 2 <= t <= max_t or G.number_of_edges() == 0:
            continue
        if min(d for _, d in G.degree()) < 1:
            continue
        yield Graph.from_edges(t, list(G.edges()))


def test_criterion_2_bound_domination():
    n_max = 8
    violations = []
    count = 0
    for h in _isolated_free_classes(5):
        count += 1
        cert = oracle.ramsey_number_exact(h, h, n_max=n_max)
        # when r exceeds the searched range only r >= n_max + 1 is certified;
        # the check then uses log2(n_max + 1), the largest exactly-known value
        exact_log2 = math.log2(cert.n if cert.kind == "upper" else n_max + 1)
        rho = h.density
        for fn in (bounds.bound_main_dense, bounds.bound_clique_dense):
            rep = fn(h.t, rho)
            if rep.log2_bound < exact_log2:
                violations.append((h.t, h.m, fn.__name__, rep.log2_bound, exact_log2))
    report(2, count > 0 and not violations,
           f"{count} isolated-free isomorphism classes (t <= 5), "
           f"{len(violations)} domination violations")


def test_criterion_3_embedding_soundness_and_lemma():
    # soundness over 200 seeded random instances
    unsound = 0
    successes = 0
    for seed in range(200):
        pattern = sample_gnp(4 + seed % 7, 0.3, seed)
        while pattern.max_degree > 3:
            pattern = search.split_high_degree(pattern, 3).subgraph
        if pattern.t == 0:
            continue
        host = sample_gnp(100 + (seed * 7) % 301, 0.5, seed + 1000)
        if host.t < pattern.max_degree + 1:
            continue
        res = embedder.embed_greedy(pattern, host, 0.3)
        if res.ok:
            successes += 1
            good, _ = oracle.verify_embedding(pattern, host, res.embedding)
            if not good:
                unsound += 1

    # lemma check: hosts certified bi-(sigma(delta,Delta), delta)-dense at the
    # proof's host size must never produce a FailureReport
    failures = 0
    certified = 0
    cases = []
    for delta, pattern in ((0.5, Graph.from_edges(2, [(0, 1)])),
                           (0.5, named_graph("c", 3)),
                           (0.5, named_graph("p", 4))):
        dmax = pattern.max_degree
        sigma = embedder.lemma_sigma(delta, dmax)
        n_host = embedder.lemma_min_host_size(delta, dmax, pattern.t)
        full = Graph.complete(n_host)
        minus = Graph.from_edges(n_host, [
            (u, v) for u in range(n_host) for v in range(u + 1, n_host)
            if v != u + (1 if u % 2 == 0 else -1)])  # minus a perfect matching
        for host in (full, minus):
            cert = embedder.check_bidense_exact(host, sigma, delta, budget=10 ** 9)
            if not isinstance(cert, embedder.Certified):
                continue
            certified += 1
            res = embedder.embed_greedy(pattern, host, delta)
            cases.append((pattern.t, n_host, res.ok))
            if not res.ok:
                failures += 1
    report(3, unsound == 0 and certified >= 4 and failures == 0,
           f"{successes} embeddings verified, {unsound} unsound; "
           f"{certified} certified hosts, {failures} FailureReports")


def test_criterion_4_averaging_reduction_agreement():
    disagreements = 0
    total = 0
    cases = [(6 + i % 5, s, d) for i, (s, d) in enumerate(
        [(sig, dlt) for sig in (1 / 6, 1 / 4, 1 / 3) for dlt in (0.2, 0.5, 0.8)] * 54)]
    cases = cases[:480] + [(11, 1 / 6, 0.5)] * 10 + [(12, 1 / 6, 0.5)] * 10
    for i, (n, sigma, delta) in enumerate(cases):
        s = max(1, math.ceil(sigma * n))
        if 2 * s > n:
            continue
        g = sample_gnp(n, 0.2 + (i % 7) / 10, i)
        total += 1
        fast = embedder.check_bidense_exact(g, sigma, delta)
        brute = check_bidense_bruteforce(g, sigma, delta)
        if isinstance(fast, embedder.Certified) != (brute is None):
            disagreements += 1
    report(4, total >= 500 and disagreements == 0,
           f"{total} instances (n <= 12), {disagreements} disagreements")


def test_criterion_5_chernoff_domination():
    t0 = time.monotonic()
    worst_margin = float("inf")
    exceed = 0
    samples = 10 ** 5
    for n in (100, 400, 1600):
        for p in (0.1, 0.5):
            for k in range(1, 11):
                theta = k / 10
                bound = chernoff_tail(n, p, theta)
                freq = empirical_binomial_tail(n, p, theta, samples,
                                               seed=n * 1000 + int(p * 10) * 100 + k)
                se = math.sqrt(max(freq * (1 - freq), 1e-12) / samples)
                if freq - 3 * se > bound:
                    exceed += 1
                worst_margin = min(worst_margin, bound - freq)
    dt = time.monotonic() - t0
    report(5, exceed == 0 and dt < 300,
           f"60 grid cells, {exceed} exceedances (3 sigma slack), "
           f"worst bound-freq margin {worst_margin:.4g}, {dt:.1f}s")


def test_criterion_6_judicious_partition():
    accepted = 0
    recheck_failures = 0
    for seed in range(20):
        g = sample_gnp(4096, 0.2, seed)
        cert = judicious_partition(g, max_tries=64, seed=seed)
        if not cert.accepted:
            continue
        accepted += 1
        t = g.t
        from ramseykit.graphs import mask_of

        v1, v2 = sorted(cert.v1), sorted(cert.v2)
        size_dev = max(abs(len(v1) - t / 2), abs(len(v2) - t / 2))
        m1, m2 = mask_of(v1), mask_of(v2)
        max_cross = max(max((g.rows[v] & m1).bit_count() for v in range(t)),
                        max((g.rows[v] & m2).bit_count() for v in range(t)))
        dmax = g.max_degree
        if not (size_dev <= 2 * math.sqrt(t)
                and max_cross <= dmax / 2 + 2 * math.sqrt(dmax * math.log2(t))):
            recheck_failures += 1
    report(6, accepted >= 19 and recheck_failures == 0,
           f"{accepted}/20 accepted within 64 tries, "
           f"{recheck_failures} certificate recheck failures")


def test_criterion_7_search_soundness():
    unsound = 0
    found = 0
    runs = 0
    for seed in range(250):
        n = 20 + seed % 41  # 20..60
        c = sample_coloring(n, 0.5, seed)
        out = search.find_mono_H(c, Graph.complete(3),
                                 search.SearchConfig(rho=0.5, seed=seed))
        runs += 1
        if out.kind == "found_mono":
            found += 1
            good, _ = oracle.verify_embedding(out.embedding.pattern, c,
                                              out.embedding, out.color)
            if not good:
                unsound += 1
    for seed in range(250):
        n = 20 + seed % 41
        c = sample_coloring(n, 0.5, seed + 10 ** 6)
        out = search.find_red_H_or_blue_clique(
            c, named_graph("c", 4), 4, search.SearchConfig(rho=0.4, seed=seed))
        runs += 1
        if out.kind == "found_red_h":
            found += 1
            good, _ = oracle.verify_embedding(out.embedding.pattern, c,
                                              out.embedding, RED)
            if not good:
                unsound += 1
        elif out.kind == "found_blue_clique":
            found += 1
            vs = list(out.clique)
            if not all(c.color_of(u, v) == BLUE
                       for i, u in enumerate(vs) for v in vs[i + 1:]):
                unsound += 1

    pent = Coloring.from_red_graph(named_graph("c", 5))
    pent_out = search.find_mono_H(pent, Graph.complete(3),
                                  search.SearchConfig(rho=1.0))
    report(7, runs == 500 and unsound == 0 and pent_out.kind == "exhausted",
           f"{runs} runs, {found} Found outcomes all verified "
           f"({unsound} unsound); pentagon/K3 -> {pent_out.kind}")


def test_criterion_8_substitution_identity():
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=2026))
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(2, 400))
        pairs = t * (t - 1) // 2
        m = int(rng.integers(1, pairs + 1))
        a = bounds.bound_edges_form(m, t).log2_bound
        b = bounds.bound_main_dense(t, Fraction(m, pairs)).log2_bound
        rel = abs(a - b) / max(abs(b), 1e-300)
        worst = max(worst, rel)
    report(8, worst <= 1e-12, f"1000 random (m,t), worst relative error {worst:.3g}")


MANIFESTS = [
    ["bounds", "--theorem", "main-dense", "--t", "64", "--rho", "1/16"],
    ["bounds", "--theorem", "random-graph", "--t", "10000", "--rho", "1/100"],
    ["bounds", "--theorem", "lower", "--t", "16", "--rho", "1/4"],
    ["embed", "--pattern", "p3", "--host", "gnp:60:0.8:5", "--delta", "0.4",
     "--sigma", "0.05"],
    ["search", "--coloring", "random:24:0.5:4", "--pattern", "k3",
     "--rho", "0.4", "--seed", "0"],
    ["search", "--coloring", "random:30:0.5:9", "--pattern", "p4",
     "--mode", "vs-clique", "--clique-s", "4", "--rho", "0.3", "--seed", "1"],
    ["random", "partition", "--graph", "gnp:64:0.3:1", "--seed", "0"],
    ["random", "spread", "--graph", "gnp:30:0.3:2", "--delta", "0.2",
     "--eps", "0.5", "--rho", "0.3", "--budget", "100", "--seed", "3"],
    ["random", "chernoff", "--n", "100", "--p", "0.1", "--theta", "0.5",
     "--empirical", "1000", "--seed", "2"],
    ["oracle", "ramsey", "--h1", "k3", "--h2", "k3", "--nmax", "6"],
    ["oracle", "find", "--coloring", "random:10:0.5:0", "--pattern", "p4",
     "--color", "B"],
    ["oracle", "certify-lower", "--pattern", "k3", "--n", "5",
     "--tries", "200", "--seed", "1"],
]


def test_criterion_9_manifest_determinism(capsys):
    mismatches = 0
    for argv in MANIFESTS:
        code1 = cli.run(argv)
        out1 = capsys.readouterr().out
        code2 = cli.run(argv)
        out2 = capsys.readouterr().out
        if code1 != 0 or code2 != 0 or out1 != out2:
            mismatches += 1
        else:
            json.loads(out1)
    report(9, mismatches == 0,
           f"{len(MANIFESTS)} manifests covering all subcommands, "
           f"{mismatches} non-identical reruns")
