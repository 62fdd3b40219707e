import hashlib
import math
import signal
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import cli, embedder, oracle
from ramseykit.graphs import BLUE, RED, Coloring, Graph, mask_of, rows_of
from ramseykit.patterns import named_graph
from ramseykit.randomlab import sample_coloring, sample_gnp

from references import (
    check_bidense_bruteforce,
    density_pair,
    reference_find_sparse_pair_heuristic,
)


def k55_minus_matching() -> Graph:
    edges = [(i, 5 + j) for i in range(5) for j in range(5) if i != j]
    return Graph.from_edges(10, edges)


class TestLemmaHelpers:
    def test_sigma_formula(self):
        assert embedder.lemma_sigma(0.5, 2) == pytest.approx(0.25 / 16)

    def test_min_host_size(self):
        # 4 * delta^-Delta * Delta * n with delta=0.5, Delta=2, n=3
        assert embedder.lemma_min_host_size(0.5, 2, 3) == 96

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            embedder.lemma_sigma(0.5, 0)


class TestGreedyPartition:
    def test_k4_four_singletons(self):
        parts = embedder.greedy_partition(Graph.complete(4), 4)
        assert parts == [[0], [1], [2], [3]]

    def test_empty_graph_one_part(self):
        parts = embedder.greedy_partition(Graph.empty(6), 1)
        assert parts == [list(range(6))]

    def test_five_cycle_three_parts(self):
        c5 = named_graph("c", 5)
        parts = embedder.greedy_partition(c5, 3)
        assert sorted(v for p in parts for v in p) == list(range(5))
        for p in parts:
            assert len(p) <= 2
            for i, u in enumerate(p):
                for v in p[i + 1:]:
                    assert not c5.rows[u] >> v & 1

    def test_too_few_parts_fails_explicitly(self):
        assert embedder.greedy_partition(Graph.complete(4), 2) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(3, 12))
    def test_max_degree_plus_one_never_fails(self, seed, t):
        g = sample_gnp(t, 0.5, seed)
        parts = embedder.greedy_partition(g, g.max_degree + 1)
        assert parts is not None


class TestCheckBidenseExact:
    def test_complete_certified(self):
        res = embedder.check_bidense_exact(Graph.complete(12), 0.25, 1.0)
        assert isinstance(res, embedder.Certified)

    def test_empty_first_witness(self):
        res = embedder.check_bidense_exact(Graph.empty(6), 1 / 3, 0.1)
        assert isinstance(res, embedder.BiDensityWitness)
        assert res.X == (0, 1)
        assert res.Y == (2, 3)

    def test_k55_minus_matching_sigma_02(self):
        # s=2 and some 2x2 pair spans a non-edge, so density < 0.9 somewhere
        res = embedder.check_bidense_exact(k55_minus_matching(), 0.2, 0.9)
        assert isinstance(res, embedder.BiDensityWitness)
        assert res.density < Fraction(9, 10)

    def test_budget_guard(self):
        res = embedder.check_bidense_exact(Graph.complete(200), 0.25, 0.5, budget=10)
        assert isinstance(res, embedder.TooLarge)

    def test_witness_density_recomputes(self):
        res = embedder.check_bidense_exact(sample_gnp(10, 0.3, 5), 0.2, 0.8)
        if isinstance(res, embedder.BiDensityWitness):
            assert density_pair(sample_gnp(10, 0.3, 5), res.X, res.Y) == res.density

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(6, 12),
           st.sampled_from([Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)]),
           st.sampled_from([0.2, 0.5, 0.8]))
    def test_agrees_with_bruteforce(self, seed, n, sigma, delta):
        g = sample_gnp(n, 0.4, seed)
        s = max(1, math.ceil(sigma * n))
        if 2 * s > n:
            return
        fast = embedder.check_bidense_exact(g, float(sigma), delta)
        brute = check_bidense_bruteforce(g, float(sigma), delta)
        assert isinstance(fast, embedder.Certified) == (brute is None)

    def test_lex_first_witness_matches_full_scan(self):
        from itertools import combinations

        g = sample_gnp(9, 0.35, 11)
        sigma, delta = 1 / 3, 0.6
        res = embedder.check_bidense_exact(g, sigma, delta)
        if not isinstance(res, embedder.BiDensityWitness):
            return
        s = math.ceil(sigma * 9)
        for X in combinations(range(9), s):
            rest = [v for v in range(9) if v not in X]
            for Y in combinations(rest, s):
                if density_pair(g, X, Y) < delta:
                    assert (res.X, res.Y) == (X, Y)
                    return


def reference_check_bidense(host, sigma, delta, color=None, budget=10 ** 9):
    """check_bidense_exact as it was before it ran in numpy blocks: one X-set
    at a time.  The loop is verbatim; the budget guard charges C(n, s) * n, the
    unit both now share (the loop charged C(n, s) ** 2)."""
    rows = rows_of(host, color)
    n = len(rows)
    s = max(1, math.ceil(sigma * n))
    if 2 * s > n:
        raise ValueError(f"need 2*ceil(sigma*n) <= n, got s={s}, n={n}")
    if math.comb(n, s) * n > budget:
        return embedder.TooLarge(math.comb(n, s) * n, budget)
    need = delta * s * s  # violation iff e(X,Y) < need
    checked = 0
    for X in combinations(range(n), s):
        checked += 1
        xmask = mask_of(X)
        outside = [v for v in range(n) if not xmask >> v & 1]
        cnt = [(rows[v] & xmask).bit_count() for v in outside]
        floor_sum = sum(sorted(cnt)[:s])
        if floor_sum < need:
            y = embedder._lex_first_violating_y(outside, cnt, s, need)
            e = sum(cnt[outside.index(v)] for v in y)
            return embedder.BiDensityWitness(X, tuple(y), Fraction(e, s * s), sigma, delta)
    return embedder.Certified(sigma, delta, s, checked)


def bidense_outcome(check, *args, **kwargs):
    """The result of ``check``, or the ValueError it raised, as a comparable value."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        return ("ValueError", str(e))


def planted_first_violator(n: int, s: int, rank: int) -> tuple[Graph, tuple]:
    """K_n minus every edge between A, the rank-th s-set in lexicographic
    order, and B, the s largest vertices outside A; and A.

    With delta * s * s <= 1 a violating pair needs e(X, Y) = 0, and only
    X = A (Y = B) and X = B (Y = A) have one, so the first violating X is A
    whenever A < B.
    """
    A = next(islice(combinations(range(n), s), rank, None))
    B = sorted(v for v in range(n) if v not in A)[-s:]
    assert A < tuple(B)
    cut = {(a, b) for a in A for b in B} | {(b, a) for a in A for b in B}
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if (u, v) not in cut]), A


class TestBidenseMatchesPerSetLoop:
    """check_bidense_exact returns what the per-X-set loop returns: the same
    type, witness, density, set size, sets_checked and TooLarge fields."""

    SIGMAS = (0.05, 0.1, 0.15, 0.2, 0.25, 1 / 3, 0.5)
    DELTAS = (0.05, 0.2, 0.4, 0.6, 0.8, 1.0)
    # keeps the reference loop to about 2,500 X-sets, with room for more
    # than 1024 of them (n = 24, s = 3 needs 48,576 counts)
    BUDGET = 60_000

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 24), st.sampled_from([0.2, 0.5, 0.8, 0.95]),
           st.integers(0, 2 ** 16), st.sampled_from(SIGMAS), st.sampled_from(DELTAS))
    def test_graph_hosts(self, n, p, seed, sigma, delta):
        host = sample_gnp(n, p, seed)
        assert bidense_outcome(embedder.check_bidense_exact, host, sigma, delta,
                               budget=self.BUDGET) == \
            bidense_outcome(reference_check_bidense, host, sigma, delta, budget=self.BUDGET)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 24), st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 2 ** 16),
           st.sampled_from([RED, BLUE]), st.sampled_from(SIGMAS), st.sampled_from(DELTAS))
    def test_coloring_hosts(self, n, p, seed, color, sigma, delta):
        host = sample_coloring(n, p, seed)
        assert bidense_outcome(embedder.check_bidense_exact, host, sigma, delta, color,
                               budget=self.BUDGET) == \
            bidense_outcome(reference_check_bidense, host, sigma, delta, color,
                            budget=self.BUDGET)

    # Blocks hold 64, 128, 256, 512 and then 1024 X-sets, so their edges fall
    # at ranks 64, 192, 448, 960 and 1984.  A pair (X, Y) violates iff (Y, X)
    # does, so the last X-set is never the first violator; rank 2990,
    # (10, 11, 12, 13) against (14, 15, 16, 17), is the latest one can be.
    @pytest.mark.parametrize("rank", [0, 63, 64, 191, 192, 447, 448, 959, 960, 1023,
                                      1024, 1983, 1984, 2990])
    def test_first_violator_at_rank(self, rank):
        n, s, sigma, delta = 18, 4, 0.2, 1 / 32  # ceil(0.2 * 18) = 4; need = 1/2
        g, A = planted_first_violator(n, s, rank)
        red = Coloring.from_red_graph(g)
        for host, color in ((g, None), (red, RED), (red.swapped(), BLUE)):
            got = embedder.check_bidense_exact(host, sigma, delta, color)
            assert got == reference_check_bidense(host, sigma, delta, color)
            assert got.X == A and got.density == 0

    def test_certified_walks_every_set(self):
        host = Graph.complete(18)
        got = embedder.check_bidense_exact(host, 0.2, 1.0)
        assert got == reference_check_bidense(host, 0.2, 1.0)
        assert got.sets_checked == math.comb(18, 4) == 3060

    def test_budget_counts_one_per_set_and_vertex(self):
        host = sample_gnp(40, 0.9, 5)
        required = math.comb(40, 4) * 40  # 3,655,600
        assert embedder.check_bidense_exact(host, 0.1, 0.3, budget=required) == \
            embedder.Certified(0.1, 0.3, 4, math.comb(40, 4))
        assert embedder.check_bidense_exact(host, 0.1, 0.3, budget=required - 1) == \
            embedder.TooLarge(required, required - 1)

    def test_blocks_stay_small_on_large_hosts(self):
        # s = 1 on 5000 vertices fits the default budget (25 million counts).
        # Only the rows a block reads are unpacked: a 5000 x 5000 bool matrix
        # would take 25 MB.
        for host, expected in (
                (Graph.empty(5000),
                 embedder.BiDensityWitness((0,), (1,), Fraction(0), 1 / 5000, 0.5)),
                (Graph.complete(5000), embedder.Certified(1 / 5000, 0.5, 1, 5000))):
            tracemalloc.start()
            try:
                got = embedder.check_bidense_exact(host, 1 / 5000, 0.5)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == expected
            assert peak < 2 ** 21, peak


def counted_floor_rows(mp) -> list[int]:
    """Patch ``embedder._floor_sums`` to record the rows it gets: one per
    prefix whose bound is computed and one per X-set that is counted."""
    rows = []
    floor_sums = embedder._floor_sums

    def counted(cnt, s):
        rows.append(len(cnt))
        return floor_sums(cnt, s)

    mp.setattr(embedder, "_floor_sums", counted)
    return rows


def without_edge(n: int, u: int, v: int) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if e != (u, v)])


class TestBidensePrefixBound:
    """The prefix bound of check_bidense_exact against the per-X-set loop, at
    the edges of its blocks and where the bound prunes everything or nothing."""

    # Prefixes are the 3-sets of range(17); the blocks hold 64, 128 and 256 of
    # them, then the last 232, so their edges fall at prefix ranks 64, 192 and
    # 448.  A violator made of a prefix and its first or its last X-set.
    @pytest.mark.parametrize("prefix_rank", [0, 63, 64, 191, 192, 447, 448])
    @pytest.mark.parametrize("leaf", ["first", "last"])
    def test_first_violator_at_prefix_block_edge(self, prefix_rank, leaf):
        n, s, sigma, delta = 18, 4, 0.2, 1 / 32  # need = 1/2 <= s * (s - 1)
        P = next(islice(combinations(range(n - 1), s - 1), prefix_rank, None))
        A = P + (P[-1] + 1 if leaf == "first" else n - 1,)
        g, planted = planted_first_violator(n, s, list(combinations(range(n), s)).index(A))
        assert planted == A
        red = Coloring.from_red_graph(g)
        for host, color in ((g, None), (red, RED), (red.swapped(), BLUE)):
            got = embedder.check_bidense_exact(host, sigma, delta, color)
            assert got == reference_check_bidense(host, sigma, delta, color)
            assert got.X == A and got.density == 0

    # With s = 1 there is one prefix, the empty set, and its X-sets go in
    # chunks of 64, 128 and then 256 (n = 200 allows 327): edges at 64 and 192.
    @pytest.mark.parametrize("x", [0, 63, 64, 191, 192, 198])
    def test_s1_first_violator_at_chunk_edge(self, x):
        host = without_edge(200, x, 199)
        got = embedder.check_bidense_exact(host, 1 / 200, 0.5)
        assert got == reference_check_bidense(host, 1 / 200, 0.5)
        assert (got.X, got.Y) == ((x,), (199,))

    # With s = 2 the prefixes are the single vertices 0 .. n - 2.
    @pytest.mark.parametrize("A", [(0, 1), (63, 64), (63, 196), (64, 65), (191, 192),
                                   (192, 193), (192, 195)])
    def test_s2_first_violator_at_prefix_block_edge(self, A):
        n, s, sigma, delta = 200, 2, 0.01, 1 / 8  # need = 1/2
        assert math.ceil(sigma * n) == s
        g, planted = planted_first_violator(n, s, list(combinations(range(n), s)).index(A))
        got = embedder.check_bidense_exact(g, sigma, delta)
        assert got == reference_check_bidense(g, sigma, delta)
        assert got.X == planted == A

    @pytest.mark.parametrize("n, sigma, delta", [(18, 0.2, 1.0), (18, 0.2, 0.8),
                                                 (12, 0.25, 0.7), (40, 0.05, 0.6)])
    def test_no_prefix_bound_when_it_cannot_prune(self, n, sigma, delta):
        # delta * s**2 > s * (s - 1) >= LB(P): every X-set is counted, and
        # no prefix bound is computed
        s = math.ceil(sigma * n)
        assert delta * s * s > s * (s - 1)
        for host in (Graph.complete(n), without_edge(n, n - 2, n - 1), sample_gnp(n, 0.9, 3)):
            with pytest.MonkeyPatch.context() as mp:
                rows = counted_floor_rows(mp)
                got = embedder.check_bidense_exact(host, sigma, delta)
            assert got == reference_check_bidense(host, sigma, delta)
            if isinstance(got, embedder.Certified):
                assert sum(rows) == math.comb(n, s)

    @pytest.mark.parametrize("n, sigma, delta", [(18, 0.2, 0.75), (18, 0.2, 0.5),
                                                 (40, 0.05, 0.5), (24, 0.125, 2 / 3)])
    def test_complete_host_prunes_every_prefix(self, n, sigma, delta):
        # In K_n every vertex outside P has s - 1 neighbours in P, so LB(P) =
        # s * (s - 1) >= delta * s**2: only the C(n - 1, s - 1) prefixes are
        # counted, and the certificate still names all C(n, s) X-sets.
        s = math.ceil(sigma * n)
        host = Graph.complete(n)
        with pytest.MonkeyPatch.context() as mp:
            rows = counted_floor_rows(mp)
            got = embedder.check_bidense_exact(host, sigma, delta)
        assert got == reference_check_bidense(host, sigma, delta)
        assert got == embedder.Certified(sigma, delta, s, math.comb(n, s))
        assert sum(rows) == math.comb(n - 1, s - 1)

    def test_s2_blocks_stay_small(self):
        # s = 2 on 400 vertices: a prefix block and a chunk of X-sets take at
        # most 2**16 counts each, about 0.4 MB in all at peak.  A 400 x 400
        # matrix on top of them, or one block's X-sets expanded at once (26
        # million counts), would not fit in 2**19 bytes.
        n = 400
        for host, delta, expected in (
                (Graph.complete(n), 1.0, embedder.Certified(1.5 / n, 1.0, 2, 79_800)),
                (Graph.complete(n), 0.5, embedder.Certified(1.5 / n, 0.5, 2, 79_800)),
                (without_edge(n, 300, 399), 1.0,
                 embedder.BiDensityWitness((0, 300), (1, 399), Fraction(3, 4), 1.5 / n, 1.0))):
            tracemalloc.start()
            try:
                got = embedder.check_bidense_exact(host, 1.5 / n, delta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == expected
            assert peak < 2 ** 19, peak


class TestEmbedStdoutPinned:
    """The stdout of the benchmark's three ``embed`` argv and of the README
    example, by sha256: the two gnp:40:0.9:5 checks certify, the
    gnp:60:0.8:5 one (the README example) returns its witness."""

    @pytest.mark.parametrize("flags, sha256", [
        (["--host", "gnp:40:0.9:5", "--delta", "0.3", "--sigma", "0.1"],
         "301b7891a78217cee7db6fbf279f0d6ff6c7ea16bc31946440708efd77c686e0"),
        (["--host", "gnp:40:0.9:5", "--delta", "0.3", "--sigma", "0.1",
          "--budget", "10000000000"],
         "eb20391666fe51e95498eabe12c095847b7a40e912e2e7679f52fc7c5176ddcb"),
        (["--host", "gnp:60:0.8:5", "--delta", "0.4", "--sigma", "0.05"],
         "d98a819c9a3fa827b8751617220660572fc43581b5083bd356dde70582a0155b"),
    ])
    def test_stdout(self, capsys, flags, sha256):
        assert cli.run(["embed", "--pattern", "p3", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha256, out


class TestSparsePairHeuristic:
    def test_empty_host_immediate(self):
        w = embedder.find_sparse_pair_heuristic(Graph.empty(10), 0.2, 0.5, tries=1)
        assert w is not None and w.density == 0

    def test_complete_host_not_found(self):
        assert embedder.find_sparse_pair_heuristic(
            Graph.complete(10), 0.2, 0.5, tries=20) is None

    def test_planted_pair_recovered(self):
        # red density between two planted halves is ~0.05; delta = 0.1
        import numpy as np

        n = 200
        rng = np.random.Generator(np.random.Philox(key=999))
        rows = [0] * n
        hits = 0
        for u in range(n):
            for v in range(u + 1, n):
                cross = (u < 100) != (v < 100)
                p = 0.05 if cross else 0.6
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        host = Graph(n, tuple(rows))
        found = 0
        for seed in range(20):
            w = embedder.find_sparse_pair_heuristic(host, 0.25, 0.1, tries=100,
                                                    seed=seed)
            if w is not None:
                found += 1
                assert density_pair(host, w.X, w.Y) == w.density
                assert w.density < Fraction(1, 10)
        assert found >= 18

    @settings(max_examples=150, deadline=None)
    @given(st.integers(6, 40), st.sampled_from([0.1, 0.3, 0.5, 0.8]),
           st.sampled_from([0.1, 0.2, 0.3, 0.5]), st.integers(0, 2 ** 16))
    def test_every_swap_lowers_cross_edges(self, n, rho, sigma, seed):
        # delta = 0: the climb runs until no swap helps; tries = 1: after the
        # first count, every count of cross edges follows a swap.  The check
        # runs inside the climb, so a climb that cycles stops at once.
        g = sample_gnp(n, rho, seed)
        counts = []
        cross_edges = embedder._cross_edges

        def counted(*args):
            counts.append(cross_edges(*args))
            assert len(counts) == 1 or counts[-1] < counts[-2], counts
            return counts[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedder, "_cross_edges", counted)
            embedder.find_sparse_pair_heuristic(g, sigma, 0.0, tries=1, seed=seed)

    def test_vs_clique_search_returns(self, capsys):
        # this climb once cycled forever: the Y side's swap was scored
        # against the X set from before the X side's swap
        def stuck(*_):
            raise TimeoutError("the sparse-pair climb did not return")

        saved = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(30)
        try:
            code = cli.run(["search", "--coloring", "random:40:0.25:5", "--pattern",
                            "gnp:10:0.5:1", "--mode", "vs-clique", "--rho", "0.3",
                            "--seed", "5"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, saved)
        assert code == 0
        assert '"outcome": "exhausted"' in capsys.readouterr().out

    def test_deterministic(self):
        g = sample_gnp(40, 0.2, 3)
        a = embedder.find_sparse_pair_heuristic(g, 0.1, 0.3, tries=10, seed=4)
        b = embedder.find_sparse_pair_heuristic(g, 0.1, 0.3, tries=10, seed=4)
        assert (a is None) == (b is None)
        if a is not None:
            assert (a.X, a.Y) == (b.X, b.Y)


# hosts random:n:p:seed of the differential tests of the sparse-pair climb
# and the star count, one per n and p
REFERENCE_HOSTS = [(n, p) for n in (4, 10, 40, 160, 320) for p in (0.25, 0.5, 0.75)]


class TestSparsePairMatchesReference:
    """The climb returns the witness of the climb that rescored every outside
    vertex per member of the side (``tests/references.py``), on every host
    of a seeded grid, in both colours, at several sigma and delta."""

    # (sigma, delta, tries); the search runs (0.05, 0.3, 10)
    CASES = [(sigma, delta, tries) for sigma in (0.05, 0.2) for delta in (0.1, 0.3, 0.6)
             for tries in (1, 10)]

    @pytest.mark.parametrize("n, p", REFERENCE_HOSTS, ids=lambda v: str(v))
    def test_matches_reference(self, n, p):
        c = sample_coloring(n, p, n)
        for sigma, delta, tries in self.CASES:
            # a round of the reference costs about sigma * n**2 popcounts: past
            # 2**14 per call, only the search's own settings run
            if tries * sigma * n * n > 2 ** 14 and (sigma, delta, tries) != (0.05, 0.3, 10):
                continue
            for color in (RED, BLUE):
                seed = n + tries
                got = embedder.find_sparse_pair_heuristic(c, sigma, delta, color, tries, seed)
                want = reference_find_sparse_pair_heuristic(c, sigma, delta, color, tries,
                                                            seed)
                assert got == want, (sigma, delta, color, tries)


class TestEmbedGreedy:
    def test_single_edge_into_k10(self):
        res = embedder.embed_greedy(Graph.complete(2), Graph.complete(10), 0.5)
        assert res.ok
        u, v = res.embedding.image
        assert u != v

    def test_edgeless_pattern(self):
        res = embedder.embed_greedy(named_graph("e", 3), Graph.complete(9), 0.5)
        assert res.ok

    def test_coloring_host_color_required(self):
        c = Coloring.monochromatic(12, RED)
        with pytest.raises(ValueError):
            embedder.embed_greedy(Graph.complete(2), c, 0.5)
        res = embedder.embed_greedy(Graph.complete(2), c, 0.5, color=RED)
        assert res.ok
        res = embedder.embed_greedy(Graph.complete(2), c, 0.5, color=BLUE)
        assert not res.ok and res.failure is not None

    def test_failure_carries_trace(self):
        res = embedder.embed_greedy(Graph.complete(3), Graph.empty(30), 0.5)
        assert not res.ok
        assert res.failure.trace
        assert res.failure.stuck_vertex in range(3)

    def test_deterministic(self):
        host = sample_gnp(120, 0.6, 8)
        pattern = sample_gnp(8, 0.4, 2)
        a = embedder.embed_greedy(pattern, host, 0.3)
        b = embedder.embed_greedy(pattern, host, 0.3)
        assert a.ok == b.ok
        if a.ok:
            assert a.embedding.image == b.embedding.image

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_every_success_verifies(self, seed):
        host = sample_gnp(100 + seed % 50, 0.5, seed)
        pattern = sample_gnp(6, 0.4, seed + 1)
        res = embedder.embed_greedy(pattern, host, 0.3)
        if res.ok:
            ok, _ = oracle.verify_embedding(pattern, host, res.embedding)
            assert ok

    def test_certified_host_lemma_guarantee(self):
        # delta=0.5, Delta=1 pattern (one edge + isolated): sigma = 0.5/4 = 1/8,
        # lemma host size 4*2*1*n; K_n hosts are certified at any sigma/delta<=1
        pattern = Graph.from_edges(3, [(0, 1)])
        delta = 0.5
        sigma = embedder.lemma_sigma(delta, pattern.max_degree)
        n_host = embedder.lemma_min_host_size(delta, pattern.max_degree, pattern.t)
        host = Graph.complete(n_host)
        res = embedder.check_bidense_exact(host, sigma, delta, budget=10 ** 10)
        assert isinstance(res, embedder.Certified)
        out = embedder.embed_greedy(pattern, host, delta)
        assert out.ok and out.hypothesis_held
