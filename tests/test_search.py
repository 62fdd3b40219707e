import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import oracle, search
from ramseykit.graphs import BLUE, RED, Coloring, Embedding, Graph
from ramseykit.patterns import load_pattern, named_graph
from ramseykit.randomlab import sample_coloring, sample_gnp

from references import (
    chase_final_set,
    chase_sets,
    chase_start,
    check_chase_invariants,
    density_pair,
    reference_common_neighborhood_pigeonhole,
    reference_neighborhood_chase,
)


def pentagon_coloring() -> Coloring:
    return Coloring.from_red_graph(named_graph("c", 5))


class TestNeighborhoodChase:
    def test_all_red_k10(self):
        c = Coloring.monochromatic(10, RED)
        state = search.neighborhood_chase(c, range(10), 0.5, stop_R=3, stop_B=3)
        assert state.string == "RRR"
        assert len(chase_final_set(state)) == 7

    def test_all_blue_k10(self):
        c = Coloring.monochromatic(10, BLUE)
        state = search.neighborhood_chase(c, range(10), 0.5, stop_R=2, stop_B=2)
        assert state.string == "BB"
        assert len(chase_final_set(state)) == 8

    def test_pentagon_first_step_red(self):
        # pivot 0 has red degree 2 of the 4 non-pivot vertices: 2 >= 0.5*4 -> R
        state = search.neighborhood_chase(pentagon_coloring(), range(5), 0.5,
                                          stop_R=1, stop_B=1)
        assert state.string[0] == RED
        assert chase_sets(state)[0] == frozenset({1, 4})

    def test_invariants_hold(self):
        c = sample_coloring(30, 0.5, 3)
        state = search.neighborhood_chase(c, range(30), 0.5, stop_R=4, stop_B=4)
        assert check_chase_invariants(state, c)

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            search.neighborhood_chase(Coloring.monochromatic(3, RED), [], 0.5, 1, 1)

    @pytest.mark.parametrize("start", [[-1, 0, 1], [0, 1, 5], [-3]])
    def test_start_outside_coloring_rejected(self, start):
        # a negative vertex used to index the rows from the end
        with pytest.raises(ValueError, match=r"start_set must lie in 0\.\.4"):
            search.neighborhood_chase(pentagon_coloring(), start, 0.5, 2, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 70), st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
           st.integers(0, 2 ** 16), st.randoms(use_true_random=False),
           st.sampled_from([0.3, 0.5, 0.7]), st.integers(1, 5), st.integers(1, 5))
    def test_matches_frozenset_reference(self, n, p, seed, rnd, threshold, stop_R, stop_B):
        c = sample_coloring(n, p, seed)
        start = rnd.sample(range(n), rnd.randint(1, n))
        state = search.neighborhood_chase(c, start, threshold, stop_R, stop_B)
        assert state == reference_neighborhood_chase(c, start, threshold, stop_R, stop_B)
        assert check_chase_invariants(state, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(0.1, 0.9))
    def test_nesting_and_letters(self, seed, threshold):
        c = sample_coloring(20, 0.5, seed)
        state = search.neighborhood_chase(c, range(20), threshold, 3, 3)
        assert check_chase_invariants(state, c)
        current = chase_start(state)
        for s in chase_sets(state):
            assert s < current
            current = s


class TestBlueDegreeFilter:
    def test_all_blue(self):
        c = Coloring.monochromatic(10, BLUE)
        assert search.filter_high_blue_degree(c, [0, 1, 2], [3, 4, 5], 0.1) == [0, 1, 2]

    def test_all_red(self):
        c = Coloring.monochromatic(10, RED)
        assert search.filter_high_blue_degree(c, [0, 1, 2], [3, 4, 5], 0.1) == []

    def test_disjointness_required(self):
        c = Coloring.monochromatic(6, RED)
        with pytest.raises(ValueError):
            search.filter_high_blue_degree(c, [0, 1], [1, 2], 0.1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_density_implication(self, seed):
        # if blue density(A,B) >= 1 - rho then |A'| >= rho |A|
        rho = 0.1
        c = sample_coloring(40, 0.05, seed)  # mostly blue
        A, B = list(range(20)), list(range(20, 40))
        blue_density = density_pair(c, A, B, BLUE)
        A_prime = search.filter_high_blue_degree(c, A, B, rho)
        if blue_density >= 1 - rho:
            assert len(A_prime) >= rho * len(A)


class TestPigeonhole:
    def test_all_blue_full(self):
        c = Coloring.monochromatic(10, BLUE)
        T, B_prime = search.common_neighborhood_pigeonhole(
            c, [0, 1, 2], [5, 6, 7], 3, BLUE)
        assert T == (0, 1, 2)
        assert B_prime == (5, 6, 7)

    def test_no_blue_edges_empty(self):
        c = Coloring.monochromatic(10, RED)
        T, B_prime = search.common_neighborhood_pigeonhole(
            c, [0, 1, 2], [5, 6, 7], 2, BLUE)
        assert B_prime == ()

    def test_l_too_large(self):
        c = Coloring.monochromatic(6, BLUE)
        with pytest.raises(ValueError):
            search.common_neighborhood_pigeonhole(c, [0, 1], [3], 3, BLUE)

    def test_contract_all_adjacent(self):
        c = sample_coloring(20, 0.5, 4)
        T, B_prime = search.common_neighborhood_pigeonhole(
            c, list(range(6)), list(range(6, 20)), 3, BLUE, mode="exact")
        for v in B_prime:
            for u in T:
                assert c.color_of(u, v) == BLUE

    def test_greedy_vs_exact_quality(self):
        hits = 0
        total = 0
        for seed in range(100):
            c = sample_coloring(14, 0.9, seed)  # dense red; search blue? use RED
            S, B = list(range(6)), list(range(6, 14))
            _, exact = search.common_neighborhood_pigeonhole(c, S, B, 3, RED, "exact")
            _, greedy = search.common_neighborhood_pigeonhole(c, S, B, 3, RED, "greedy")
            total += 1
            if len(greedy) >= 0.8 * len(exact):
                hits += 1
        assert hits >= 90


class TestPigeonholeMatchesReference:
    """The star count returns what the version that rebuilt B's mask and a
    vertex list per candidate returned (``tests/references.py``), on every
    host random:n:p:n of a seeded grid, in both colours and both modes."""

    @pytest.mark.parametrize("n, p", [(n, p) for n in (4, 10, 40, 160, 320)
                                      for p in (0.25, 0.5, 0.75)], ids=lambda v: str(v))
    def test_matches_reference(self, n, p):
        c = sample_coloring(n, p, n)
        perm = [int(v) for v in np.random.Generator(np.random.Philox(key=n)).permutation(n)]
        for size in sorted({min(2, n // 2), min(8, n // 2)}):
            S, B = perm[:size], perm[size:]
            for l in sorted({0, 1, size // 2, size}):
                for color in (RED, BLUE):
                    for mode in ("exact", "greedy"):
                        got = search.common_neighborhood_pigeonhole(c, S, B, l, color, mode)
                        want = reference_common_neighborhood_pigeonhole(c, S, B, l, color,
                                                                        mode)
                        assert got == want, (size, l, color, mode)


class TestSplitHighDegree:
    def test_regular_graph_nothing_removed(self):
        c5 = named_graph("c", 5)
        res = search.split_high_degree(c5, 2)
        assert res.removed == frozenset()
        assert res.subgraph.rows == c5.rows

    def test_star_center_removed(self):
        star = named_graph("s", 9)
        res = search.split_high_degree(star, 5)
        assert res.removed == frozenset({0})
        assert res.subgraph.t == 9 and res.subgraph.m == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 30))
    def test_removed_bound(self, seed, cap):
        g = sample_gnp(100, 0.1, seed)
        res = search.split_high_degree(g, cap)
        assert len(res.removed) <= 2 * g.m / cap


class TestRedHOrBlueClique:
    def test_all_red_finds_pattern(self):
        c = Coloring.monochromatic(12, RED)
        out = search.find_red_H_or_blue_clique(c, Graph.complete(3), 3,
                                               search.SearchConfig(rho=0.5))
        assert out.kind == "found_red_h"

    def test_all_blue_finds_clique(self):
        c = Coloring.monochromatic(12, BLUE)
        out = search.find_red_H_or_blue_clique(c, Graph.complete(3), 5,
                                               search.SearchConfig(rho=0.5))
        assert out.kind == "found_blue_clique"
        assert len(out.clique) == 5

    def test_pentagon_exhausted(self):
        out = search.find_red_H_or_blue_clique(pentagon_coloring(), Graph.complete(3),
                                               3, search.SearchConfig(rho=0.4))
        assert out.kind == "exhausted"

    def test_deterministic(self):
        c = sample_coloring(40, 0.5, 6)
        cfg = search.SearchConfig(rho=0.3, seed=2)
        a = search.find_red_H_or_blue_clique(c, named_graph("p", 4), 4, cfg)
        b = search.find_red_H_or_blue_clique(c, named_graph("p", 4), 4, cfg)
        assert a.kind == b.kind
        if a.embedding:
            assert a.embedding.image == b.embedding.image

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_soundness(self, seed):
        c = sample_coloring(25 + seed % 30, 0.5, seed)
        out = search.find_red_H_or_blue_clique(c, named_graph("c", 4), 4,
                                               search.SearchConfig(rho=0.4, seed=seed))
        # _assert_outcome_valid would have raised on an unsound find; recheck anyway
        if out.kind == "found_red_h":
            ok, _ = oracle.verify_embedding(out.embedding.pattern, c,
                                            out.embedding, RED)
            assert ok
        elif out.kind == "found_blue_clique":
            vs = list(out.clique)
            assert all(c.color_of(u, v) == BLUE
                       for i, u in enumerate(vs) for v in vs[i + 1:])


class TestFindMonoH:
    def test_single_edge_k2(self):
        for red_rows in ((0b10, 0b01), (0, 0)):
            c = Coloring(2, red_rows)
            out = search.find_mono_H(c, Graph.complete(2),
                                     search.SearchConfig(rho=1.0))
            assert out.kind == "found_mono"

    def test_p3_on_all_k3_colorings(self):
        # pigeonhole: of three edges two share a color and a vertex
        p3 = named_graph("p", 3)
        for bits in range(8):
            rows = [0] * 3
            for i, (u, v) in enumerate([(0, 1), (0, 2), (1, 2)]):
                if bits >> i & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            c = Coloring(3, tuple(rows))
            out = search.find_mono_H(c, p3, search.SearchConfig(rho=2 / 3))
            assert out.kind == "found_mono"

    def test_pentagon_k3_exhausted(self):
        out = search.find_mono_H(pentagon_coloring(), Graph.complete(3),
                                 search.SearchConfig(rho=1.0))
        assert out.kind == "exhausted"

    def test_never_found_on_oracle_certified_free_colorings(self):
        # random colorings of K_5 proven C4-free in both colors by the oracle
        c4 = named_graph("c", 4)
        checked = 0
        for seed in range(200):
            c = sample_coloring(5, 0.5, seed)
            free = (oracle.find_mono_subgraph_exact(c, c4, RED) is None and
                    oracle.find_mono_subgraph_exact(c, c4, BLUE) is None)
            if not free:
                continue
            checked += 1
            out = search.find_mono_H(c, c4, search.SearchConfig(rho=0.5, seed=seed))
            assert out.kind == "exhausted"
        assert checked > 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_soundness_large(self, seed):
        c = sample_coloring(40, 0.5, seed)
        out = search.find_mono_H(c, Graph.complete(3),
                                 search.SearchConfig(rho=0.5, seed=seed))
        if out.kind == "found_mono":
            ok, _ = oracle.verify_embedding(out.embedding.pattern, c,
                                            out.embedding, out.color)
            assert ok


class TestOneExit:
    """The public searches re-verify every find where they end, the exact
    oracle's finds at n <= BASE_N among them."""

    @pytest.fixture
    def wrong_oracle(self, monkeypatch):
        # vertices 0-2 as a red triangle, which an all-blue coloring has not
        monkeypatch.setattr(oracle, "find_mono_subgraph_exact",
                            lambda host, pattern, color=None:
                            Embedding(pattern, tuple(range(pattern.t))))
        return Coloring.monochromatic(12, BLUE), Graph.complete(3)

    def test_find_mono_h_raises(self, wrong_oracle):
        c, k3 = wrong_oracle
        with pytest.raises(AssertionError, match="unsound search outcome"):
            search.find_mono_H(c, k3, search.SearchConfig(rho=1.0))

    def test_find_random_graph_mono_raises(self, wrong_oracle):
        c, k3 = wrong_oracle
        with pytest.raises(AssertionError, match="unsound search outcome"):
            search.find_random_graph_mono(c, k3, 2, search.SearchConfig(rho=1.0))


class TestRandomGraphMono:
    def test_all_red_direct(self):
        c = Coloring.monochromatic(50, RED)
        h = sample_gnp(8, 0.3, 1)
        out = search.find_random_graph_mono(c, h, h.max_degree, search.SearchConfig(rho=0.3))
        assert out.kind == "found_mono" and out.color == RED

    def test_all_exceptional_boundary(self):
        c = Coloring.monochromatic(64, RED)
        h = Graph.complete(4)
        out = search.find_random_graph_mono(c, h, 0, search.SearchConfig(rho=0.5))
        assert out.kind == "found_mono"

    def test_measured_sweep_all_found_verify(self):
        h = sample_gnp(12, 0.4, 0)
        found = 0
        for seed in range(20):
            c = sample_coloring(120, 0.5, seed)
            out = search.find_random_graph_mono(c, h, h.max_degree,
                                                search.SearchConfig(rho=0.4, seed=seed))
            if out.kind == "found_mono":
                found += 1
                ok, _ = oracle.verify_embedding(h, c, out.embedding, out.color)
                assert ok
        # soundness is the contract; the found rate is informational
        assert found >= 0


def planted(n: int, k: int, window: Graph) -> Coloring:
    """Vertices 0..k-1 red to every later vertex, ``window`` as the red graph
    on 2k..n-1 and every other pair blue.  As in data/two_sided_lift.txt, the
    red chase of the random-bounded search takes pivots 0..k-1, the blue chase
    takes k..2k-1, and the red/blue descent starts on the window."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, n)]
    edges += [(2 * k + u, 2 * k + v) for u, v in window.edges()]
    return Coloring.from_red_graph(Graph.from_edges(n, edges))


# a triangle of exceptional vertices (degree 2 > cap 1) beside one edge, so
# the descent's blue target has two vertices
K3_K2 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])


class TestDescentBranches:
    """Branches of the red/blue descent that no golden cell reaches, each
    driven through a public search on a small constructed coloring."""

    # (pattern, degree cap, k, red density and seed of the window, rho,
    #  seed, max_depth) -> (outcome, colour, embedding)
    BOUNDED = {
        # a two-vertex blue target is not bisected; it is found blue in A'
        # and lifted whole
        "target of two vertices": ((K3_K2, 1, 3, 0, 0, 0.4, 0, 8),
                                   ("found_mono", BLUE, (3, 4, 5, 18, 26))),
        # the recursion on A' finds the red target
        "red find in the recursion on A'": ((K3_K2, 1, 3, 0.05, 0, 0.4, 0, 8),
                                            ("found_mono", RED, (0, 1, 2, 18, 26))),
        # a random bisection of P3 puts all three vertices on one side
        "fallback bisection": ((named_graph("p", 3), 2, 2, 0, 0, None, 0, 8),
                               ("found_mono", BLUE, (25, 4, 16))),
        "empty common neighbourhood": ((named_graph("c", 4), 2, 2, 0.2, 3, None, 1, 8),
                                       ("exhausted", None, None)),
        "red find in the tail recursion": ((named_graph("p", 3), 2, 2, 0.2, 3, None, 2, 8),
                                           ("found_mono", RED, (6, 54, 14))),
        "tail recursion exhausted": ((named_graph("c", 9), 2, 3, 0, 0, None, 0, 8),
                                     ("exhausted", None, None)),
        "depth budget": ((K3_K2, 1, 3, 0, 0, 0.4, 0, 0), ("exhausted", None, None)),
    }

    @pytest.mark.parametrize("case", BOUNDED)
    def test_random_bounded(self, case):
        (pattern, cap, k, p, gseed, rho, seed, depth), (kind, color, image) = \
            self.BOUNDED[case]
        c = planted(60, k, sample_gnp(60 - 2 * k, p, gseed))
        config = search.SearchConfig(rho=float(pattern.density) if rho is None else rho,
                                     seed=seed, max_depth=depth)
        out = search.find_random_graph_mono(c, pattern, cap, config)
        assert (out.kind, out.color) == (kind, color)
        assert (out.embedding and out.embedding.image) == image
        assert out.reason == (None if out.found else "two-sided recursion exhausted")

    # (n, red probability, seed, pattern, s, rho, max_depth)
    #   -> (outcome, embedding, clique, reason)
    VS_CLIQUE = {
        "no sparse red pair": ((120, 0.7, 0, "k10", 9, 0.1, 8),
                               ("exhausted", None, None, "no sparse red pair found")),
        "red find in the recursion on A'": ((120, 0.25, 2, "k3", 9, 0.45, 8),
                                            ("found_red_h", (26, 97, 108), None, None)),
        "red find in the tail recursion": ((200, 0.05, 1, "p4", 9, 0.3, 8),
                                           ("found_red_h", (189, 55, 96, 16), None, None)),
        "lifted clique": ((120, 0.05, 0, "k10", 9, 0.1, 8),
                          ("found_blue_clique", None, (1, 7, 8, 14, 15, 16, 24, 74, 79),
                           None)),
        "depth budget": ((120, 0.05, 0, "k10", 9, 0.1, 0),
                         ("exhausted", None, None, "recursion exhausted: depth budget")),
    }

    @pytest.mark.parametrize("case", VS_CLIQUE)
    def test_vs_clique(self, case):
        (n, p, seed, pattern, s, rho, depth), expected = self.VS_CLIQUE[case]
        out = search.find_red_H_or_blue_clique(
            sample_coloring(n, p, seed), load_pattern(pattern), s,
            search.SearchConfig(rho=rho, seed=seed, max_depth=depth))
        assert (out.kind, out.embedding and out.embedding.image, out.clique,
                out.reason) == expected
        assert out.color == {"found_red_h": RED, "found_blue_clique": BLUE}.get(out.kind)

    def test_vs_clique_on_no_vertices(self):
        out = search.find_red_H_or_blue_clique(Coloring(0, ()), Graph.complete(3), 3,
                                               search.SearchConfig(rho=0.5))
        assert (out.kind, out.reason) == ("exhausted", "empty set")

    def test_mono_blue_clique_from_the_pivots(self):
        # 48 red pivots (the chase's stop for M25) leave 50 vertices that are
        # all blue: no red M25 there, but a blue K50, which holds M25
        c = Coloring.from_red_graph(Graph.from_edges(
            98, [(u, v) for u in range(48) for v in range(u + 1, 98)]))
        m25 = named_graph("m", 25)
        out = search.find_mono_H(c, m25, search.SearchConfig(rho=float(m25.density)))
        assert (out.kind, out.color, out.reason) == ("found_mono", BLUE, None)
        assert out.embedding.image == tuple(range(48, 98))
