import itertools
import math
import random
import time
import tracemalloc
from typing import Optional

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from ramseykit import oracle, randomlab
from ramseykit.graphs import BLUE, RED, Coloring, Graph
from ramseykit.oracle import _embed_backtrack, _embed_plan
from ramseykit.patterns import load_pattern, named_graph
from ramseykit.randomlab import SEED_LIMIT

from references import (
    check_bidense_bruteforce,
    reference_canonical_rows,
    reference_certify_lower,
    reference_embed_backtrack,
    reference_ramsey_number_exact,
)

# Exact values from Radziszowski, "Small Ramsey Numbers", EJC Dynamic Survey DS1.
R_K3_K3 = 6
R_C4_C4 = 6
R_C4_K3 = 7
R_C5_C5 = 9
R_K3_K4 = 9
# Colorings of K_n with no blue K3 and no red K4, up to isomorphism, n = 1..8.
K3_K4_CLASSES = (1, 2, 3, 6, 9, 15, 9, 3)


def pentagon_coloring() -> Coloring:
    """K_5 with a red 5-cycle and blue diagonals: the classical mono-K3-free coloring."""
    return Coloring.from_red_graph(named_graph("c", 5))


def naive_find(host_rows, n, pattern: Graph) -> bool:
    """All injective maps, as an independent reference for the backtracker."""
    for image in itertools.permutations(range(n), pattern.t):
        if all(host_rows[image[u]] >> image[v] & 1 for u, v in pattern.edges()):
            return True
    return False


class TestFindMonoExact:
    def test_all_red_k6_red_triangle(self):
        c = Coloring.monochromatic(6, RED)
        emb = oracle.find_mono_subgraph_exact(c, Graph.complete(3), RED)
        assert emb is not None and sorted(emb.image) == [0, 1, 2]

    def test_all_red_k6_no_blue_triangle(self):
        c = Coloring.monochromatic(6, RED)
        assert oracle.find_mono_subgraph_exact(c, Graph.complete(3), BLUE) is None

    def test_pentagon_has_no_mono_triangle(self):
        pent = pentagon_coloring()
        for color in (RED, BLUE):
            assert oracle.find_mono_subgraph_exact(pent, Graph.complete(3), color) is None

    def test_deterministic(self):
        c = Coloring.monochromatic(7, BLUE)
        a = oracle.find_mono_subgraph_exact(c, named_graph("p", 4), BLUE)
        b = oracle.find_mono_subgraph_exact(c, named_graph("p", 4), BLUE)
        assert a.image == b.image

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.integers(4, 7), st.integers(2, 5))
    def test_agrees_with_naive_reference(self, seed, n, pt):
        from ramseykit.randomlab import sample_coloring

        c = sample_coloring(n, 0.5, seed)
        pairs = [(u, v) for u in range(pt) for v in range(u + 1, pt)]
        pattern = Graph.from_edges(pt, pairs[: max(1, (seed % len(pairs)))])
        rows = tuple(c.row(v, RED) for v in range(n))
        expect = naive_find(rows, n, pattern)
        got = oracle.find_mono_subgraph_exact(c, pattern, RED) is not None
        assert got == expect


class TestVerifyEmbedding:
    def test_identity_triangle(self):
        c = Coloring.monochromatic(3, RED)
        ok, v = oracle.verify_embedding(Graph.complete(3), c, (0, 1, 2), RED)
        assert ok and v is None

    def test_non_injective(self):
        g = Graph.complete(4)
        ok, v = oracle.verify_embedding(named_graph("e", 2), g, [1, 1])
        assert not ok and v["kind"] == "not_injective"

    def test_missing_edge_named(self):
        host = Graph.from_edges(3, [(0, 1)])
        ok, v = oracle.verify_embedding(named_graph("p", 3), host, [0, 1, 2])
        assert not ok
        assert v["kind"] == "missing_edge"
        assert v["pattern_pair"] == (1, 2)

    def test_non_total_map_rejected(self):
        with pytest.raises(ValueError):
            oracle.verify_embedding(Graph.complete(3), Graph.complete(3), [0, 1])


class TestCliqueExact:
    def test_finds_in_complete(self):
        g = Graph.complete(8)
        assert oracle.find_clique_exact(g, 5) == [0, 1, 2, 3, 4]

    def test_within_restriction(self):
        c = Coloring.monochromatic(8, BLUE)
        got = oracle.find_clique_exact(c, 3, BLUE, within=[2, 5, 6, 7])
        assert got == [2, 5, 6]

    def test_none_when_absent(self):
        pent = pentagon_coloring()
        assert oracle.find_clique_exact(pent, 3, RED) is None
        assert oracle.find_clique_exact(pent, 3, BLUE) is None


class TestRamseyExact:
    def test_k2_k2(self):
        cert = oracle.ramsey_number_exact(Graph.complete(2), Graph.complete(2))
        assert cert.kind == "upper" and cert.n == 2

    def test_p3_p3_is_3(self):
        p3 = named_graph("p", 3)
        cert = oracle.ramsey_number_exact(p3, p3)
        assert cert.kind == "upper" and cert.n == 3
        assert cert.verify()

    def test_k3_k3_is_6_with_witness_at_5(self):
        k3 = Graph.complete(3)
        cert = oracle.ramsey_number_exact(k3, k3)
        assert cert.kind == "upper" and cert.n == 6
        assert cert.witness_n == 5
        assert cert.verify()

    def test_off_diagonal_k3_p3(self):
        # r(P3, K3) = 5: red C4 avoids both at n=4
        cert = oracle.ramsey_number_exact(named_graph("p", 3), Graph.complete(3))
        assert cert.kind == "upper" and cert.n == 5
        assert cert.verify()

    def test_lower_only_when_out_of_range(self):
        k3 = Graph.complete(3)
        cert = oracle.ramsey_number_exact(k3, k3, n_max=4)
        assert cert.kind == "lower" and cert.n == 4
        assert cert.verify()

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_n_max_below_one_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 1"):
            oracle.ramsey_number_exact(Graph.complete(3), Graph.complete(3), n_max=n_max)

    def test_guard_refusal(self):
        with pytest.raises(oracle.OracleRefusal):
            oracle.ramsey_number_exact(Graph.complete(3), Graph.complete(3), n_max=40)


# The edge-by-edge search the oracle used before vertex extension, kept as a
# differential reference for small n.

def _contains_with_pair(pattern: Graph, rows, n: int, u: int, v: int) -> bool:
    """Does the host contain the pattern using host edge {u,v}?"""
    for x, y in pattern.edges():
        for a, b in ((u, v), (v, u)):
            if reference_embed_backtrack(pattern, rows, n, {x: a, y: b}) is not None:
                return True
    return False


def _colex_edges(n: int) -> list[tuple[int, int]]:
    # Edges grouped by their larger endpoint: all of K_k is decided before
    # vertex k's edges start, which lets containment pruning bite early.
    return [(u, v) for v in range(1, n) for u in range(v)]


def _avoiding_coloring(pattern1: Graph, pattern2: Graph, n: int,
                       fix_first_red: bool) -> Optional[Coloring]:
    """DFS for a coloring of K_n with no blue pattern1 and no red pattern2."""
    edges = _colex_edges(n)
    red = [0] * n
    blue = [0] * n

    def assign(rows, u, v):
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    def unassign(rows, u, v):
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)

    def dfs(i: int) -> bool:
        if i == len(edges):
            return True
        u, v = edges[i]
        choices = (RED,) if (i == 0 and fix_first_red) else (RED, BLUE)
        for c in choices:
            rows = red if c == RED else blue
            pat = pattern2 if c == RED else pattern1
            assign(rows, u, v)
            # Only the freshly colored edge can create a new forbidden copy.
            bad = pat.t <= n and pat.m > 0 and _contains_with_pair(pat, rows, n, u, v)
            if not bad:
                if dfs(i + 1):
                    return True
            unassign(rows, u, v)
        return False

    # Edgeless forbidden patterns that fit are unavoidable outright.
    if (pattern1.m == 0 and pattern1.t <= n) or (pattern2.m == 0 and pattern2.t <= n):
        return None
    if dfs(0):
        return Coloring(n, tuple(red))
    return None


def ref_ramsey_number(pattern1: Graph, pattern2: Graph, n_max: int) -> tuple[str, int]:
    """(kind, n) of the edge-by-edge search."""
    symmetric = pattern1.t == pattern2.t and pattern1.rows == pattern2.rows
    for n in range(1, n_max + 1):
        if _avoiding_coloring(pattern1, pattern2, n, fix_first_red=symmetric and n >= 2) is None:
            return "upper", n
    return "lower", n_max


def _small_patterns(max_t: int = 4) -> list[Graph]:
    """Every isolated-free graph on at most ``max_t`` vertices, up to
    isomorphism, then K1, two isolated vertices and K2 plus an isolated
    vertex."""
    found = [Graph.from_edges(G.number_of_nodes(), list(G.edges()))
             for G in graph_atlas_g()
             if 2 <= G.number_of_nodes() <= max_t and G.number_of_edges()
             and min(d for _, d in G.degree()) >= 1]
    return found + [named_graph("k", 1), named_graph("e", 2), Graph.from_edges(3, [(0, 1)])]


def _networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.t))
    h.add_edges_from(g.edges())
    return h


@st.composite
def small_graphs(draw, max_t: int = 9):
    t = draw(st.integers(1, max_t))
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    return Graph.from_edges(t, [p for p in pairs if draw(st.booleans())])


class TestCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_invariant_under_relabelling(self, g, rnd):
        perm = list(range(g.t))
        rnd.shuffle(perm)
        h = Graph.from_edges(g.t, [(perm[u], perm[v]) for u, v in g.edges()])
        assert oracle.canonical_form(h.rows)[0] == oracle.canonical_form(g.rows)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda t: st.tuples(small_graphs(t), small_graphs(t))))
    def test_equal_iff_isomorphic(self, pair):
        g, h = pair
        same = oracle.canonical_form(g.rows)[0] == oracle.canonical_form(h.rows)[0]
        assert same == (g.t == h.t and nx.is_isomorphic(_networkx(g), _networkx(h)))

    def test_atlas_classes_get_distinct_forms(self):
        # every graph on at most 7 vertices, one per isomorphism class, each
        # also under a seeded relabelling
        rnd = random.Random(7)
        forms = set()
        atlas = [G for G in graph_atlas_g() if G.number_of_nodes()]
        for G in atlas:
            t = G.number_of_nodes()
            perm = list(range(t))
            rnd.shuffle(perm)
            g = Graph.from_edges(t, list(G.edges()))
            h = Graph.from_edges(t, [(perm[u], perm[v]) for u, v in G.edges()])
            form = oracle.canonical_form(g.rows)[0]
            assert oracle.canonical_form(h.rows)[0] == form
            forms.add((t, form))
        assert len(forms) == len(atlas)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(1, n // 2), min_size=1), st.permutations(range(n)))))
    def test_circulants_invariant_under_relabelling(self, case):
        # vertex-transitive graphs, where pruning by automorphisms does the most
        n, steps, perm = case
        edges = {tuple(sorted((v, (v + d) % n))) for v in range(n) for d in steps}
        g = Graph.from_edges(n, sorted(edges))
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        assert oracle.canonical_form(h.rows)[0] == oracle.canonical_form(g.rows)[0]

    def test_form_is_an_isomorphic_copy(self):
        g = named_graph("c", 7)
        form = oracle.canonical_form(g.rows)[0]
        assert nx.is_isomorphic(_networkx(Graph(7, form)), _networkx(g))

    def test_symmetric_graphs(self):
        # vertex-transitive graphs with large automorphism groups
        k44 = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
        k44_mixed = Graph.from_edges(8, [(u, v) for u in (0, 2, 4, 6) for v in (1, 3, 5, 7)])
        assert oracle.canonical_form(k44.rows)[0] == oracle.canonical_form(k44_mixed.rows)[0]
        petersen = nx.petersen_graph()
        perm = [3, 7, 0, 9, 4, 1, 8, 2, 6, 5]
        p = Graph.from_edges(10, list(petersen.edges()))
        q = Graph.from_edges(10, [(perm[u], perm[v]) for u, v in petersen.edges()])
        prism = Graph.from_edges(10, list(nx.circular_ladder_graph(5).edges()))
        assert oracle.canonical_form(p.rows)[0] == oracle.canonical_form(q.rows)[0]
        assert oracle.canonical_form(p.rows)[0] != oracle.canonical_form(prism.rows)[0]

    def test_orbit_representatives(self):
        # one ordered edge per orbit: a reflection of P4 maps (1, 2) to
        # (2, 1), but nothing maps an end vertex to a middle one
        assert oracle._arc_representatives(named_graph("c", 5)) == [(0, 1)]
        assert oracle._arc_representatives(named_graph("p", 4)) == [(0, 1), (1, 0), (1, 2)]
        assert oracle._arc_representatives(named_graph("s", 3)) == [(0, 1), (1, 0)]
        assert oracle._arc_representatives(Graph.from_edges(3, [(0, 1)])) == [(0, 1)]
        assert oracle._arc_representatives(named_graph("e", 2)) == []


def _circulant(n: int, steps) -> Graph:
    return Graph.from_edges(n, sorted({tuple(sorted((v, (v + d) % n)))
                                       for v in range(n) for d in steps}))


def _maps_rows_onto_themselves(rows, gamma) -> bool:
    return sorted(gamma) == list(range(len(rows))) and all(
        rows[gamma[u]] >> gamma[v] & 1 == rows[u] >> v & 1
        for u in range(len(rows)) for v in range(len(rows)))


class TestCanonicalFormAgainstReference:
    """``canonical_form`` against the form of the unpruned leaf comparison it
    replaced, and the automorphisms it returns against the form."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs(10))
    def test_same_form_and_automorphisms_of_it(self, g):
        form, autos = oracle.canonical_form(g.rows)
        assert form == reference_canonical_rows(g.rows)
        assert all(_maps_rows_onto_themselves(form, gamma) for gamma in autos)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(1, n // 2), min_size=1), st.permutations(range(n)))))
    def test_circulants(self, case):
        # vertex-transitive: the search must find automorphisms, and prune by them
        n, steps, perm = case
        g = _circulant(n, steps)
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        form, autos = oracle.canonical_form(h.rows)
        assert form == reference_canonical_rows(h.rows)
        assert autos and all(_maps_rows_onto_themselves(form, gamma) for gamma in autos)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(6, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(1, n // 2), min_size=1),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))))
    def test_near_circulants(self, case):
        # a few pairs flipped: refinement leaves large cells, and leaves differ
        n, steps, flips = case
        rows = list(_circulant(n, steps).rows)
        for u, v in flips:
            if u != v:
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
        form, autos = oracle.canonical_form(rows)
        assert form == reference_canonical_rows(rows)
        assert all(_maps_rows_onto_themselves(form, gamma) for gamma in autos)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_regular_graphs(self, d):
        # degrees leave one cell, so refinement alone decides little and
        # leaves that differ from the best one are common
        for n in range(d + 3, 13):
            if n * d % 2:
                continue
            for seed in range(6):
                g = nx.random_regular_graph(d, n, seed=seed)
                rows = Graph.from_edges(n, list(g.edges())).rows
                form, autos = oracle.canonical_form(rows)
                assert form == reference_canonical_rows(rows), (d, n, seed)
                assert all(_maps_rows_onto_themselves(form, gamma) for gamma in autos)

    @pytest.mark.parametrize("h1, h2, n_max", [("k3", "c5", 9), ("c5", "c5", 9)])
    def test_colorings_of_the_ramsey_search(self, h1, h2, n_max, monkeypatch):
        # every red graph whose form the search takes
        met = []
        form_of = oracle.canonical_form

        def recording(rows, cells=None):
            met.append((tuple(rows), cells))
            return form_of(rows, cells)

        monkeypatch.setattr(oracle, "canonical_form", recording)
        oracle.ramsey_number_exact(load_pattern(h1), load_pattern(h2), n_max)
        monkeypatch.undo()
        assert len(met) > 80
        for rows, cells in met:
            form, autos = oracle.canonical_form(rows, cells)
            assert form == reference_canonical_rows(rows, cells)
            assert all(_maps_rows_onto_themselves(form, gamma) for gamma in autos)

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(8), st.randoms(use_true_random=False))
    def test_with_cells(self, g, rnd):
        # an ordered partition of the vertices, each cell in ascending order
        verts = list(range(g.t))
        rnd.shuffle(verts)
        cut = sorted(rnd.sample(range(1, g.t), rnd.randrange(g.t))) if g.t > 1 else []
        cells = [tuple(sorted(verts[a:b])) for a, b in zip([0, *cut], [*cut, g.t])]
        form, autos = oracle.canonical_form(g.rows, cells)
        assert form == reference_canonical_rows(g.rows, cells)
        sizes = [len(c) for c in cells]
        starts = [sum(sizes[:i]) for i in range(len(cells))]
        for gamma in autos:
            assert _maps_rows_onto_themselves(form, gamma)
            # the form numbers the cells' vertices in cell order
            assert all(starts[i] <= gamma[v] < starts[i] + sizes[i]
                       for i in range(len(cells))
                       for v in range(starts[i], starts[i] + sizes[i]))

    def test_petersen_group_is_generated(self):
        # |Aut(Petersen)| = 120: the automorphisms found generate all of it
        form, autos = oracle.canonical_form(
            Graph.from_edges(10, list(nx.petersen_graph().edges())).rows)
        group, todo = {tuple(range(10))}, [tuple(range(10))]
        while todo:
            g = todo.pop()
            for gamma in autos:
                h = tuple(gamma[g[v]] for v in range(10))
                if h not in group:
                    group.add(h)
                    todo.append(h)
        assert len(group) == 120

    def test_least_in_orbit(self):
        swap = [1, 0, 2]  # 0 <-> 1
        assert oracle._least_in_orbit(0b001, [swap])
        assert not oracle._least_in_orbit(0b010, [swap])
        assert oracle._least_in_orbit(0b011, [swap])
        rotate = [1, 2, 3, 0]
        assert oracle._least_in_orbit(0b0011, [rotate])
        assert not oracle._least_in_orbit(0b1001, [rotate])
        assert not oracle._least_in_orbit(0b0110, [rotate])
        assert oracle._least_in_orbit(0b0101, [rotate])
        assert oracle._least_in_orbit(0b0110, [])


def _same_result(h1: Graph, h2: Graph, n_max: int, guard: int = oracle.DEFAULT_NMAX_GUARD):
    cert = oracle.ramsey_number_exact(h1, h2, n_max, guard=guard)
    ref = reference_ramsey_number_exact(h1, h2, n_max, guard=guard)
    got = (cert.kind, cert.n, cert.witness_n, cert.classes,
           cert.witness.red_rows if cert.witness else None)
    want = (ref.kind, ref.n, ref.witness_n, ref.classes,
            ref.witness.red_rows if ref.witness else None)
    assert got == want, (h1, h2, n_max)
    assert cert.verify()


# the oracle ramsey ops of the exact_oracle benchmark workload
ORACLE_ANCHORS = (("k3", "k3", 8), ("c4", "c4", 8), ("k3", "c4", 8), ("k3", "c5", 9),
                  ("c5", "c5", 9), ("k3", "k4", 8))


class TestRamseyAgainstReference:
    """Vertex-by-vertex neighbourhoods and the orbit test against the full
    enumeration they replaced: the same kind, n, witness and class counts."""

    @pytest.mark.parametrize("h1", _small_patterns(), ids=lambda g: f"t{g.t}r{g.rows}")
    def test_small_patterns(self, h1):
        for h2 in _small_patterns():
            _same_result(h1, h2, 7)

    @pytest.mark.parametrize("h1, h2, n_max", ORACLE_ANCHORS)
    def test_benchmark_anchors(self, h1, h2, n_max):
        _same_result(load_pattern(h1), load_pattern(h2), n_max)

    def test_k3_k4_at_10(self):
        _same_result(Graph.complete(3), Graph.complete(4), 10)

    def test_pattern_on_no_vertices(self):
        # Every K_1 holds it, so the value is 1 in either order, at any n_max.
        for n_max in (1, 5):
            _same_result(Graph.empty(0), Graph.complete(3), n_max)
            _same_result(Graph.complete(3), Graph.empty(0), n_max)

    def test_k3_c6_at_11(self):
        _same_result(Graph.complete(3), named_graph("c", 6), 11, guard=11)

    @pytest.mark.parametrize("h1, h2, n_max", [("k3", "k3", 6), ("c4", "c4", 6),
                                               ("k3", "c4", 7), ("p3", "k4", 8),
                                               ("c5", "c5", 8)])
    def test_children_are_least_in_their_orbit(self, h1, h2, n_max, monkeypatch):
        # Every child whose form is taken has the least red neighbourhood of
        # its orbit under the whole automorphism group of its parent.
        children = []
        form_of = oracle.canonical_form

        def recording(rows, cells=None):
            if cells is None:
                children.append(tuple(rows))
            return form_of(rows, cells)

        monkeypatch.setattr(oracle, "canonical_form", recording)
        oracle.ramsey_number_exact(load_pattern(h1), load_pattern(h2), n_max)
        assert children
        for rows in children:
            k = len(rows) - 1
            parent = _networkx(Graph(k, tuple(r & ~(1 << k) for r in rows[:k])))
            s = rows[k]
            for gamma in nx.algorithms.isomorphism.GraphMatcher(parent, parent).isomorphisms_iter():
                assert sum(1 << gamma[v] for v in range(k) if s >> v & 1) >= s, (rows, gamma)


class TestRamseyAgainstEdgeSearch:
    @pytest.mark.parametrize("h1", _small_patterns(), ids=lambda g: f"t{g.t}r{g.rows}")
    def test_same_kind_and_n(self, h1):
        for h2 in _small_patterns():
            cert = oracle.ramsey_number_exact(h1, h2, n_max=7)
            assert (cert.kind, cert.n) == ref_ramsey_number(h1, h2, 7), (h1, h2)
            assert cert.verify()


class TestRamseyAnchors:
    @pytest.mark.parametrize("h1, h2, value", [
        ("k3", "k3", R_K3_K3), ("c4", "c4", R_C4_C4), ("c4", "k3", R_C4_K3),
        ("k3", "c4", R_C4_K3), ("c5", "c5", R_C5_C5),
    ])
    def test_ds1_value(self, h1, h2, value):
        g1, g2 = (named_graph(s[0], int(s[1:])) for s in (h1, h2))
        cert = oracle.ramsey_number_exact(g1, g2, n_max=value)
        assert (cert.kind, cert.n, cert.witness_n) == ("upper", value, value - 1)
        assert cert.verify() and len(cert.classes) == value - 1

    def test_k3_k4_in_under_a_second_with_class_counts(self):
        start = time.perf_counter()
        cert = oracle.ramsey_number_exact(Graph.complete(3), Graph.complete(4), n_max=10)
        elapsed = time.perf_counter() - start
        assert (cert.kind, cert.n, cert.witness_n) == ("upper", R_K3_K4, R_K3_K4 - 1)
        assert cert.classes == K3_K4_CLASSES
        assert cert.verify()
        assert elapsed < 1.0

    def test_lower_certificate_carries_no_classes(self):
        cert = oracle.ramsey_number_exact(Graph.complete(3), Graph.complete(4), n_max=8)
        assert (cert.kind, cert.n, cert.witness_n, cert.classes) == ("lower", 8, 8, None)
        assert cert.verify()


class TestLowerBoundRandom:
    def test_k3_at_5_found(self):
        w = oracle.lower_bound_certificate_random(Graph.complete(3), 5, 500, seed=0)
        assert w is not None
        assert oracle.find_mono_subgraph_exact(w, Graph.complete(3), RED) is None
        assert oracle.find_mono_subgraph_exact(w, Graph.complete(3), BLUE) is None

    def test_k2_never_found(self):
        assert oracle.lower_bound_certificate_random(Graph.complete(2), 4, 50, 0) is None

    def test_deterministic(self):
        a = oracle.lower_bound_certificate_random(Graph.complete(3), 5, 500, seed=3)
        b = oracle.lower_bound_certificate_random(Graph.complete(3), 5, 500, seed=3)
        assert a.red_rows == b.red_rows

    @pytest.mark.parametrize("tries", [0, -5])
    def test_tries_below_one_rejected(self, tries):
        with pytest.raises(ValueError, match="tries must be at least 1"):
            oracle.lower_bound_certificate_random(Graph.complete(3), 5, tries, 0)

    @pytest.mark.parametrize("seed, tries", [(-1, 1), (SEED_LIMIT, 1), (SEED_LIMIT - 9, 10)])
    def test_every_seed_checked_before_any_draw(self, monkeypatch, seed, tries):
        # at n = 2 every coloring avoids K3, so the first try would be a witness
        keyed = []
        monkeypatch.setattr(randomlab, "_rekey", lambda bitgen, s: keyed.append(s))
        with pytest.raises(randomlab.SeedError):
            oracle.lower_bound_certificate_random(Graph.complete(3), 2, tries, seed)
        assert keyed == []

    def test_last_philox_key_accepted(self):
        w = oracle.lower_bound_certificate_random(Graph.complete(3), 2, 10, SEED_LIMIT - 10)
        assert w is not None and w.red_rows == reference_certify_lower(
            Graph.complete(3), 2, 10, SEED_LIMIT - 10).red_rows

    def test_memory_at_n_2000(self):
        # every coloring of K_2000 has a red triangle: three colorings drawn
        tracemalloc.start()
        try:
            assert oracle.lower_bound_certificate_random(Graph.complete(3), 2000, 3, 1) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * 2 ** 20


# Seeds at which certify-lower for K3 at n = 5 starts so that its first
# avoiding coloring is try i, for i on both sides of each edge of the blocks
# of 1, 2, 4, ... seeds that colorings are drawn in: the seed, the avoiding
# seed it reaches, and i.
BLOCK_EDGE_STARTS = [(59 - i, 59, i) for i in (0, 1, 2, 3, 6, 7, 14, 15, 30, 31)] + \
    [(294 - i, 294, i) for i in (62, 63, 126, 127)] + [(775 - i, 775, i) for i in (254, 255)]


def _rows(coloring: Optional[Coloring]):
    return None if coloring is None else coloring.red_rows


class TestCertifyLowerMatchesPerTryLoop:
    @pytest.mark.parametrize("name, value", [("k2", 2), ("k3", 6), ("c4", 6), ("c5", 9),
                                             ("p3", 3), ("k4", 18)])
    def test_same_witness_up_to_the_ramsey_number(self, name, value):
        pattern = load_pattern(name)
        for n in range(pattern.t - 1, value + 1):
            for seed in (0, 97, 2 ** 64 - 5):
                got = oracle.lower_bound_certificate_random(pattern, n, 40, seed)
                assert _rows(got) == _rows(reference_certify_lower(pattern, n, 40, seed)), \
                    (name, n, seed)

    @pytest.mark.parametrize("start, hit, i", BLOCK_EDGE_STARTS)
    def test_witness_on_each_side_of_a_block_edge(self, monkeypatch, start, hit, i):
        k3 = Graph.complete(3)
        want = reference_certify_lower(k3, 5, i + 1, start)
        assert want is not None and want.red_rows == reference_certify_lower(k3, 5, 1, hit).red_rows
        keyed = []
        rekey = randomlab._rekey

        def counted(bitgen, seed):
            keyed.append(seed)
            rekey(bitgen, seed)

        monkeypatch.setattr(randomlab, "_rekey", counted)
        for tries in (i + 1, 300):
            keyed.clear()
            assert _rows(oracle.lower_bound_certificate_random(k3, 5, tries, start)) == want.red_rows
            assert len(keyed) <= 2 * i + 1  # blocks double: O(i) colorings drawn
        if i:  # one try fewer stops just before the witness
            assert reference_certify_lower(k3, 5, i, start) is None
            assert oracle.lower_bound_certificate_random(k3, 5, i, start) is None


def _pattern_id(g: Graph) -> str:
    return f"t{g.t}:" + ",".join(f"{u}{v}" for u, v in g.edges())


# Patterns of 7 vertices, whose 5040 labellings fit COPY_TABLE_WORDS
SEVEN = [load_pattern(name) for name in ("c7", "p7", "k7", "s6")]


class TestCopyTable:
    """The copy table decides each try as the per-try loop does, and it is
    built on every call whose table fits ``COPY_TABLE_WORDS``."""

    @staticmethod
    def _check(monkeypatch, pattern: Graph, ns, tries: int = 40,
               seeds=(0, 97, 2 ** 64 - 5, SEED_LIMIT - 40)) -> list[bool]:
        """Whether the table fits at each n of ``ns``, after checking that
        each call there builds it iff it fits and gives the reference's
        result."""
        table, built, fits = oracle._copy_table, [], []

        def spied(h, n):
            got = table(h, n)
            built.append(got is not None)
            return got

        monkeypatch.setattr(oracle, "_copy_table", spied)
        for n in ns:
            fits.append(table(pattern, n) is not None)
            for seed in seeds:
                built.clear()
                got = oracle.lower_bound_certificate_random(pattern, n, tries, seed)
                assert built == fits[-1:], (n, seed)
                assert _rows(got) == _rows(reference_certify_lower(pattern, n, tries, seed)), \
                    (n, seed)
        return fits

    @pytest.mark.parametrize("pattern", [g for g in _small_patterns(5) if g.m] + SEVEN,
                             ids=_pattern_id)
    def test_same_witness_up_to_the_table_limit_and_one_past(self, monkeypatch, pattern):
        first = pattern.t - 1
        past = next(n for n in itertools.count(first) if oracle._copy_table(pattern, n) is None)
        assert past > pattern.t  # at n = t the copies are at most t! <= 5040 words
        fits = self._check(monkeypatch, pattern, range(first, past + 1))
        assert fits == [True] * (past - first) + [False]

    @pytest.mark.parametrize("name", ["e1", "e2", "e3"])
    def test_edgeless_pattern_through_the_table(self, monkeypatch, name):
        # every copy is the empty mask, and below t vertices there is none
        pattern = load_pattern(name)
        past = next(n for n in itertools.count(pattern.t)
                    if oracle._copy_table(pattern, n) is None)
        ns = sorted({*range(pattern.t - 1, pattern.t + 3), past - 1, past})
        assert self._check(monkeypatch, pattern, ns) == [n < past for n in ns]

    def test_pattern_on_no_vertices(self, monkeypatch):
        # its one copy, the empty mask, is in every coloring
        assert self._check(monkeypatch, Graph.empty(0), range(4)) == [True] * 4

    @pytest.mark.parametrize("name, value", [("k3", 6), ("c4", 6), ("c5", 9)])
    def test_one_try_builds_the_table(self, monkeypatch, name, value):
        fits = self._check(monkeypatch, load_pattern(name), (value - 1, value), tries=1,
                           seeds=range(24))
        assert fits == [True, True]

    @pytest.mark.parametrize("name, ns", [("k8", (7, 8, 10)), ("c5", (12,))])
    def test_past_the_budget_no_table(self, monkeypatch, name, ns):
        # K8 has 8! = 40,320 labellings; C5 at n = 12 has 19,008 words of copies
        assert self._check(monkeypatch, load_pattern(name), ns) == [False] * len(ns)

    @pytest.mark.parametrize("name, n", [("k3", 6), ("c4", 6), ("c5", 9)])
    def test_each_copy_once(self, name, n):
        # t! / |Aut H| labelled copies on each t-subset, every mask distinct
        pattern = load_pattern(name)
        table = oracle._copy_table(pattern, n)
        autos = sum(1 for p in itertools.permutations(range(pattern.t))
                    if all(pattern.rows[p[u]] >> p[v] & 1 for u, v in pattern.edges()))
        copies = math.comb(n, pattern.t) * math.factorial(pattern.t) // autos
        assert table.shape == (1, copies)
        assert len(set(table[0].tolist())) == copies
        assert all(int(m).bit_count() == pattern.m for m in table[0])

    def test_dropped_copies_fail_the_recheck(self, monkeypatch):
        # every coloring of K_6 has a monochromatic triangle: with one copy
        # left in the table, some try is left undecided and passed off
        table = oracle._copy_table
        monkeypatch.setattr(oracle, "_copy_table", lambda h, n: table(h, n)[:, :1])
        with pytest.raises(AssertionError, match="unsound certify-lower witness"):
            oracle.lower_bound_certificate_random(Graph.complete(3), 6, 300, 0)


@st.composite
def embed_cases(draw):
    """A pattern on 1-7 vertices, a host on at most 16 and 0-2 preassigned
    pattern vertices with their host images."""
    pattern = draw(small_graphs(7))
    n = draw(st.integers(0, 16))
    rnd = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    host = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rnd.random() < p])
    k = draw(st.integers(0, min(2, pattern.t)))
    pre = draw(st.lists(st.integers(0, pattern.t - 1), min_size=k, max_size=k, unique=True))
    images = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=k, max_size=k))
    return pattern, host, pre, images


class TestPlannedSearchMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(embed_cases())
    def test_same_image_or_none(self, case):
        pattern, host, pre, images = case
        got = _embed_backtrack(_embed_plan(pattern, pre), host.rows, host.t, images)
        assert got == reference_embed_backtrack(pattern, host.rows, host.t,
                                                dict(zip(pre, images)))

    def test_plan_order_and_back_positions(self):
        # P4 0-1-2-3 with vertex 3 preassigned: 3, then 1 and 2 (degree 2), then 0
        plan = _embed_plan(named_graph("p", 4), (3,))
        assert plan.order == (3, 1, 2, 0)
        assert plan.back == ((), (), (0, 1), (1,))


class TestBidenseBruteforce:
    def test_complete_certified(self):
        assert check_bidense_bruteforce(Graph.complete(5), 0.2, 1) is None

    def test_empty_witness(self):
        w = check_bidense_bruteforce(Graph.empty(6), 1 / 3, 0.1)
        assert w is not None and w.density == 0

    def test_size_guard(self):
        with pytest.raises(oracle.OracleRefusal):
            check_bidense_bruteforce(Graph.complete(13), 0.2, 0.5)
