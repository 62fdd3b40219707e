import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import graphs, randomlab
from ramseykit.graphs import Graph, mask_of, serialize_coloring, serialize_graph
from ramseykit.patterns import named_graph
from ramseykit.randomlab import SEED_LIMIT

from references import (
    reference_red_rows,
    reference_sample_red_rows,
    reference_verify_degree_spread,
)
from test_graphs import row_blocks_of

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Frozen on first run against generator philox-4x64-v1; a change here means
# the sampler's output stream changed and every pinned experiment breaks.
GNP_100_03_42_SHA256 = "b23a47f00946b11e9f94476b6c5ebba3069454f7325b4077f913e96ec34c49c7"
# Samples of several 256 x 256 tiles, frozen before the sampler mirrored its
# pairs tile by tile: sha256 of serialize_graph(sample_gnp(n, 0.2, 7)) and of
# serialize_coloring(sample_coloring(n, 0.5, 3), compact=True).
MULTI_TILE_SHA256 = {
    600: ("0d3928bad038d40ba6d682c5df112ce9611935ece5051a40135af577c34e9132",
          "fafcf35584bde5d256eec06be38972d4a7642aa8ad0fef8b1bfb58b94a0fb329"),
    1100: ("c7ec6bbbda299d7a21ecaea550d5fa3f4b70a594f53c0271a69ef5a24706259a",
           "4066f8827f7d90c015e8862e695998602ce9ef286fd03712a6e69a79c3c27af7"),
}


class TestChernoff:
    def test_theta_zero_is_one(self):
        assert randomlab.chernoff_tail(100, 0.5, 0) == 1.0

    def test_anchor_e_minus_two(self):
        assert randomlab.chernoff_tail(400, 0.5, 0.2) == pytest.approx(math.exp(-2))

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            randomlab.chernoff_tail(100, 0.5, 1.5)
        with pytest.raises(ValueError):
            randomlab.chernoff_tail(100, 0.5, -0.1)

    def test_empirical_below_bound(self):
        bound = randomlab.chernoff_tail(400, 0.5, 0.2)
        freq = randomlab.empirical_binomial_tail(400, 0.5, 0.2, 10 ** 5, seed=0)
        assert freq <= bound

    @pytest.mark.parametrize("n, p, samples, seed", [(400, 0.5, 10 ** 5, 0), (40, 0.1, 7, 3),
                                                      (2 ** 62, 0.5, 1000, 5)])
    def test_empirical_is_one_draw(self, n, p, samples, seed):
        draws = np.random.Generator(np.random.Philox(key=seed)).binomial(n, p, size=samples)
        want = float(np.mean(draws >= 1.2 * p * n))
        assert randomlab.empirical_binomial_tail(n, p, 0.2, samples, seed) == want

    @pytest.mark.parametrize("block", [1, 7, 1000, 1024])
    def test_empirical_blocks_draw_what_one_draw_does(self, monkeypatch, block):
        want = randomlab.empirical_binomial_tail(100, 0.3, 0.3, 5000, seed=4)
        monkeypatch.setattr(randomlab, "_DRAW_BLOCK", block)
        assert randomlab.empirical_binomial_tail(100, 0.3, 0.3, 5000, seed=4) == want

    @pytest.mark.parametrize("samples", [0, -1, randomlab.EMPIRICAL_LIMIT + 1])
    def test_empirical_samples_out_of_range(self, samples):
        with pytest.raises(ValueError, match="samples must be in"):
            randomlab.empirical_binomial_tail(40, 0.5, 0.2, samples)


class TestSamplers:
    def test_rho_zero_empty(self):
        assert randomlab.sample_gnp(8, 0.0, 1).m == 0

    def test_rho_one_complete(self):
        g = randomlab.sample_gnp(8, 1.0, 1)
        assert g.m == 28

    def test_edge_count_in_binomial_range(self):
        g = randomlab.sample_gnp(100, 0.3, 42)
        mean = 0.3 * 4950
        sd = math.sqrt(4950 * 0.3 * 0.7)
        assert abs(g.m - mean) <= 4 * sd

    def test_snapshot_pinned(self):
        g = randomlab.sample_gnp(100, 0.3, 42)
        digest = hashlib.sha256(serialize_graph(g).encode()).hexdigest()
        assert digest == GNP_100_03_42_SHA256

    @pytest.mark.parametrize("n", sorted(MULTI_TILE_SHA256))
    def test_multi_tile_snapshots_pinned(self, n):
        gnp = serialize_graph(randomlab.sample_gnp(n, 0.2, 7))
        coloring = serialize_coloring(randomlab.sample_coloring(n, 0.5, 3), compact=True)
        assert (hashlib.sha256(gnp.encode()).hexdigest(),
                hashlib.sha256(coloring.encode()).hexdigest()) == MULTI_TILE_SHA256[n]

    def test_seeded_determinism(self):
        assert randomlab.sample_gnp(30, 0.4, 7).rows == \
            randomlab.sample_gnp(30, 0.4, 7).rows
        assert randomlab.sample_coloring(20, 0.5, 9).red_rows == \
            randomlab.sample_coloring(20, 0.5, 9).red_rows

    def test_different_seeds_differ(self):
        assert randomlab.sample_gnp(30, 0.5, 1).rows != \
            randomlab.sample_gnp(30, 0.5, 2).rows

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_edge_count_regression_alarm(self, seed):
        g = randomlab.sample_gnp(60, 0.25, seed)
        pairs = 60 * 59 // 2
        sd = math.sqrt(pairs * 0.25 * 0.75)
        assert abs(g.m - 0.25 * pairs) <= 5 * sd


class TestSamplerMatchesGenerator:
    """Every sampler draws what ``np.random.Generator(np.random.Philox(key=s))
    .random(C(n, 2)) < p`` draws, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 16, 17, 64, 65, 200])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64, SEED_LIMIT - 1])
    @pytest.mark.parametrize("p", [0, 0.3, 0.5, 1])
    def test_coloring_and_gnp(self, n, seed, p):
        want = reference_red_rows(n, p, seed)
        assert randomlab.sample_coloring(n, p, seed).red_rows == want
        assert randomlab.sample_gnp(n, p, seed).rows == want

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64, SEED_LIMIT - 1])
    def test_rekey_gives_a_fresh_generator(self, seed):
        """After any use, a re-keyed bit generator has the state and the
        stream of a fresh ``Philox(key=seed)``: raw words, a buffered uint32
        draw and floats."""
        bitgen = np.random.Philox(5)
        np.random.Generator(bitgen).integers(0, 2 ** 32, 3, np.uint32)  # leaves a half word
        bitgen.random_raw(7)
        randomlab._rekey(bitgen, seed)
        fresh = np.random.Philox(key=seed)
        got, want = bitgen.state, fresh.state
        for part in ("counter", "key"):
            assert got["state"][part].tolist() == want["state"][part].tolist()
        assert got["buffer"].tolist() == want["buffer"].tolist()
        assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
            [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
        assert (bitgen.random_raw(9) == fresh.random_raw(9)).all()
        a, b = np.random.Generator(bitgen), np.random.Generator(fresh)
        assert (a.integers(0, 2 ** 32, 5, np.uint32) == b.integers(0, 2 ** 32, 5, np.uint32)).all()
        assert (a.random(5) == b.random(5)).all()

    @pytest.mark.parametrize("n, seeds", [
        (9, range(5, 40)),  # blocks of 1, 2, 4, 8, 16 and 4 seeds
        (1000, range(3, 8)),  # drawn whole, four matrices fill a block: blocks of 1, 2 and 2
        (1200, range(3, 8)),  # each seed alone, in two bands of 873 and 327 rows
        (2100, range(0, 2)),  # each seed alone, in four bands of 499 rows and one of 104
        (3000, range(7, 8)),  # eight bands of 349 rows and one of 208
    ])
    def test_blocks(self, n, seeds):
        got = list(randomlab.sample_red_rows(n, 0.3, seeds))
        assert got == [reference_red_rows(n, 0.3, s) for s in seeds]

    @pytest.mark.parametrize("n", [64, 100, 130])
    def test_least_band_is_a_32nd(self, monkeypatch, n):
        """Past 5792 vertices a band of 1 MB is under n / 32 rows, and the
        band is n / 32 rows: here _BAND_ENTRIES is shrunk to show it."""
        monkeypatch.setattr(graphs, "_BAND_ENTRIES", 64)
        assert randomlab._band_rows(n) == -(-n // 32)
        got = list(randomlab.sample_red_rows(n, 0.3, range(4, 6)))
        assert got == [reference_red_rows(n, 0.3, s) for s in range(4, 6)]

    @pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
    def test_seed_outside_philox_keys(self, seed):
        with pytest.raises(randomlab.SeedError, match="seeds must lie in"):
            randomlab.sample_coloring(5, 0.5, seed)
        with pytest.raises(randomlab.SeedError):
            randomlab.sample_gnp(5, 0.5, seed)

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            randomlab.sample_coloring(-2, 0.5, 0)


# p at the ends of the raw-word cut: no word, the words of draw 0.0 alone,
# two middles, every word but those of the largest draw, and every word
CUT_PS = [0, 2 ** -53, 0.25, 0.5, 1 - 2 ** -53, 1]


class _Words:
    """A stand-in bit generator whose raw words are the given ones."""

    def __init__(self, words):
        self.words = np.array(words, np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


class TestRawWordSampler:
    """The raw-word sampler against the float-draw one it replaced."""

    @pytest.mark.parametrize("n", [*range(71), 2049])
    @pytest.mark.parametrize("p", CUT_PS)
    def test_matches_float_draws(self, n, p):
        for seed in (0, SEED_LIMIT - 40):
            seeds = range(seed, seed + 1)
            assert list(randomlab.sample_red_rows(n, p, seeds)) == \
                list(reference_sample_red_rows(n, p, seeds))

    @pytest.mark.parametrize("p", CUT_PS)
    def test_block_of_300_seeds(self, p):
        assert list(randomlab.sample_red_rows(6, p, range(300))) == \
            list(reference_sample_red_rows(6, p, range(300)))

    @pytest.mark.parametrize("seed", [0, 7, SEED_LIMIT - 1])
    def test_draw_is_the_raw_word_shifted(self, seed):
        """The premise of the cut: ``Generator.random()`` is (w >> 11) * 2**-53
        of the raw words w of the same stream."""
        words = np.random.Philox(key=seed).random_raw(1000)
        draws = np.random.Generator(np.random.Philox(key=seed)).random(1000)
        assert (draws == (words >> np.uint64(11)) * 2.0 ** -53).all()

    @pytest.mark.parametrize("p", [*CUT_PS, 0.3, 1 / 3, 0.1 + 2 ** -50, 2 ** -60])
    def test_cut_is_draw_below_p(self, p):
        """Words on both sides of the cut and at both ends, coloured as
        their draws compare with p; more words than one chunk."""
        cut = randomlab._red_cut(p)
        near = [cut + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)]
        words = [w for w in near + [0, 1, 2047, 2048, 2 ** 64 - 2048, 2 ** 64 - 1]
                 if 0 <= w < 2 ** 64]
        words = words * (randomlab._WORD_CHUNK // len(words) + 2)
        red = np.empty(len(words), bool)
        randomlab._draw_red(_Words(words), cut, red)
        draws = (np.array(words, np.uint64) >> np.uint64(11)) * 2.0 ** -53
        assert (red == (draws < p)).all()

    def test_numpy_random_loaded_on_first_draw(self):
        """Importing the package leaves ``numpy.random`` unloaded; numpy 2
        loads it on first use, and that costs import time."""
        code = ("import sys, ramseykit.cli, ramseykit.randomlab as r\n"
                "assert r._bitgen is None\n"
                "print('numpy.random' in sys.modules)\n"
                "r.sample_coloring(5, 0.5, 1)\n"
                "print(r._bitgen is not None)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), check=True)
        assert proc.stdout.split() == ["False", "True"]

    def test_sampling_peak_memory(self):
        randomlab.sample_gnp(64, 0.2, 1)  # the bit generator exists
        tracemalloc.start()
        try:
            randomlab.sample_gnp(2048, 0.2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20  # 5.1 MB measured; 11.6 MB drawn as one matrix

    def test_sampling_peak_memory_past_the_validator_tile(self):
        """At 4096 vertices the validator used to set the peak: it unpacked a
        4096 x 4096 bool matrix."""
        randomlab.sample_gnp(64, 0.2, 1)  # the bit generator exists
        tracemalloc.start()
        try:
            randomlab.sample_gnp(4096, 0.2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20  # 5.3 MB measured; 20.3 MB with the bool matrix


def recheck_partition(g: Graph, cert) -> bool:
    """Independent recomputation of both certificate inequalities."""
    t = g.t
    v1, v2 = sorted(cert.v1), sorted(cert.v2)
    assert set(v1) | set(v2) == set(range(t))
    assert not set(v1) & set(v2)
    size_dev = max(abs(len(v1) - t / 2), abs(len(v2) - t / 2))
    m1, m2 = mask_of(v1), mask_of(v2)
    max_cross = max(max((g.rows[v] & m1).bit_count() for v in range(t)),
                    max((g.rows[v] & m2).bit_count() for v in range(t)))
    delta_t = g.max_degree
    return (size_dev <= 2 * math.sqrt(t)
            and max_cross <= delta_t / 2 + 2 * math.sqrt(delta_t * math.log2(t)))


class TestJudiciousPartition:
    def test_empty_graph_fast_accept(self):
        cert = randomlab.judicious_partition(Graph.empty(64), seed=0)
        assert cert.accepted
        assert cert.tries_used <= 2

    @pytest.mark.parametrize("max_tries", [-1, -64])
    def test_negative_max_tries_refused(self, max_tries):
        with pytest.raises(ValueError, match="max_tries must be nonnegative"):
            randomlab.judicious_partition(Graph.empty(8), max_tries=max_tries)

    def test_zero_max_tries(self):
        cert = randomlab.judicious_partition(Graph.empty(8), max_tries=0)
        assert (cert.tries_used, cert.v1, cert.accepted) == (0, frozenset(), False)

    def test_certificate_recheck(self):
        g = randomlab.sample_gnp(256, 0.2, 3)
        cert = randomlab.judicious_partition(g, seed=3)
        assert cert.accepted
        assert recheck_partition(g, cert)

    def test_best_attempt_on_failure(self):
        # a star forces the center's cross degree high; tiny bounds at t=4
        # make acceptance unlikely, exercising the best-attempt path
        g = named_graph("s", 3)
        cert = randomlab.judicious_partition(g, max_tries=2, seed=1)
        assert cert.tries_used == 2 or cert.accepted
        assert cert.v1 | cert.v2 == set(range(4))

    def test_deterministic(self):
        g = randomlab.sample_gnp(128, 0.3, 5)
        a = randomlab.judicious_partition(g, seed=11)
        b = randomlab.judicious_partition(g, seed=11)
        assert a.v1 == b.v1 and a.tries_used == b.tries_used

    def test_delta_condition_flag(self):
        sparse = Graph.empty(64)
        assert not randomlab.judicious_partition(sparse, seed=0).delta_condition_met
        dense = Graph.complete(600)
        assert randomlab.judicious_partition(dense, seed=0).delta_condition_met


class TestDegreeSpread:
    def test_empty_graph_zero(self):
        rep = randomlab.verify_degree_spread(Graph.empty(12), 0.25, 1.0, 0.25,
                                             mode="exhaustive", sample_budget=10 ** 6)
        assert rep.worst_count == 0
        assert rep.within_threshold

    def test_complete_graph_everyone_exceeds(self):
        # (1+eps) rho delta t small: every vertex exceeds the cutoff
        rep = randomlab.verify_degree_spread(Graph.complete(12), 0.25, 0.5, 0.1,
                                             mode="exhaustive", sample_budget=10 ** 6)
        assert rep.worst_count == 12

    def test_vacuity_flag(self):
        g = randomlab.sample_gnp(64, 0.25, 0)
        rep = randomlab.verify_degree_spread(g, 0.25, 1.0, 0.25, mode="sampled",
                                             sample_budget=100, seed=0)
        # threshold = 12*ln(4e)/0.25 ~ 115 >= t=64
        assert rep.vacuous
        assert rep.threshold == pytest.approx(12 * math.log(math.e / 0.25) / 0.25)

    def test_exhaustive_budget_gate(self):
        with pytest.raises(ValueError):
            randomlab.verify_degree_spread(Graph.empty(40), 0.5, 1.0, 0.25,
                                           mode="exhaustive", sample_budget=100)

    def test_sampled_deterministic(self):
        g = randomlab.sample_gnp(40, 0.3, 2)
        a = randomlab.verify_degree_spread(g, 0.2, 0.5, 0.3, sample_budget=200, seed=5)
        b = randomlab.verify_degree_spread(g, 0.2, 0.5, 0.3, sample_budget=200, seed=5)
        assert a.worst_count == b.worst_count and a.worst_set == b.worst_set


class TestDegreeSpreadMatchesReference:
    """``verify_degree_spread`` reports what the one-``bit_count``-per-vertex
    version reported, in both modes, on graphs of up to two tiles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.sampled_from([0.0, 0.1, 0.3, 1.0]), st.integers(0, 2 ** 16),
           st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]), st.sampled_from([0.1, 0.5, 2.0]),
           st.sampled_from([0.1, 0.3, 1.0]), st.integers(1, 20), st.integers(0, 2 ** 16))
    def test_sampled(self, t, p, seed, delta, eps, rho, budget, spread_seed):
        g = randomlab.sample_gnp(t, p, seed)
        args = (g, delta, eps, rho, "sampled", budget, spread_seed)
        assert randomlab.verify_degree_spread(*args) == reference_verify_degree_spread(*args)

    @pytest.mark.parametrize("entries", [1, 100, 1000])
    def test_sets_unpacked_in_blocks_of_rows(self, entries):
        """A set's rows unpacked one row, or a few rows, at a time."""
        g = randomlab.sample_gnp(150, 0.3, 4)
        for delta in (0.05, 0.5, 1.0):
            args = (g, delta, 0.5, 0.3, "sampled", 20, 9)
            with row_blocks_of(entries):
                got = randomlab.verify_degree_spread(*args)
            assert got == reference_verify_degree_spread(*args)

    @pytest.mark.parametrize("mode, t, budget", [("sampled", 32, 40), ("exhaustive", 8, 28)])
    def test_degree_at_the_cutoff_is_not_over(self, mode, t, budget):
        # (1 + eps) rho delta t is exactly 4 (t = 32) or 2 (t = 8) here, and
        # vertices with that many neighbours in V are common
        g = randomlab.sample_gnp(t, 0.5, 1)
        args = (g, 0.25, 1.0, 0.25 if t == 32 else 0.5, mode, budget, 2)
        report = randomlab.verify_degree_spread(*args)
        assert report == reference_verify_degree_spread(*args)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.sampled_from([0.0, 0.3, 0.6, 1.0]), st.integers(0, 2 ** 16),
           st.sampled_from([0.1, 0.2, 0.3, 1.0]), st.sampled_from([0.1, 0.5]),
           st.sampled_from([0.2, 0.5]), st.sampled_from([10, 10 ** 4]))
    def test_exhaustive(self, t, p, seed, delta, eps, rho, budget):
        g = randomlab.sample_gnp(t, p, seed)
        args = (g, delta, eps, rho, "exhaustive", budget)

        def outcome(check):
            try:
                return check(*args)
            except ValueError as e:
                return str(e)

        assert outcome(randomlab.verify_degree_spread) == outcome(reference_verify_degree_spread)


class TestMaxDegreeTail:
    def test_complete_passes(self):
        rep = randomlab.max_degree_tail_check(Graph.complete(50), 1.0)
        assert rep.passed

    def test_empty_passes(self):
        assert randomlab.max_degree_tail_check(Graph.empty(50), 0.0001).passed

    def test_gnp_pass_rate(self):
        passes = sum(
            randomlab.max_degree_tail_check(randomlab.sample_gnp(256, 0.1, s), 0.1).passed
            for s in range(50))
        assert passes >= 49
