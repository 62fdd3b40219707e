"""Random graph/coloring samplers and the probabilistic toolbox.

All randomness flows through a counter-based Philox generator keyed by the
caller's seed, so identical seeds reproduce identical objects across runs
and platforms; ``GENERATOR_VERSION`` is embedded in serialized reports so
snapshots survive refactors.

Colorings and G(t, rho) come from one sampler, ``sample_red_rows``.  It
draws from one Philox bit generator per process and, for each seed, resets
its key to the seed and its counter to zero.  Philox is counter-based, so
that state alone fixes the stream: it is the stream of a freshly built
``Philox(key=seed)``, at about a tenth of the cost of building one.

Unit convention: the Chernoff tail uses the natural exponential (the form
the concentration argument needs); every other logarithm is base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import (
    Coloring,
    Graph,
    _band_rows,
    _packed_rows,
    _pair_bands,
    _pair_bits,
    _symmetric,
    bits_of,
    check_vertex_count,
)

GENERATOR_VERSION = "philox-4x64-v1"


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def chernoff_tail(n: int, p: float, theta: float) -> float:
    """Upper-tail bound exp(-theta^2 p n / 4) for Binomial(n, p) at (1+theta)pn.

    Valid only for theta in [0, 1], where (1+theta)^(1+theta) >= e^(theta+theta^2/4).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    return math.exp(-(theta ** 2) * p * n / 4)


# Philox keys are 128-bit, so seeds lie in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 128
# Entries of the bool matrices of one block of seeds drawn whole (4 MB).  A
# block's pairs are drawn into a bool array of at most _SAMPLE_ENTRIES / 2
# entries.  Only seeds whose matrix fits one band of rows
# (``graphs._band_rows``), those of at most 1024 vertices, are drawn whole;
# a larger seed is drawn alone, a band at a time.
_SAMPLE_ENTRIES = 1 << 22
# Raw words drawn at once: 2**16 words are 512 KB.
_WORD_CHUNK = 1 << 16
_ZEROS = (0, 0, 0, 0)
# The one Philox bit generator of the process, built on the first draw:
# numpy loads ``numpy.random`` only when it is first used.
_bitgen = None


class SeedError(ValueError):
    """A seed that is not a Philox key."""


def _rekey(bitgen: np.random.Philox, seed: int) -> None:
    """Give ``bitgen`` the key ``seed`` and a zero counter and buffer: the
    state of a fresh ``np.random.Philox(key=seed)``.  Philox is counter-based
    (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
    so that state fixes the whole stream.  The words go in as tuples of
    Python ints, which numpy's state setter reads as it reads arrays: 1.2
    against 2.5 us per call with uint64 arrays, and 12 us to build a fresh
    generator (one core of a 2-vCPU x86-64 host)."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _philox() -> np.random.Philox:
    """The process's one Philox bit generator, built on first use."""
    global _bitgen
    if _bitgen is None:
        _bitgen = np.random.Philox(0)
    return _bitgen


def _red_cut(p: float) -> int:
    """The raw words below which a pair is red: ceil(p * 2**53) * 2**11."""
    return math.ceil(p * 2 ** 53) << 11


def _draw_red(bitgen: np.random.Philox, cut: int, red: np.ndarray) -> np.ndarray:
    """Fill the bool array ``red`` with the colours of the next len(red)
    pairs of ``bitgen``'s stream, and return it: a pair is red iff its raw
    word is below ``cut``.  The words are drawn _WORD_CHUNK at a time,
    straight into ``red``."""
    if cut >> 64:  # every word is below 2**64
        red.fill(True)
        return red
    below = np.uint64(cut)
    for lo in range(0, len(red), _WORD_CHUNK):
        part = red[lo:lo + _WORD_CHUNK]
        np.less(bitgen.random_raw(len(part)), below, out=part)
    return red


def _draw_seeds(seeds: range, cut: int, red: np.ndarray) -> None:
    """Fill each row red[k] of a bool matrix with the colours of the first
    pairs of seed seeds[k].  Seeds with few pairs are drawn in groups whose
    words, at most _WORD_CHUNK of them, are compared at once: one comparison
    per seed would cost more than its draw."""
    bitgen, count = _philox(), red.shape[1]
    group = _WORD_CHUNK // max(count, 1)
    if group < 2 or cut >> 64:
        for k, seed in enumerate(seeds):
            _rekey(bitgen, seed)
            _draw_red(bitgen, cut, red[k])
        return
    below = np.uint64(cut)
    for k in range(0, len(seeds), group):
        words = []
        for seed in seeds[k:k + group]:
            _rekey(bitgen, seed)
            words.append(bitgen.random_raw(count))
        np.less(np.concatenate(words), below, out=red[k:k + group].reshape(-1))


def _seed_blocks(n: int, p: float, seeds: range) -> Iterator[range]:
    """The seeds of ``seeds`` in blocks of 1, 2, 4, ... seeds, each block at
    most the seeds whose n x n matrices fit ``_SAMPLE_ENTRIES`` entries, and
    one seed at a time where none fits.  The arguments are checked, every
    seed as a Philox key, before the first block."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    check_vertex_count(n)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if seeds and not (seeds[0] >= 0 and seeds[-1] < SEED_LIMIT):
        raise SeedError(f"seeds must lie in [0, 2**128), got {seeds[0]} to {seeds[-1]}")
    fit = max(1, _SAMPLE_ENTRIES // max(n * n, 1))
    size = 1
    i = 0
    while i < len(seeds):
        block = seeds[i:i + min(size, fit)]
        yield block
        i += len(block)
        size *= 2


def red_pair_blocks(n: int, p: float, seeds: range) -> Iterator[np.ndarray]:
    """The colours of ``sample_coloring(n, p, s)`` for the seeds s of
    ``seeds``, as a bool matrix per block of seeds (``_seed_blocks``): row k
    holds the red pairs of the block's k-th seed, in lexicographic order.
    n x n must fit ``_SAMPLE_ENTRIES``; ``sample_red_rows`` draws a coloring
    whose matrix is past one band of rows a band at a time."""
    cut, pairs = _red_cut(p), n * (n - 1) // 2
    for block in _seed_blocks(n, p, seeds):
        red = np.empty((len(block), pairs), bool)
        _draw_seeds(block, cut, red)
        yield red


def sample_red_rows(n: int, p: float, seeds: range) -> Iterator[tuple[int, ...]]:
    """The red rows of ``sample_coloring(n, p, s)`` for each seed s of ``seeds``
    in turn, drawn lazily: the one sampler behind every coloring and G(t, rho).

    Pair i, in lexicographic order, is red iff draw i of
    ``np.random.Generator(np.random.Philox(key=s)).random(C(n, 2))`` is below
    p.  That draw is (w >> 11) * 2**-53 for the i-th raw 64-bit word w of
    the stream, so the pair is red iff w < ceil(p * 2**53) * 2**11, which is
    compared in uint64; at p = 1 that cut is 2**64, and every pair is red.
    No float is drawn, and every coloring is bit-identical to the one a fresh
    generator gives.

    All draws come from one Philox bit generator of the process, re-keyed
    before each seed's first word, and no seed's words span a ``yield``: a
    caller's next() or another sampler in between cannot move a stream.
    Threads that sample at once could, and the package starts none.

    Seeds are drawn in blocks of 1, 2, 4, ... seeds (``_seed_blocks``), so
    stopping after the i-th seed costs O(i) draws.  A seed whose n x n matrix
    fits one band of rows (``graphs._band_rows``) is drawn whole, with the
    others of its block (``red_pair_blocks``).  A larger seed is drawn alone,
    a band at a time, each band packed before the next one is drawn
    (``graphs._symmetric``).  Every seed must be a Philox key, which is
    checked before anything is drawn.
    """
    if n <= _band_rows(n):
        for red in red_pair_blocks(n, p, seeds):
            rows = _symmetric(n, iter([_pair_bits(red, n, 0, n)]))  # freed once packed
            for k in range(len(red)):
                yield rows[k * n:(k + 1) * n]
        return
    cut = _red_cut(p)
    for block in _seed_blocks(n, p, seeds):
        for seed in block:
            bitgen = _philox()
            _rekey(bitgen, seed)
            yield _symmetric(n, _pair_bands(
                n, lambda _, count: _draw_red(bitgen, cut, np.empty(count, bool))))


def sample_gnp(t: int, rho: float, seed: int) -> Graph:
    """G(t, rho): each pair independently an edge with probability rho."""
    if not 0 <= rho <= 1:
        raise ValueError("rho must lie in [0, 1]")
    return Graph(t, next(sample_red_rows(t, rho, range(seed, seed + 1))))


def sample_coloring(n: int, p_red: float, seed: int) -> Coloring:
    """Random coloring of K_n: each pair independently Red with probability p_red."""
    if not 0 <= p_red <= 1:
        raise ValueError("p_red must lie in [0, 1]")
    return Coloring(n, next(sample_red_rows(n, p_red, range(seed, seed + 1))))


@dataclass(frozen=True)
class PartitionCertificate:
    """Accepted random bisection: near-equal parts, all cross degrees capped."""

    v1: frozenset[int]
    v2: frozenset[int]
    size_dev: float
    max_cross_deg: int
    tries_used: int
    size_bound: float
    degree_bound: float
    accepted: bool
    delta_condition_met: bool

    def to_json(self) -> dict:
        return {
            "v1": sorted(self.v1),
            "v2": sorted(self.v2),
            "size_dev": self.size_dev,
            "max_cross_deg": self.max_cross_deg,
            "tries_used": self.tries_used,
            "size_bound": self.size_bound,
            "degree_bound": self.degree_bound,
            "accepted": self.accepted,
            "delta_condition_met": self.delta_condition_met,
            "generator_version": GENERATOR_VERSION,
        }


def _partition_metrics(g: Graph, mask1: int) -> tuple[float, int]:
    t = g.t
    mask2 = ((1 << t) - 1) & ~mask1
    n1 = mask1.bit_count()
    size_dev = max(abs(n1 - t / 2), abs((t - n1) - t / 2))
    max_cross = 0
    for v in range(t):
        row = g.rows[v]
        d1 = (row & mask1).bit_count()
        d2 = (row & mask2).bit_count()
        if d1 > max_cross:
            max_cross = d1
        if d2 > max_cross:
            max_cross = d2
    return size_dev, max_cross


def judicious_partition(g: Graph, max_tries: int = 64, seed: int = 0) -> PartitionCertificate:
    """Retry random bisections until one certifies, Las Vegas style.

    Accepts when both part sizes are within 2*sqrt(t) of t/2 and every
    vertex has at most Delta/2 + 2*sqrt(Delta*log2(t)) neighbours in each
    part, Delta being the maximum degree.  On failure after max_tries the
    best attempt (smallest degree excess) is returned with accepted=False.
    A negative max_tries is refused.
    """
    if max_tries < 0:
        raise ValueError(f"max_tries must be nonnegative, got {max_tries}")
    t = g.t
    delta_t = g.max_degree
    size_bound = 2 * math.sqrt(t)
    degree_bound = delta_t / 2 + 2 * math.sqrt(max(delta_t, 0) * math.log2(max(t, 2)))
    delta_ok = delta_t >= 64 * math.log2(max(t, 2))  # flagged, not gating
    rng = _rng(seed)
    best = None  # (key, mask, size_dev, max_cross) of the try with the least key
    accepted = False
    for i in range(1, max_tries + 1):
        side = rng.integers(0, 2, size=t, dtype=np.uint8)
        mask1 = int.from_bytes(np.packbits(side, bitorder="little").tobytes(), "little")
        size_dev, max_cross = _partition_metrics(g, mask1)
        accepted = size_dev <= size_bound and max_cross <= degree_bound
        key = (max(0.0, max_cross - degree_bound) + max(0.0, size_dev - size_bound),
               max_cross, size_dev)
        if best is None or key < best[0]:
            best = (key, mask1, size_dev, max_cross)
        if accepted:  # an excess of 0, the least key
            break
    if best is None:  # no tries: V1 is empty
        best = (None, 0, *_partition_metrics(g, 0))
    _, mask1, size_dev, max_cross = best
    full = (1 << t) - 1
    return PartitionCertificate(
        frozenset(bits_of(mask1)), frozenset(bits_of(full & ~mask1)),
        size_dev, max_cross, i if accepted else max_tries, size_bound, degree_bound,
        accepted=accepted, delta_condition_met=delta_ok,
    )


@dataclass(frozen=True)
class SpreadReport:
    """Worst over inspected sets V of #{u : deg_V(u) > (1+eps) rho |V|}."""

    delta: float
    eps: float
    rho: float
    set_size: int
    worst_count: int
    threshold: float
    sets_inspected: int
    mode: str
    within_threshold: bool
    vacuous: bool
    worst_set: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "delta": self.delta,
            "eps": self.eps,
            "rho": self.rho,
            "set_size": self.set_size,
            "worst_count": self.worst_count,
            "threshold": self.threshold,
            "sets_inspected": self.sets_inspected,
            "mode": self.mode,
            "within_threshold": self.within_threshold,
            "vacuous": self.vacuous,
            "worst_set": list(self.worst_set),
            "generator_version": GENERATOR_VERSION,
        }


# Most sets ``verify_degree_spread`` may inspect (``random spread --budget``).
# 10**6 sampled sets take about 17 s at t = 30 and 120 s on G(2048, 0.2) at
# delta = 0.1 (one core of a 2-vCPU x86-64 host); a set's cost grows with
# delta * t^2, the bits of its rows.
SPREAD_SETS_LIMIT = 10 ** 6


def verify_degree_spread(g: Graph, delta: float, eps: float, rho: float,
                         mode: str = "sampled", sample_budget: int = 10_000,
                         seed: int = 0) -> SpreadReport:
    """Measure the degree-spread property against threshold 12 ln(e/delta)/(rho eps^2).

    The threshold uses the natural log (the exponential-moment form); it is
    frequently >= t at desk scale, in which case the report flags vacuity
    rather than silently passing.
    """
    t = g.t
    k = max(1, math.ceil(delta * t))
    cutoff = (1 + eps) * rho * delta * t
    threshold = 12 * math.log(math.e / delta) / (rho * eps ** 2)

    packed = _packed_rows(t, g.rows)  # every row's bytes, once
    step = _band_rows(t)

    def count_over(vset: tuple[int, ...]) -> int:
        # deg_V(u) of every u at once: u is adjacent to v iff row v has bit u.
        # Only the rows of V are unpacked, a band of rows at a time, and
        # a uint16 sum cannot overflow: |V| <= t <= MAX_VERTICES < 2**16.
        vs = np.array(vset, np.intp)
        degrees = np.zeros(t, np.uint16)
        for lo in range(0, len(vs), step):
            bits = np.unpackbits(packed[vs[lo:lo + step]], 1, t, "little")
            degrees += bits.sum(axis=0, dtype=np.uint16)
        return int(np.count_nonzero(degrees > cutoff))

    worst, worst_set, inspected = 0, (), 0
    if mode == "exhaustive":
        if math.comb(t, k) > sample_budget:
            raise ValueError(
                f"exhaustive mode needs C({t},{k}) = {math.comb(t, k)} <= budget {sample_budget}"
            )
        from itertools import combinations

        for vset in combinations(range(t), k):
            inspected += 1
            c = count_over(vset)
            if c > worst:
                worst, worst_set = c, vset
    elif mode == "sampled":
        rng = _rng(seed)
        for _ in range(sample_budget):
            vset = tuple(rng.choice(t, size=k, replace=False).tolist())
            inspected += 1
            c = count_over(vset)
            if c > worst:
                worst, worst_set = c, tuple(sorted(vset))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SpreadReport(
        delta, eps, rho, k, worst, threshold, inspected, mode,
        within_threshold=worst <= threshold,
        vacuous=threshold >= t,
        worst_set=worst_set,
    )


@dataclass(frozen=True)
class MaxDegreeReport:
    max_degree: int
    bound: float
    passed: bool
    margin: float

    def to_json(self) -> dict:
        return {"max_degree": self.max_degree, "bound": self.bound,
                "passed": self.passed, "margin": self.margin}


def max_degree_tail_check(g: Graph, rho: float) -> MaxDegreeReport:
    """Check Delta(H) <= rho t + 4 sqrt(rho t log2 t), the a.s. degree cap."""
    t = g.t
    bound = rho * t + 4 * math.sqrt(max(rho * t * math.log2(max(t, 2)), 0.0))
    dmax = g.max_degree
    return MaxDegreeReport(dmax, bound, dmax <= bound, bound - dmax)


# Most samples ``empirical_binomial_tail`` draws: 10**8 binomial draws take
# about 11 s at n = 400 and 23 s at n = 40, p = 1/2 (one core of a 2-vCPU
# x86-64 host).
EMPIRICAL_LIMIT = 10 ** 8
# Draws made at once: 2**20 int64 draws are 8 MB.
_DRAW_BLOCK = 1 << 20


def empirical_binomial_tail(n: int, p: float, theta: float, samples: int,
                            seed: int = 0) -> float:
    """Monte Carlo frequency of X >= (1+theta) p n for X ~ Binomial(n, p),
    over 1 to EMPIRICAL_LIMIT samples.

    The samples are drawn _DRAW_BLOCK at a time from one generator, which
    continues its stream from block to block: they are the draws of a single
    ``binomial(n, p, size=samples)``.
    """
    if not 1 <= samples <= EMPIRICAL_LIMIT:
        raise ValueError(f"samples must be in [1, {EMPIRICAL_LIMIT}]")
    rng = _rng(seed)
    hits = 0
    for lo in range(0, samples, _DRAW_BLOCK):
        draws = rng.binomial(n, p, size=min(_DRAW_BLOCK, samples - lo))
        hits += int(np.count_nonzero(draws >= (1 + theta) * p * n))
    return hits / samples
