"""Random graph/coloring samplers and the probabilistic toolbox.

All randomness flows through a counter-based Philox generator keyed by the
caller's seed, so identical seeds reproduce identical objects across runs
and platforms; ``GENERATOR_VERSION`` is embedded in serialized reports so
snapshots survive refactors.

Unit convention: the Chernoff tail uses the natural exponential (the form
the concentration argument needs); every other logarithm is base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Coloring, Graph, bits_of, check_vertex_count, mask_of, pack_rows

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


def _sample_pair_bits(count: int, p: float, seed: int) -> np.ndarray:
    return _rng(seed).random(count) < p


def _adjacency_from_bits(n: int, bits: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, 1)  # lexicographic pair order
    adj[iu] = bits
    adj |= adj.T
    return adj


def sample_gnp(t: int, rho: float, seed: int) -> Graph:
    """G(t, rho): each pair independently an edge with probability rho."""
    if not 0 <= rho <= 1:
        raise ValueError("rho must lie in [0, 1]")
    check_vertex_count(t)
    bits = _sample_pair_bits(t * (t - 1) // 2, rho, seed)
    return Graph(t, pack_rows(_adjacency_from_bits(t, bits)))


def sample_coloring(n: int, p_red: float, seed: int) -> Coloring:
    """Random coloring of K_n: each pair independently Red with probability p_red."""
    if not 0 <= p_red <= 1:
        raise ValueError("p_red must lie in [0, 1]")
    check_vertex_count(n)
    bits = _sample_pair_bits(n * (n - 1) // 2, p_red, seed)
    return Coloring(n, pack_rows(_adjacency_from_bits(n, bits)))


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
    """
    t = g.t
    delta_t = g.max_degree
    size_bound = 2 * math.sqrt(t)
    degree_bound = delta_t / 2 + 2 * math.sqrt(max(delta_t, 0) * math.log2(max(t, 2)))
    delta_ok = delta_t >= 64 * math.log2(max(t, 2))  # flagged, not gating
    rng = _rng(seed)
    best: Optional[tuple[float, int, int, int]] = None
    for i in range(1, max_tries + 1):
        side = rng.integers(0, 2, size=t, dtype=np.uint8)
        mask1 = int.from_bytes(np.packbits(side, bitorder="little").tobytes(), "little")
        size_dev, max_cross = _partition_metrics(g, mask1)
        if size_dev <= size_bound and max_cross <= degree_bound:
            full = (1 << t) - 1
            return PartitionCertificate(
                frozenset(bits_of(mask1)), frozenset(bits_of(full & ~mask1)),
                size_dev, max_cross, i, size_bound, degree_bound,
                accepted=True, delta_condition_met=delta_ok,
            )
        key = (max(0.0, max_cross - degree_bound) + max(0.0, size_dev - size_bound),
               max_cross, size_dev)
        if best is None or key < best[:3]:
            best = (*key, mask1)
    full = (1 << t) - 1
    mask1 = best[3] if best is not None else 0
    size_dev, max_cross = _partition_metrics(g, mask1)
    return PartitionCertificate(
        frozenset(bits_of(mask1)), frozenset(bits_of(full & ~mask1)),
        size_dev, max_cross, max_tries, size_bound, degree_bound,
        accepted=False, delta_condition_met=delta_ok,
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

    def count_over(vset: tuple[int, ...]) -> int:
        vmask = mask_of(vset)
        return sum(1 for u in range(t) if (g.rows[u] & vmask).bit_count() > cutoff)

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
            vset = tuple(int(x) for x in rng.choice(t, size=k, replace=False))
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


def empirical_binomial_tail(n: int, p: float, theta: float, samples: int,
                            seed: int = 0) -> float:
    """Monte Carlo frequency of X >= (1+theta) p n for X ~ Binomial(n, p)."""
    rng = _rng(seed)
    draws = rng.binomial(n, p, size=samples)
    return float(np.mean(draws >= (1 + theta) * p * n))
