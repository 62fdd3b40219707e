"""Greedy embedding into bi-dense hosts, and bi-density certification.

The embedding routine follows the candidate-set argument: host split into
max_degree+1 equal parts, pattern split into independent sets, and each
pattern vertex placed at a host vertex that keeps every unplaced
neighbour's candidate set delta-dense.  Bi-density is certified exactly by
enumerating pairs of the minimal size (the density of a pair is the mean
of the densities of its equal-size sub-pairs, so a violation at any larger
size implies one at the minimal size), or hunted heuristically at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Optional, Sequence, Union

import numpy as np

from .graphs import Embedding, Graph, bit_matrix, bits_of, mask_of, rows_of
from . import oracle


def lemma_sigma(delta: float, max_degree: int) -> float:
    """The embedding lemma's set-size fraction: delta^Delta / (4 Delta^2)."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return delta ** max_degree / (4 * max_degree ** 2)


def lemma_min_host_size(delta: float, max_degree: int, n: int) -> int:
    """Host size the hypothesis asks for: 4 delta^(-Delta) Delta n."""
    return math.ceil(4 * delta ** (-max_degree) * max_degree * n)


def greedy_partition(g: Graph, k: int) -> Optional[list[list[int]]]:
    """Greedy proper coloring into at most k independent sets.

    Vertices are processed in index order; each goes to the lowest-index
    part with no neighbour.  Never fails for k >= max_degree+1; returns
    None when k parts do not suffice.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    parts: list[list[int]] = [[] for _ in range(k)]
    part_masks = [0] * k
    for v in range(g.t):
        for i in range(k):
            if not part_masks[i] & g.rows[v]:
                parts[i].append(v)
                part_masks[i] |= 1 << v
                break
        else:
            return None
    return parts


@dataclass(frozen=True)
class BiDensityWitness:
    X: tuple[int, ...]
    Y: tuple[int, ...]
    density: Fraction
    sigma: float
    delta: float

    def to_json(self) -> dict:
        return {"X": list(self.X), "Y": list(self.Y),
                "density": str(self.density), "sigma": self.sigma, "delta": self.delta}


@dataclass(frozen=True)
class Certified:
    sigma: float
    delta: float
    set_size: int
    sets_checked: int

    def to_json(self) -> dict:
        return {"sigma": self.sigma, "delta": self.delta,
                "set_size": self.set_size, "sets_checked": self.sets_checked}


@dataclass(frozen=True)
class TooLarge:
    required: int
    budget: int

    def to_json(self) -> dict:
        return {"required": self.required, "budget": self.budget}


BiDensityResult = Union[Certified, BiDensityWitness, TooLarge]

# X-sets per block of check_bidense_exact, at most; and counts, one per
# (X-set, vertex), per block, at most
_BLOCK_ROWS = 1024
_BLOCK_COUNTS = 1 << 16


def check_bidense_exact(host, sigma: float, delta: float, color: Optional[str] = None,
                        budget: int = 10 ** 9) -> BiDensityResult:
    """Exact bi-(sigma, delta)-density check via minimal-size pair enumeration.

    Enumerates X of size s = ceil(sigma*n) in lexicographic order; for each
    X the least-dense Y is found by taking the s vertices outside X with
    the fewest neighbours in X, so X's without any violating Y are
    dismissed by one count per vertex.  The returned witness is the
    lexicographically first violating (X, Y).

    The X-sets go through numpy in blocks of rows: a block's counts are
    the sum of its s gathered adjacency rows, X's own vertices are masked
    with n + 1, and the s smallest counts come from ``np.partition``.
    Blocks start at 64 X-sets and double up to 1024, so an early
    witness costs little.  Only the rows a block reads are unpacked, and a
    block makes at most 2**16 counts, so no array grows with n**2.

    ``budget`` is in counts made, one per (X-set, vertex): a check needs
    C(n, s) * n of them, and returns TooLarge with that figure when it
    exceeds the budget.  A count costs about 10 ns on one core of a 2-vCPU
    x86-64 host, so the default 10**9 allows roughly 10 s.
    """
    rows = rows_of(host, color)
    n = len(rows)
    s = max(1, math.ceil(sigma * n))
    if 2 * s > n:
        raise ValueError(f"need 2*ceil(sigma*n) <= n, got s={s}, n={n}")
    required = math.comb(n, s) * n
    if required > budget:
        return TooLarge(required, budget)
    need = delta * s * s  # violation iff e(X,Y) < need
    xsets = combinations(range(n), s)
    cap = max(1, min(_BLOCK_ROWS, _BLOCK_COUNTS // n))
    size = min(64, cap)
    checked = 0
    while True:
        X = np.fromiter(chain.from_iterable(islice(xsets, size)), np.intp).reshape(-1, s)
        if not len(X):
            return Certified(sigma, delta, s, checked)
        used = np.zeros(n, bool)
        used[X] = True
        verts = np.flatnonzero(used)
        adj = bit_matrix(n, [rows[v] for v in verts.tolist()]).view(np.uint8)
        first, *rest = np.searchsorted(verts, X.T)  # adj row of each X's j-th vertex
        # int16 holds each count (at most s) and the mask n + 1 <= MAX_VERTICES + 1
        cnt = adj.take(first, axis=0).astype(np.int16)
        for col in rest:
            cnt += adj.take(col, axis=0)
        np.put_along_axis(cnt, X, n + 1, axis=1)
        floor_sums = np.partition(cnt, s - 1, axis=1)[:, :s].sum(1)
        bad = np.flatnonzero(floor_sums < need)
        if len(bad):
            x = tuple(X[bad[0]].tolist())
            outside = [v for v in range(n) if v not in x]
            counts = cnt[bad[0], outside].tolist()
            y = _lex_first_violating_y(outside, counts, s, need)
            e = sum(counts[outside.index(v)] for v in y)
            return BiDensityWitness(x, tuple(y), Fraction(e, s * s), sigma, delta)
        checked += len(X)
        size = min(2 * size, cap)


def _lex_first_violating_y(outside: list[int], cnt: list[int], s: int,
                           need: float) -> list[int]:
    """Lexicographically first s-subset of ``outside`` with count sum < need.

    Greedy with feasibility lookahead: take the next vertex iff some
    completion of the prefix stays below the threshold.
    """
    chosen: list[int] = []
    total = 0
    start = 0
    while len(chosen) < s:
        for i in range(start, len(outside)):
            remaining = sorted(cnt[i + 1:])[: s - len(chosen) - 1]
            if len(remaining) < s - len(chosen) - 1:
                continue
            if total + cnt[i] + sum(remaining) < need:
                chosen.append(outside[i])
                total += cnt[i]
                start = i + 1
                break
        else:  # pragma: no cover - caller guarantees feasibility
            raise AssertionError("no violating completion despite floor check")
    return chosen


def find_sparse_pair_heuristic(host, sigma: float, delta: float,
                               color: Optional[str] = None, tries: int = 100,
                               seed: int = 0) -> Optional[BiDensityWitness]:
    """Randomized hill-climb for a sparse pair; one-sided (None proves nothing).

    Seeds (X, Y) with random s-sets and repeatedly applies the best
    single-vertex swap that lowers the cross edge count, restarting
    ``tries`` times.  Deterministic given the seed.
    """
    rows = rows_of(host, color)
    n = len(rows)
    s = max(1, math.ceil(sigma * n))
    if 2 * s > n:
        return None
    rng = np.random.Generator(np.random.Philox(key=seed))
    need = delta * s * s
    for _ in range(tries):
        perm = [int(v) for v in rng.permutation(n)]
        X, Y = perm[:s], perm[s: 2 * s]
        e = _cross_edges(rows, X, Y)
        improved = True
        while improved and e >= need:
            improved = False
            for side, other in ((X, Y), (Y, X)):
                # masks as they are now, so the Y scan sees the X side's swap
                mask_other, inside = mask_of(other), mask_of(X) | mask_of(Y)
                best_gain, best_swap = 0, None
                for i, v in enumerate(side):
                    dv = (rows[v] & mask_other).bit_count()
                    for w in range(n):
                        if inside >> w & 1:
                            continue
                        dw = (rows[w] & mask_other).bit_count()
                        gain = dv - dw
                        if gain > best_gain:
                            best_gain, best_swap = gain, (i, w)
                if best_swap is not None:
                    i, w = best_swap
                    side[i] = w
                    improved = True
                    e = _cross_edges(rows, X, Y)  # lower by exactly best_gain
        if e < need:
            X, Y = sorted(X), sorted(Y)
            return BiDensityWitness(tuple(X), tuple(Y), Fraction(e, s * s), sigma, delta)
    return None


@dataclass(frozen=True)
class FailureReport:
    """Embedding got stuck: no valid host vertex for ``stuck_vertex`` at ``step``."""

    step: int
    stuck_vertex: int
    trace: tuple

    def to_json(self) -> dict:
        return {"step": self.step, "stuck_vertex": self.stuck_vertex,
                "trace": [dict(ev) for ev in self.trace]}


@dataclass(frozen=True)
class EmbedResult:
    embedding: Optional[Embedding]
    failure: Optional[FailureReport]
    trace: tuple
    part_size: int
    hypothesis_held: bool  # |T_y| >= delta^placed_neighbors * N at every step

    @property
    def ok(self) -> bool:
        return self.embedding is not None


def embed_greedy(pattern: Graph, host, delta: float,
                 color: Optional[str] = None) -> EmbedResult:
    """Greedy candidate-set embedding of ``pattern`` into the host.

    The host is truncated to (Delta+1)*N vertices split into Delta+1 equal
    parts of consecutive vertices; pattern vertices are grouped
    into Delta+1 independent sets assigned part-for-part.  Placement order
    is descending pattern degree (ties by index); each vertex takes the
    lowest-index unused candidate v with |N(v) & T_y| >= delta |T_y| for
    every unplaced neighbour y.  A returned embedding is always verified
    independently before return; getting stuck is a normal result carried
    in the FailureReport, not an error.
    """
    rows = rows_of(host, color)
    n_host = len(rows)
    k = pattern.max_degree + 1
    N = n_host // k
    if N < 1:
        raise ValueError("host too small for max_degree+1 parts")
    host_partition = [list(range(i * N, (i + 1) * N)) for i in range(k)]

    pattern_parts = greedy_partition(pattern, k)
    if pattern_parts is None:  # greedy with max_degree+1 colors cannot fail
        raise AssertionError("greedy partition failed with max_degree+1 parts")
    part_of = {}
    for i, part in enumerate(pattern_parts):
        for w in part:
            part_of[w] = i

    order = sorted(range(pattern.t), key=lambda v: (-pattern.degree(v), v))
    cand = [mask_of(host_partition[part_of[w]]) for w in range(pattern.t)]
    image = [-1] * pattern.t
    used = 0
    trace: list[dict] = []
    hypothesis_held = True

    for step, w in enumerate(order, start=1):
        placed_nbrs = [y for y in bits_of(pattern.rows[w]) if image[y] >= 0]
        unplaced_nbrs = [y for y in bits_of(pattern.rows[w]) if image[y] < 0]
        chosen = -1
        for v in bits_of(cand[w] & ~used):
            ok = True
            for y in unplaced_nbrs:
                ty = cand[y]
                if (rows[v] & ty).bit_count() < delta * ty.bit_count():
                    ok = False
                    break
            if ok:
                chosen = v
                break
        sizes_after = {}
        if chosen >= 0:
            image[w] = chosen
            used |= 1 << chosen
            for y in unplaced_nbrs:
                cand[y] &= rows[chosen]
            for y in range(pattern.t):
                if image[y] < 0:
                    size = cand[y].bit_count()
                    placed = sum(1 for z in bits_of(pattern.rows[y]) if image[z] >= 0)
                    sizes_after[y] = size
                    if size < delta ** placed * N:
                        hypothesis_held = False
        trace.append({
            "step": step,
            "vertex": w,
            "image": chosen,
            "candidates": (cand[w] & ~used).bit_count() if chosen < 0 else None,
            "unplaced_candidate_sizes": sizes_after,
        })
        if chosen < 0:
            return EmbedResult(None, FailureReport(step, w, tuple(trace)),
                               tuple(trace), N, hypothesis_held)

    emb = Embedding(pattern, tuple(image))
    ok, violation = oracle.verify_embedding(pattern, host, emb, color)
    if not ok:  # pragma: no cover - construction guarantees validity
        raise AssertionError(f"greedy embedding failed verification: {violation}")
    return EmbedResult(emb, None, tuple(trace), N, hypothesis_held)


def _cross_edges(rows: Sequence[int], X: Sequence[int], Y: Sequence[int]) -> int:
    ymask = mask_of(Y)
    return sum((rows[x] & ymask).bit_count() for x in X)
