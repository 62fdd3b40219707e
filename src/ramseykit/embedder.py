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

# Prefixes or X-sets per block of check_bidense_exact, at most; and counts,
# one per (set, vertex), per block, at most
_BLOCK_ROWS = 1024
_BLOCK_COUNTS = 1 << 16


def check_bidense_exact(host, sigma: float, delta: float, color: Optional[str] = None,
                        budget: int = 10 ** 9) -> BiDensityResult:
    """Exact bi-(sigma, delta)-density check via minimal-size pair enumeration.

    Enumerates X of size s = ceil(sigma*n) in lexicographic order; for each
    X the least-dense Y is found by taking the s vertices outside X with
    the fewest neighbours in X, so an X without any violating Y is
    dismissed by its floor sum, the sum of the s smallest of its counts
    cnt_X(v) = |N(v) & X| over v outside X.  The returned witness is the
    lexicographically first violating (X, Y).

    Each X is a prefix P, its s - 1 smallest vertices, and a last vertex
    w > max(P), and the prefixes are counted before their X-sets.  As
    cnt_X >= cnt_P and outside(X) is within outside(P), LB(P), the sum of
    the s smallest cnt_P(v) over v outside P, bounds the floor sum of every
    X that extends P (branch and bound).  When LB(P) >= delta * s**2 the
    n - 1 - max(P) X-sets of P are certified by P's n counts; otherwise
    each is counted as cnt_P + adj[w], one add.  The bound is not computed
    when s = 1 or delta * s**2 > s * (s - 1), since LB(P) <= s * (s - 1)
    cannot reach it then.

    Prefixes and X-sets go through numpy in blocks of rows: a prefix
    block's counts are the sum of its s - 1 gathered adjacency rows, each
    set's own vertices are masked with n + 1, and the s smallest counts
    come from ``np.partition``.  Both kinds of block start at 64 rows and
    double up to 1024, so an early witness costs little.  Only the rows a
    block reads are unpacked, and a block makes at most 2**16 counts, so no
    array grows with n**2.

    ``budget`` is in counts, one per (X-set, vertex): it is charged the
    worst case of the enumeration without the bound, C(n, s) * n, and the
    check returns TooLarge with that figure when it exceeds the budget.  The
    work actually done is at most C(n - 1, s - 1) * n prefix counts plus
    C(n, s) * n X-set counts, C(n, s) * (n + s) in all, and the X-set counts
    of certified prefixes are never made.  ``sets_checked`` of a certificate
    is C(n, s) either way.  A count costs about 10 ns on one core of a
    2-vCPU x86-64 host, so the default 10**9 allows roughly 10 s.
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
    bound = s > 1 and need <= s * (s - 1)
    # prefixes left to read; each has a last vertex after it
    prefixes, unread = combinations(range(n - 1), s - 1), math.comb(n - 1, s - 1)
    cap = max(1, min(_BLOCK_ROWS, _BLOCK_COUNTS // n))
    size = leaves = min(64, cap)
    while unread:
        m = min(size, unread)
        unread -= m
        P = np.fromiter(chain.from_iterable(islice(prefixes, m)), np.intp,
                        m * (s - 1)).reshape(m, s - 1)
        # int16 holds each count (at most s) and a mask (n + 1, plus 1 when a
        # prefix's masked vertex meets the last vertex's row): MAX_VERTICES + 2
        cnt = _add_rows(rows, np.zeros((m, n), np.int16), P)
        live = np.arange(m)
        if bound:
            live = live[_floor_sums(cnt.copy(), s) < need]
        # the X-sets of the live prefixes, in lexicographic order: X-set r is
        # prefix live[k] with w = r - ends[k] + n, ends[k] - 1 being its last one
        ends = np.cumsum(n - 1 - (P[live, -1] if s > 1 else -1))
        total, done = (ends[-1] if len(ends) else 0), 0
        while done < total:
            r = np.arange(done, min(done + leaves, total))
            k = np.searchsorted(ends, r, side="right")
            w = r - ends[k] + n
            floor = _floor_sums(_add_rows(rows, cnt.take(live[k], axis=0), w[:, None]), s)
            bad = np.flatnonzero(floor < need)
            if len(bad):
                i = bad[0]
                return _witness(rows, P[live[k[i]]].tolist() + [int(w[i])], sigma, delta)
            done += len(r)
            leaves = min(2 * leaves, cap)
        size = min(2 * size, cap)
    return Certified(sigma, delta, s, math.comb(n, s))


def _add_rows(rows: Sequence[int], cnt: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """``cnt`` with the adjacency rows of the vertices of ``sets[i]`` added to
    its row i, and those vertices masked with n + 1.  Only the rows of the
    vertices in ``sets`` are unpacked."""
    n = cnt.shape[1]
    used = np.zeros(n, bool)
    used[sets] = True
    verts = np.flatnonzero(used)
    adj = bit_matrix(n, [rows[v] for v in verts.tolist()]).view(np.uint8)
    for col in np.searchsorted(verts, sets.T):  # adj row of each set's j-th vertex
        cnt += adj.take(col, axis=0)
    np.put_along_axis(cnt, sets, n + 1, axis=1)
    return cnt


def _floor_sums(cnt: np.ndarray, s: int) -> np.ndarray:
    """The sum of the s smallest entries of each row of ``cnt``, which it
    partitions in place."""
    cnt.partition(s - 1, axis=1)
    return cnt[:, :s].sum(1)


def _witness(rows: Sequence[int], x: list[int], sigma: float, delta: float) -> BiDensityWitness:
    """The witness of the violating X-set ``x``: its lexicographically first Y."""
    s = len(x)
    xmask = mask_of(x)
    outside = [v for v in range(len(rows)) if not xmask >> v & 1]
    counts = [(rows[v] & xmask).bit_count() for v in outside]
    y = _lex_first_violating_y(outside, counts, s, delta * s * s)
    e = sum(counts[outside.index(v)] for v in y)
    return BiDensityWitness(tuple(x), tuple(y), Fraction(e, s * s), sigma, delta)


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

    Swapping v of one side for w outside both lowers the count by v's
    neighbours in the other side less w's, so the best swap pairs the first
    member of the side with the most with the first outside vertex with the
    fewest: each vertex is scored once per side per round.
    """
    rows = rows_of(host, color)
    n = len(rows)
    s = max(1, math.ceil(sigma * n))
    if 2 * s > n:
        return None
    rng = np.random.Generator(np.random.Philox(key=seed))
    need = delta * s * s
    full = (1 << n) - 1
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
                score = [(rows[v] & mask_other).bit_count() for v in side]
                i = max(range(s), key=score.__getitem__)
                # no outside vertex (n = 2s) reads as one of the most, s
                least, w = min((((rows[w] & mask_other).bit_count(), w)
                                for w in bits_of(full & ~inside)), default=(s, -1))
                if score[i] > least:
                    side[i] = w
                    improved = True
                    e -= score[i] - least
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
