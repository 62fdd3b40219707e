"""Ground truth at desk scale.

Exact monochromatic-subgraph search (backtracking over bitset candidate
sets), exact Ramsey numbers for tiny instances (DFS over edge colorings
with containment pruning), embedding verification, and randomized
lower-bound certificates.  Everything here is complete within its guards;
guards produce explicit refusals, never silent partial answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Sequence

from .graphs import (
    BLUE,
    RED,
    Coloring,
    Embedding,
    Graph,
    bits_of,
    mask_of,
    rows_of,
)

if TYPE_CHECKING:  # embedder imports this module
    from .embedder import BiDensityWitness

DEFAULT_NMAX_GUARD = 10
BIDENSE_BRUTE_MAX_N = 12


class OracleRefusal(RuntimeError):
    """The requested computation exceeds the oracle's feasibility guard."""


def verify_embedding(pattern: Graph, host, mapping, color: Optional[str] = None):
    """Check injectivity and edge preservation.

    Returns ``(True, None)`` or ``(False, first_violation)`` where the
    violation is a dict naming the offending pattern pair or repeated image.
    """
    if isinstance(mapping, Embedding):
        image = list(mapping.image)
    elif isinstance(mapping, dict):
        if set(mapping) != set(range(pattern.t)):
            raise ValueError("mapping must be total on the pattern vertices")
        image = [mapping[v] for v in range(pattern.t)]
    else:
        image = list(mapping)
        if len(image) != pattern.t:
            raise ValueError("mapping must be total on the pattern vertices")
    rows = rows_of(host, color)
    n = len(rows)
    seen: dict[int, int] = {}
    for v, w in enumerate(image):
        if not 0 <= w < n:
            return False, {"kind": "out_of_range", "pattern_vertex": v, "image": w}
        if w in seen:
            return False, {"kind": "not_injective", "vertices": (seen[w], v), "image": w}
        seen[w] = v
    for u, v in pattern.edges():
        if not rows[image[u]] >> image[v] & 1:
            return False, {"kind": "missing_edge", "pattern_pair": (u, v),
                           "image_pair": (image[u], image[v])}
    return True, None


def _embed_backtrack(pattern: Graph, rows: Sequence[int], n: int,
                     preassigned: Optional[dict[int, int]] = None) -> Optional[tuple[int, ...]]:
    """Lexicographic-first embedding of ``pattern`` into the host rows.

    Pattern vertices are processed in descending-degree order (ties by
    index); each is assigned the smallest host vertex compatible with the
    incrementally maintained candidate bitsets.
    """
    t = pattern.t
    order = sorted(range(t), key=lambda v: (-pattern.degree(v), v))
    preassigned = preassigned or {}
    # Preassigned vertices go first so their constraints propagate at once.
    order.sort(key=lambda v: 0 if v in preassigned else 1)
    full = (1 << n) - 1
    cand = [full] * t
    image = [-1] * t
    used = 0

    for v, w in preassigned.items():
        if not cand[v] >> w & 1:
            return None

    def place(pos: int, used: int) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        forced = preassigned.get(v)
        options = cand[v] & ~used
        if forced is not None:
            options &= 1 << forced
        for w in bits_of(options):
            saved = []
            ok = True
            for y in bits_of(pattern.rows[v]):
                if image[y] >= 0:
                    if not rows[w] >> image[y] & 1:
                        ok = False
                        break
            if not ok:
                continue
            for y in bits_of(pattern.rows[v]):
                if image[y] < 0:
                    saved.append((y, cand[y]))
                    cand[y] &= rows[w]
            if all(cand[y] & ~(used | 1 << w) or image[y] >= 0 or y == v
                   for y in range(t)):
                image[v] = w
                if place(pos + 1, used | 1 << w):
                    return True
                image[v] = -1
            for y, old in saved:
                cand[y] = old
        return False

    if place(0, used):
        return tuple(image)
    return None


def find_mono_subgraph_exact(host, pattern: Graph, color: Optional[str] = None) -> Optional[Embedding]:
    """Complete search for a copy of ``pattern`` in a host (or color class).

    Returns the lexicographic-first embedding under the fixed search order,
    or None if no copy exists.  Practical for patterns up to ~10 vertices
    against hosts up to ~60.
    """
    rows = rows_of(host, color)
    if pattern.t > len(rows):
        return None
    image = _embed_backtrack(pattern, rows, len(rows))
    if image is None:
        return None
    return Embedding(pattern, image)


def _contains_with_pair(pattern: Graph, rows: Sequence[int], n: int, u: int, v: int) -> bool:
    """Does the host contain the pattern using host edge {u,v}?"""
    for x, y in pattern.edges():
        for a, b in ((u, v), (v, u)):
            if _embed_backtrack(pattern, rows, n, {x: a, y: b}) is not None:
                return True
    return False


def find_clique_exact(host, size: int, color: Optional[str] = None,
                      within: Optional[Sequence[int]] = None) -> Optional[list[int]]:
    """Complete branch-and-bound search for a clique of the given size.

    ``within`` restricts the search to a vertex subset.  Returns the
    lexicographic-first clique as a sorted vertex list, or None.
    """
    rows = rows_of(host, color)
    allowed = mask_of(within) if within is not None else (1 << len(rows)) - 1
    if size <= 0:
        return []

    def extend(clique: list[int], cand: int) -> Optional[list[int]]:
        if len(clique) == size:
            return clique
        if len(clique) + cand.bit_count() < size:
            return None
        for w in bits_of(cand):
            got = extend(clique + [w], cand & rows[w] & ~((1 << (w + 1)) - 1))
            if got is not None:
                return got
        return None

    return extend([], allowed)


@dataclass(frozen=True)
class RamseyCertificate:
    """Outcome of an exact off-diagonal Ramsey computation.

    kind "upper": every coloring of K_n contains blue pattern1 or red
    pattern2 (n is the exact Ramsey number when a lower witness at n-1 is
    attached).  kind "lower": a verified witness coloring at n avoids both.
    """

    kind: str
    n: int
    pattern1: Graph
    pattern2: Graph
    witness: Optional[Coloring] = None
    witness_n: Optional[int] = None

    def verify(self) -> bool:
        if self.witness is None:
            return self.kind == "upper"
        no_blue = find_mono_subgraph_exact(self.witness, self.pattern1, BLUE) is None
        no_red = find_mono_subgraph_exact(self.witness, self.pattern2, RED) is None
        return no_blue and no_red


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


def ramsey_number_exact(pattern1: Graph, pattern2: Graph, n_max: int = 8,
                        guard: int = DEFAULT_NMAX_GUARD) -> RamseyCertificate:
    """Smallest n <= n_max forcing a blue pattern1 or red pattern2.

    Returns an "upper" certificate with the exact value and the avoiding
    witness at n-1, or a "lower" certificate at n_max when the value
    exceeds the searched range.
    """
    if n_max > guard:
        raise OracleRefusal(
            f"n_max={n_max} exceeds the feasibility guard {guard}; "
            "raise `guard` explicitly to override"
        )
    # Fixing the first edge Red halves the space; sound only when a color
    # swap maps the avoidance problem to itself, i.e. identical patterns.
    symmetric = pattern1.t == pattern2.t and pattern1.rows == pattern2.rows
    last_witness: Optional[Coloring] = None
    last_n = None
    for n in range(1, n_max + 1):
        witness = _avoiding_coloring(pattern1, pattern2, n, fix_first_red=symmetric and n >= 2)
        if witness is None:
            return RamseyCertificate("upper", n, pattern1, pattern2,
                                     witness=last_witness, witness_n=last_n)
        last_witness, last_n = witness, n
    return RamseyCertificate("lower", n_max, pattern1, pattern2,
                             witness=last_witness, witness_n=last_n)


def lower_bound_certificate_random(pattern: Graph, n: int, tries: int, seed: int,
                                   p_red: float = 0.5) -> Optional[Coloring]:
    """Sample colorings of K_n until one avoids monochromatic ``pattern``.

    The returned coloring is re-verified in both colors.  None proves
    nothing (the search is one-sided).
    """
    from .randomlab import sample_coloring

    for i in range(tries):
        c = sample_coloring(n, p_red, seed + i)
        if find_mono_subgraph_exact(c, pattern, RED) is None and \
           find_mono_subgraph_exact(c, pattern, BLUE) is None:
            return c
    return None


def check_bidense_bruteforce(host, sigma: float, delta: float,
                             color: Optional[str] = None) -> Optional[BiDensityWitness]:
    """All-sizes reference check of the bi-(sigma, delta)-density condition.

    Enumerates every disjoint pair of vertex sets with both sizes >=
    ceil(sigma*n) and returns the first pair of density < delta found, or
    None (Certified).  Guarded to n <= 12.
    """
    from fractions import Fraction

    from .embedder import BiDensityWitness

    rows = rows_of(host, color)
    n = len(rows)
    if n > BIDENSE_BRUTE_MAX_N:
        raise OracleRefusal(f"brute-force bi-density check limited to n <= {BIDENSE_BRUTE_MAX_N}")
    s = max(1, math.ceil(sigma * n))
    verts = list(range(n))
    for kx in range(s, n - s + 1):
        for X in combinations(verts, kx):
            xmask = mask_of(X)
            rest = [v for v in verts if not xmask >> v & 1]
            for ky in range(s, len(rest) + 1):
                for Y in combinations(rest, ky):
                    e = sum((rows[y] & xmask).bit_count() for y in Y)
                    d = Fraction(e, kx * ky)
                    if d < delta:
                        return BiDensityWitness(tuple(X), tuple(Y), d, sigma, delta)
    return None
