"""Frozen reference implementations for the differential tests.

Each is an earlier version of a ``ramseykit`` function, or a rebuild of it
from numpy alone, kept here so that a reference does not move with the code
under test.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ramseykit.graphs import BLUE, RED, Coloring, Graph, bits_of, rows_of
from ramseykit.search import ChaseState


def reference_red_rows(n: int, p: float, seed: int) -> tuple[int, ...]:
    """The red rows of ``sample_coloring(n, p, seed)`` from numpy's own
    generator: pair i, in lexicographic order, is red iff draw i is below p."""
    draws = np.random.Generator(np.random.Philox(key=seed)).random(n * (n - 1) // 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = draws < p  # lexicographic pair order
    adj |= adj.T
    return tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                 for row in adj)


# The backtracker the oracle used before embedding plans, verbatim but for its
# name: the reference for ``_embed_backtrack`` and for the edge DFS of
# ``tests/test_oracle.py``.

def reference_embed_backtrack(pattern: Graph, rows: Sequence[int], n: int,
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



def reference_find_mono(host, pattern: Graph, color: Optional[str] = None):
    """``find_mono_subgraph_exact`` on the reference backtracker: the image, or None."""
    rows = rows_of(host, color)
    if pattern.t > len(rows):
        return None
    return reference_embed_backtrack(pattern, rows, len(rows))


def reference_certify_lower(pattern: Graph, n: int, tries: int, seed: int,
                            p_red: float = 0.5) -> Optional[Coloring]:
    """The per-try loop ``lower_bound_certificate_random`` ran before it drew
    colorings in blocks, verbatim but for the sampler and the search, which
    are the references above."""
    for i in range(tries):
        c = Coloring(n, reference_red_rows(n, p_red, seed + i))
        if reference_find_mono(c, pattern, RED) is None and \
           reference_find_mono(c, pattern, BLUE) is None:
            return c
    return None


# The chase before it ran on bit masks, verbatim but for its name: the
# reference for ``search.neighborhood_chase``.

def reference_neighborhood_chase(coloring: Coloring, start_set: Sequence[int],
                                 red_threshold: float, stop_R: int, stop_B: int) -> ChaseState:
    """Iterated pivoting into majority-color neighborhoods.

    Pivot = lowest-index vertex of the current set; the step restricts to
    the pivot's red neighborhood when it holds at least red_threshold of
    the non-pivot vertices, else to the blue neighborhood.  Stops when
    either letter count hits its cap or the set empties.
    """
    if not start_set:
        raise ValueError("start_set must be nonempty")
    if stop_R < 1 or stop_B < 1:
        raise ValueError("stop counts must be >= 1")
    current = frozenset(start_set)
    pivots: list[tuple[int, str]] = []
    sets: list[frozenset[int]] = []
    letters: list[str] = []
    while current and letters.count(RED) < stop_R and letters.count(BLUE) < stop_B:
        pivot = min(current)
        rest = current - {pivot}
        red_nb = frozenset(v for v in rest if coloring.red_rows[pivot] >> v & 1)
        if len(red_nb) >= red_threshold * len(rest):
            letter, nxt = RED, red_nb
        else:
            letter, nxt = BLUE, rest - red_nb
        pivots.append((pivot, letter))
        letters.append(letter)
        sets.append(nxt)
        current = nxt
    return ChaseState(tuple(pivots), tuple(sets), "".join(letters),
                      frozenset(start_set), red_threshold)
