"""Frozen reference implementations for the differential tests.

Each is an earlier version of a ``ramseykit`` function, or a rebuild of it
from numpy alone, kept here so that a reference does not move with the code
under test.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from ramseykit.graphs import (
    _MAX_DIGITS,
    _SERIALIZE_CHUNK,
    BLUE,
    RED,
    Coloring,
    Graph,
    GraphFormatError,
    _edge_line,
    _first_duplicate,
    _row_blocks,
    bit_matrix,
    bits_of,
    mask_of,
    pair_order,
    rows_of,
)
from ramseykit.randomlab import SpreadReport, _rng
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


# The graph writer before it listed edges with ``flatnonzero``, verbatim but
# for its name: the reference for ``serialize_graph``.

def reference_serialize_graph(g: Graph) -> str:
    heads = np.array([f"{u} " for u in range(g.t)], dtype=object)
    tails = np.array([f"{v}\n" for v in range(g.t)], dtype=object)
    chunks = [f"t {g.t} m {g.m}\n"]
    for lo, hi in _row_blocks(g.t):
        # edges {u, v}, u < v, with u in lo..hi-1, in row-major order
        us, vs = np.nonzero(np.triu(bit_matrix(g.t, g.rows[lo:hi]), lo + 1))
        us += lo
        for i in range(0, len(us), _SERIALIZE_CHUNK):
            part = slice(i, i + _SERIALIZE_CHUNK)
            lines = np.stack((heads[us[part]], tails[vs[part]]), axis=1)
            chunks.append("".join(lines.ravel().tolist()))
    return "".join(chunks)


# The graph text reader's byte pass when it converted endpoints one decimal
# place per step, verbatim but for its name: the reference for
# ``graphs._read_edge_lines``, which converts eight digits per word.

def reference_read_edge_lines(text: str, data: bytes, lo: int, hi: int, t: int,
                               us: np.ndarray, vs: np.ndarray, k: int) -> int:
    """Read the edge lines in text[lo:hi] into us[k:] and vs[k:]; return the
    number of edge lines read so far.  ``data`` holds one byte per character
    of ``text``.

    One numpy pass over the bytes reads every line made of two digit runs
    separated by blanks.  ``_edge_line`` reads the rest -- a line holding any
    other byte or a run of more than _MAX_DIGITS digits -- and the first line
    that fails a check, where it raises.
    """
    b = np.frombuffer(data, np.uint8, hi - lo, lo)
    digit = b - 48 < 10  # bytes below "0" wrap past 9
    plain = b == 10
    breaks = np.flatnonzero(plain)  # line j ends at breaks[j]
    n = len(breaks) + 1
    plain |= b == 32
    plain |= b == 9
    plain |= digit
    odd = np.searchsorted(breaks, np.flatnonzero(~plain))  # lines holding other bytes
    # +1 where a digit run starts, -1 just past its end
    step = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(step == 1)
    width = np.flatnonzero(step == -1) - starts
    last = starts + width - 1
    # every token's value at once, one decimal place per step
    val = np.zeros(len(starts) + 1, np.int64)  # a spare for lines with fewer tokens
    val[:-1] = b[last] - 48
    for p in range(1, min(int(width.max(initial=0)), _MAX_DIGITS)):
        more = np.flatnonzero(width > p)
        val[more] += (b[last[more] - p] - 48).astype(np.int64) * 10 ** p
    if len(starts) == 2 * n and (starts[1:-1:2] < breaks).all() \
            and (breaks < starts[2::2]).all():
        # token 2j + 1 ends before break j and token 2j + 2 starts after it:
        # every line holds two tokens
        u, v = val[0:-1:2], val[1::2]
        unread = (u >= v) | (v >= t)
    else:
        first = np.concatenate(([0], np.searchsorted(starts, breaks)))  # each line's first token
        count = np.diff(first, append=len(starts))
        u, v = val[first], val.take(first + 1, mode="clip")
        unread = (count != 2) | (u >= v) | (v >= t)
    unread[odd] = True
    unread[np.searchsorted(breaks, starts[width > _MAX_DIGITS])] = True
    us[k:k + n], vs[k:k + n] = u, v
    for j in np.flatnonzero(unread).tolist():
        a = lo + (breaks[j - 1] + 1 if j else 0)
        z = lo + breaks[j] if j < n - 1 else hi
        try:
            us[k + j], vs[k + j] = _edge_line(text[a:z], k + j + 2, t)
        except GraphFormatError as e:
            # a duplicate on an earlier line is the first error
            raise (_first_duplicate(us[:k + j], vs[:k + j]) or e) from None
    return k + n


# The compact coloring reader and writer before they went through numpy, one
# big-int step per pair, verbatim but for their names: the references for
# ``parse_coloring`` and ``serialize_coloring`` on the "n <n> hex <string>"
# form.

def reference_coloring_from_hex(n: int, hexstr: str) -> Coloring:
    nbits = max(n, 0) * (max(n, 0) - 1) // 2
    width = max(1, (nbits + 3) // 4)
    if len(hexstr) != width:
        raise GraphFormatError(f"hex string must have {width} digits", 1)
    try:
        value = int(hexstr, 16)
    except ValueError:
        raise GraphFormatError("invalid hex string", 1) from None
    total = 4 * width
    if value >> total:
        raise GraphFormatError("hex string too wide", 1)
    if nbits and value & ((1 << (total - nbits)) - 1):
        raise GraphFormatError("padding bits must be zero", 1)
    rows = [0] * n
    for i, (u, v) in enumerate(pair_order(n)):
        if value >> (total - 1 - i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Coloring(n, tuple(rows))


def reference_serialize_coloring_compact(c: Coloring) -> str:
    pairs = pair_order(c.n)
    value = 0
    for u, v in pairs:
        value = value << 1 | (c.red_rows[u] >> v & 1)
    nbits = len(pairs)
    width = max(1, (nbits + 3) // 4)
    value <<= 4 * width - nbits
    return f"n {c.n} hex {value:0{width}x}\n"


# The degree-spread check before it counted degrees with numpy, one
# ``bit_count`` per vertex and sampled set, verbatim but for its name and its
# ``combinations`` import: the reference for ``randomlab.verify_degree_spread``.

def reference_verify_degree_spread(g: Graph, delta: float, eps: float, rho: float,
                                   mode: str = "sampled", sample_budget: int = 10_000,
                                   seed: int = 0) -> SpreadReport:
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
