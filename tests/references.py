"""Frozen reference implementations for the differential tests.

Each is an earlier version of a ``ramseykit`` function, a rebuild of it
from numpy alone, or a brute-force enumeration of what it decides, kept here
so that a reference does not move with the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ramseykit.embedder import BiDensityWitness
from ramseykit.graphs import (
    _MAX_DIGITS,
    _SERIALIZE_CHUNK,
    BLUE,
    RED,
    Coloring,
    Graph,
    MAX_VERTICES,
    GraphFormatError,
    _edge_line,
    _row_blocks,
    bit_matrix,
    bits_of,
    check_vertex_count,
    mask_of,
    pair_order,
    rows_of,
)
from ramseykit.oracle import (
    DEFAULT_NMAX_GUARD,
    OracleRefusal,
    RamseyCertificate,
    _embed_backtrack,
    _embed_plan,
)
from ramseykit.randomlab import (
    _SAMPLE_ENTRIES,
    SEED_LIMIT,
    SeedError,
    SpreadReport,
    _rekey,
    _rng,
)
from ramseykit.search import SUBSET_BUDGET, ChaseState


# Test-only helpers: what the library computes no longer, kept for the tests.

def density_pair(host, X: Iterable[int], Y: Iterable[int], color: Optional[str] = None) -> Fraction:
    """Edge density e(X,Y)/(|X||Y|) between disjoint nonempty vertex sets.

    ``host`` is a Graph, or a Coloring together with ``color`` naming the
    class whose edges are counted.
    """
    xs, ys = sorted(set(X)), sorted(set(Y))
    if not xs or not ys:
        raise ValueError("density_pair requires nonempty sets")
    if set(xs) & set(ys):
        raise ValueError("density_pair requires disjoint sets")
    rows = rows_of(host, color)
    ymask = mask_of(ys)
    e = sum((rows[x] & ymask).bit_count() for x in xs)
    return Fraction(e, len(xs) * len(ys))


def chase_sets(state: ChaseState) -> tuple[frozenset[int], ...]:
    """The nested sets U_1, U_2, ... of a chase."""
    return tuple(frozenset(bits_of(m)) for m in state.masks)


def chase_start(state: ChaseState) -> frozenset[int]:
    return frozenset(bits_of(state.start_mask))


def chase_final_set(state: ChaseState) -> frozenset[int]:
    return frozenset(bits_of(state.final_mask))


def check_chase_invariants(state: ChaseState, coloring: Coloring) -> bool:
    """Structural sanity of a chase's trace alone: nesting, pivot adjacency,
    thresholds."""
    current = chase_start(state)
    for (pivot, letter), after in zip(state.pivots, chase_sets(state)):
        if pivot not in current:
            return False
        rest = current - {pivot}
        red_nb = {v for v in rest if coloring.color_of(pivot, v) == RED}
        expect_red = len(red_nb) >= state.red_threshold * len(rest)
        if (letter == RED) != expect_red:
            return False
        want = red_nb if letter == RED else rest - red_nb
        if after != want:
            return False
        current = after
    return True


def reference_red_rows(n: int, p: float, seed: int) -> tuple[int, ...]:
    """The red rows of ``sample_coloring(n, p, seed)`` from numpy's own
    generator: pair i, in lexicographic order, is red iff draw i is below p."""
    draws = np.random.Generator(np.random.Philox(key=seed)).random(n * (n - 1) // 2)
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, 1)] = draws < p  # lexicographic pair order
    adj |= adj.T
    return tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                 for row in adj)


# The sampler before it drew raw words, verbatim but for the names, the
# docstrings and the mirror: one float64 drawn per pair and compared with p,
# and each block's pairs placed through a tiled mask; each whole bool matrix
# is then ORed with its transpose.  The reference for
# ``randomlab.sample_red_rows``.

def _reference_upper(lo: int, hi: int, n: int) -> np.ndarray:
    """Bool (hi - lo) x n mask of the pairs {u, v}, lo <= u < hi and u < v;
    row-major order is their lexicographic order."""
    return np.arange(lo, hi)[:, None] < np.arange(n)


def reference_pair_bits(red: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    """Bool k x (hi - lo) x n rows lo..hi-1 of each coloring of a stack,
    their entries above the diagonal alone set: ``red[k]`` holds the colours
    of the pairs {u, v}, lo <= u < hi and u < v, of the k-th coloring, in
    lexicographic order."""
    k, rows = len(red), hi - lo
    a = np.zeros((k * rows, n), dtype=bool)
    a[np.tile(_reference_upper(lo, hi, n), (k, 1))] = red.ravel()
    return a.reshape(k, rows, n)


def reference_symmetric_rows(a: np.ndarray) -> tuple[int, ...]:
    """The rows of each matrix of a bool k x n x n stack ORed with its
    transpose, one matrix after another."""
    k, n, _ = a.shape
    return reference_pack_rows((a | a.transpose(0, 2, 1)).reshape(k * n, n))


def reference_sample_red_rows(n: int, p: float, seeds: range) -> Iterator[tuple[int, ...]]:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    check_vertex_count(n)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if seeds and not (seeds[0] >= 0 and seeds[-1] < SEED_LIMIT):
        raise SeedError(f"seeds must lie in [0, 2**128), got {seeds[0]} to {seeds[-1]}")
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    pairs = n * (n - 1) // 2
    fit = _SAMPLE_ENTRIES // max(n * n, 1)  # seeds whose matrices fit one block
    size = 1
    i = 0
    while i < len(seeds):
        if not fit:
            _rekey(bitgen, seeds[i])
            bands = []
            step = _SAMPLE_ENTRIES // (2 * n)
            for lo in range(0, n, step):
                hi = min(lo + step, n)
                count = (hi - lo) * (2 * n - lo - hi - 1) // 2  # pairs {u, v}, lo <= u < hi, u < v
                bands.append(reference_pair_bits((gen.random(count) < p)[None], n, lo, hi))
            yield reference_symmetric_rows(np.concatenate(bands, axis=1))
            i += 1
            continue
        block = seeds[i:i + min(size, fit)]
        draws = np.empty((len(block), pairs))
        for k, seed in enumerate(block):
            _rekey(bitgen, seed)
            gen.random(out=draws[k])
        rows = reference_symmetric_rows(reference_pair_bits(draws < p, n, 0, n))
        for k in range(len(block)):
            yield rows[k * n:(k + 1) * n]
        i += len(block)
        size *= 2


def reference_pack_rows(adj: np.ndarray) -> tuple[int, ...]:
    """``pack_rows`` as it was before rows of at most 64 columns went through
    one word each: every row through ``int.from_bytes``."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[v * width:(v + 1) * width], "little")
                 for v in range(len(packed)))


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


# The chase before it ran on bit masks, verbatim but for its name and its
# return, which builds the record's masks from its sets: the reference for
# ``search.neighborhood_chase``.

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
    return ChaseState(tuple(pivots), tuple(mask_of(s) for s in sets), "".join(letters),
                      mask_of(frozenset(start_set)), red_threshold)


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
# place per step, verbatim but for its name and the str it no longer takes:
# the reference for ``graphs._read_edge_lines``, which converts eight digits
# per word.

def reference_read_edge_lines(data: bytes, lo: int, hi: int, t: int,
                              us: np.ndarray, vs: np.ndarray, k: int) -> int:
    """Read the edge lines in data[lo:hi] into us[k:] and vs[k:]; return the
    number of edge lines read so far.

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
            us[k + j], vs[k + j] = _edge_line(data[a:z], k + j + 2, t)
        except GraphFormatError as e:
            # a duplicate on an earlier line is the first error
            raise (_first_duplicate(us[:k + j], vs[:k + j]) or e) from None
    return k + n


def _first_duplicate(eu: np.ndarray, ev: np.ndarray) -> Optional[GraphFormatError]:
    """The error for the first edge line that repeats an earlier one, if any."""
    order = np.lexsort((np.arange(len(eu)), ev, eu))  # equal edges in line order
    su, sv = eu[order], ev[order]
    repeats = order[1:][(su[1:] == su[:-1]) & (sv[1:] == sv[:-1])]
    if not len(repeats):
        return None
    j = int(repeats.min())
    return GraphFormatError(f"duplicate edge ({eu[j]},{ev[j]})", j + 2)


# The graph text reader before it read files a block at a time: the whole
# bytes at once, every edge line in one pass of the byte reader above, and
# the rows from one t x t matrix.  The reference for ``parse_graph`` of bytes
# and of files, its errors included, where the header line holds no byte but
# letters, digits, spaces and tabs (it reads the header's fields with int(),
# which takes a sign or an underscore too).

def reference_parse_graph_bytes(data: bytes) -> Graph:
    lo = len(data) - len(data.lstrip(b" \t"))
    hi = max(lo, len(data.rstrip(b" \t\n")))
    if lo == hi:
        raise GraphFormatError("empty input", 1)
    end = data.find(b"\n", lo, hi)
    head = data[lo:end if end >= 0 else hi].split()
    if len(head) != 4 or head[0] != b"t" or head[2] != b"m":
        raise GraphFormatError("expected header 't <t> m <m>'", 1)
    try:
        t, m = int(head[1]), int(head[3])
    except ValueError:
        raise GraphFormatError("non-integer header fields", 1) from None
    if t < 1:
        raise GraphFormatError("t must be >= 1", 1)
    if t > MAX_VERTICES:
        raise GraphFormatError(f"t must be at most {MAX_VERTICES}", 1)
    found = 0 if end < 0 else data.count(b"\n", end + 1, hi) + 1
    if found != m:
        raise GraphFormatError(f"expected {m} edge lines, found {found}", 1)
    us, vs = np.empty(m, np.int64), np.empty(m, np.int64)
    if m:
        reference_read_edge_lines(data, end + 1, hi, t, us, vs, 0)
    adj = np.zeros((t, t), bool)
    adj[us, vs] = True
    if np.count_nonzero(adj) != m:
        raise _first_duplicate(us, vs)
    return Graph(t, reference_pack_rows(adj | adj.T))


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
    if value & ((1 << (total - nbits)) - 1):
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


# The Ramsey oracle before it decided each new vertex's neighbourhood one old
# vertex at a time and skipped neighbourhoods that an automorphism of the
# parent maps onto a smaller one, verbatim but for the names: the reference
# for ``ramsey_number_exact`` and ``canonical_form``.

def reference_refine(rows: Sequence[int], cells: list[tuple[int, ...]], queue: list[int]) -> None:
    """Refine the ordered partition ``cells`` in place until it is equitable.

    Each mask in ``queue`` is used once as a splitter: every cell whose
    vertices have different numbers of neighbours in it is replaced, where
    it stands, by its parts in increasing order of that number, and the
    parts join the queue.  Each final cell was queued when it was made, so
    the result is equitable.  Every step depends on cells as sets and on
    their positions only, so relabelling the graph relabels the result.
    """
    head = 0
    n = len(rows)
    while head < len(queue) and len(cells) < n:
        splitter = queue[head]
        head += 1
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                counts = [(rows[v] & splitter).bit_count() for v in cell]
                if min(counts) != max(counts):
                    parts: dict[int, list[int]] = {}
                    for v, c in zip(cell, counts):
                        parts.setdefault(c, []).append(v)
                    split = [tuple(parts[c]) for c in sorted(parts)]
                    cells[i:i + 1] = split
                    queue.extend(mask_of(part) for part in split)
                    i += len(split)
                    continue
            i += 1


def reference_canonical_rows(rows: Sequence[int],
                   cells: Optional[list[tuple[int, ...]]] = None) -> tuple[int, ...]:
    """Canonical form of the graph with bit rows ``rows``.

    Two graphs get the same form iff they are isomorphic (by a bijection
    that maps each cell of ``cells``, an ordered partition of the
    vertices, onto the cell at the same position of the other's; by
    default one cell).  The form is the smallest row tuple over the leaves
    of the search tree of equitable refinement plus individualisation: a
    node individualises each vertex of its first smallest non-singleton
    cell in turn, and a leaf's partition is discrete and numbers the
    vertices by position.  Automorphisms found at leaves that equal the
    best one prune the tree: a vertex in the orbit of one already tried,
    under automorphisms that fix the node's individualised vertices, has an
    equivalent subtree.
    """
    n = len(rows)
    if n == 0:
        return ()
    if cells is None:
        cells = [tuple(range(n))]
    best: Optional[tuple[int, ...]] = None  # the smallest relabelled rows so far
    best_path: tuple[int, ...] = ()  # the individualised vertices of their leaf
    best_cells: list[tuple[int, ...]] = []  # and its discrete partition
    autos: list[list[int]] = []  # automorphisms, as vertex images

    def leaf(cells) -> tuple[int, ...]:
        pos = [0] * n
        for i, (v,) in enumerate(cells):
            pos[v] = i
        return tuple(sum(1 << pos[u] for u in bits_of(rows[v])) for (v,) in cells)

    def visit(cells, queue, path) -> Optional[int]:
        """Search below a node; the level to jump back to, if any."""
        nonlocal best, best_path, best_cells
        reference_refine(rows, cells, queue)
        level = len(path)
        if len(cells) == n:
            form = leaf(cells)
            if best is None or form < best:
                best, best_path, best_cells = form, path, cells
                return None
            if form != best:
                return None
            # The automorphism maps the best leaf's path onto this one's, so
            # it fixes their common prefix: the branch where they part is
            # equivalent to one already searched.
            gamma = [0] * n
            for (v,), (w,) in zip(best_cells, cells):
                gamma[v] = w
            autos.append(gamma)
            return next(k for k in range(level) if path[k] != best_path[k])
        size = min(len(c) for c in cells if len(c) > 1)
        target = next(i for i, c in enumerate(cells) if len(c) == size)
        cell = cells[target]
        tried: list[int] = []
        for w in cell:
            if tried and reference_same_orbit(w, tried, autos, path, n):
                continue
            tried.append(w)
            rest = tuple(v for v in cell if v != w)
            child = cells[:target] + [(w,), rest] + cells[target + 1:]
            jump = visit(child, [1 << w], path + (w,))
            if jump is not None and jump < level:
                return jump
        return None

    visit(list(cells), [mask_of(c) for c in cells], ())
    return best


def reference_same_orbit(w: int, tried: list[int], autos: list[list[int]],
                fixed: tuple[int, ...], n: int) -> bool:
    """Is ``w`` in the orbit of a tried vertex under the automorphisms that
    fix every vertex of ``fixed``?"""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for gamma in autos:
        if all(gamma[v] == v for v in fixed):
            for v in range(n):
                a, b = root(v), root(gamma[v])
                if a != b:
                    parent[a] = b
    r = root(w)
    return any(root(v) == r for v in tried)


def reference_orbit_representatives(pattern: Graph) -> list[int]:
    """One vertex of each orbit of the pattern's automorphism group: x and y
    share an orbit iff individualising either gives the same canonical form."""
    reps, forms = [], set()
    for x in range(pattern.t):
        rest = tuple(v for v in range(pattern.t) if v != x)
        form = reference_canonical_rows(pattern.rows, [(x,), rest] if rest else [(x,)])
        if form not in forms:
            forms.add(form)
            reps.append(x)
    return reps


def reference_ramsey_number_exact(pattern1: Graph, pattern2: Graph, n_max: int = 8,
                        guard: int = DEFAULT_NMAX_GUARD) -> RamseyCertificate:
    """Smallest n <= n_max forcing a blue pattern1 or red pattern2.

    Returns an "upper" certificate with the exact value, the avoiding
    witness at n-1 and the class counts below n, or a "lower" certificate
    at n_max when the value exceeds the searched range.

    The search runs depth first over good colorings -- no blue pattern1,
    no red pattern2 -- each stored as the canonical form of its red rows.
    A child of a good K_k adds vertex k with one red neighbourhood S of
    0..k-1; it is good iff no forbidden copy passes through vertex k, since
    its K_k is good, and it is expanded only if its form is new at level
    k+1.  Every good K_{k+1} restricts to a good K_k, and every isomorphism
    class at level k is expanded, so an exhausted search has met every
    class at every level: n is one more than the deepest level reached.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > guard:
        raise OracleRefusal(
            f"n_max={n_max} exceeds the feasibility guard {guard}; "
            "raise `guard` explicitly to override"
        )
    # An edgeless forbidden pattern is in every coloring with enough vertices.
    fits = min((p.t for p in (pattern1, pattern2) if p.m == 0), default=n_max + 1)
    plans1, plans2 = ([_embed_plan(p, (x,)) for x in reference_orbit_representatives(p)]
                      for p in (pattern1, pattern2))
    seen: list[set[tuple[int, ...]]] = [set() for _ in range(n_max + 1)]
    first: list[tuple[int, ...]] = [()]  # the first good coloring met at each level

    def good(red: list[int], k: int) -> bool:
        """Does the coloring of K_k with red rows ``red`` avoid every
        forbidden copy through vertex k-1?"""
        last = (k - 1,)
        if pattern2.t <= k and any(_embed_backtrack(plan, red, k, last) is not None
                                   for plan in plans2):
            return False
        if pattern1.t > k:
            return True
        full = (1 << k) - 1
        blue = [full ^ r ^ (1 << v) for v, r in enumerate(red)]
        return all(_embed_backtrack(plan, blue, k, last) is None for plan in plans1)

    def extend(rows: tuple[int, ...]) -> bool:
        """Search below a good coloring; True once level n_max is reached."""
        k = len(rows)
        if k >= n_max:
            return True
        if k + 1 >= fits:
            return False
        bit = 1 << k
        for s in range(1 << k):
            red = [r | bit if s >> v & 1 else r for v, r in enumerate(rows)]
            red.append(s)
            if not good(red, k + 1):
                continue
            form = reference_canonical_rows(red)
            if form in seen[k + 1]:
                continue
            seen[k + 1].add(form)
            if len(first) == k + 1:
                first.append(form)
            if extend(form):
                return True
        return False

    reached = extend(())
    deepest = len(first) - 1
    witness = Coloring(deepest, first[deepest]) if deepest else None
    witness_n = deepest or None
    if reached:
        return RamseyCertificate("lower", n_max, pattern1, pattern2,
                                 witness=witness, witness_n=witness_n)
    return RamseyCertificate("upper", deepest + 1, pattern1, pattern2,
                             witness=witness, witness_n=witness_n,
                             classes=tuple(len(level) for level in seen[1:deepest + 1]))


# the largest host check_bidense_bruteforce enumerates
BIDENSE_BRUTE_MAX_N = 12


def check_bidense_bruteforce(host, sigma: float, delta: float,
                             color: Optional[str] = None) -> Optional[BiDensityWitness]:
    """All-sizes reference check of the bi-(sigma, delta)-density condition.

    Enumerates every disjoint pair of vertex sets with both sizes >=
    ceil(sigma*n) and returns the first pair of density < delta found, or
    None (Certified).  Guarded to n <= BIDENSE_BRUTE_MAX_N.
    """
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


# The sparse-pair hill climb and the star count as they were before each
# scored a vertex once per side per round: the climb rescored every outside
# vertex for each member of the side, and recounted the cross edges after a
# swap.

def reference_find_sparse_pair_heuristic(host, sigma: float, delta: float,
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
        e = reference_cross_edges(rows, X, Y)
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
                    e = reference_cross_edges(rows, X, Y)  # lower by exactly best_gain
        if e < need:
            X, Y = sorted(X), sorted(Y)
            return BiDensityWitness(tuple(X), tuple(Y), Fraction(e, s * s), sigma, delta)
    return None


def reference_cross_edges(rows: Sequence[int], X: Sequence[int], Y: Sequence[int]) -> int:
    ymask = mask_of(Y)
    return sum((rows[x] & ymask).bit_count() for x in X)


def reference_common_neighborhood_pigeonhole(coloring: Coloring, S: Sequence[int],
                                             B: Sequence[int], l: int, color: str,
                                             mode: str = "exact"
                                             ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Star-counting step: an l-subset T of S with a large common neighborhood in B.

    exact: the T maximizing |B'| over all l-subsets (ties lexicographic).
    greedy: repeatedly drop the S-vertex whose removal keeps the most
    common neighbors.  B' = members of B joined in ``color`` to all of T.
    """
    S = sorted(set(S))
    B = sorted(set(B))
    if l > len(S):
        raise ValueError(f"l={l} exceeds |S|={len(S)}")
    if l < 0:
        raise ValueError("l must be nonnegative")
    rows = coloring.rows(color)

    def common(ts: Sequence[int]) -> list[int]:
        mask = mask_of(B)
        for v in ts:
            mask &= rows[v]
        return sorted(bits_of(mask))

    if mode == "exact":
        if math.comb(len(S), l) > SUBSET_BUDGET:
            raise ValueError(
                f"exact mode needs C({len(S)},{l}) <= budget {SUBSET_BUDGET}"
            )
        best_T, best_B = None, []
        for T in combinations(S, l):
            b = common(T)
            if best_T is None or len(b) > len(best_B):
                best_T, best_B = T, b
        return tuple(best_T or ()), tuple(best_B)
    if mode == "greedy":
        T = list(S)
        while len(T) > l:
            best_i, best_b = 0, -1
            for i in range(len(T)):
                b = len(common(T[:i] + T[i + 1:]))
                if b > best_b:
                    best_i, best_b = i, b
            T.pop(best_i)
        return tuple(T), tuple(common(T))
    raise ValueError(f"unknown mode {mode!r}")
