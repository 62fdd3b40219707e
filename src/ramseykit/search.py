"""Constructive monochromatic-structure searches on concrete colorings.

These procedures are algorithmic extractions of inductive existence
arguments whose guarantees only kick in at astronomically large n.  At
desk scale the contract is soundness plus traceability: every Found
outcome is re-verified against the coloring before being returned, and
failure to find anything is a first-class Exhausted result carrying the
trace of what was attempted, never an error.  Both happen in ``_finish``,
the one exit of each of the three public searches.

The red-H-or-blue-K_s lemma and the random-graph theorem share one
induction, ``_descent``: try the red target in a window; failing that, take
a sparse red pair (A, B), find part of the blue target among the vertices of
A with high blue degree into B, lift it through their common blue
neighborhood in B, and find the rest there.  Its two ``_Rule``s differ in
the blue target and how it is split: the clique rule (vs-clique, mono) seeks
K_s through a 2s/3 clique, the bounded rule (random-bounded) a
bounded-degree graph through a judicious half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Sequence

from . import oracle
from .embedder import embed_greedy, find_sparse_pair_heuristic
from .graphs import (
    BLUE,
    RED,
    Coloring,
    Embedding,
    Graph,
    bits_of,
    mask_of,
    opposite,
)
from .randomlab import judicious_partition


SIGMA = 0.05             # sparse-pair set size, as a fraction of the vertices searched
BASE_S = 8               # clique size at or below which the clique search is exhaustive
BASE_N = 16              # vertex count at or below which subgraph search is exact
SUBSET_BUDGET = 10 ** 7  # most C(|U|, s) subsets an exact enumeration may visit
HEURISTIC_TRIES = 40     # restarts of the sparse-pair hill climb
PARTITION_TRIES = 64     # Las Vegas tries of one judicious bisection


@dataclass(frozen=True)
class SearchConfig:
    rho: float
    seed: int = 0
    max_depth: int = 8  # recursion depth (``search --budget``), not a node count

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")


@dataclass(frozen=True)
class ChaseState:
    """Record of a neighborhood chase: nested sets, pivots, letter string.

    The sets are kept as bit masks."""

    pivots: tuple[tuple[int, str], ...]
    masks: tuple[int, ...]   # U_1, U_2, ... (post-step sets)
    string: str
    start_mask: int
    red_threshold: float

    def pivots_of(self, color: str) -> list[int]:
        return [v for v, c in self.pivots if c == color]

    @property
    def final_mask(self) -> int:
        return self.masks[-1] if self.masks else self.start_mask



@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: a verified find, or an exhaustion trace."""

    kind: str  # found_red_h | found_blue_clique | found_mono | exhausted
    embedding: Optional[Embedding] = None
    clique: Optional[tuple[int, ...]] = None
    color: Optional[str] = None
    trace: tuple = ()
    reason: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.kind != "exhausted"

    def to_json(self) -> dict:
        out = {"outcome": self.kind}
        if self.embedding is not None:
            out["embedding"] = list(self.embedding.image)
        if self.clique is not None:
            out["clique"] = list(self.clique)
        if self.color is not None:
            out["color"] = self.color
        if self.reason is not None:
            out["reason"] = self.reason
        out["trace"] = [dict(ev) for ev in self.trace]
        return out


def neighborhood_chase(coloring: Coloring, start_set: Sequence[int],
                       red_threshold: float, stop_R: int, stop_B: int) -> ChaseState:
    """Iterated pivoting into majority-color neighborhoods.

    Pivot = lowest-index vertex of the current set; the step restricts to
    the pivot's red neighborhood when it holds at least red_threshold of
    the non-pivot vertices, else to the blue neighborhood.  Stops when
    either letter count hits its cap or the set empties.  The sets are bit
    masks throughout.
    """
    if not start_set:
        raise ValueError("start_set must be nonempty")
    if stop_R < 1 or stop_B < 1:
        raise ValueError("stop counts must be >= 1")
    if min(start_set) < 0 or max(start_set) >= coloring.n:
        raise ValueError(f"start_set must lie in 0..{coloring.n - 1}")
    rows = coloring.red_rows
    start = current = mask_of(start_set)
    pivots: list[tuple[int, str]] = []
    masks: list[int] = []
    reds = blues = 0
    while current and reds < stop_R and blues < stop_B:
        low = current & -current
        pivot = low.bit_length() - 1
        rest = current ^ low
        red_nb = rest & rows[pivot]
        if red_nb.bit_count() >= red_threshold * rest.bit_count():
            letter, nxt = RED, red_nb
            reds += 1
        else:
            letter, nxt = BLUE, rest ^ red_nb
            blues += 1
        pivots.append((pivot, letter))
        masks.append(nxt)
        current = nxt
    return ChaseState(tuple(pivots), tuple(masks), "".join(letter for _, letter in pivots),
                      start, red_threshold)


def filter_high_blue_degree(coloring: Coloring, A: Sequence[int], B: Sequence[int],
                            rho: float) -> list[int]:
    """A' = vertices of A with blue degree >= (1-2 rho)|B| into B."""
    aset, bset = set(A), set(B)
    if not aset or not bset:
        raise ValueError("A and B must be nonempty")
    if aset & bset:
        raise ValueError("A and B must be disjoint")
    bmask = mask_of(bset)
    need = (1 - 2 * rho) * len(bset)
    return sorted(v for v in aset
                  if (coloring.row(v, BLUE) & bmask).bit_count() >= need)


def common_neighborhood_pigeonhole(coloring: Coloring, S: Sequence[int], B: Sequence[int],
                                   l: int, color: str,
                                   mode: str = "exact") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Star-counting step: an l-subset T of S with a large common neighborhood in B.

    exact: the T maximizing |B'| over all l-subsets (ties lexicographic).
    greedy: repeatedly drop the S-vertex whose removal keeps the most
    common neighbors.  B' = members of B joined in ``color`` to all of T.
    """
    S = sorted(set(S))
    if l > len(S):
        raise ValueError(f"l={l} exceeds |S|={len(S)}")
    if l < 0:
        raise ValueError("l must be nonnegative")
    rows = coloring.rows(color)
    bmask = mask_of(B)

    def common(ts: Sequence[int]) -> int:
        """The members of B joined in ``color`` to all of ``ts``, as a mask."""
        mask = bmask
        for v in ts:
            mask &= rows[v]
        return mask

    def size(ts: Sequence[int]) -> int:
        return common(ts).bit_count()

    if mode == "exact":
        if math.comb(len(S), l) > SUBSET_BUDGET:
            raise ValueError(
                f"exact mode needs C({len(S)},{l}) <= budget {SUBSET_BUDGET}"
            )
        T = max(combinations(S, l), key=size)  # the first of the largest
    elif mode == "greedy":
        T = list(S)
        while len(T) > l:
            T.pop(max(range(len(T)), key=lambda i: size(T[:i] + T[i + 1:])))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return tuple(T), tuple(bits_of(common(T)))


@dataclass(frozen=True)
class SplitResult:
    subgraph: Graph              # induced on the kept vertices, relabelled
    removed: frozenset[int]      # original vertex ids with degree > cap
    kept: tuple[int, ...]        # kept[i] = original id of subgraph vertex i


def split_high_degree(g: Graph, degree_cap: float) -> SplitResult:
    """Strip vertices of degree > cap; isolated survivors are retained."""
    if degree_cap <= 0:
        raise ValueError("degree_cap must be positive")
    removed = frozenset(v for v in range(g.t) if g.degree(v) > degree_cap)
    kept = tuple(v for v in range(g.t) if v not in removed)
    return SplitResult(g.induced(kept), removed, kept)


def _verify_clique(coloring: Coloring, vertices: Sequence[int], color: str) -> bool:
    vs = list(vertices)
    return all(coloring.color_of(u, v) == color
               for i, u in enumerate(vs) for v in vs[i + 1:])


def _clique_image(pattern: Graph, clique: Sequence[int]) -> Embedding:
    """``pattern`` mapped onto the lowest pattern.t vertices of a clique."""
    return Embedding(pattern, tuple(sorted(clique)[: pattern.t]))


def _reattach(pattern: Graph, kept: Sequence[int], core_image: Sequence[int],
              removed: Sequence[int], pivots: Sequence[int]) -> Embedding:
    """``pattern`` with its core, the vertices ``kept`` in that order, mapped
    to ``core_image`` and its ``removed`` vertices mapped to the pivots."""
    image = [-1] * pattern.t
    for orig, w in zip(kept, core_image):
        image[orig] = w
    for orig, pv in zip(removed, pivots):
        image[orig] = pv
    return Embedding(pattern, tuple(image))


def _finish(coloring: Coloring, pattern: Graph, search, *args) -> SearchOutcome:
    """The one exit of the public searches: ``search(coloring, pattern, *args,
    events)`` appends its events to ``events``, and its outcome leaves with
    them as its trace, once any find in it is re-verified against the
    coloring."""
    events: list[dict] = []
    outcome = replace(search(coloring, pattern, *args, events), trace=tuple(events))
    if outcome.found:
        _assert_outcome_valid(coloring, pattern, outcome)
    return outcome


def _sparse_split(coloring: Coloring, sub: Coloring, verts: Sequence[int], rho: float,
                  seed: int) -> Optional[tuple[list[int], list[int], list[int]]]:
    """A sparse red pair (X, Y) of ``sub``, the coloring induced on ``verts``,
    as (A, B, A') in coloring ids: A = X, B = Y, and A' the members of A with
    high blue degree into B.  None when the hill climb finds no pair."""
    witness = find_sparse_pair_heuristic(sub, SIGMA, rho, RED, tries=HEURISTIC_TRIES,
                                         seed=seed)
    if witness is None:
        return None
    A = [verts[v] for v in witness.X]
    B = [verts[v] for v in witness.Y]
    return A, B, filter_high_blue_degree(coloring, A, B, rho)


def _find_pattern_in_color(sub: Coloring, verts: Sequence[int], pattern: Graph, color: str,
                           config: SearchConfig, events: list) -> Optional[Embedding]:
    """Red-side attempt in ``sub``, the coloring induced on ``verts``: exact
    at small scale, greedy above."""
    if pattern.t > sub.n:
        return None
    if sub.n <= BASE_N:
        emb = oracle.find_mono_subgraph_exact(sub, pattern, color)
        events.append({"event": "exact_pattern_search", "color": color,
                       "n": sub.n, "found": emb is not None})
        if emb is None:
            return None
        return Embedding(pattern, tuple(verts[w] for w in emb.image))
    if sub.n < pattern.max_degree + 1:
        return None
    res = embed_greedy(pattern, sub, delta=config.rho, color=color)
    events.append({"event": "greedy_embed", "color": color, "n": sub.n,
                   "ok": res.ok, "hypothesis_held": res.hypothesis_held})
    if not res.ok:
        return None
    return Embedding(pattern, tuple(verts[w] for w in res.embedding.image))


@dataclass(frozen=True)
class _Rule:
    """What a use of the red/blue descent decides for itself; ``_CLIQUE``
    and ``_BOUNDED`` are the two uses."""

    exhaustive: Callable[[int, int], bool]  # (|W|, s): search W for the targets exactly
    half: Callable[[Graph, int], list[int]]  # (target, seed): its vertices sought in A'
    lift: Callable[[int, int, float], int]  # (s, |S|, rho): l, before 1 <= l <= |S|
    exact_pigeonhole: bool                  # exact star count when affordable, else greedy
    stride: int                             # sparse-pair seed: config.seed + stride * depth


def _bisect(blue: Graph, seed: int) -> list[int]:
    """The smaller side of a judicious bisection; the lowest t//2 vertices
    when it is empty, and the whole target when t <= 2."""
    if blue.t <= 2:
        return list(range(blue.t))
    cert = judicious_partition(blue, PARTITION_TRIES, seed=seed)
    v1 = sorted(cert.v1) if len(cert.v1) <= len(cert.v2) else sorted(cert.v2)
    return v1 or list(range(blue.t // 2))


# K_s targets (vs-clique, mono): a 2s/3 clique in A', then half of s through
# B.  Reached only with s > BASE_S, so 0 < 2s/3 < s.
_CLIQUE = _Rule(
    exhaustive=lambda n, s: s <= BASE_S or math.comb(n, min(s, n)) <= SUBSET_BUDGET,
    half=lambda blue, seed: list(range(math.ceil(2 * blue.t / 3))),
    lift=lambda s, size, rho: math.ceil(0.5 * s),
    exact_pigeonhole=True,
    stride=1,
)
# bounded-degree targets (random-bounded): a judicious half in A', nearly
# all of it kept through B
_BOUNDED = _Rule(
    exhaustive=lambda n, s: n <= BASE_N,
    half=_bisect,
    lift=lambda s, size, rho: math.ceil(
        (1 - math.log2(15 / 14) / (2 * (1 - math.log2(rho)))) * size),
    exact_pigeonhole=False,
    stride=17,
)


def _find_blue(coloring: Coloring, sub: Coloring, verts: Sequence[int],
               target: Graph) -> Optional[Embedding]:
    """Exact search for a blue ``target`` in ``sub``, the coloring induced on
    ``verts``: a clique search for a complete target, which finds the same
    copy faster, and a subgraph search for any other."""
    if target.t > len(verts):
        return None
    if 2 * target.m == target.t * (target.t - 1):
        clique = oracle.find_clique_exact(coloring, target.t, BLUE, within=verts)
        return None if clique is None else Embedding(target, tuple(clique))
    emb = oracle.find_mono_subgraph_exact(sub, target, BLUE)
    return None if emb is None else Embedding(target, tuple(verts[w] for w in emb.image))


def _descent(coloring: Coloring, W: Sequence[int], blue: Graph, red: Graph,
             config: SearchConfig, rule: _Rule, depth: int, events: list) -> SearchOutcome:
    """A red copy of ``red`` or a blue copy of ``blue`` inside the window W,
    by the descent that the module docstring describes.  A find is
    ``found_mono`` in coloring ids, its colour naming the target it embeds."""
    s = blue.t
    events.append({"event": "enter", "depth": depth, "s": s, "size": len(W)})
    if depth > config.max_depth:
        return SearchOutcome("exhausted", reason="depth budget")
    if not W:
        return SearchOutcome("exhausted", reason="empty set")

    verts = sorted(W)
    sub = coloring.induced(verts)
    emb = _find_pattern_in_color(sub, verts, red, RED, config, events)
    if emb is not None:
        return SearchOutcome("found_mono", embedding=emb, color=RED)

    if rule.exhaustive(len(verts), s):
        emb = _find_blue(coloring, sub, verts, blue)
        events.append({"event": "exhaustive_clique", "s": s, "found": emb is not None})
        if emb is None:
            return SearchOutcome("exhausted", reason="exhaustive clique search empty")
        return SearchOutcome("found_mono", embedding=emb, color=BLUE)

    split = _sparse_split(coloring, sub, verts, config.rho, config.seed + rule.stride * depth)
    events.append({"event": "sparse_pair", "found": split is not None})
    if split is None:
        return SearchOutcome("exhausted", reason="no sparse red pair found")
    A, B, A_prime = split
    # A' is never empty: the pair's red density is below rho, so some vertex
    # of A has blue degree above (1 - rho)|B| into B
    events.append({"event": "blue_degree_filter", "A": len(A), "A_prime": len(A_prime)})

    v1 = rule.half(blue, config.seed + depth)
    sub_out = _descent(coloring, A_prime, blue.induced(v1), red, config, rule, depth + 1,
                       events)
    if sub_out.color == RED:
        return sub_out
    if not sub_out.found:
        return SearchOutcome("exhausted", reason=f"recursion exhausted: {sub_out.reason}")

    # star-count step: lift through the common blue neighborhood
    S = sub_out.embedding.image
    l = min(len(S), max(1, rule.lift(s, len(S), config.rho)))
    exact = rule.exact_pigeonhole and math.comb(len(S), l) <= SUBSET_BUDGET
    mode = "exact" if exact else "greedy"
    T, B_prime = common_neighborhood_pigeonhole(coloring, S, B, l, BLUE, mode=mode)
    events.append({"event": "pigeonhole", "l": l, "mode": mode, "B_prime": len(B_prime)})
    if not B_prime:
        return SearchOutcome("exhausted", reason="empty common neighborhood")
    image = [-1] * s
    for v, w in zip(v1, S):
        if w in T:
            image[v] = w
    rest = [v for v in range(s) if image[v] < 0]
    if rest:
        tail = _descent(coloring, B_prime, blue.induced(rest), red, config, rule, depth + 1,
                        events)
        if tail.color == RED:
            return tail
        if not tail.found:
            return SearchOutcome("exhausted", reason=f"tail recursion exhausted: {tail.reason}")
        for v, w in zip(rest, tail.embedding.image):
            image[v] = w
    emb = Embedding(blue, tuple(image))
    if not oracle.verify_embedding(blue, coloring, emb, BLUE)[0]:
        return SearchOutcome("exhausted", reason="assembled clique failed verification")
    return SearchOutcome("found_mono", embedding=emb, color=BLUE)


def find_red_H_or_blue_clique(coloring: Coloring, pattern: Graph, s: int,
                              config: SearchConfig) -> SearchOutcome:
    """Hunt a red copy of ``pattern`` or a blue K_s, by sparse-pair descent.

    The red/blue descent with the clique rule: try a red embedding; failing
    that, find a sparse red pair, pass to the high-blue-degree filter,
    recurse for a 2s/3 blue clique, then lift it to size s through the
    common-neighborhood (star-count) step.  Small subproblems fall through to
    complete exhaustive searches.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    return _finish(coloring, pattern, _red_h_or_blue_clique, s, config)


def _red_h_or_blue_clique(coloring: Coloring, pattern: Graph, s: int, config: SearchConfig,
                          events: list) -> SearchOutcome:
    out = _descent(coloring, range(coloring.n), Graph.complete(s), pattern, config, _CLIQUE,
                   0, events)
    if out.color == RED:
        return replace(out, kind="found_red_h")
    if out.color == BLUE:
        return SearchOutcome("found_blue_clique", clique=tuple(sorted(out.embedding.image)),
                             color=BLUE)
    return out


def _assert_outcome_valid(coloring: Coloring, pattern: Graph, outcome: SearchOutcome):
    if outcome.kind in ("found_red_h", "found_mono"):
        ok, violation = oracle.verify_embedding(outcome.embedding.pattern, coloring,
                                                outcome.embedding, outcome.color)
        if not ok:
            raise AssertionError(f"unsound search outcome: {violation}")
    elif outcome.kind == "found_blue_clique":
        if not _verify_clique(coloring, outcome.clique, BLUE):
            raise AssertionError("unsound clique outcome")


def find_mono_H(coloring: Coloring, pattern: Graph, config: SearchConfig) -> SearchOutcome:
    """Search for a monochromatic copy of ``pattern`` in either color.

    Pipeline: strip high-degree pattern vertices, run a majority-color
    neighborhood chase to build a pivot clique joined to a surviving set,
    search that set for the stripped pattern in the pivot color (or a
    clique in the other color), and reattach the stripped vertices onto
    the pivot clique.  Tiny colorings short-circuit to the exact oracle.
    """
    return _finish(coloring, pattern, _mono_search, config)


def _mono_search(coloring: Coloring, pattern: Graph, config: SearchConfig,
                 events: list) -> SearchOutcome:
    t = pattern.t
    n = coloring.n

    if n <= BASE_N:
        return _exact_mono(coloring, pattern, events)

    rho = float(pattern.density) if pattern.t >= 2 else 1.0
    if rho <= 0:
        return SearchOutcome("exhausted", reason="empty pattern density")
    log_ratio = 1 - math.log2(rho)
    cap = t * math.sqrt(rho) / log_ratio
    split = split_high_degree(pattern, cap)
    events.append({"event": "degree_split", "cap": cap,
                   "removed": sorted(split.removed)})

    stop = max(1, math.ceil(math.sqrt(rho) * log_ratio * t))
    chase = neighborhood_chase(coloring, range(n), 0.5, stop, stop)
    events.append({"event": "chase", "string": chase.string,
                   "final_size": chase.final_mask.bit_count()})

    # the colour whose letters stopped the chase goes first; red when the set emptied
    reds, blues = chase.string.count(RED), chase.string.count(BLUE)
    for c in (BLUE, RED) if reds < stop <= blues else (RED, BLUE):
        out = _mono_via_pivots(coloring, pattern, split, chase, c, config, events)
        if out is not None:
            return out
    return SearchOutcome("exhausted", reason="chase pivots insufficient in both colors")


def _exact_mono(coloring: Coloring, pattern: Graph, events: list) -> SearchOutcome:
    for c in (RED, BLUE):
        emb = oracle.find_mono_subgraph_exact(coloring, pattern, c)
        if emb is not None:
            events.append({"event": "exact_mono", "color": c, "found": True})
            return SearchOutcome("found_mono", embedding=emb, color=c)
    events.append({"event": "exact_mono", "found": False})
    return SearchOutcome("exhausted", reason="exact search: no monochromatic copy exists")


def _mono_via_pivots(coloring: Coloring, pattern: Graph, split: SplitResult,
                     chase: ChaseState, c: str, config: SearchConfig,
                     events: list) -> Optional[SearchOutcome]:
    t = pattern.t
    pivots = chase.pivots_of(c)
    events.append({"event": "pivot_attempt", "color": c, "pivots": len(pivots)})
    if len(pivots) >= t:
        return SearchOutcome("found_mono", embedding=_clique_image(pattern, pivots), color=c)
    final = list(bits_of(chase.final_mask))
    if len(pivots) < len(split.removed) or len(final) < max(split.subgraph.t, 1):
        return None
    view = coloring if c == RED else coloring.swapped()
    sub_out = _descent(view, final, Graph.complete(t), split.subgraph, config, _CLIQUE, 0,
                       events)
    if sub_out.color == BLUE:
        # K_t in the opposite color contains the whole pattern.
        return SearchOutcome("found_mono",
                             embedding=_clique_image(pattern, sub_out.embedding.image),
                             color=opposite(c))
    if sub_out.color == RED:
        emb = _reattach(pattern, split.kept, sub_out.embedding.image,
                        sorted(split.removed), pivots)
        return SearchOutcome("found_mono", embedding=emb, color=c)
    return None


def find_random_graph_mono(coloring: Coloring, pattern: Graph, degree_cap: int,
                           config: SearchConfig) -> SearchOutcome:
    """Monochromatic search for degree-bounded patterns with an exceptional set:
    the vertices of degree above ``degree_cap``.

    Double neighborhood chase (red then blue) builds two pivot cliques that
    will absorb the exceptional vertices; the surviving set is searched for
    the rest of the pattern, the core, in both colours by the red/blue
    descent with the bounded rule: greedy red embedding, sparse-pair
    extraction, judicious bisection of the blue target, and the star-count
    lift.  Sound and traceable, not complete.
    """
    return _finish(coloring, pattern, _random_graph_search, degree_cap, config)


def _random_graph_search(coloring: Coloring, pattern: Graph, degree_cap: int,
                         config: SearchConfig, events: list) -> SearchOutcome:
    t = pattern.t
    n = coloring.n
    if n <= BASE_N:
        return _exact_mono(coloring, pattern, events)

    exceptional = [v for v in range(t) if pattern.degree(v) > degree_cap]
    q = len(exceptional)
    kept = tuple(v for v in range(t) if pattern.degree(v) <= degree_cap)
    core = pattern.induced(kept) if kept else None
    rho = config.rho

    stop_pivots = max(q, math.ceil(math.sqrt(t)), 1)
    anchors: dict[str, list[int]] = {}
    survivors: Sequence[int] = range(n)
    for c, name in ((RED, "red"), (BLUE, "blue")):
        # chase in the view where ``c`` is red; its blue letters are the other colour
        view = coloring if c == RED else coloring.swapped()
        chase = neighborhood_chase(view, survivors, rho, stop_pivots, max(t - 1, 1))
        final = chase.final_mask
        events.append({"event": f"chase_{name}", "string": chase.string,
                       "final_size": final.bit_count()})
        if chase.string.count(BLUE) >= t - 1 and final:
            clique = chase.pivots_of(BLUE) + [next(bits_of(final))]
            return SearchOutcome("found_mono", embedding=_clique_image(pattern, clique),
                                 color=opposite(c))
        anchors[c] = chase.pivots_of(RED)
        if len(anchors[c]) >= t:
            return SearchOutcome("found_mono", embedding=_clique_image(pattern, anchors[c]),
                                 color=c)
        if len(anchors[c]) < stop_pivots or not final:
            return SearchOutcome("exhausted", reason=f"{name} chase emptied before pivot quota")
        survivors = list(bits_of(final))

    # core is not None: with every vertex exceptional, q = t pivots are the
    # quota, so the red chase has already returned.
    out = _descent(coloring, survivors, core, core, config, _BOUNDED, 0, events)
    if not out.found:
        return SearchOutcome("exhausted", reason="two-sided recursion exhausted")
    emb = _reattach(pattern, kept, out.embedding.image, exceptional, anchors[out.color])
    return SearchOutcome("found_mono", embedding=emb, color=out.color)
