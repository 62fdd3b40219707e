"""Ground truth at desk scale.

Exact monochromatic-subgraph search (backtracking over bitset candidate
sets), exact Ramsey numbers for tiny instances, embedding verification,
and randomized lower-bound certificates.  Everything here is complete
within its guards; guards produce explicit refusals, never silent partial
answers.

Every embedding search runs on a plan built once per pattern and list of
preassigned vertices (``_embed_plan``): the order in which pattern
vertices are placed and, for each, the earlier ones adjacent to it.  A
vertex's candidates are then the unused host vertices adjacent to the
images of those earlier neighbours, one AND per neighbour.  The Ramsey
oracle plans each orbit representative once per call, and certify-lower
plans its pattern once per call.

Exact Ramsey numbers come from vertex extension with isomorph rejection
(McKay & Radziszowski, "R(4,5)=25", J. Graph Theory 1995; McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  A coloring of
K_n is good when it has no blue pattern1 and no red pattern2.  Goodness is
hereditary: deleting a vertex of a good K_n leaves a good K_{n-1}.  So
every good K_n is a good K_{n-1} plus one vertex with some red
neighbourhood, and a depth-first search that extends one coloring per
isomorphism class at each level meets every good coloring up to
isomorphism.  A child can only gain forbidden copies through its new
vertex, so only those are checked.  Isomorphism classes are told apart by a
canonical form (equitable refinement plus individualisation, in pure
Python), which the graphs here, at most about 14 vertices, keep cheap.
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


@dataclass(frozen=True)
class _EmbedPlan:
    """The search order of ``_embed_backtrack`` for one pattern and one list
    of preassigned pattern vertices, built once and reused for every host.

    ``order[i]`` is the pattern vertex placed at position i: the
    preassigned vertices first, in the order given, then the rest by
    descending degree, ties by index.  ``back[i]`` lists the earlier
    positions adjacent to position i.
    """

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]


def _embed_plan(pattern: Graph, preassigned: Sequence[int] = ()) -> _EmbedPlan:
    """The plan that places the pattern vertices ``preassigned`` first."""
    rest = sorted(set(range(pattern.t)).difference(preassigned),
                  key=lambda v: (-pattern.degree(v), v))
    order = (*preassigned, *rest)
    back = tuple(tuple(j for j in range(i) if pattern.rows[v] >> order[j] & 1)
                 for i, v in enumerate(order))
    return _EmbedPlan(order, back)


def _embed_backtrack(plan: _EmbedPlan, rows: Sequence[int], n: int,
                     images: Sequence[int] = ()) -> Optional[tuple[int, ...]]:
    """Lexicographic-first embedding of the plan's pattern into the host
    rows, as the image of each pattern vertex, or None.

    ``images[i]`` is the host vertex of the plan's i-th preassigned vertex,
    which sits at position i.  Position i takes the unused host vertices
    adjacent to the images of its back positions, lowest first (only its
    image, if it is preassigned); a position without candidates sends the
    search back one position.  Positions and candidates come in a fixed
    order, so the first complete assignment is the lexicographic-first image
    in that order.  No look-ahead prunes the tree: it would cut only
    branches that cannot complete, so it could not change the result.
    """
    back = plan.back
    t = len(back)
    if t == 0:
        return ()
    forced = len(images)
    free = (1 << n) - 1  # host vertices no earlier position uses
    at = [0] * t  # host vertex of each position
    left = [0] * t  # candidates of each position not yet tried
    pos = 0
    cand = free if not forced else free & 1 << images[0]
    while True:
        if cand:
            low = cand & -cand
            left[pos] = cand ^ low
            at[pos] = low.bit_length() - 1
            pos += 1
            if pos == t:
                break
            free ^= low
            cand = free
            for j in back[pos]:
                cand &= rows[at[j]]
            if pos < forced:
                cand &= 1 << images[pos]
            continue
        if pos == 0:
            return None
        pos -= 1
        free |= 1 << at[pos]
        cand = left[pos]
    image = [0] * t
    for v, w in zip(plan.order, at):
        image[v] = w
    return tuple(image)


def find_mono_subgraph_exact(host, pattern: Graph, color: Optional[str] = None) -> Optional[Embedding]:
    """Complete search for a copy of ``pattern`` in a host (or color class).

    Returns the lexicographic-first embedding under the fixed search order,
    or None if no copy exists.  Practical for patterns up to ~10 vertices
    against hosts up to ~60.
    """
    rows = rows_of(host, color)
    if pattern.t > len(rows):
        return None
    image = _embed_backtrack(_embed_plan(pattern), rows, len(rows))
    if image is None:
        return None
    return Embedding(pattern, image)


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


def _refine(rows: Sequence[int], cells: list[tuple[int, ...]], queue: list[int]) -> None:
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


def canonical_rows(rows: Sequence[int],
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
        _refine(rows, cells, queue)
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
            if tried and _same_orbit(w, tried, autos, path, n):
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


def _same_orbit(w: int, tried: list[int], autos: list[list[int]],
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


def _orbit_representatives(pattern: Graph) -> list[int]:
    """One vertex of each orbit of the pattern's automorphism group: x and y
    share an orbit iff individualising either gives the same canonical form."""
    reps, forms = [], set()
    for x in range(pattern.t):
        rest = tuple(v for v in range(pattern.t) if v != x)
        form = canonical_rows(pattern.rows, [(x,), rest] if rest else [(x,)])
        if form not in forms:
            forms.add(form)
            reps.append(x)
    return reps


@dataclass(frozen=True)
class RamseyCertificate:
    """Outcome of an exact off-diagonal Ramsey computation.

    kind "upper": every coloring of K_n contains blue pattern1 or red
    pattern2 (n is the exact Ramsey number when a lower witness at n-1 is
    attached), and ``classes[k-1]`` is the number of colorings of K_k, up
    to isomorphism, that contain neither, for each k < n.  kind "lower": a
    verified witness coloring at n avoids both.
    """

    kind: str
    n: int
    pattern1: Graph
    pattern2: Graph
    witness: Optional[Coloring] = None
    witness_n: Optional[int] = None
    classes: Optional[tuple[int, ...]] = None

    def verify(self) -> bool:
        if self.witness is None:
            return self.kind == "upper"
        no_blue = find_mono_subgraph_exact(self.witness, self.pattern1, BLUE) is None
        no_red = find_mono_subgraph_exact(self.witness, self.pattern2, RED) is None
        return no_blue and no_red


def ramsey_number_exact(pattern1: Graph, pattern2: Graph, n_max: int = 8,
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
    plans1, plans2 = ([_embed_plan(p, (x,)) for x in _orbit_representatives(p)]
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
            form = canonical_rows(red)
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


def lower_bound_certificate_random(pattern: Graph, n: int, tries: int, seed: int,
                                   p_red: float = 0.5) -> Optional[Coloring]:
    """The first of the colorings ``sample_coloring(n, p_red, seed + i)``, i =
    0 .. tries-1, with no monochromatic ``pattern``, or None.

    The colorings are drawn in blocks (``randomlab.sample_red_rows``) and
    searched as raw rows, red first; only the one returned is built as a
    ``Coloring``, and it is re-verified in both colors.  Every seed must be a
    Philox key, which is checked before anything is drawn.  None proves
    nothing (the search is one-sided).
    """
    from .randomlab import sample_red_rows

    if tries < 1:
        raise ValueError(f"tries must be at least 1, got {tries}")
    plan = _embed_plan(pattern)
    for red in sample_red_rows(n, p_red, range(seed, seed + tries)):
        if _embed_backtrack(plan, red, n) is not None:
            continue
        full = (1 << n) - 1
        blue = [full ^ r ^ (1 << v) for v, r in enumerate(red)]
        if _embed_backtrack(plan, blue, n) is None:
            witness = Coloring(n, red)
            if find_mono_subgraph_exact(witness, pattern, RED) is not None or \
               find_mono_subgraph_exact(witness, pattern, BLUE) is not None:
                raise AssertionError("unsound certify-lower witness")
            return witness
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
