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
oracle plans each orbit of its patterns' ordered edges once per call, and
certify-lower plans its pattern once per call.

Randomized lower-bound certificates are Erdos's random two-colouring run at
desk scale: colorings of K_n are drawn in blocks of 1, 2, 4, ... seeds until
one has no monochromatic copy of the pattern.  Where a table of every copy
of the pattern in K_n, each a bit mask over the pairs, fits one budget, it
is built once per call and a whole block is decided with numpy: a coloring
holds a monochromatic copy iff some mask lies inside its red pairs or misses
them all.  Past the budget each coloring is searched with the embedding
kernel.  Either way the coloring returned is re-verified.

Exact Ramsey numbers come from vertex extension with isomorph rejection
(McKay & Radziszowski, "R(4,5)=25", J. Graph Theory 1995; McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  A coloring of
K_n is good when it has no blue pattern1 and no red pattern2.  Goodness is
hereditary: deleting a vertex of a good K_n leaves a good K_{n-1}.  So
every good K_n is a good K_{n-1} plus one vertex with some red
neighbourhood, and a depth-first search that extends one coloring per
isomorphism class at each level meets every good coloring up to
isomorphism.  A child can only gain forbidden copies through its new
vertex, so only those are checked, and they are checked while the new
vertex's red neighbourhood is being decided, one old vertex at a time: a
red edge to it that closes a red pattern2, or a blue one that closes a blue
pattern1, cuts the branch at once, so only good children are completed.
Isomorphism classes are told apart by a canonical form (equitable
refinement plus individualisation, in pure Python), which the graphs here,
at most about 14 vertices, keep cheap.  The form's search also yields
automorphisms, and a coloring is extended only by the neighbourhoods that
are least in their orbit under them; the others give isomorphic children.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations, permutations
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    BLUE,
    RED,
    Coloring,
    Embedding,
    Graph,
    _pair_bits,
    _symmetric,
    bits_of,
    mask_of,
    rows_of,
)
from .randomlab import red_pair_blocks, sample_red_rows

DEFAULT_NMAX_GUARD = 10


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

    It stays apart from ``_embed_backtrack``, which finds the same clique on
    a K_size plan: it extends only in ascending order and cuts a branch that
    has too few candidates left, and the kernel does neither.  A K10 search
    failing in 20 vertices took 16.6 s there against 0.36 ms here (0.16 s
    with twin vertices forced ascending); the clique calls of two
    ``search_sweep`` passes took 117 s against 0.02 s.
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


def _refine(rows: Sequence[int], cells: list[int], queue: list[int]) -> None:
    """Refine the ordered partition ``cells``, a list of vertex masks, in
    place until it is equitable.

    Each mask in ``queue`` is used once as a splitter: every cell whose
    vertices have different numbers of neighbours in it is replaced, where
    it stands, by its parts in increasing order of that number, and the
    parts join the queue.  Each final cell was queued when it was made, so
    the result is equitable.  Every step depends on cells as sets and on
    their positions only, so relabelling the graph relabels the result.  A
    splitter of one vertex w parts a cell into the vertices outside and
    inside w's row.
    """
    head = 0
    n = len(rows)
    while head < len(queue) and len(cells) < n:
        splitter = queue[head]
        head += 1
        out: list[int] = []
        if splitter & (splitter - 1) == 0:
            lone = rows[splitter.bit_length() - 1]
            for cell in cells:
                inside = cell & lone
                if inside and inside != cell:  # so the cell has two vertices or more
                    out += (cell ^ inside, inside)
                    queue += (cell ^ inside, inside)
                else:
                    out.append(cell)
        else:
            for cell in cells:
                if cell & (cell - 1):
                    parts: dict[int, int] = {}
                    for v in bits_of(cell):
                        c = (rows[v] & splitter).bit_count()
                        parts[c] = parts.get(c, 0) | 1 << v
                    if len(parts) > 1:
                        split = [parts[c] for c in sorted(parts)]
                        out += split
                        queue += split
                        continue
                out.append(cell)
        cells[:] = out


def _relabel(row: int, pos: Sequence[int]) -> int:
    """``row`` with each vertex v renamed ``pos[v]``."""
    out = 0
    while row:
        low = row & -row
        out |= 1 << pos[low.bit_length() - 1]
        row ^= low
    return out


def canonical_form(rows: Sequence[int], cells: Optional[list[tuple[int, ...]]] = None,
                   ) -> tuple[tuple[int, ...], list[list[int]]]:
    """Canonical form of the graph with bit rows ``rows``, and automorphisms
    of the form, each as the list of vertex images.

    Two graphs get the same form iff they are isomorphic (by a bijection
    that maps each cell of ``cells``, an ordered partition of the
    vertices, onto the cell at the same position of the other's; by
    default one cell).  The form is the smallest row tuple over the leaves
    of the search tree of equitable refinement plus individualisation: a
    node individualises each vertex of its first smallest non-singleton
    cell in turn, lowest first, and a leaf's partition is discrete and
    numbers the vertices by position.  A leaf is compared with the best one
    row by row, up to the first row that differs.  Automorphisms found at
    leaves that equal the best one prune the tree: a vertex in the orbit of
    one already tried, under automorphisms that fix the node's
    individualised vertices, has an equivalent subtree.  Each node keeps
    the union of the tried vertices' orbits as a mask, and grows it only
    when a vertex is tried or an automorphism is found.  The automorphisms
    returned are the ones found, relabelled as the form numbers the
    vertices; they preserve every cell.
    """
    n = len(rows)
    if n == 0:
        return (), []
    masks = [mask_of(c) for c in cells] if cells is not None else [(1 << n) - 1]
    best: list[int] = []  # the smallest relabelled rows so far
    best_path: tuple[int, ...] = ()  # the individualised vertices of their leaf
    best_order: list[int] = []  # and the vertex at each position of its partition
    autos: list[list[int]] = []  # automorphisms, as vertex images

    def leaf(cells: list[int], path: tuple[int, ...]) -> Optional[int]:
        """Compare a leaf with the best one; the level to jump back to, if any."""
        nonlocal best, best_path, best_order
        order = [c.bit_length() - 1 for c in cells]
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        i = 0
        if best:
            for i, v in enumerate(order):
                row = _relabel(rows[v], pos)
                if row != best[i]:
                    if row > best[i]:
                        return None
                    break
            else:
                # The automorphism maps the best leaf's path onto this one's,
                # so it fixes their common prefix: the branch where they part
                # is equivalent to one already searched.
                gamma = [0] * n
                for v, w in zip(best_order, order):
                    gamma[v] = w
                autos.append(gamma)
                return next(k for k in range(len(path)) if path[k] != best_path[k])
        best = best[:i] + [_relabel(rows[v], pos) for v in order[i:]]
        best_path, best_order = path, order
        return None

    def visit(cells: list[int], queue: list[int], path: tuple[int, ...]) -> Optional[int]:
        """Search below a node; the level to jump back to, if any."""
        _refine(rows, cells, queue)
        if len(cells) == n:
            return leaf(cells, path)
        level = len(path)
        size, target = n + 1, 0
        for i, c in enumerate(cells):
            if c & (c - 1) and c.bit_count() < size:
                size, target = c.bit_count(), i
        cell = cells[target]
        tried = 0  # the orbits of the vertices tried, under ``fixing``
        fixing: list[list[int]] = []  # the automorphisms found that fix the path
        checked = 0  # how many of ``autos`` were looked at for ``fixing``
        for w in bits_of(cell):
            if tried:
                if checked < len(autos):
                    fixing += (g for g in autos[checked:] if all(g[v] == v for v in path))
                    checked = len(autos)
                    tried = _orbits(tried, fixing)
                if tried >> w & 1:
                    continue
            tried = _orbits(tried | 1 << w, fixing)
            child = cells[:target] + [1 << w, cell ^ 1 << w] + cells[target + 1:]
            jump = visit(child, [1 << w], path + (w,))
            if jump is not None and jump < level:
                return jump
        return None

    visit(list(masks), list(masks), ())
    pos = [0] * n
    for i, v in enumerate(best_order):
        pos[v] = i
    return tuple(best), [[pos[gamma[v]] for v in best_order] for gamma in autos]


def _orbits(mask: int, autos: Sequence[Sequence[int]]) -> int:
    """The union of the orbits of the vertices in ``mask`` under the group
    that the permutations ``autos`` generate."""
    grown = True
    while grown:
        grown = False
        for gamma in autos:
            image = _relabel(mask, gamma)
            if image & ~mask:
                mask |= image
                grown = True
    return mask


def _arc_representatives(pattern: Graph) -> list[tuple[int, int]]:
    """One ordered edge (a, b) of each orbit of the pattern's ordered edges
    under its automorphisms, in order: (a, b) and (c, d) share an orbit iff
    individualising a then b gives the canonical form that c then d does."""
    reps, forms = [], set()
    for a in range(pattern.t):
        for b in bits_of(pattern.rows[a]):
            rest = tuple(v for v in range(pattern.t) if v not in (a, b))
            form, _ = canonical_form(pattern.rows, [(a,), (b,), rest] if rest else [(a,), (b,)])
            if form not in forms:
                forms.add(form)
                reps.append((a, b))
    return reps


def _least_in_orbit(s: int, autos: Sequence[Sequence[int]]) -> bool:
    """Is the vertex set ``s`` (a mask) no larger than any of its images
    under the group that the permutations ``autos`` generate?"""
    orbit, todo = {s}, [s]
    while todo:
        x = todo.pop()
        for gamma in autos:
            y = _relabel(x, gamma)
            if y < s:
                return False
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return True


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

    S is decided one old vertex j at a time, from k-1 down to 0, j out of S
    before j in, so the S that survive come in ascending order.  Putting j
    in S colours the edge kj red, and the branch is cut if a red pattern2
    now uses that edge; leaving j out colours it blue, and the branch is cut
    if a blue pattern1 does.  Vertices not yet decided are no neighbour of
    k in either colour, and colouring more edges only adds copies, so a cut
    loses no good child.  A copy through k in which k has a neighbour is
    caught when the last of k's neighbours in it is decided; one search per
    orbit of the pattern's ordered edges, with its edge placed on (k, j),
    covers them all, and a copy is searched for only where k and j have as
    many neighbours of its colour as the edge's ends need.  A copy in which
    k is isolated is one of the pattern minus an isolated vertex in K_k, so
    the parent alone decides it, once.

    Of the S left, only the least of its orbit under the automorphisms that
    the parent's canonical form found is tried: any other is the image of
    a smaller sibling, so its child is isomorphic to one met before, and
    the classes met and the first coloring met at each level do not change.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > guard:
        raise OracleRefusal(
            f"n_max={n_max} exceeds the feasibility guard {guard}; "
            "raise `guard` explicitly to override"
        )
    if not (pattern1.t and pattern2.t):
        # A pattern on no vertices lies in every K_1: the root has no good child.
        return RamseyCertificate("upper", 1, pattern1, pattern2, classes=())
    # (plan, degree of a, degree of b) for each ordered edge (a, b) kept
    arcs1, arcs2 = ([(_embed_plan(p, (a, b)), p.degree(a), p.degree(b))
                     for a, b in _arc_representatives(p)] for p in (pattern1, pattern2))
    # a plan that places an isolated vertex first, for a pattern that has one
    lone1, lone2 = ([_embed_plan(p, (x,)) for x in range(p.t) if not p.rows[x]][:1]
                    for p in (pattern1, pattern2))
    seen: list[set[tuple[int, ...]]] = [set() for _ in range(n_max + 1)]
    first: list[tuple[int, ...]] = [()]  # the first good coloring met at each level

    def extend(rows: tuple[int, ...], autos: list[list[int]]) -> bool:
        """Search below a good coloring with the automorphisms ``autos``;
        True once level n_max is reached."""
        k = len(rows)
        if k >= n_max:
            return True
        full, bit = (1 << k) - 1, 1 << k
        red = [*rows, 0]
        blue = [full ^ r ^ (1 << v) for v, r in enumerate(rows)] + [0]
        # With k isolated in a copy, the rest of it lies in K_k, which is
        # good: so only a copy that spans all k + 1 vertices can be new.
        if pattern1.t == k + 1 and any(_embed_backtrack(plan, blue, k + 1, (k,)) is not None
                                       for plan in lone1) or \
           pattern2.t == k + 1 and any(_embed_backtrack(plan, red, k + 1, (k,)) is not None
                                       for plan in lone2):
            return False
        plans1 = arcs1 if pattern1.t <= k + 1 else ()
        plans2 = arcs2 if pattern2.t <= k + 1 else ()

        def child() -> bool:
            """Try the child whose red neighbourhood is ``red[k]``."""
            if autos and not _least_in_orbit(red[k], autos):
                return False
            form, form_autos = canonical_form(red)
            if form in seen[k + 1]:
                return False
            seen[k + 1].add(form)
            if len(first) == k + 1:
                first.append(form)
            return extend(form, form_autos)

        def decide(j: int) -> bool:
            """Decide vertices j..0 in every way that closes no forbidden
            copy; True once level n_max is reached."""
            if j < 0:
                return child()
            for host, plans in ((blue, plans1), (red, plans2)):  # j out of S, then in
                host[j] ^= bit
                host[k] ^= 1 << j
                dk, dj = host[k].bit_count(), host[j].bit_count()
                for plan, da, db in plans:
                    if dk >= da and dj >= db and \
                       _embed_backtrack(plan, host, k + 1, (k, j)) is not None:
                        break  # a forbidden copy: no S below is good
                else:
                    if decide(j - 1):
                        return True
                host[j] ^= bit
                host[k] ^= 1 << j
            return False

        return decide(k - 1)

    reached = extend((), [])
    deepest = len(first) - 1
    witness = Coloring(deepest, first[deepest]) if deepest else None
    witness_n = deepest or None
    if reached:
        return RamseyCertificate("lower", n_max, pattern1, pattern2,
                                 witness=witness, witness_n=witness_n)
    return RamseyCertificate("upper", deepest + 1, pattern1, pattern2,
                             witness=witness, witness_n=witness_n,
                             classes=tuple(len(level) for level in seen[1:deepest + 1]))


# Most tries ``oracle certify-lower --tries`` allows, in colorings drawn:
# 10**6 tries take about 2.5 s for C5 at n = 9, where the copy table decides
# them, and 18 s at n = 40, a backtrack per try (one core of a 2-vCPU x86-64
# host).  A try draws n(n-1)/2 pairs, so its cost grows with n**2.
CERTIFY_TRIES_LIMIT = 10 ** 6
# Most pairs ``oracle certify-lower`` may draw in all, ``--tries`` times the
# n(n-1)/2 of ``--n``.  It binds from n = 46 on.  Its dearest runs, 10**6 tries
# for C5 at n = 45 and 50,251 tries at n = 200, took 18 s and 18.5 s (one core
# of a 2-vCPU x86-64 host).
CERTIFY_PAIRS_LIMIT = 10 ** 9
# The one budget of the copy table of ``lower_bound_certificate_random``, in
# 64-bit words (64 KB): the table, copies of the pattern in K_n times the words
# of a coloring's pairs, must fit it, and so must the pattern's t! labellings
# that are listed to build it.  It also bounds the words compared at once when
# a block of colorings is checked, colorings times copies times words.  At 300
# tries on one core of a 2-vCPU x86-64 host the table was 1.4x slower than a
# backtrack per try for C5 at n = 12 (19,008 words), which it refuses.
COPY_TABLE_WORDS = 1 << 13


def _copy_table(pattern: Graph, n: int) -> Optional[np.ndarray]:
    """Every copy of ``pattern`` in K_n as a mask over the pairs of K_n in
    lexicographic order, pair i being bit i % 64 of word i // 64: entry
    [k, c] is word k of copy c.  None when the t! labellings or the table
    would exceed ``COPY_TABLE_WORDS``.

    A copy is one of the pattern's distinct edge sets on t labelled
    positions placed on a t-subset of [n], position i on the subset's i-th
    vertex; the subsets' pairs come from one gather.  Within a subset the
    pairs are distinct bits, so a copy's word is the sum of its pairs' bits:
    one integer matrix product, subsets x position pairs by position pairs x
    edge sets, per word.  A pattern with isolated vertices gives some copies
    more than once, which costs only time.  A pattern with no edge has the
    empty mask as its copies, and n < t gives a table of none.
    """
    t, words = pattern.t, max(1, (n * (n - 1) // 2 + 63) // 64)
    count = math.comb(n, t)
    if math.factorial(t) > COPY_TABLE_WORDS or count * words > COPY_TABLE_WORDS:
        return None
    label, slot_bit, (i, j) = _positions(t)
    u, v = np.array(pattern.edges(), np.intp).reshape(-1, 2).T
    # each labelling's edge set as a mask over the position pairs, and then
    # those masks once each
    sets = np.array(sorted(set(slot_bit[label[:, u], label[:, v]].T.sum(axis=0).tolist())),
                    np.uint64)
    if count * len(sets) * words > COPY_TABLE_WORDS:
        return None
    chosen = sets & _BIT[:len(i), None] != 0  # position pairs x sets
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), t)), np.intp,
                          count * t).reshape(count, t)
    pair = _pair_index(n)[subsets[:, i], subsets[:, j]]  # subsets x position pairs
    bit = _BIT[pair & 63]
    if words == 1:
        return (bit @ chosen).reshape(1, -1)
    word = pair >> 6
    return np.stack([(np.where(word == k, bit, np.uint64(0)) @ chosen).reshape(-1)
                     for k in range(words)])


# Bit k of a 64-bit word, at index k.  It is built in Python, and pairs are
# indexed through ``_pair_index``, because the numpy shift and floor-division
# loops would page in code that nothing else in certify-lower runs: 0.2 to
# 0.3 MB more peak RSS in an ``exact_oracle`` benchmark run.
_BIT = np.array([1 << k for k in range(64)], np.uint64)


def _pair_index(n: int) -> np.ndarray:
    """n x n, the index of pair {u, v}, u < v, in lexicographic order at [u, v]."""
    index = np.zeros((n, n), np.intp)
    index[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    return index


@functools.cache
def _positions(t: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """For t positions: their t! orders, one per row; the bit of each
    position pair {a, b} among the pairs in lexicographic order, at [a, b]
    and [b, a]; and the pairs' first and second positions."""
    label = np.array(list(permutations(range(t))), np.intp).reshape(math.factorial(t), t)
    i, j = np.triu_indices(t, 1)
    slot_bit = np.zeros((t, t), np.uint64)
    slot_bit[i, j] = slot_bit[j, i] = _BIT[:len(i)]
    return label, slot_bit, (i, j)


def _undecided(words: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The indices of the colorings that hold no monochromatic copy, given
    their packed pairs, entry [k, c] being word k of coloring c, and a
    ``_copy_table``.  A coloring with words w holds a red copy iff some
    copy's mask M has w & M == M, and a blue one iff w & M == 0.  The table
    is read a chunk of copies at a time, and only the colorings not yet
    decided go on to the next chunk."""
    live = np.arange(words.shape[1])
    lo = 0
    while lo < table.shape[1] and len(live):
        step = max(1, COPY_TABLE_WORDS // (len(live) * len(table)))
        red = blue = True  # whether each copy is red, or blue, in each coloring
        for w, masks in zip(words[:, live], table[:, lo:lo + step]):
            hit = masks & w[:, None]
            red = red & (hit == masks)
            blue = blue & (hit == 0)
        live = live[~(red | blue).any(axis=1)]
        lo += step
    return live


def lower_bound_certificate_random(pattern: Graph, n: int, tries: int,
                                   seed: int) -> Optional[Coloring]:
    """The first of the colorings ``sample_coloring(n, 1/2, seed + i)``, i =
    0 .. tries-1, with no monochromatic ``pattern``, or None.

    The colorings are drawn in blocks of 1, 2, 4, ... seeds
    (``randomlab.red_pair_blocks``), so stopping at try i costs O(i) draws.
    When the table of the pattern's copies in K_n fits ``COPY_TABLE_WORDS``
    (``_copy_table``), each block is decided at once: a coloring whose red
    pairs pack into the words w holds a monochromatic copy iff some copy's
    mask M has w & M == M (red) or w & M == 0 (blue).  The first coloring
    left undecided is built as rows from the bits already drawn.  Past the
    budget, each coloring is searched as raw rows
    (``randomlab.sample_red_rows``), red first.  The coloring returned is
    re-verified in both colors by ``find_mono_subgraph_exact``.  Every seed
    must be a Philox key, which is checked before anything is drawn.  None
    proves nothing (the search is one-sided).
    """
    if tries < 1:
        raise ValueError(f"tries must be at least 1, got {tries}")
    seeds = range(seed, seed + tries)
    table = _copy_table(pattern, n)
    witness = None
    if table is not None:
        for red in red_pair_blocks(n, 0.5, seeds):
            packed = np.zeros((len(red), 8 * len(table)), np.uint8)
            packed[:, :(red.shape[1] + 7) // 8] = np.packbits(red, axis=1, bitorder="little")
            live = _undecided(packed.view("<u8").T, table)
            if len(live):
                witness = Coloring(n, _symmetric(n, [_pair_bits(red[live[:1]], n, 0, n)]))
                break
    else:
        plan = _embed_plan(pattern)
        full = (1 << n) - 1
        for red in sample_red_rows(n, 0.5, seeds):
            if _embed_backtrack(plan, red, n) is None and _embed_backtrack(
                    plan, [full ^ r ^ (1 << v) for v, r in enumerate(red)], n) is None:
                witness = Coloring(n, red)
                break
    if witness is not None and (find_mono_subgraph_exact(witness, pattern, RED) is not None or
                                find_mono_subgraph_exact(witness, pattern, BLUE) is not None):
        raise AssertionError("unsound certify-lower witness")
    return witness
