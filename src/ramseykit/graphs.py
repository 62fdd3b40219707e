"""Core graph and coloring types.

Undirected simple graphs on dense 0-indexed vertices, adjacency stored as
packed bit rows (one Python int per vertex).  Two-colorings of complete
graphs store the Red class as bit rows; Blue is the complement.  All types
are immutable after construction and safe to share across workers.

Whole-graph work (sampling, parsing, serializing, relabelling, the symmetry
check) goes through numpy bool matrices of one band of rows at a time
(``_row_blocks``): ``bit_matrix`` unpacks rows into one and ``pack_rows``
packs one back.
Graph and coloring files have one grammar, in ASCII bytes (the "Text
formats" block below); any other byte is a ``GraphFormatError`` on its
line.  ``parse_graph`` reads a file, or bytes, once, one ``_TEXT_BLOCK`` at
a time, and its edge lines with numpy: an endpoint of up to eight digits is
converted from the one unaligned 64-bit word that ends with it, in three
multiplies, and a longer one from two or three words.  The symmetry check
of a graph past one 256 x 256 tile goes on packed rows: each band of rows
is compared with the same bits of every row, transposed packed, 8 x 8 bits
per 64-bit word (``_transposed``).  Sampled, parsed and compact rows are
built from the entries above the diagonal with the same transpose past one
tile: each band of rows is ORed with the same band of the transposed upper
matrix (``_symmetric``).  That work still takes time quadratic in t, so
graphs and colorings have at most ``MAX_VERTICES`` vertices, and the
parsers check a declared vertex count before they build anything.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

RED = "R"
BLUE = "B"

# Most vertices of a graph or coloring.  Validating G(16384, 0.2) at the limit
# takes about 0.4 s of CPU and peaks at 36 MB, 32 MB of it its packed rows
# (tracemalloc; one core of a 2-vCPU x86-64 host).  Drawing it takes about
# 1.9 s, and its 272 MB of text are made in 1.6 s at a peak of 20.2 MB (two
# 8 MB bands) when written to a stream as they are made (``serialize_graph``).
MAX_VERTICES = 1 << 14


class GraphFormatError(ValueError):
    """Malformed graph/coloring text; carries the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.detail = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def check_vertex_count(t: int) -> None:
    """Refuse more than MAX_VERTICES vertices before work quadratic in t starts."""
    if t > MAX_VERTICES:
        raise ValueError(f"{t} vertices exceed the limit of {MAX_VERTICES}")


# Entries of the band of rows that every pass over a whole graph or coloring
# holds at once (1 MB as bools), or t / _MAX_BANDS rows where they are more:
# the sampler, the parsers, the symmetry check, relabelling, the writers and
# the degree-spread count.  The parser fills each band of a file whose edges
# are out of order through a mask over all its edges, so bands no lower than
# t / 32 rows keep that cost in check: 1024 rows at 1024 vertices, 512 at
# 2048, 256 at 4096 and 8192, and 512 at 16384.
_BAND_ENTRIES = 1 << 20
_MAX_BANDS = 32


def _band_rows(t: int) -> int:
    """Rows of a band of a graph or coloring on t vertices; one at least."""
    return max(1, _BAND_ENTRIES // max(t, 1), -(-t // _MAX_BANDS))


def _row_blocks(t: int) -> Iterator[tuple[int, int]]:
    """The bands of rows lo..hi-1 that cover 0..t-1, of _band_rows(t) rows
    each but the last."""
    step = _band_rows(t)
    for lo in range(0, t, step):
        yield lo, min(lo + step, t)


# Side of one square tile: a 256 x 256 bool matrix is 64 KB, so it and its
# transpose stay in cache together.  Larger matrices are mirrored and checked packed.
_TILE = 256


def _upper(lo: int, hi: int, n: int) -> np.ndarray:
    """Bool (hi - lo) x n mask of the pairs {u, v}, lo <= u < hi and u < v;
    row-major order is their lexicographic order."""
    return np.arange(lo, hi)[:, None] < np.arange(n)


def _pair_bits(red: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    """Bool k x (hi - lo) x n band of rows lo..hi-1 of each coloring of a
    stack, its entries above the diagonal alone set (``_symmetric``).

    ``red[k]`` holds the colours of the pairs {u, v}, lo <= u < hi and u < v,
    of the k-th coloring, in lexicographic order.  The pairs are placed by
    one boolean-mask assignment.  A stack of one, which may be a whole
    graph, takes the mask as a view; a larger stack, of matrices of one band
    at most, takes it tiled, as numpy assigns through a contiguous mask
    faster than through a broadcast view (2.0 against 5.5 ms for two
    matrices of 1400 x 1400).
    """
    k = len(red)
    a = np.zeros((k, hi - lo, n), dtype=bool)
    upper = _upper(lo, hi, n)
    a[upper[None] if k == 1 else np.tile(upper, (k, 1, 1))] = red.ravel()
    return a


def _pair_bands(n: int, pairs: Callable[[int, int], np.ndarray]) -> Iterator[np.ndarray]:
    """The bands of rows of a coloring on n vertices (``_row_blocks``), as
    ``_pair_bits`` makes them: ``pairs(start, count)`` gives the colours of
    pairs start..start + count - 1 in lexicographic order."""
    for lo, hi in _row_blocks(n):
        start = lo * (2 * n - lo - 1) // 2  # pairs {u, v} with u < lo
        yield _pair_bits(pairs(start, (hi - lo) * (2 * n - lo - hi - 1) // 2)[None], n, lo, hi)


def _symmetric(n: int, bands: Iterable[np.ndarray]) -> tuple[int, ...]:
    """The rows of each symmetric n x n matrix of a stack, one matrix after
    another, from bool k x r x n bands of its rows, in order, that hold the
    entries above the diagonal and no others.  Up to one tile a side, the
    bands are joined and ORed with their transpose.  Larger matrices are
    packed into one upper matrix a band at a time (a band that only
    ``bands`` holds is freed once packed); then each band of rows is ORed
    with the same band of the packed transpose (``_transposed``)."""
    if not n:
        return ()
    if n <= _TILE:
        bands = list(bands)
        a = bands[0] if len(bands) == 1 else np.concatenate(bands, axis=1)
        a |= a.transpose(0, 2, 1)
        return pack_rows(a.reshape(-1, n))
    upper, lo = None, 0
    for band in bands:
        if upper is None:
            upper = np.zeros((len(band), n + -n % 8, (n + 7) // 8), np.uint8)
        upper[:, lo:lo + band.shape[1]] = np.packbits(band, axis=2, bitorder="little")
        lo += band.shape[1]
        del band  # before the next band is built
    rows: list[list[int]] = [[] for _ in upper]
    for lo, hi in _row_blocks(n):
        # rows from hi on have no bits below hi, and later bands read only
        # the bits from their start on, so the band is ORed in place
        below = _transposed(upper[:, :hi + -hi % 8], lo, hi)
        upper[:, lo:hi, :below.shape[2]] |= below
        for matrix, part in zip(rows, upper[:, lo:hi]):
            matrix.extend(_int_rows(part))
    return tuple(chain.from_iterable(rows))


def _transposed(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo..hi-1 of every row of each packed bit matrix of a stack, as
    rows, packed.  ``packed`` is a uint8 k x N x nb stack, N a multiple of 8,
    whose row u holds bit i of a row in bit i % 8 of its byte i // 8; row i
    of each k x (hi - lo) x N/8 result matrix holds bit lo + i of every row
    u so, in bit u % 8 of its byte u // 8.  Eight rows by eight bits go in
    each 64-bit word (``_transpose8``)."""
    band = packed[..., lo // 8:(hi + 7) // 8]  # its first byte may begin below lo
    k, _, nb = band.shape
    # words[., I, U]: byte j is byte I of row 8U + j
    words = band.reshape(k, -1, 8, nb).transpose(0, 3, 1, 2).copy().view("<u8")[..., 0]
    _transpose8(words)  # now byte j has bit k = bit 8I + j of row 8U + k
    bits = words.view(np.uint8).reshape(k, nb, -1, 8).transpose(0, 1, 3, 2)
    return bits.reshape(k, 8 * nb, -1)[:, lo % 8:lo % 8 + hi - lo]


def _transpose8(words: np.ndarray) -> None:
    """Transpose in place the 8 x 8 bit matrix of each word, entry (k, j)
    being bit 8k + j: the blocks either side of the diagonal are exchanged,
    1 x 1, then 2 x 2, then 4 x 4 (Hacker's Delight, section 7-3)."""
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                        (28, 0x00000000F0F0F0F0)):
        swap = words >> np.uint64(shift)
        swap ^= words
        swap &= np.uint64(mask)
        words ^= swap
        swap <<= np.uint64(shift)
        words ^= swap


def bit_matrix(t: int, rows: Sequence[int]) -> np.ndarray:
    """Bool len(rows) x t matrix whose entry [i, u] is bit u of ``rows[i]``.

    Every row must lie in [0, 2**t).
    """
    return np.unpackbits(_packed_rows(t, rows), 1, t, "little").view(bool)  # axis, count, bitorder


def _packed_rows(t: int, rows: Sequence[int]) -> np.ndarray:
    """The bytes of each row, least significant first: a uint8 len(rows) x
    ceil(t / 8) matrix.  Every row must lie in [0, 2**t)."""
    width = (t + 7) // 8
    # rows of graphs on at most 8 vertices are single bytes
    raw = bytes(rows) if width == 1 else b"".join([r.to_bytes(width, "little") for r in rows])
    return np.ndarray((len(rows), width), np.uint8, raw)


def pack_rows(adj: np.ndarray) -> tuple[int, ...]:
    """Per-vertex bit rows of a bool matrix: bit u of row v is ``adj[v, u]``."""
    return _int_rows(np.packbits(adj, axis=1, bitorder="little"))


def _int_rows(packed: np.ndarray) -> tuple[int, ...]:
    """The int of each row of bytes of a uint8 matrix, least significant
    first.  Rows of at most 8 bytes are read as one zero-padded word each,
    with no Python step per row; wider ones byte string by byte string."""
    width = packed.shape[1]
    if width <= 8:
        words = np.zeros((len(packed), 8), np.uint8)
        words[:, :width] = packed
        return tuple(words.view("<u8")[:, 0].tolist())
    data = packed.tobytes()
    return tuple(int.from_bytes(data[v * width:(v + 1) * width], "little")
                 for v in range(len(packed)))


def opposite(color: str) -> str:
    if color == RED:
        return BLUE
    if color == BLUE:
        return RED
    raise ValueError(f"unknown color {color!r}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``rows[v]`` has bit u set iff {u,v} is an edge."""

    t: int
    rows: tuple[int, ...]

    def __post_init__(self):
        t, rows = self.t, self.rows
        if t < 0:
            raise ValueError("vertex count must be nonnegative")
        check_vertex_count(t)
        if len(rows) != t:
            raise ValueError("row count does not match vertex count")
        for v, row in enumerate(rows):
            if row >> t:  # a bit at or above t, or a negative row
                raise ValueError(f"row {v} has out-of-range bits")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # one tile is compared with its transpose whole; larger graphs, and
        # a mismatch, are checked packed
        a = bit_matrix(t, rows) if t <= _TILE else None
        if a is None or a.tobytes() != a.T.tobytes():
            _check_symmetric(t, rows)

    @classmethod
    def from_edges(cls, t: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        check_vertex_count(t)
        rows = [0] * t
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u}")
            if not (0 <= u < t and 0 <= v < t):
                raise ValueError(f"edge ({u},{v}) out of range for t={t}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(t, tuple(rows))

    @classmethod
    def complete(cls, t: int) -> "Graph":
        check_vertex_count(t)
        full = (1 << t) - 1
        return cls(t, tuple(full ^ (1 << v) for v in range(t)))

    @classmethod
    def empty(cls, t: int) -> "Graph":
        return cls(t, (0,) * t)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.t):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in bits_of(row):
                out.append((u, v))
        return out

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    @property
    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    @property
    def density(self) -> Fraction:
        """Exact edge density m / C(t,2); requires t >= 2."""
        if self.t < 2:
            raise ValueError("density undefined for t < 2")
        return Fraction(self.m, self.t * (self.t - 1) // 2)

    @property
    def isolated_free(self) -> bool:
        return all(r for r in self.rows)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabelled to 0..k-1 in the order given; the
        graph itself when ``vertices`` is 0..t-1 in order."""
        if _in_order(vertices, self.t):
            return self
        return Graph(len(vertices), _induced_rows(self.rows, vertices))


def _in_order(vertices: Sequence[int], n: int) -> bool:
    """Whether ``vertices`` is exactly 0..n-1 in order."""
    return len(vertices) == n and list(vertices) == list(range(n))


def _induced_rows(rows: Sequence[int], vertices: Sequence[int]) -> tuple[int, ...]:
    """Rows of the subgraph induced on ``vertices``; vertices[i] becomes i.

    One numpy relabel: the kept vertices' rows are unpacked with
    ``bit_matrix``, the kept columns are gathered in the given order, and the
    result is packed back with ``pack_rows``.  It goes one band of kept rows
    at a time (``_band_rows``), so no bool matrix is larger than a band.
    The vertices must be distinct and lie in 0..len(rows)-1; that is checked
    before any work.
    """
    n, k = len(rows), len(vertices)
    if k and not (0 <= min(vertices) and max(vertices) < n):
        raise ValueError(f"induced vertices must lie in 0..{n - 1}")
    if len(set(vertices)) != k:
        raise ValueError("induced vertices must be distinct")
    cols = np.array(vertices, dtype=np.intp)
    step = _band_rows(n)
    out: list[int] = []
    for lo in range(0, k, step):
        block = bit_matrix(n, [rows[v] for v in cols[lo:lo + step].tolist()])
        out.extend(pack_rows(block[:, cols]))
    return tuple(out)


def _check_symmetric(t: int, rows: Sequence[int]) -> None:
    """Raise at the first entry, in row-major order, where row v has u but row
    u lacks v.  The rows are packed once, a band at a time; then each band
    of rows is compared with the same bits of every row, transposed packed,
    so no bool matrix is built."""
    bands = list(_row_blocks(t))
    packed = np.zeros((t + -t % 8, (t + 7) // 8), np.uint8)
    for lo, hi in bands:
        packed[lo:hi] = _packed_rows(t, rows[lo:hi])
    for lo, hi in bands:
        bad = _transposed(packed[None], lo, hi)[0]  # bits lo..hi-1 of every row
        np.invert(bad, out=bad)
        bad &= packed[lo:hi]  # row v has u, row u lacks v
        if bad.any():
            v, byte = np.argwhere(bad)[0]
            u = 8 * byte + (int(bad[v, byte]) & -int(bad[v, byte])).bit_length() - 1
            raise ValueError(f"adjacency not symmetric at {{{u},{lo + v}}}")


@dataclass(frozen=True)
class Coloring:
    """Total Red/Blue coloring of E(K_n); ``red_rows`` is the red adjacency."""

    n: int
    red_rows: tuple[int, ...]

    def __post_init__(self):
        Graph(self.n, self.red_rows)  # validates shape/symmetry/no-loops

    @classmethod
    def from_red_graph(cls, g: Graph) -> "Coloring":
        return cls(g.t, g.rows)

    @classmethod
    def monochromatic(cls, n: int, color: str) -> "Coloring":
        if color == RED:
            return cls.from_red_graph(Graph.complete(n))
        return cls(n, (0,) * n)

    def rows(self, color: str) -> tuple[int, ...]:
        """Bit rows of the ``color`` class; the blue ones are built on first use."""
        if color == RED:
            return self.red_rows
        if color == BLUE:
            return self._blue_rows
        raise ValueError(f"unknown color {color!r}")

    @cached_property
    def _blue_rows(self) -> tuple[int, ...]:
        full = (1 << self.n) - 1
        return tuple(full ^ row ^ (1 << v) for v, row in enumerate(self.red_rows))

    def row(self, v: int, color: str) -> int:
        return self.rows(color)[v]

    def color_of(self, u: int, v: int) -> str:
        if u == v:
            raise ValueError("no self-pairs in a coloring")
        return RED if self.red_rows[u] >> v & 1 else BLUE

    def class_graph(self, color: str) -> Graph:
        return Graph(self.n, self.rows(color))

    def swapped(self) -> "Coloring":
        """The coloring with Red and Blue exchanged."""
        return Coloring(self.n, self.rows(BLUE))

    def induced(self, vertices: Sequence[int]) -> "Coloring":
        """Coloring of the pairs within ``vertices``, relabelled to 0..k-1 in
        the order given; the coloring itself when ``vertices`` is 0..n-1 in
        order."""
        if _in_order(vertices, self.n):
            return self
        return Coloring(len(vertices), _induced_rows(self.red_rows, vertices))


@dataclass(frozen=True)
class Embedding:
    """Injective adjacency-preserving map from a pattern into a host."""

    pattern: Graph
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.pattern.t:
            raise ValueError("image must map every pattern vertex")
        if len(set(self.image)) != len(self.image):
            raise ValueError("image not injective")


def rows_of(host, color: Optional[str] = None) -> tuple[int, ...]:
    """Bit rows of a Graph, or of the ``color`` class of a Coloring."""
    if isinstance(host, Coloring):
        if color is None:
            raise ValueError("a color is required for a Coloring host")
        return host.rows(color)
    return host.rows


# ---------------------------------------------------------------------------
# Text formats, in ASCII bytes.
#
# Graph:    line 1 "t <t> m <m>", then m lines "<u> <v>" with 0 <= u < v < t.
# Coloring: line 1 "n <n>", then C(n,2) lines "<u> <v> <R|B>" in lexicographic
#           pair order; or line 1 "n <n> hex <h>", <h> the upper-triangle bits
#           (1 = Red, lexicographic pair order, first pair in the most
#           significant bit) as exactly max(1, ceil(C(n,2) / 4)) characters of
#           [0-9a-fA-F], the bits past the last pair zero (every bit, on
#           at most one vertex); no line follows it.
# Numbers are unsigned decimal digits [0-9], leading zeros allowed.  Fields
# are separated by spaces or tabs, which may also begin and end a line, and
# lines end in LF.  Spaces, tabs and blank lines at the end of a file are
# ignored.  Any other byte, a blank line before the header included, is a
# GraphFormatError on its line.  A str is read as its UTF-8 bytes.
# ---------------------------------------------------------------------------

# Lines of the formats.  A field is a run of bytes other than space and tab,
# whose own form (digits, say) is checked once its line matches; the hex
# field's class lists those bytes as ranges, which ``re`` tests by a bitmap
# ([^ \t] takes three times as long on the 32 KB hex string of a coloring on
# 512 vertices).  A pair line is matched with digits for endpoints, so one
# match checks a valid line; ``_PAIR_FIELDS`` tells what is wrong with another.
_GRAPH_HEADER = re.compile(rb"[ \t]*t[ \t]+([^ \t]+)[ \t]+m[ \t]+([^ \t]+)[ \t]*")
_EDGE_LINE = re.compile(rb"[ \t]*([^ \t]+)[ \t]+([^ \t]+)[ \t]*")
_COLORING_HEADER = re.compile(
    rb"[ \t]*n[ \t]+([^ \t]+)(?:[ \t]+hex[ \t]+([\x00-\x08\n-\x1f!-\xff]+))?[ \t]*")
_PAIR_LINE = re.compile(rb"[ \t]*([0-9]+)[ \t]+([0-9]+)[ \t]+([RB])[ \t]*")
_PAIR_FIELDS = re.compile(rb"[ \t]*([^ \t]+)[ \t]+([^ \t]+)[ \t]+[RB][ \t]*")
_HEX_DIGITS = b"0123456789abcdefABCDEF"


def _encoded(text: str | bytes | GraphFile) -> bytes | GraphFile:
    """The bytes of a text: a str's UTF-8 bytes, a lone surrogate included
    (any non-ASCII byte is refused on its line)."""
    return text.encode(errors="surrogatepass") if isinstance(text, str) else text


def _unsigned(field: bytes) -> Optional[int]:
    """The value of a field of decimal digits; None for any other field, and
    for one longer than ``int`` converts (``sys.get_int_max_str_digits``)."""
    if not field.isdigit():  # ASCII digits alone, for bytes
        return None
    try:
        return int(field)
    except ValueError:
        return None


class GraphFile:
    """An open binary graph file for ``parse_graph`` to read a block at a
    time.  Its len() is the file's size when it was opened, and no more is
    read; ``sha256`` hashes the bytes as they are read."""

    def __init__(self, file: BinaryIO):
        self.file = file
        self.size = os.fstat(file.fileno()).st_size
        self.sha256 = hashlib.sha256()

    def __len__(self) -> int:
        return self.size

    def blocks(self) -> Iterator[bytes]:
        """The file's bytes from where it stands, _TEXT_BLOCK at a time."""
        left = self.size
        while left and (block := self.file.read(min(left, _TEXT_BLOCK))):
            self.sha256.update(block)
            left -= len(block)
            yield block


def parse_graph(text: str | bytes | GraphFile) -> Graph:
    """The graph a text describes, or the GraphFormatError of its first bad
    line.

    ``text`` may be a str, read as its UTF-8 bytes, the bytes of a graph
    file, or the file itself.  Its bytes are read once, _TEXT_BLOCK at a
    time, and its edge lines by a numpy pass over each block.
    """
    data = _encoded(text)
    return _read_graph(_line_runs(_blocks(data)), len(data))


def _blocks(data: bytes | GraphFile) -> Iterator[bytes]:
    """The bytes of a graph file, _TEXT_BLOCK at a time."""
    if isinstance(data, GraphFile):
        return data.blocks()
    return (data[i:i + _TEXT_BLOCK] for i in range(0, len(data), _TEXT_BLOCK))


def _line_runs(blocks: Iterable[bytes]) -> Iterator[tuple[bytes, int]]:
    """The text the blocks make up, without the blanks at its end, as runs
    (data, hi) of whole lines data[:hi]: each run but the last ends where a
    newline does, which the next run follows.  A block is joined to the
    ones before it only once a line ends in it, so a line or a run of blanks
    longer than a block is not copied again with each block."""
    held: list[bytes] = []
    for block in blocks:
        held.append(block)
        end = block.rfind(b"\n", 0, len(block.rstrip(b" \t\n")))  # before a non-blank
        if end >= 0:
            data = b"".join(held)
            end += len(data) - len(block)
            yield data, end
            held = [data[end + 1:]]
    data = b"".join(held)
    yield data, len(data.rstrip(b" \t\n"))


def _read_graph(runs: Iterator[tuple[bytes, int]], size: int) -> Graph:
    """The graph of a text given as runs of whole lines (``_line_runs``) that
    hold ``size`` bytes at most, or the GraphFormatError of its first bad
    line.

    The edge lines are read as u * t + v into one int32 array (u * t + v <
    2**28, as t is at most MAX_VERTICES).  A bad header is refused at once;
    the first bad edge line's error is raised once every line is counted, as
    a wrong count of edge lines comes first."""
    data, hi = next(runs)
    end = data.find(b"\n", 0, hi)  # of the header line
    head = _GRAPH_HEADER.fullmatch(data, 0, end if end >= 0 else hi)
    if head is None:
        # only the last run may be blank: the others end before a non-blank
        blank = not data.strip(b" \t\n")
        raise GraphFormatError("empty input" if blank else "expected header 't <t> m <m>'", 1)
    t, m = _unsigned(head[1]), _unsigned(head[2])
    if t is None or m is None:
        raise GraphFormatError("non-integer header fields", 1)
    if t < 1:
        raise GraphFormatError("t must be >= 1", 1)
    if t > MAX_VERTICES:
        raise GraphFormatError(f"t must be at most {MAX_VERTICES}", 1)
    # no more edge lines than bytes: a larger m is a wrong count
    at = np.empty(m if m <= size else 0, np.int32)
    found, error = 0, None
    first = [(data, end + 1, hi)] if end >= 0 else []  # the edge lines after the header
    for data, a, z in chain(first, ((data, 0, hi) for data, hi in runs)):
        for lo, hi in _text_blocks(data, a, z):
            n = data.count(b"\n", lo, hi) + 1
            if error is None and found + n <= len(at):
                try:
                    _read_edge_lines(data, lo, hi, t, at, found)
                except GraphFormatError as e:
                    error = e.with_traceback(None)  # and with it the pass's arrays
            found += n
    if found != m:
        raise GraphFormatError(f"expected {m} edge lines, found {found}", 1)
    if error is not None:
        raise error
    del data  # free the text before the matrices exist
    bands = _edge_bands(t, at)
    del at  # the bands free it once the last one is built
    return Graph(t, _symmetric(t, bands))


def _edge_bands(t: int, at: np.ndarray) -> Iterator[np.ndarray]:
    """Bool 1 x r x t bands of rows (``_row_blocks``), with the edges
    at[i] = u * t + v, u < v, set above the diagonal; then the
    GraphFormatError of the first repeated edge line, if any."""
    distinct = 0
    ordered = bool((at[:-1] < at[1:]).all())  # in row-major order, as the writer gives them
    for lo, hi in _row_blocks(t):
        a = np.zeros((1, hi - lo, t), dtype=bool)
        if ordered:  # the edges in rows lo..hi-1 are a slice (found in int32: no cast of at)
            i, j = np.searchsorted(at, np.array([lo, hi], np.int32) * t)
            a.ravel()[at[i:j] - lo * t] = True
        else:
            a.ravel()[at[(lo * t <= at) & (at < hi * t)] - lo * t] = True
        distinct += np.count_nonzero(a)
        yield a
        del a  # before the next band is built
    if distinct != len(at):
        raise _first_duplicate(at, t)


# Bytes of a file read, and of text read in one pass, at once: bounds the
# per-byte and per-token arrays.  With 64 KB blocks ``read_pattern`` of a
# G(2048, 0.2) file (3.56 MB) peaks at 4.2 MB, against 5.5 MB with 256 KB
# ones and 16.8 MB with 1 MB ones, in the same 39-40 ms of CPU as 256 KB
# blocks (the least of 9 calls, four alternating rounds); a G(4096, 0.2)
# file (15.9 MB) peaks at 12.8 MB either way, most of it the int32 edges
# (tracemalloc; one core of a 2-vCPU x86-64 host).
_TEXT_BLOCK = 1 << 16
# Longest endpoint the byte pass converts: 18 digits always fit in int64.
_MAX_DIGITS = 18


def _text_blocks(data: bytes, start: int, stop: Optional[int] = None
                 ) -> Iterator[tuple[int, int]]:
    """Byte ranges lo..hi-1 of whole lines, about _TEXT_BLOCK bytes each, that
    cover data[start:stop] (to the end of ``data`` by default); each hi is a
    newline or ``stop``."""
    stop = len(data) if stop is None else stop
    while start <= stop:
        end = data.find(b"\n", start + _TEXT_BLOCK, stop)
        end = stop if end < 0 else end
        yield start, end
        start = end + 1


def _word_view(data: bytes, lo: int, hi: int) -> np.ndarray:
    """Unsigned 64-bit words, one per byte offset i in 0..hi-lo: word i is the
    eight bytes data[lo + i - 8:lo + i], read little-endian, so the byte just
    before data[lo + i] is its most significant one.  The words overlap (a
    stride of one byte); zero bytes stand for any before data[0]."""
    if lo < 8:
        data, lo, hi = bytes(8 - lo) + data[:hi], 8, hi + 8 - lo
    return np.ndarray((hi - lo + 1,), "<u8", data, lo - 8, (1,))


# _DIGITS[w]: the low nibbles of the top w bytes of a word -- the digits of a
# run of w digits that ends with the word -- and zero for the bytes below
_DIGITS = np.array([(0x0F0F0F0F0F0F0F0F << 64 - 8 * w) & (1 << 64) - 1 for w in range(9)],
                   np.uint64)


def _swar_digits(words: np.ndarray) -> np.ndarray:
    """The numbers whose eight decimal digits are the bytes of each word,
    most significant digit in the lowest byte; in place.  Adjacent digits,
    then pairs, then fours are combined by one multiply each: x * (10 << 8 | 1)
    adds ten times each byte to the byte above it, which never carries."""
    words *= np.uint64(10 << 8 | 1)
    words >>= np.uint64(8)
    words &= np.uint64(0x00FF00FF00FF00FF)
    words *= np.uint64(100 << 16 | 1)
    words >>= np.uint64(16)
    words &= np.uint64(0x0000FFFF0000FFFF)
    words *= np.uint64(10000 << 32 | 1)
    words >>= np.uint64(32)
    return words


def _run_values(words: np.ndarray, ends: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The value of each digit run that ends just before byte ``ends[j]`` and
    is ``width[j]`` digits wide: eight digits per word, so a run of up to
    _MAX_DIGITS digits takes three words at most.  Wider runs get no
    meaningful value."""
    val = words[ends]
    val &= _DIGITS.take(width, mode="clip")  # more than 8 digits: all 8 bytes
    _swar_digits(val)
    wide = int(width.max(initial=0))
    for p in range(8, min(wide, _MAX_DIGITS), 8):  # the rare runs of more than 8 digits
        more = np.flatnonzero(width > p)
        high = words[ends[more] - p]
        high &= _DIGITS.take(width[more] - p, mode="clip")
        val[more] += _swar_digits(high) * np.uint64(10 ** p)
    return val.view(np.int64)


def _read_edge_lines(data: bytes, lo: int, hi: int, t: int, at: np.ndarray, k: int) -> int:
    """Read the edge lines in data[lo:hi] into at[k:], edge {u, v} as
    u * t + v; return the number of edge lines read so far.

    One numpy pass over the bytes reads every line made of two digit runs
    separated by blanks.  The runs' boundaries come from the edges of the
    digit mask, and each run's value from the eight bytes that end it, read
    as one word whose digits are combined in three multiplies (``_swar_digits``;
    the word conversion of simdjson).  ``_edge_line`` reads the rest -- a
    line holding any other byte or a run of more than _MAX_DIGITS digits --
    and the first line that fails a check, where it raises.
    """
    b = np.frombuffer(data, np.uint8, hi - lo, lo)
    newline = b == 10
    n = int(np.count_nonzero(newline)) + 1
    digit = np.zeros(len(b) + 2, bool)  # a non-digit either side of the bytes
    np.less(b - 48, 10, out=digit[1:-1])  # bytes below "0" wrap past 9
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = edges[0::2], edges[1::2]  # run j is b[starts[j]:ends[j]]
    width = ends - starts
    other = len(b) - int(np.count_nonzero(digit)) - (n - 1) \
        - int(np.count_nonzero(b == 32)) - int(np.count_nonzero(b == 9))
    val = _run_values(_word_view(data, lo, hi), ends, width)
    breaks = ends[1:-1:2]  # line j ends at breaks[j] if every line holds two runs
    if not other and len(starts) == 2 * n and newline[breaks].all():
        # n - 1 newlines, and one just after each run 2j + 1 but the last:
        # line j holds runs 2j and 2j + 1 alone
        u, v = val[0::2], val[1::2]
        unread = u >= v
        unread |= v >= t
    else:
        breaks = np.flatnonzero(newline)
        first = np.concatenate(([0], np.searchsorted(starts, breaks)))  # each line's first run
        count = np.diff(first, append=len(starts))
        val = np.append(val, 0)  # a spare for lines with fewer runs
        u, v = val[first], val.take(first + 1, mode="clip")
        unread = (count != 2) | (u >= v) | (v >= t)
        if other:  # lines holding bytes other than digits and blanks
            plain = digit[1:-1] | newline
            plain |= b == 32
            plain |= b == 9
            unread[np.searchsorted(breaks, np.flatnonzero(~plain))] = True
    if width.max(initial=0) > _MAX_DIGITS:
        unread[np.searchsorted(breaks, starts[width > _MAX_DIGITS])] = True
    u *= t  # unread lines' values may wrap: they are read again below
    u += v
    at[k:k + n] = u
    for j in np.flatnonzero(unread).tolist():
        a = lo + (breaks[j - 1] + 1 if j else 0)
        z = lo + breaks[j] if j < n - 1 else hi
        try:
            u, v = _edge_line(data[a:z], k + j + 2, t)
        except GraphFormatError as e:
            # a duplicate on an earlier line is the first error
            raise (_first_duplicate(at[:k + j], t) or e) from None
        at[k + j] = u * t + v
    return k + n


def _edge_line(line: bytes, i: int, t: int) -> tuple[int, int]:
    """Endpoints of edge line ``i``, or its GraphFormatError: the one
    definition of a valid edge line."""
    match = _EDGE_LINE.fullmatch(line)
    if match is None:
        raise GraphFormatError("expected '<u> <v>'", i)
    u, v = _unsigned(match[1]), _unsigned(match[2])
    if u is None or v is None:
        raise GraphFormatError("non-integer endpoint", i)
    if not u < v < t:
        if u == v:
            raise GraphFormatError(f"self-loop {u}", i)
        raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < t", i)
    return u, v


def _first_duplicate(at: np.ndarray, t: int) -> Optional[GraphFormatError]:
    """The error for the first edge line that repeats an earlier one, if any;
    edge line i + 2 holds the edge at[i] = u * t + v."""
    order = np.argsort(at, kind="stable")  # equal edges in line order
    same = at[order]
    repeats = order[1:][same[1:] == same[:-1]]
    if not len(repeats):
        return None
    j = int(repeats.min())
    return GraphFormatError("duplicate edge ({},{})".format(*divmod(int(at[j]), t)), j + 2)


# The text of a graph is made a band of rows at a time (``_row_blocks``), and
# the edges among each _SERIALIZE_CHUNK entries of a band are listed and
# formatted at once, at most 16K edges (about 150 KB of text at t = 2048):
# no index array of a whole band is built.
_SERIALIZE_CHUNK = 1 << 14


def _text_chunks(g: Graph) -> Iterator[str]:
    """The text of ``g`` in pieces: the header line, then the lines of the
    edges among each _SERIALIZE_CHUNK entries of a band, in row-major order."""
    heads = np.array([f"{u} " for u in range(g.t)], dtype=object)
    tails = np.array([f"{v}\n" for v in range(g.t)], dtype=object)
    yield f"t {g.t} m {g.m}\n"
    for lo, hi in _row_blocks(g.t):
        # entries {u, v}, u < v, with u in lo..hi-1, in row-major order
        entries = bit_matrix(g.t, [row >> (u + 1) << (u + 1)
                                   for u, row in enumerate(g.rows[lo:hi], lo)]).ravel()
        for i in range(0, len(entries), _SERIALIZE_CHUNK):
            found = np.flatnonzero(entries[i:i + _SERIALIZE_CHUNK])
            found += lo * g.t + i
            us, vs = np.divmod(found, g.t)
            lines = np.stack((heads[us], tails[vs]), axis=1)
            yield "".join(lines.ravel().tolist())


def serialize_graph(g: Graph, out: Optional[TextIO] = None) -> Optional[str]:
    """The text of ``g``; or, given a text stream ``out``, None, the text
    being written to ``out`` a chunk at a time as it is made, so that it is
    never whole in memory."""
    if out is None:
        return "".join(_text_chunks(g))
    out.writelines(_text_chunks(g))
    return None


def pair_order(n: int) -> list[tuple[int, int]]:
    """Lexicographic order of the unordered pairs of 0..n-1."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def parse_coloring(text: str | bytes) -> Coloring:
    """The coloring a text, or the bytes of a coloring file, describes, or
    the GraphFormatError of its first bad line."""
    body = _encoded(text).rstrip(b" \t\n")
    if not body:
        raise GraphFormatError("empty input", 1)
    head, *lines = body.split(b"\n")
    match = _COLORING_HEADER.fullmatch(head)
    if match is None:
        raise GraphFormatError("expected header 'n <n>' or 'n <n> hex <string>'", 1)
    n = _unsigned(match[1])
    if n is None:
        raise GraphFormatError("non-integer vertex count", 1)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"n must be at most {MAX_VERTICES}", 1)
    if match[2] is not None:
        c = _coloring_from_hex(n, match[2])
        if lines:
            raise GraphFormatError("expected no line after 'n <n> hex <string>'", 2)
        return c
    npairs = n * (n - 1) // 2
    if len(lines) != npairs:
        raise GraphFormatError(f"expected {npairs} pair lines, found {len(lines)}", 1)
    rows = [0] * n
    for line, (u, v) in zip(lines, pair_order(n)):
        match = _PAIR_LINE.fullmatch(line)
        try:
            listed = match is not None and int(match[1]) == u and int(match[2]) == v
        except ValueError:  # more digits than int() converts
            listed = False
        if not listed:
            raise _pair_error(line, n, u, v)
        if match[3] == b"R":
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Coloring(n, tuple(rows))


def _pair_error(line: bytes, n: int, u: int, v: int) -> GraphFormatError:
    """The error of the line of a coloring on n vertices that does not list
    the pair {u, v}, u < v, in its place: line 2 + (the pairs before it)."""
    i = u * (2 * n - u - 1) // 2 + v - u + 1
    match = _PAIR_FIELDS.fullmatch(line)
    if match is None:
        return GraphFormatError("expected '<u> <v> <R|B>'", i)
    got = _unsigned(match[1]), _unsigned(match[2])
    if None in got:
        return GraphFormatError("non-integer endpoint", i)
    return GraphFormatError("pair ({},{}) out of order; expected ({},{})".format(*got, u, v), i)


def _coloring_from_hex(n: int, hexstr: bytes) -> Coloring:
    nbits = n * (n - 1) // 2
    width = max(1, (nbits + 3) // 4)
    if len(hexstr) != width:
        raise GraphFormatError(f"hex string must have {width} digits", 1)
    if hexstr.translate(None, _HEX_DIGITS):  # a byte that is no hex digit
        raise GraphFormatError("invalid hex string", 1)
    value, total = int(hexstr, 16), 4 * width  # value < 2**total
    if value & ((1 << (total - nbits)) - 1):
        raise GraphFormatError("padding bits must be zero", 1)
    def pairs(start: int, count: int) -> np.ndarray:  # pair i is bit total - 1 - i
        return _int_bits(value >> (total - start - count) & ((1 << count) - 1), count)

    return Coloring(n, _symmetric(n, _pair_bands(n, pairs)))


def _int_bits(value: int, count: int) -> np.ndarray:
    """The ``count`` low bits of ``value`` as a bool array, most significant first."""
    pad = -count % 8
    raw = (value << pad).to_bytes((count + pad) // 8, "big")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=count).view(bool)


def _bits_int(bits: np.ndarray) -> int:
    """The int whose binary digits are ``bits``, most significant first."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def serialize_coloring(c: Coloring, compact: bool = False) -> str:
    if compact:
        nbits = c.n * (c.n - 1) // 2
        value = 0  # pair i, in lexicographic order, is bit nbits - 1 - i
        for lo, hi in _row_blocks(c.n):
            bits = bit_matrix(c.n, c.red_rows[lo:hi])[_upper(lo, hi, c.n)]
            value = value << len(bits) | _bits_int(bits)
        width = max(1, (nbits + 3) // 4)
        value <<= 4 * width - nbits
        return f"n {c.n} hex {value:0{width}x}\n"
    lines = [f"n {c.n}"]
    lines.extend(f"{u} {v} {c.color_of(u, v)}" for u, v in pair_order(c.n))
    return "\n".join(lines) + "\n"
