import hashlib
import os
import re
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from ramseykit import graphs
from ramseykit.graphs import (
    BLUE,
    MAX_VERTICES,
    RED,
    Coloring,
    Graph,
    GraphFormatError,
    bit_matrix,
    pack_rows,
    pair_order,
    parse_coloring,
    parse_graph,
    serialize_coloring,
    serialize_graph,
)
from ramseykit.patterns import read_pattern
from ramseykit.randomlab import sample_coloring, sample_gnp

import references
from references import (
    density_pair,
    reference_coloring_from_hex,
    reference_pack_rows,
    reference_parse_graph_bytes,
    reference_read_edge_lines,
    reference_serialize_coloring_compact,
    reference_serialize_graph,
)


def random_graph(draw, max_t=10):
    t = draw(st.integers(2, max_t))
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(t, edges)


class TestGraph:
    @pytest.mark.parametrize("g, m, rho, max_degree, isolated_free", [
        (Graph.complete(4), 6, Fraction(1), 3, True),
        (Graph.empty(5), 0, Fraction(0), 0, False),
        (Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 5, Fraction(1, 2), 2, True),
    ], ids=["K4", "E5", "C5"])
    def test_summary_properties(self, g, m, rho, max_degree, isolated_free):
        assert (g.m, g.density, g.max_degree, g.isolated_free) == (
            m, rho, max_degree, isolated_free)

    def test_density_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            Graph.empty(1).density

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_induced_relabels(self):
        p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sub = p4.induced([1, 2, 3])
        assert sub.t == 3 and sub.m == 2
        assert sub.rows == (0b010, 0b101, 0b010)  # the path 0-1-2

    @given(st.composite(random_graph)())
    def test_density_identity(self, g):
        # rho * C(t,2) = m exactly in rational arithmetic
        assert g.density * (g.t * (g.t - 1) // 2) == g.m


class TestDensityPair:
    def test_complete_host(self):
        assert density_pair(Graph.complete(6), [0, 1], [2, 3]) == 1

    def test_empty_host(self):
        assert density_pair(Graph.empty(6), [0, 1], [2, 3]) == 0

    def test_four_cycle(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert density_pair(c4, [0, 2], [1, 3]) == 1

    def test_coloring_host_needs_color(self):
        c = Coloring.monochromatic(4, RED)
        with pytest.raises(ValueError):
            density_pair(c, [0], [1])
        assert density_pair(c, [0], [1], RED) == 1
        assert density_pair(c, [0], [1], BLUE) == 0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            density_pair(Graph.complete(4), [0, 1], [1, 2])

    @given(st.composite(random_graph)())
    def test_symmetry(self, g):
        half = g.t // 2
        if half < 1:
            return
        X = list(range(half))
        Y = list(range(half, g.t))
        assert density_pair(g, X, Y) == density_pair(g, Y, X)

    @given(st.composite(random_graph)(max_t=8))
    def test_mean_over_subpairs(self, g):
        # density of (X, Y) is the mean of densities over equal-size sub-pairs
        if g.t < 4:
            return
        X = [0, 1]
        Y = [2, 3]
        d = density_pair(g, X, Y)
        subs = [density_pair(g, [x], [y]) for x in X for y in Y]
        assert d == sum(subs) / len(subs)


class TestSerialization:
    def test_parse_path(self):
        g = parse_graph("t 3 m 2\n0 1\n1 2")
        assert g.density == Fraction(2, 3)

    def test_self_loop_error(self):
        with pytest.raises(GraphFormatError) as e:
            parse_graph("t 2 m 1\n0 0")
        assert "line 2" in str(e.value)

    @pytest.mark.parametrize("parse, text, header", [
        (parse_graph, "\n\nt 3 m 1\n0 x\n", "'t <t> m <m>'"),
        (parse_coloring, "\n \nn 2\n0 1 X\n", "'n <n>' or 'n <n> hex <string>'"),
        (parse_graph, b"\n\nt 3 m 1\n0 \xff\n", "'t <t> m <m>'"),
    ])
    def test_blank_lines_before_the_header_refused_on_line_1(self, parse, text, header):
        with pytest.raises(GraphFormatError) as e:
            parse(text)
        assert (e.value.line, e.value.detail) == (1, f"expected header {header}")

    # 5000 digits: more than int() converts (4300 by default)
    @pytest.mark.parametrize("parse, text, line, detail", [
        (parse_graph, b"t %s m 0\n" % (b"1" * 5000), 1, "non-integer header fields"),
        (parse_graph, b"t 3 m 1\n0 %s\n" % (b"0" * 5000), 2, "non-integer endpoint"),
        (parse_coloring, b"n %s\n" % (b"0" * 5000), 1, "non-integer vertex count"),
        (parse_coloring, b"n 3\n0 1 R\n0 %s B\n1 2 R\n" % (b"0" * 4999 + b"2"), 3,
         "non-integer endpoint"),
    ])
    def test_numbers_longer_than_int_converts(self, parse, text, line, detail):
        with pytest.raises(GraphFormatError) as e:
            parse(text)
        assert (e.value.line, e.value.detail) == (line, detail)

    def test_duplicate_edge_error(self):
        with pytest.raises(GraphFormatError):
            parse_graph("t 3 m 2\n0 1\n0 1")

    def test_out_of_range_error(self):
        with pytest.raises(GraphFormatError):
            parse_graph("t 3 m 1\n0 3")

    @given(st.composite(random_graph)())
    def test_graph_round_trip(self, g):
        text = serialize_graph(g)
        assert parse_graph(text).rows == parse_graph(text.encode()).rows == g.rows

    @given(st.composite(random_graph)())
    def test_serialize_is_canonical(self, g):
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == serialize_graph(parse_graph(text.encode())) \
            == text

    def test_coloring_long_round_trip(self):
        c = Coloring.from_red_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert parse_coloring(serialize_coloring(c)).red_rows == c.red_rows

    @given(st.integers(2, 9), st.integers(0, 2 ** 20))
    def test_coloring_hex_round_trip(self, n, bits):
        pairs = pair_order(n)
        rows = [0] * n
        for i, (u, v) in enumerate(pairs):
            if bits >> (i % 20) & 1 or (bits + i) % 3 == 0:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        c = Coloring(n, tuple(rows))
        text = serialize_coloring(c, compact=True)
        assert parse_coloring(text).red_rows == c.red_rows

    def test_hex_order_first_pair_msb(self):
        # n=3: pairs (0,1),(0,2),(1,2); only (0,1) red -> bits 100 -> hex 8
        c = Coloring.from_red_graph(Graph.from_edges(3, [(0, 1)]))
        assert serialize_coloring(c, compact=True) == "n 3 hex 8\n"

    def test_hex_padding_enforced(self):
        with pytest.raises(GraphFormatError):
            parse_coloring("n 3 hex 9")  # padding bit set

    def test_out_of_order_pairs_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_coloring("n 3\n0 2 R\n0 1 R\n1 2 B")


class TestColoring:
    def test_swapped_involution(self):
        c = Coloring.from_red_graph(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        assert c.swapped().swapped().red_rows == c.red_rows

    def test_row_partition(self):
        c = Coloring.from_red_graph(Graph.from_edges(4, [(0, 1), (1, 3)]))
        for v in range(4):
            red, blue = c.row(v, RED), c.row(v, BLUE)
            assert red & blue == 0
            assert red | blue == ((1 << 4) - 1) & ~(1 << v)

    def test_class_graphs_complement(self):
        c = Coloring.from_red_graph(Graph.from_edges(5, [(0, 2), (1, 4)]))
        assert c.class_graph(RED).m + c.class_graph(BLUE).m == 10

    def test_unknown_color_refused(self):
        c = Coloring.monochromatic(3, RED)
        with pytest.raises(ValueError, match="unknown color 'X'"):
            c.row(0, "X")

    def test_blue_rows_built_once(self):
        c = Coloring.from_red_graph(Graph.from_edges(4, [(0, 1), (1, 3)]))
        assert c.rows(BLUE) is c.rows(BLUE)
        assert c.rows(BLUE) == c.swapped().red_rows

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 130), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           st.integers(0, 2 ** 16), st.randoms(use_true_random=False),
           st.one_of(st.none(), st.integers(1, 600)))
    def test_induced_matches_reference(self, t, rho, seed, rnd, entries):
        """Relabelling in one block, or, with ``entries`` given, in row blocks of
        at most that many entries."""
        g = sample_gnp(t, rho, seed)
        vertices = rnd.sample(range(g.t), rnd.randint(0, g.t))
        expect = induced_reference(g.rows, vertices)
        with row_blocks_of(entries):
            assert g.induced(vertices).rows == expect
            assert Coloring.from_red_graph(g).induced(vertices).red_rows == expect


class TestInduced:
    def test_all_vertices_in_order_is_the_object_itself(self):
        g = sample_gnp(12, 0.5, 3)
        c = Coloring.from_red_graph(g)
        assert g.induced(range(12)) is g
        assert g.induced(list(range(12))) is g
        assert c.induced(tuple(range(12))) is c
        assert g.induced(list(range(11, -1, -1))) is not g  # relabelled

    def test_empty_list_gives_no_rows(self):
        g = sample_gnp(9, 0.5, 1)
        assert g.induced([]).rows == ()
        assert Coloring.from_red_graph(g).induced([]).red_rows == ()
        assert Graph.empty(0).induced([]).rows == ()

    @pytest.mark.parametrize("vertices, message", [
        ([0, -1, 2], "must lie in 0..7"),
        ([0, 8], "must lie in 0..7"),
        ([2 ** 128], "must lie in 0..7"),
        ([3, 1, 3], "must be distinct"),  # used to give vertex 3 a zero row
        ([0, 1, 2, 3, 4, 5, 6, 6], "must be distinct"),
    ])
    def test_bad_vertices_refused_before_any_work(self, monkeypatch, vertices, message):
        g = sample_gnp(8, 0.5, 2)
        c = Coloring.from_red_graph(g)
        work = []
        monkeypatch.setattr(graphs, "bit_matrix", lambda *a: work.append(a))
        monkeypatch.setattr(Graph, "__post_init__", lambda self: work.append(self))
        for host in (g, c):
            with pytest.raises(ValueError, match=message):
                host.induced(vertices)
        assert work == []

    def test_peak_memory(self):
        c = sample_coloring(4096, 0.5, 1)
        even = range(0, 4096, 2)
        tracemalloc.start()
        try:
            sub = c.induced(even)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(sub.color_of(i, j) == c.color_of(2 * i, 2 * j)
                   for i, j in [(0, 1), (5, 2047), (1000, 17), (2046, 2047)])
        assert peak < 8 << 20  # 2.7 MB measured; 13.6 MB in blocks of 16 MB


def induced_reference(rows, vertices):
    """Per-edge relabelling: the induced rows, vertices[i] becoming i."""
    idx = {v: i for i, v in enumerate(vertices)}
    out = [0] * len(vertices)
    for v, i in idx.items():
        for u in graphs.bits_of(rows[v]):
            if u in idx:
                out[i] |= 1 << idx[u]
    return tuple(out)


# ---------------------------------------------------------------------------
# Differential tests against the scalar big-int implementations that the
# bit-matrix validator, parser and serializer replaced.  The references live
# here only, as oracles: same errors, same messages, same line numbers.
# ---------------------------------------------------------------------------


def ref_bits_of(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_validate(t, rows):
    if t < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(rows) != t:
        raise ValueError("row count does not match vertex count")
    full = (1 << t) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {v} has out-of-range bits")
        if row >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
    for v in range(t):
        for u in ref_bits_of(rows[v]):
            if not rows[u] >> v & 1:
                raise ValueError(f"adjacency not symmetric at {{{u},{v}}}")


# The file grammar, stated on its own: fields of a line are the runs between
# spaces and tabs, lines end in LF, blanks at the end of a text are dropped,
# and a number is a run of ASCII decimal digits.
REF_BLANKS = re.compile(rb"[ \t]+")
REF_NUMBER = re.compile(rb"[0-9]+")


def ref_lines(text):
    """The fields of each line of a text's bytes (a str's UTF-8 bytes), or
    the GraphFormatError of a text of blanks alone."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    lines = data.rstrip(b" \t\n").split(b"\n")
    if lines == [b""]:
        raise GraphFormatError("empty input", 1)
    return [REF_BLANKS.split(line.strip(b" \t")) for line in lines]


def ref_number(field):
    return int(field) if REF_NUMBER.fullmatch(field) else None


def ref_parse_graph(text):
    """(t, rows) of a graph text, or the GraphFormatError it raises: line 1
    is "t <t> m <m>", then m lines "<u> <v>" with 0 <= u < v < t, no edge
    twice; the first bad line is named."""
    head, *lines = ref_lines(text)
    if len(head) != 4 or head[0] != b"t" or head[2] != b"m":
        raise GraphFormatError("expected header 't <t> m <m>'", 1)
    t, m = ref_number(head[1]), ref_number(head[3])
    if t is None or m is None:
        raise GraphFormatError("non-integer header fields", 1)
    if t < 1:
        raise GraphFormatError("t must be >= 1", 1)
    if t > MAX_VERTICES:
        raise GraphFormatError(f"t must be at most {MAX_VERTICES}", 1)
    if len(lines) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(lines)}", 1)
    rows = [0] * t
    for i, fields in enumerate(lines, start=2):
        if len(fields) != 2:
            raise GraphFormatError("expected '<u> <v>'", i)
        u, v = map(ref_number, fields)
        if u is None or v is None:
            raise GraphFormatError("non-integer endpoint", i)
        if not u < v < t:
            if u == v:
                raise GraphFormatError(f"self-loop {u}", i)
            raise GraphFormatError(f"edge ({u},{v}) violates 0 <= u < v < t", i)
        if rows[u] >> v & 1:
            raise GraphFormatError(f"duplicate edge ({u},{v})", i)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return t, tuple(rows)


def ref_parse_coloring(text):
    """(n, red rows) of a coloring text, or the GraphFormatError it raises:
    line 1 is "n <n>", then a line "<u> <v> <R|B>" per pair in
    lexicographic order; or line 1 is "n <n> hex <h>", <h> hex digits alone,
    whose width, value and padding ``reference_coloring_from_hex`` checks,
    and no line after it."""
    head, *lines = ref_lines(text)
    if head[0] != b"n" or len(head) != 2 and (len(head) != 4 or head[2] != b"hex"):
        raise GraphFormatError("expected header 'n <n>' or 'n <n> hex <string>'", 1)
    n = ref_number(head[1])
    if n is None:
        raise GraphFormatError("non-integer vertex count", 1)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"n must be at most {MAX_VERTICES}", 1)
    if len(head) == 4:
        width = max(1, (n * (n - 1) // 2 + 3) // 4)
        if len(head[3]) == width and not re.fullmatch(rb"[0-9a-fA-F]+", head[3]):
            raise GraphFormatError("invalid hex string", 1)
        c = reference_coloring_from_hex(n, head[3].decode("latin-1"))  # a char per byte
        if lines:
            raise GraphFormatError("expected no line after 'n <n> hex <string>'", 2)
        return c.n, c.red_rows
    pairs = list(combinations(range(n), 2))
    if len(lines) != len(pairs):
        raise GraphFormatError(f"expected {len(pairs)} pair lines, found {len(lines)}", 1)
    rows = [0] * n
    for i, (fields, (pu, pv)) in enumerate(zip(lines, pairs), start=2):
        if len(fields) != 3 or fields[2] not in (b"R", b"B"):
            raise GraphFormatError("expected '<u> <v> <R|B>'", i)
        u, v = map(ref_number, fields[:2])
        if u is None or v is None:
            raise GraphFormatError("non-integer endpoint", i)
        if (u, v) != (pu, pv):
            raise GraphFormatError(f"pair ({u},{v}) out of order; expected ({pu},{pv})", i)
        if fields[2] == b"R":
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return n, tuple(rows)


def ref_serialize_graph(t, rows):
    edges = [(u, v) for u in range(t) for v in ref_bits_of(rows[u] >> (u + 1) << (u + 1))]
    lines = [f"t {t} m {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except GraphFormatError as e:
        return ("format", str(e), e.line)
    except ValueError as e:
        return ("value", str(e))


def ok(t, *edges):
    """The outcome of a graph read from a text: t and its rows."""
    return "ok", (t, Graph.from_edges(t, edges).rows)


def refused(line, detail):
    """The outcome of a text refused on ``line``."""
    return "format", f"line {line}: {detail}", line


def parsed(text):
    """What ``parse_graph`` makes of ``text``: ("ok", (t, rows)) or its error,
    checked to be what it makes of the text's UTF-8 bytes too."""
    got = outcome(lambda: (lambda g: (g.t, g.rows))(parse_graph(text)))
    assert outcome(lambda: (lambda g: (g.t, g.rows))(parse_graph(text.encode()))) == got
    return got


@st.composite
def raw_rows(draw):
    """Rows of a symmetric graph, then damaged: asymmetric pairs, loops,
    bits at or above t, negative rows."""
    t = draw(st.integers(0, 70))
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    bits = draw(st.integers(0, 2 ** len(pairs) - 1))
    rows = [0] * t
    for i, (u, v) in enumerate(pairs):
        if bits >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for _ in range(draw(st.integers(0, 3)) if t else 0):
        v = draw(st.integers(0, t - 1))
        kind = draw(st.sampled_from(["flip", "loop", "high", "negative"]))
        if kind == "flip":
            rows[v] ^= 1 << draw(st.integers(0, t - 1))
        elif kind == "loop":
            rows[v] |= 1 << v
        elif kind == "high":
            rows[v] |= 1 << draw(st.integers(t, t + 70))
        else:
            rows[v] = -draw(st.integers(1, 2 ** (t + 1)))
    return t, tuple(rows)


# Widths of zero-padded endpoints around the eight-digit words of the reader
PADDED_WIDTHS = [1, 7, 8, 9, 15, 16, 17, 18, 19]

ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                             "\u0665\u0666\u0667\u0668\u0669")


def odd_line(kind, line, u, v, widths=(1, 1)):
    """Edge line ``line`` of edge {u, v}, or of another, written oddly or
    damaged, as ``kind`` says (the kinds of ODD_LINE_KINDS)."""
    if kind == "swap":
        return f"{v} {u}"
    if kind == "loop":
        return f"{u} {u}"
    if kind == "word":
        return f"{u} x"
    if kind == "float":
        return f"{u}.5 {v}"
    if kind == "three":
        return f"{line} 0"
    if kind == "spaces":
        return f"  {u} \t {v}  "
    if kind == "plus":
        return f"+{u} {v}"
    if kind == "crlf":
        return f"{line}\r"  # joined with "\n", this line ends in CRLF
    if kind == "zeros":
        return f"0{u} 00{v}"
    if kind == "underscore":
        return f"{u} {v // 10}_{v % 10}"  # the same number: int("2_3") == 23
    if kind == "unicode":
        return line.translate(ARABIC_INDIC)
    if kind == "wide":
        return f"{u} {v:020d}"  # 20 digits, still v
    if kind == "overflow":
        return f"{u} {10 ** 19 + v}"  # past int64
    if kind == "negative":
        return f"-1 {v}"
    if kind == "blank":
        return ""
    if kind == "em_space":
        return f"{u}\u2003{v}"
    if kind == "form_feed":
        return f"{u}\x0c{v}"
    if kind == "unit_separator":
        return f"{u}\x1f{v}"
    if kind == "padded":  # one, two or three words of digits; 19 is past int64's reach
        return f"{u:0{widths[0]}d} {v:0{widths[1]}d}"
    return f"{u}"


# Each kind of odd line, and what the reader makes of it as line 3 of
# "t 9 m 3 / 0 1 / <2 5 written so> / 7 8": None where it reads as edge
# {2, 5}, else the error on line 3.  The padded line is 19 and 8 digits wide.
ODD_LINE_KINDS = {
    "swap": "edge (5,2) violates 0 <= u < v < t",
    "loop": "self-loop 2",
    "word": "non-integer endpoint",
    "float": "non-integer endpoint",
    "three": "expected '<u> <v>'",
    "spaces": None,
    "plus": "non-integer endpoint",
    "one": "expected '<u> <v>'",
    "crlf": "non-integer endpoint",  # the field "5\r"
    "zeros": None,
    "underscore": "non-integer endpoint",
    "unicode": "non-integer endpoint",
    "wide": None,
    "overflow": f"edge (2,{10 ** 19 + 5}) violates 0 <= u < v < t",
    "negative": "non-integer endpoint",
    "blank": "expected '<u> <v>'",
    "em_space": "expected '<u> <v>'",
    "form_feed": "expected '<u> <v>'",
    "unit_separator": "expected '<u> <v>'",
    "padded": None,
}


def mutate_line(draw, line, u, v):
    """A valid edge line written oddly, or a damaged one."""
    kind = draw(st.sampled_from(list(ODD_LINE_KINDS)))
    widths = (draw(st.sampled_from(PADDED_WIDTHS)), draw(st.sampled_from(PADDED_WIDTHS))) \
        if kind == "padded" else (1, 1)
    return odd_line(kind, line, u, v, widths)


@st.composite
def graph_texts(draw):
    """Serialized graphs, some with duplicate lines or damaged edge lines,
    some with CRLF line endings throughout."""
    g = random_graph(draw, max_t=draw(st.integers(2, 40)))
    pairs = g.edges()
    edges = ref_serialize_graph(g.t, g.rows).splitlines()[1:]
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        if draw(st.booleans()):
            edges.insert(draw(st.integers(0, len(edges))), edges[i])
        else:
            u, v = draw(st.sampled_from(pairs))
            edges[i] = mutate_line(draw, edges[i], u, v)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    lead = draw(st.sampled_from(["", "", "", newline * 2, " \t" + newline + "  "]))
    tail = draw(st.sampled_from([newline, newline, ""]))  # "": the last line has no newline
    return lead + newline.join([f"t {g.t} m {len(edges)}"] + edges) + tail


class TestBitMatrixDifferential:
    @settings(max_examples=300, deadline=None)
    @given(raw_rows())
    def test_validator_matches_reference(self, case):
        t, rows = case
        new = outcome(lambda: Graph(t, rows).rows)
        assert new == outcome(lambda: ref_validate(t, rows) or rows)

    def test_first_asymmetric_pair_named(self):
        # row 1 has 3 (but row 3 lacks 1) before row 2 has 0 (row 0 lacks 2)
        rows = (0b0000, 0b1000, 0b0001, 0b0000)
        message = outcome(ref_validate, 4, rows)[1]
        assert message == "adjacency not symmetric at {3,1}"
        assert outcome(Graph, 4, rows) == ("value", message)

    @settings(max_examples=300, deadline=None)
    @given(graph_texts())
    def test_parse_matches_reference(self, text):
        new = parsed(text)
        assert new == outcome(ref_parse_graph, text)

    @pytest.mark.parametrize("lines", [["0 1", "1 2 3", "4"], ["0 1", "4", "1 2 3"],
                                       ["1 2 3", "0 1", "4"], ["4", "0 1", "1 2 3"],
                                       # read two at a time, the runs make valid edges
                                       ["0 1", "2", "3 4 5"], ["0 1 2", "3", "4 5"]])
    def test_token_count_right_but_not_two_per_line(self, lines):
        # 2m digit runs in all, but one line holds three and another one
        text = "t 6 m 3\n" + "\n".join(lines) + "\n"
        first_bad = next(i for i, ln in enumerate(lines, 2) if len(ln.split()) != 2)
        assert parsed(text) == outcome(ref_parse_graph, text)
        assert parsed(text) == ("format", f"line {first_bad}: expected '<u> <v>'", first_bad)

    def test_earlier_duplicate_reported_before_later_format_error(self):
        text = "t 4 m 4\n0 1\n1 2\n0 1\n2 x\n"
        assert parsed(text) == outcome(ref_parse_graph, text)
        assert parsed(text)[2] == 4

    # Each line, and None where it reads as edge {0, 2}, else the error on it;
    # a duplicate is named on the later of its line and ``twin``.
    @pytest.mark.parametrize("line, want", [
        ("0 2\r", "non-integer endpoint"), ("00 002", None), ("0 1_2", "non-integer endpoint"),
        ("\u0660 \u0662", "non-integer endpoint"), (f"0 {2:020d}", None),
        (f"0 {10 ** 19}", f"edge (0,{10 ** 19}) violates 0 <= u < v < t"),
        ("-1 2", "non-integer endpoint"), ("", "expected '<u> <v>'"),
        ("   ", "expected '<u> <v>'"), ("0\u20032", "expected '<u> <v>'"),
        ("0\x0c2", "expected '<u> <v>'"), ("0\x1f2", "expected '<u> <v>'"),
        ("+0 2", "non-integer endpoint"), ("0 2 0", "expected '<u> <v>'"),
        ("0 x", "non-integer endpoint"), ("2 0", "edge (2,0) violates 0 <= u < v < t"),
        ("1 1", "self-loop 1"), ("0 4", "edge (0,4) violates 0 <= u < v < t"), ("0 2", None),
        ("0 1", ("duplicate edge (0,1)", "0 1")),
        # zero-padded to one, two and three words of digits, and past int64
        (f"{0:08d} {2:08d}", None), (f"{0:09d} {2:016d}", None), (f"{0:017d} {2:018d}", None),
        (f"0 {2:019d}", None), (f"{1:019d} 2", ("duplicate edge (1,2)", "1 2")),
        (f"0 {10 ** 17 + 2}", f"edge (0,{10 ** 17 + 2}) violates 0 <= u < v < t"),
        (f"0 {10 ** 18 - 1}", f"edge (0,{10 ** 18 - 1}) violates 0 <= u < v < t"),
    ])
    @pytest.mark.parametrize("where", [0, 1, 3])  # first, middle and last edge line
    def test_odd_line_matches_reference(self, line, want, where):
        edges = ["0 1", "1 2", "2 3"]
        edges.insert(where, line)
        text = "t 4 m 4\n" + "\n".join(edges) + "\n"
        new = parsed(text)
        assert new == outcome(ref_parse_graph, text)
        if want is None:
            assert new == ok(4, (0, 1), (1, 2), (2, 3), (0, 2))
        elif not edges[-1].strip(" "):  # dropped with the blanks at the end of the text
            assert new == refused(1, "expected 4 edge lines, found 3")
        else:
            detail, twin = want if isinstance(want, tuple) else (want, line)
            bad = max(i for i, edge in enumerate(edges, 2) if edge in (line, twin))
            assert new == refused(bad, detail)

    @pytest.mark.parametrize("kind", ODD_LINE_KINDS)
    def test_each_odd_line_kind(self, kind):
        text = f"t 9 m 3\n0 1\n{odd_line(kind, '2 5', 2, 5, (19, 8))}\n7 8\n"
        want = ODD_LINE_KINDS[kind]
        new = parsed(text)
        assert new == outcome(ref_parse_graph, text)
        assert new == (ok(9, (0, 1), (2, 5), (7, 8)) if want is None else refused(3, want))

    # The line ends and leads of ``graph_texts``, and the error on line 1 of
    # each but the first: a CR ends the header's last field, and a blank
    # line stands where the header must be.
    @pytest.mark.parametrize("newline, lead, want", [
        ("\n", "", None),
        ("\n", "\n\n", "expected header 't <t> m <m>'"),
        ("\n", " \t\n  ", "expected header 't <t> m <m>'"),
        ("\r\n", "", "non-integer header fields"),
        ("\r\n", "\r\n\r\n", "expected header 't <t> m <m>'"),
        ("\r\n", " \t\r\n  ", "expected header 't <t> m <m>'"),
    ])
    def test_graph_text_line_ends_and_leads(self, newline, lead, want):
        text = lead + newline.join(["t 3 m 2", "0 1", "1 2"]) + newline
        new = parsed(text)
        assert new == outcome(ref_parse_graph, text)
        assert new == (ok(3, (0, 1), (1, 2)) if want is None else refused(1, want))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           st.integers(0, 2 ** 16))
    def test_serialize_matches_reference(self, t, rho, seed):
        g = sample_gnp(t, rho, seed)
        assert serialize_graph(g) == ref_serialize_graph(g.t, g.rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 600), st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           st.integers(0, 2 ** 16), st.one_of(st.none(), st.integers(1, 3000)))
    def test_serialize_matches_triu_reference(self, t, rho, seed, entries):
        """The edge list of ``flatnonzero`` on pre-masked rows is the one
        ``np.nonzero(np.triu(...))`` gave, in one block or in row blocks."""
        g = sample_gnp(t, rho, seed)
        with row_blocks_of(entries):
            assert serialize_graph(g) == reference_serialize_graph(g)

    @given(st.composite(random_graph)(max_t=70))
    def test_pack_inverts_bit_matrix(self, g):
        a = bit_matrix(g.t, g.rows)
        assert a.dtype == bool and a.shape == (g.t, g.t)
        assert pack_rows(a) == g.rows

    # one word per row up to 64 columns, int.from_bytes above
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 130])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_pack_rows_matches_from_bytes(self, n, count):
        a = np.random.default_rng(n + count).random((count, n)) < 0.5
        a[:1] = True  # the top bit of a full word included
        got = pack_rows(a)
        assert got == reference_pack_rows(a)
        assert all(type(row) is int for row in got)
        assert got[:1] == ((1 << n) - 1,)[:count]


@contextmanager
def row_blocks_of(entries=None, text_bytes=None):
    """Cut every whole-matrix pass into bands of ``entries`` // t rows, one
    row at least, where ``entries`` is given (by default a band is 1 MB, or
    t / 32 rows where they are more); optionally read graph text in blocks
    of about ``text_bytes`` bytes."""
    names = "_BAND_ENTRIES", "_MAX_BANDS", "_TEXT_BLOCK"
    saved = [getattr(graphs, name) for name in names]
    if entries is not None:
        graphs._BAND_ENTRIES = entries
        graphs._MAX_BANDS = MAX_VERTICES  # no floor of t / 32 rows
    graphs._TEXT_BLOCK = text_bytes or saved[2]
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(graphs, name, value)


class TestRowBlocks:
    @settings(max_examples=150, deadline=None)
    @given(raw_rows(), st.integers(1, 300))
    def test_validator_matches_reference(self, case, entries):
        t, rows = case
        with row_blocks_of(entries):
            new = outcome(lambda: Graph(t, rows).rows)
        assert new == outcome(lambda: ref_validate(t, rows) or rows)

    @settings(max_examples=150, deadline=None)
    @given(graph_texts(), st.integers(1, 300), st.integers(1, 64))
    def test_parse_matches_reference(self, text, entries, text_bytes):
        with row_blocks_of(entries, text_bytes):
            new = parsed(text)
        assert new == outcome(ref_parse_graph, text)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 120), st.sampled_from([0.05, 0.5, 1.0]),
           st.integers(0, 2 ** 16), st.integers(1, 600))
    def test_serialize_matches_reference(self, t, rho, seed, entries):
        g = sample_gnp(t, rho, seed)
        with row_blocks_of(entries):
            text = serialize_graph(g)
        assert text == ref_serialize_graph(g.t, g.rows)

    def test_working_memory_is_one_block(self):
        text = "t 4096 m 2\n0 4095\n17 18\n"
        with row_blocks_of(1 << 18):  # 64 rows of 4096
            tracemalloc.start()
            try:
                out = serialize_graph(parse_graph(text))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert out == text
        assert peak < 4 << 20  # one 4096 x 4096 matrix alone is 16 MB

    def test_parse_peak_memory(self):
        g = sample_gnp(2048, 0.2, 1)
        text = serialize_graph(g)  # 3.7 MB, 419k edge lines
        tracemalloc.start()
        try:
            rows = parse_graph(text).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == g.rows
        assert peak < 40 << 20

    def test_writer_peak_memory(self):
        """Edges are listed a chunk of a band's entries at a time, with no
        index array of a whole band: writing G(2048, 0.2) to a stream peaks
        below drawing it."""
        g = sample_gnp(2048, 0.2, 1)  # the bit generator exists
        with open(os.devnull, "w") as sink:
            peaks = []
            for work in (lambda: sample_gnp(2048, 0.2, 1), lambda: serialize_graph(g, sink)):
                tracemalloc.start()
                try:
                    work()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        drawn, written = peaks
        assert written <= drawn  # 2.6 and 3.3 MB measured; 7.1 MB listing whole bands at once


# The graph texts of the tests above as bytes, and bytes outside the grammar:
# not ASCII or not UTF-8, with a line break other than "\n", a separator
# \x1c-\x1f, or blank lines before the header; and what each reads as.
BYTES_CASES = [
    (b"t 3 m 2\n0 1\n1 2", ok(3, (0, 1), (1, 2))),
    (b"t 2 m 1\n0 0", refused(2, "self-loop 0")),
    (b"t 3 m 2\n0 1\n0 1", refused(3, "duplicate edge (0,1)")),
    (b"t 3 m 1\n0 3", refused(2, "edge (0,3) violates 0 <= u < v < t")),
    (b"t 50000 m 0\n", refused(1, f"t must be at most {MAX_VERTICES}")),
    (b"t 4096 m 2\n0 4095\n17 18\n", ok(4096, (0, 4095), (17, 18))),
    (b"", refused(1, "empty input")),
    (b"  \t ", refused(1, "empty input")),
    (b"\n \n", refused(1, "empty input")),
    (b" \t t 3 m 1\n0 1\n  \n", ok(3, (0, 1))),
    (b"t 3 m 1", refused(1, "expected 1 edge lines, found 0")),
    (b"t 3 m 0\n", ok(3)),
    (b"t x m 1\n0 1\n", refused(1, "non-integer header fields")),
    ("t 3 m 1\n\u0660 \u0662\n".encode(), refused(2, "non-integer endpoint")),
    ("t 3 m 1\n0\u20032\n".encode(), refused(2, "expected '<u> <v>'")),
    ("t 3 m 1\n0 2 \u00e9\n".encode(), refused(2, "expected '<u> <v>'")),
    ("\u0085t 3 m 1\n0 2\u2028".encode(), refused(1, "expected header 't <t> m <m>'")),
    (b"t 3 m 2\r\n0 1\r\n1 2\r\n", refused(1, "non-integer header fields")),
    (b"t 3 m 2\n0 1\r1 2", refused(1, "expected 2 edge lines, found 1")),
    (b"t 3 m 1\n0\x1f2\n", refused(2, "expected '<u> <v>'")),
    (b"\x1ft 3 m 1\n0 2\x1f", refused(1, "expected header 't <t> m <m>'")),
    (b"t 3 m 2\n0 1\x0b1 2", refused(1, "expected 2 edge lines, found 1")),
    (b"t 3 m 2\n0 1\x0c1 2\n", refused(1, "expected 2 edge lines, found 1")),
    (b"t 3 m 2\n0 1\x1c1 2", refused(1, "expected 2 edge lines, found 1")),
    (b"t 3 m 2\n0 1\x1d1 2\x1e", refused(1, "expected 2 edge lines, found 1")),
    (b"\n\nt 3 m 1\n0 x\n", refused(1, "expected header 't <t> m <m>'")),
    (b"\n\nt 3 m 1\n0 2\n", refused(1, "expected header 't <t> m <m>'")),
    (b"\n\nt 3 m 2\n0 2\n0 2\n", refused(1, "expected header 't <t> m <m>'")),
    (b" \n t 3 m 1\n0 9\n", refused(1, "expected header 't <t> m <m>'")),
    (b"t 3 m 1\n0 \xff\n", refused(2, "non-integer endpoint")),
    (b"\n\nt 3 m 1\n0 \xff\n", refused(1, "expected header 't <t> m <m>'")),
    (b"t 3 m 1\n0 2\xe2\x80\n", refused(2, "non-integer endpoint")),
]


class TestParseBytes:
    """``parse_graph`` of a file's bytes, and of their text where they are
    UTF-8."""

    @pytest.mark.parametrize("data, want", BYTES_CASES)
    def test_bytes_give_their_outcome(self, data, want):
        def graph(g):
            return g.t, g.rows
        assert outcome(lambda: graph(parse_graph(data))) == want == outcome(ref_parse_graph, data)
        try:
            text = data.decode()
        except UnicodeDecodeError:
            return
        assert outcome(lambda: graph(parse_graph(text))) == want

    def test_bytes_parse_peak_memory(self):
        g = sample_gnp(2048, 0.2, 1)
        data = serialize_graph(g).encode()  # 3.7 MB, 419k edge lines
        tracemalloc.start()
        try:
            rows = parse_graph(data).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == g.rows
        assert peak < 10 << 20  # 7.2 MB measured; 25 MB for the text before


# Graph files down every branch of the block reader: leading blanks on the
# header line, trailing blanks, no final newline, m 0; lines longer than a
# block; a duplicate edge across blocks; and a wrong edge count beside a bad
# line.
STREAM_CASES = [
    b" \t t 3 m 2\n0 1\n1 2\n",
    b"t 3 m 2\n0 1\n1 2\n \t\n\n   \n", b"t 3 m 2\n0 1\n1 2", b"t 3 m 2\n0 1\n1 2   ",
    b"t 3 m 0\n", b"t 3 m 0", b"t 3 m 0\n\n  \n", b"t 3 m 0\n0 1\n", b"t 3 m 1\n\n",
    b"", b" \t ", b"\n\n", b"   \n \t",
    b"t 5 m 3\n0 1\n" + b"0" * 40 + b"2 " + b"0" * 30 + b"3\n3 4\n",
    b"t 5 m 3\n0 1\n" + b" " * 50 + b"2 3" + b" " * 50 + b"\n3 4\n",
    b"t 5 m 3\n0 1\n1 2\n" + b" \n" * 40,
    b"t 3 m 2\n0 1\n\n1 2\n", b"t 3 m 1\n0 9\n", b"t 99999 m 0\n",
    b"t 9 m 6\n0 1\n2 3\n4 5\n6 7\n0 8\n2 3\n",  # a duplicate edge across blocks
    b"t 9 m 6\n0 1\n2 3\n4 5\n6 7\n2 3\n2 x\n",  # a duplicate before a bad line
    b"t 9 m 7\n0 1\n2 3\n4 5\n6 7\n0 8\n1 x\n",  # a wrong count beats a bad line
    b"t 9 m 7\n0 x\n2 3\n4 5\n6 7\n0 8\n1 2\n",  # ... in an earlier block too
    b"t 9 m 5\n0 1\n2 3\n4 5\n6 7\n0 8\n1 2\n",  # more edge lines than m
    b"t 9 m 1000\n0 1\n",  # more edge lines declared than the file has bytes
]

# Graph files with bytes outside the grammar -- CRLF, \x0b, non-ASCII and
# non-UTF-8 bytes, some after an error -- or blank lines before the header,
# and the error each gets.
REFUSED_STREAM_CASES = [
    (b"t 3 m 2\r\n0 1\r\n1 2\r\n", 1, "non-integer header fields"),
    (b"t 3 m 2\n0 1\n1 2\x0b\n", 3, "non-integer endpoint"),
    ("t 3 m 2\n0 1\n1 2 \u00e9\n".encode(), 3, "expected '<u> <v>'"),
    ("t 3 m 2\n0 1\n\u0661 \u0662\n".encode(), 3, "non-integer endpoint"),
    (b"t 3 m 2\n0 1\n1 \xff\n", 3, "non-integer endpoint"),
    (b"t x m 2\n0 1\n1 2\n\xff", 1, "non-integer header fields"),  # a header error first
    (b"t 3 m 2\n0 x\n1 2\r\n", 2, "non-integer endpoint"),  # a bad line before a CR
    (b"t 3 m 3\n0 1\n1 2\n\xe2\x80", 4, "expected '<u> <v>'"),  # a cut UTF-8 sequence
    (b"\n\n t 3 m 2\n0 1\n1 2\n", 1, "expected header 't <t> m <m>'"),
    (b"  \nt 3 m 1\n0 1", 1, "expected header 't <t> m <m>'"),
]


def graph_of(g):
    return g.t, g.rows


def file_outcome(data):
    """What ``read_pattern`` makes of a file of ``data``: its graph and its
    digest, or its error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        with open(path, "wb") as f:
            f.write(data)
        try:
            g, digest = read_pattern(path)
        except GraphFormatError as e:
            return ("format", str(e), e.line), None
    return ("ok", graph_of(g)), digest


class TestBlockReader:
    """``parse_graph`` of bytes and of files, a block of text and a band of
    rows at a time, against the reader of the whole bytes that it replaced,
    or the grammar's reference where bytes lie outside the grammar: the same
    graph, the same digest and the same error on the same line."""

    @pytest.mark.parametrize("text_bytes", [1, 2, 3, 5, 8, 13, 64, None])
    @pytest.mark.parametrize("data", STREAM_CASES)
    def test_cases_match_whole_bytes_reader(self, data, text_bytes):
        want = outcome(lambda: graph_of(reference_parse_graph_bytes(data)))
        with row_blocks_of(1, text_bytes):  # bands of one row
            assert outcome(lambda: graph_of(parse_graph(data))) == want
            assert file_outcome(data) == \
                (want, hashlib.sha256(data).hexdigest() if want[0] == "ok" else None)

    @pytest.mark.parametrize("text_bytes", [1, 2, 3, 5, 8, 13, 64, None])
    @pytest.mark.parametrize("data, line, detail", REFUSED_STREAM_CASES)
    def test_bytes_outside_the_grammar_refused(self, data, line, detail, text_bytes):
        want = refused(line, detail)
        assert outcome(ref_parse_graph, data) == want
        with row_blocks_of(1, text_bytes):
            assert outcome(lambda: graph_of(parse_graph(data))) == want
            assert file_outcome(data) == (want, None)

    @settings(max_examples=150, deadline=None)
    @given(graph_texts(), st.integers(1, 300), st.integers(1, 64))
    def test_texts_match_reference(self, text, entries, text_bytes):
        data = text.encode()
        want = outcome(ref_parse_graph, data)
        with row_blocks_of(entries, text_bytes):
            assert outcome(lambda: graph_of(parse_graph(data))) == want
            assert file_outcome(data)[0] == want

    def test_default_blocks_and_bands(self):
        g = sample_gnp(1100, 0.2, 3)  # bands of 953 and 147 rows
        data = serialize_graph(g).encode()  # 17 blocks of text
        assert file_outcome(data) == (("ok", graph_of(g)), hashlib.sha256(data).hexdigest())
        head, first = data.split(b"\n", 2)[:2]  # the first edge line again, at the end
        dup = data.replace(head, b"t 1100 m %d" % (g.m + 1), 1) + first + b"\n"
        assert outcome(parse_graph, dup) == outcome(reference_parse_graph_bytes, dup) == \
            ("format", f"line {g.m + 2}: duplicate edge ({first.replace(b' ', b',').decode()})",
             g.m + 2)

    @pytest.mark.parametrize("entries", [600, 600 * 97, None])  # bands of 1, 97 and 600 rows
    def test_edges_in_any_order(self, entries):
        """Edge lines in row-major order, as ``random gnp`` writes them, give
        each band its edges as a slice; in any other order they are picked
        out band by band."""
        g = sample_gnp(600, 0.1, 4)
        head, *lines = serialize_graph(g).splitlines()
        np.random.default_rng(1).shuffle(lines)
        with row_blocks_of(entries):
            assert parse_graph("\n".join([head] + lines)) == g
            lines[-1] = lines[0]
            text = "\n".join([head] + lines)
            assert outcome(parse_graph, text) == outcome(ref_parse_graph, text)

    def test_pipe_is_read_whole(self, tmp_path):
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        data = b"t 3 m 1\n0 2\n"
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            g, digest = read_pattern(str(fifo))
        finally:
            if writer.is_alive():  # nothing opened the pipe: let the writer go
                # without blocking, as a writer that has just closed the pipe
                # is still alive and no other will open it
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join()
        assert (g, digest) == (Graph.from_edges(3, [(0, 2)]), hashlib.sha256(data).hexdigest())

    @pytest.mark.parametrize("v", [952, 953])  # the first band's last row, the next's first
    @pytest.mark.parametrize("u", [3, 1000])
    def test_asymmetric_row_at_a_band_edge(self, v, u):
        """Bit u set in row v alone: the first asymmetric entry is in row v,
        on either side of the band edge at row 953 of 1100."""
        rows = list(sample_gnp(1100, 0.02, 7).rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        rows[v] |= 1 << u
        message = outcome(ref_validate, 1100, tuple(rows))[1]
        assert message == f"adjacency not symmetric at {{{u},{v}}}"
        assert outcome(Graph, 1100, tuple(rows)) == ("value", message)

    def test_validation_peak_memory(self):
        rows = sample_gnp(4096, 0.2, 1).rows
        tracemalloc.start()
        try:
            Graph(4096, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # 2.5 MB measured; 18.0 MB with a 4096 x 4096 bool matrix


@contextmanager
def edge_line_calls(module, calls):
    """Record in ``calls`` the line number of each ``_edge_line`` call made
    through ``module``."""
    saved = module._edge_line

    def spy(line, i, t):
        calls.append(i)
        return saved(line, i, t)

    module._edge_line = spy
    try:
        yield
    finally:
        module._edge_line = saved


def read_outcome(read, module, data, lo, hi, t, arrays, k):
    """What ``read`` does with one block, reading into ``arrays``: its return
    value or error, and the edge lines it left to ``_edge_line``."""
    calls = []
    with edge_line_calls(module, calls):
        try:
            got = ("ok", read(data, lo, hi, t, *arrays, k))
        except GraphFormatError as e:
            got = ("format", str(e), e.line)
    return got, calls


@contextmanager
def reader_checked_against_reference():
    """Make ``parse_graph`` read every block of edge lines with both the word
    reader and the reference, and check that they agree: the same return
    value or error, the same edges read so far, and the same lines left to
    ``_edge_line``.  The reference reads endpoints into two arrays, the
    reader u * t + v into one."""
    reader = graphs._read_edge_lines

    def both(data, lo, hi, t, at, k):
        ref_us, ref_vs = np.divmod(at.astype(np.int64), t)  # the k lines read before
        want = read_outcome(reference_read_edge_lines, references, data, lo, hi, t,
                            (ref_us, ref_vs), k)
        got = read_outcome(reader, graphs, data, lo, hi, t, (at,), k)
        assert got == want
        if got[0][0] == "format":
            raise GraphFormatError(got[0][1].split(": ", 1)[1], got[0][2])
        read = got[0][1]
        assert at[:read].tolist() == (ref_us[:read] * t + ref_vs[:read]).tolist()
        return read

    graphs._read_edge_lines = both
    try:
        yield
    finally:
        graphs._read_edge_lines = reader


class TestWordReader:
    """The byte pass that converts endpoints eight digits per word against
    the one that took a decimal place per step, block by block."""

    @settings(max_examples=300, deadline=None)
    @given(graph_texts(), st.one_of(st.none(), st.integers(1, 64)))
    def test_blocks_match_reference(self, text, text_bytes):
        """At the default block size, or blocks of about ``text_bytes`` bytes."""
        with row_blocks_of(text_bytes=text_bytes), \
                reader_checked_against_reference():
            new = parsed(text)
        assert new == outcome(ref_parse_graph, text)

    @pytest.mark.parametrize("width", PADDED_WIDTHS)
    def test_padded_endpoint_left_to_edge_line_only_past_18_digits(self, width):
        text = f"t 4 m 3\n0 1\n{1:0{width}d} {3:0{width}d}\n2 3\n"
        for form in (text, text.encode()):
            calls = []
            with edge_line_calls(graphs, calls):
                g = parse_graph(form)
            assert g == Graph.from_edges(4, [(0, 1), (1, 3), (2, 3)])
            assert calls == ([3] if width > graphs._MAX_DIGITS else [])

    @pytest.mark.parametrize("lo", range(9))
    def test_words_reaching_before_the_data(self, lo):
        """Edge lines from byte ``lo`` on, fewer than 8 bytes into the data
        but for lo = 8: words of their first runs reach before byte 0.  The
        bytes before ``lo`` are digits, which must not leak into a value."""
        data = b"9" * lo + b"0 1\n2 3\n00000002 13"
        at, us, vs = np.zeros(3, np.int32), np.zeros(3, np.int64), np.zeros(3, np.int64)
        got = read_outcome(graphs._read_edge_lines, graphs, data, lo, len(data), 14, (at,), 0)
        want = read_outcome(reference_read_edge_lines, references, data, lo, len(data), 14,
                            (us, vs), 0)
        assert got == want == (("ok", 3), [])
        assert at.tolist() == (us * 14 + vs).tolist() == [0 * 14 + 1, 2 * 14 + 3, 2 * 14 + 13]

    @pytest.mark.parametrize("text_bytes", range(1, 25))
    def test_runs_ending_at_a_block_cut(self, text_bytes):
        """Some block is cut just after a run, on the newline that ends it,
        and another within a run, so its run ends the block (the last line
        has no newline)."""
        lines = ["0 1", "12 345", f"{7:09d} 8", "0 00000000000000000999", "3 9", "1000 1001"]
        text = "t 1002 m 6\n" + "\n".join(lines)
        for form in (text, text.encode()):
            with row_blocks_of(text_bytes=text_bytes), \
                    reader_checked_against_reference():
                g = parse_graph(form)
            assert g == Graph.from_edges(1002, [(0, 1), (12, 345), (7, 8), (0, 999), (3, 9),
                                                (1000, 1001)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text("0123456789", min_size=1, max_size=18), min_size=1, max_size=12),
           st.lists(st.sampled_from([" ", "\t", "\n", "  \n "]), min_size=12, max_size=12),
           st.integers(0, 12))
    def test_run_values_are_the_integers(self, tokens, gaps, lo):
        text = "x" * lo + "".join(tok + gap for tok, gap in zip(tokens, gaps))
        data = text.encode()
        b = np.frombuffer(data, np.uint8, len(data) - lo, lo)
        digit = np.concatenate(([False], b - 48 < 10, [False]))
        edges = np.flatnonzero(digit[1:] != digit[:-1])
        starts, ends = edges[0::2], edges[1::2]
        values = graphs._run_values(graphs._word_view(data, lo, len(data)), ends, ends - starts)
        assert values.tolist() == [int(tok) for tok in tokens]

    @pytest.mark.parametrize("lo", range(16))
    def test_word_view_is_unaligned_little_endian(self, lo):
        """Every byte offset of the view, whatever the alignment of its first
        word, up to the word that ends with the buffer's last byte; a gather
        from it reads the same words."""
        data = bytes(range(lo, lo + 37))
        words = graphs._word_view(data, lo, len(data))
        padded = bytes(8) + data
        want = [int.from_bytes(padded[i:i + 8], "little") for i in range(lo, len(data) + 1)]
        assert words.dtype == np.dtype("<u8") and not words.flags.writeable
        assert words.tolist() == want
        picks = np.array([len(want) - 1, 0, 5, len(want) - 1, 3])
        assert words[picks].tolist() == [want[i] for i in picks]


# Sizes of one tile, one tile and one more vertex, and several tiles with a
# ragged last band.
TILED_SIZES = [1, 2, 255, 256, 257, 513, 1100]


def upper_random(shape, seed, p=0.3):
    """Bool matrices (the last two axes square) with random entries above the
    diagonal and none on or below it."""
    return np.triu(np.random.default_rng(seed).random(shape) < p, 1)


class TestTiles:
    """The symmetry check and the symmetric build, up to one tile and past
    it, against the plain transpose."""

    @pytest.mark.parametrize("t", TILED_SIZES)
    def test_symmetric_matches_plain_transpose(self, t):
        """The symmetry check on packed rows, which graphs past one tile
        take, accepts a symmetric matrix and names the first entry of one
        with a flipped entry as the plain check does."""
        a = upper_random((t, t), t)
        a |= a.T
        assert graphs._check_symmetric(t, pack_rows(a)) is None
        for u, v in {(0, t - 1), (t - 1, 0), (t // 2, t - 1), (0, t // 3)}:
            if u != v:
                b = a.copy()
                b[u, v] ^= True
                rows = pack_rows(b)
                assert outcome(graphs._check_symmetric, t, rows) == outcome(ref_validate, t, rows)
                assert outcome(ref_validate, t, rows)[0] == "value"

    @pytest.mark.parametrize("t", [0, *TILED_SIZES])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("entries", [None, 1])
    def test_symmetric_build_matches_plain_transpose(self, t, k, entries):
        """The rows ``_symmetric`` builds from the entries above the diagonal
        of a stack are those of a | a.T, given as one band, or as bands of
        one row."""
        a = upper_random((k, t, t), t + k)
        want = reference_pack_rows((a | a.transpose(0, 2, 1)).reshape(k * t, t))
        spans = [(0, t)]
        if entries is not None:
            with row_blocks_of(entries):
                spans = list(graphs._row_blocks(t))
            assert len(spans) > 1 or t < 2
        bands = (a[:, lo:hi].copy() for lo, hi in spans)
        assert graphs._symmetric(t, bands) == want

    @pytest.mark.parametrize("t", [257, 513, 1100])
    @pytest.mark.parametrize("u, v", [(3, -1), (-1, 3), (300, -1)])
    def test_asymmetric_entry_in_off_diagonal_tile_named(self, t, u, v):
        rows = list(sample_gnp(t, 0.02, t).rows)
        u, v = u % t, v % t  # two different tiles
        rows[u] ^= 1 << v
        message = outcome(ref_validate, t, tuple(rows))[1]
        assert message.startswith("adjacency not symmetric at {")
        assert outcome(Graph, t, tuple(rows)) == ("value", message)

    @pytest.mark.parametrize("u, v", [(100, 580), (290, 599), (5, 310), (580, 100)])
    @pytest.mark.parametrize("kind", ["set", "cleared"])
    def test_asymmetric_entry_in_a_later_row_block_named(self, u, v, kind):
        """Row blocks of 300 of 600 rows, and bit u set in row v alone or
        cleared in row v alone.  Set at (100, 580), the first asymmetric
        entry lies in the second block, in its rows 556..599 and columns
        0..255: a tile off the diagonal."""
        rows = list(sample_gnp(600, 0.3, 11).rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u  # the edge {u, v}
        if kind == "set":
            rows[u] ^= 1 << v
        else:
            rows[v] ^= 1 << u
        message = outcome(ref_validate, 600, tuple(rows))[1]
        assert message.startswith("adjacency not symmetric at {")
        with row_blocks_of(300 * 600):
            assert outcome(Graph, 600, tuple(rows)) == ("value", message)


class TestCompactColoring:
    """The compact form against the one-big-int-step-per-pair reader and
    writer it replaced: same text, same rows, same errors."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 600), st.sampled_from([0.0, 0.3, 0.5, 1.0]),
           st.integers(0, 2 ** 16), st.one_of(st.none(), st.integers(1, 3000)))
    def test_round_trip_matches_reference(self, n, p, seed, entries):
        """In one block, or with ``entries`` given, in row blocks."""
        c = sample_coloring(n, p, seed)
        text = reference_serialize_coloring_compact(c)
        with row_blocks_of(entries):
            assert serialize_coloring(c, compact=True) == text
            assert parse_coloring(text) == c

    def test_writer_peak_memory(self):
        c = sample_coloring(4096, 0.5, 1)
        tracemalloc.start()
        try:
            text = serialize_coloring(c, compact=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == len("n 4096 hex \n") + 4096 * 4095 // 8
        assert peak < 8 << 20  # 5.1 MB measured; 40.0 MB in blocks of 16 MB

    @pytest.mark.parametrize("n", [0, 1, 2, 9, 64, 65, 512])
    @pytest.mark.parametrize("p", [0, 0.5, 1])
    def test_round_trip_at_byte_and_word_edges(self, n, p):
        c = sample_coloring(n, p, n)
        text = serialize_coloring(c, compact=True)
        assert text == reference_serialize_coloring_compact(c)
        assert parse_coloring(text) == c == reference_coloring_from_hex(n, text.split()[3])

    @pytest.mark.parametrize("text, want", [
        (b"n 3 hex 8\n0 1 R\njunk\n", refused(2, "expected no line after 'n <n> hex <string>'")),
        (b"n 3 hex 8\n\n0 1 R\n", refused(2, "expected no line after 'n <n> hex <string>'")),
        (b"n 0 hex 0\n0 1 R\n", refused(2, "expected no line after 'n <n> hex <string>'")),
        (b"n 3 hex 9\njunk\n", refused(1, "padding bits must be zero")),
        (b"n 3 hex 8\n \t\n\n", ("ok", (3, (2, 1, 0)))),
    ])
    def test_no_line_follows_the_hex_string(self, text, want):
        """The compact form is one line: a later line is refused, after any
        error of line 1; blanks at the end of the file are not lines."""
        assert outcome(lambda: colored(parse_coloring(text))) == want
        assert outcome(ref_parse_coloring, text) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2, 12), st.data())
    def test_odd_hex_strings_match_reference(self, n, data):
        width = max(1, (max(n, 0) * (max(n, 0) - 1) // 2 + 3) // 4)
        hexstr = data.draw(st.text("0123456789abcdefABCDEF_+-xX", min_size=max(1, width - 1),
                                   max_size=width + 1))
        text = f"n {n} hex {hexstr}\n"
        assert outcome(lambda: colored(parse_coloring(text))) == outcome(ref_parse_coloring, text)

    @pytest.mark.parametrize("n, hexstr, want", [
        (5, "f_c", "invalid hex string"), (5, "f_f", "invalid hex string"),
        (5, "0x4", "invalid hex string"), (5, "0x8", "invalid hex string"),
        (5, "0xf", "invalid hex string"), (4, "+c", "invalid hex string"),
        (4, "-1", "invalid hex string"), (4, "0x", "invalid hex string"),
        (4, "_f", "invalid hex string"), (-2, "0", "non-integer vertex count"),
        (3, "9", "padding bits must be zero"), (3, "g", "invalid hex string"),
        (4, "fc", None), (4, "fd", "padding bits must be zero"),
        # no pairs: the one digit is all padding
        (0, "0", None), (1, "0", None), (0, "1", "padding bits must be zero"),
        (0, "f", "padding bits must be zero"), (1, "7", "padding bits must be zero"),
        (1, "f", "padding bits must be zero"), (1, "00", "hex string must have 1 digits"),
    ])
    def test_int_spellings_refused(self, n, hexstr, want):
        """A sign, a 0x prefix or an underscore, which ``int(s, 16)`` reads,
        is no hex digit: ``width`` characters of [0-9a-fA-F] alone are read."""
        text = f"n {n} hex {hexstr}\n"
        got = outcome(lambda: colored(parse_coloring(text)))
        assert got == outcome(ref_parse_coloring, text)
        if want is None:
            c = reference_coloring_from_hex(n, hexstr)
            assert got == ("ok", (c.n, c.red_rows))
        else:
            assert got == refused(1, want)


def colored(c):
    return c.n, c.red_rows


def substitutions(data):
    """``data`` with each of its bytes in turn replaced by each byte value."""
    for i in range(len(data)):
        for b in range(256):
            yield data[:i] + bytes([b]) + data[i + 1:]


class TestByteGrammar:
    """Every file one byte away from a valid one reads as the grammar's
    reference reads it: the same graph or coloring, or the same error on the
    same line, and never an error of another kind."""

    @pytest.mark.parametrize("text_bytes", [None, 4])
    def test_graph_byte_substitutions(self, text_bytes):
        data = b"t 5 m 3 \n0 1\n1\t04\n 2 3\n"
        assert parse_graph(data) == Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
        with row_blocks_of(text_bytes=text_bytes):
            for mutated in substitutions(data):
                assert outcome(lambda: graph_of(parse_graph(mutated))) == \
                    outcome(ref_parse_graph, mutated), mutated

    @pytest.mark.parametrize("data", [b"n 3\n0 1 R\n 0 2 B\t\n1\t2 R\n", b"n 5\thex 3fC \n"])
    def test_coloring_byte_substitutions(self, data):
        assert outcome(parse_coloring, data)[0] == "ok"
        for mutated in substitutions(data):
            assert outcome(lambda: colored(parse_coloring(mutated))) == \
                outcome(ref_parse_coloring, mutated), mutated


class TestVertexLimit:
    def test_graph_header_refused_on_line_1(self):
        with pytest.raises(GraphFormatError, match=f"t must be at most {MAX_VERTICES}") as e:
            parse_graph("t 50000 m 0\n")
        assert e.value.line == 1

    def test_coloring_header_checked_before_pairs_are_listed(self):
        with pytest.raises(GraphFormatError, match=f"n must be at most {MAX_VERTICES}"):
            parse_coloring("n 50000 hex 0\n")
        pairs = MAX_VERTICES * (MAX_VERTICES - 1) // 2
        with pytest.raises(GraphFormatError, match=f"expected {pairs} pair lines, found 0"):
            parse_coloring(f"n {MAX_VERTICES}\n")
        with pytest.raises(GraphFormatError, match="hex string must have"):
            parse_coloring(f"n {MAX_VERTICES} hex 0\n")

    @pytest.mark.parametrize("build", [
        lambda n: Graph(n, (0,) * n),
        Graph.empty,
        Graph.complete,
        lambda n: Graph.from_edges(n, [(0, 1)]),
        lambda n: sample_gnp(n, 0.5, 1),
        lambda n: Coloring.monochromatic(n, RED),
        lambda n: Coloring.monochromatic(n, BLUE),
    ])
    def test_builders_refuse_before_building(self, build):
        with pytest.raises(ValueError, match=f"exceed the limit of {MAX_VERTICES}"):
            build(MAX_VERTICES + 1)


class TestSwappedValidatesOnce:
    def test_one_validation(self, monkeypatch):
        c = Coloring.from_red_graph(Graph.from_edges(6, [(0, 1), (2, 5), (3, 4)]))
        checked = []
        validate = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__",
                            lambda self: checked.append(self.t) or validate(self))
        c.swapped()
        assert checked == [6]

    @given(st.composite(random_graph)(max_t=40))
    def test_swapped_is_blue_class(self, g):
        c = Coloring.from_red_graph(g)
        assert c.swapped().red_rows == c.class_graph(BLUE).rows
