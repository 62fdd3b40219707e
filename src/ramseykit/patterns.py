"""Built-in pattern shorthands so experiments need no file staging.

  k<n>               complete graph K_n
  p<n>               path on n vertices
  c<n>               cycle on n vertices
  s<n>               star K_{1,n}
  m<n>               matching of n disjoint edges
  e<n>               edgeless graph on n vertices
  gnp:<t>:<rho>:<seed>   seeded binomial random graph

Anything that is not a shorthand is treated as a path to a graph file.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .graphs import Graph, GraphFile, parse_graph

_SHORTHAND = re.compile(r"^([kpcsme])(\d+)$")
_GNP = re.compile(r"^gnp:(\d+):([0-9./]+):(\d+)$")


class ShorthandError(ValueError):
    """A gnp:<t>:<rho>:<seed> shorthand whose rho is no number, such as 1/0,
    or lies outside [0, 1].  Its one argument is what the shorthand must be."""

    def __str__(self) -> str:
        return f"a gnp shorthand must be {self.args[0]}"


def named_graph(kind: str, n: int) -> Graph:
    if n < 1:
        raise ValueError("size must be positive")
    if kind == "k":
        return Graph.complete(n)
    if kind == "e":
        return Graph.empty(n)
    if kind == "p":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "c":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "s":
        return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if kind == "m":
        return Graph.from_edges(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])
    raise ValueError(f"unknown pattern kind {kind!r}")


def parse_rho(text: str) -> float:
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def load_pattern(spec: str) -> Graph:
    """Resolve a shorthand, gnp spec, or file path to a Graph."""
    return read_pattern(spec)[0]


def read_pattern(spec: str) -> tuple[Graph, Optional[str]]:
    """The Graph ``spec`` names, and the SHA-256 hex digest of the bytes it
    was parsed from when ``spec`` is a file path (None for a shorthand, which
    wins over a file of the same name).  A file is read once, a block at a
    time, and hashed as it is parsed."""
    m = _SHORTHAND.match(spec)
    if m:
        return named_graph(m.group(1), int(m.group(2))), None
    m = _GNP.match(spec)
    if m:
        from .randomlab import sample_gnp

        try:
            rho = parse_rho(m.group(2))
        except (ValueError, ZeroDivisionError):
            raise ShorthandError(f"gnp:<t>:<rho>:<seed> with a number as rho, got {spec!r}") \
                from None
        if not 0 <= rho <= 1:
            raise ShorthandError(f"gnp:<t>:<rho>:<seed> with rho in [0, 1], got {spec!r}")
        return sample_gnp(int(m.group(1)), rho, int(m.group(3))), None
    path = Path(spec)
    if not path.exists():
        raise FileNotFoundError(
            f"{spec!r} is neither a pattern shorthand (k3, p4, c5, s4, m2, e3, "
            f"gnp:t:rho:seed) nor an existing file"
        )
    if not path.is_file():  # a pipe, say, which cannot be read twice: read it whole
        data = path.read_bytes()
        return parse_graph(data), hashlib.sha256(data).hexdigest()
    with path.open("rb") as f:
        text = GraphFile(f)
        return parse_graph(text), text.sha256.hexdigest()
