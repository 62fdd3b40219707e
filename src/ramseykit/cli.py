"""Command-line entry point wiring all modules into reproducible experiments.

Every JSON payload embeds a manifest (subcommand, normalized flags, seeds,
input file hashes, tool and generator versions); re-running a manifest
reproduces the output byte-for-byte.  ``--out`` is the one flag every
subcommand takes; CSV output comes from ``bounds --grid`` and ``sweep``, JSON
from everything else but ``random gnp``, which writes a graph file.
Exhausted/NotFound are successful completions (exit 0) -- the report is the
result.  Exit 1 = usage error, including a flag value outside the range
that the ``_Range`` in its ``add_argument`` declares (README's "The ranges"
lists them all); exit 2 = malformed input.  Every failure prints one line
to stderr, never a traceback.  Each leaf subcommand has one handler,
and ``run`` builds the parser once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional, TextIO

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from . import randomlab
from .embedder import (
    BiDensityWitness,
    Certified,
    TooLarge,
    check_bidense_exact,
    embed_greedy,
)
from .graphs import (
    BLUE,
    RED,
    Coloring,
    Graph,
    GraphFormatError,
    MAX_VERTICES,
    parse_coloring,
    serialize_coloring,
    serialize_graph,
)
from .patterns import ShorthandError, parse_rho, read_pattern
from .search import (
    SearchConfig,
    SearchOutcome,
    find_mono_H,
    find_random_graph_mono,
    find_red_H_or_blue_clique,
)

TOOL_VERSION = "0.1.0"
SCHEMA = "ramseykit/v1"


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _require(args: argparse.Namespace, context: str, *flags: str):
    for flag in flags:
        if getattr(args, flag) is None:
            raise UsageError(f"{context} requires --{flag}")


_SHORTHAND_FORMS = {"random": "random:<n>:<p>:<seed>", "mono": "mono:<n>:<R|B>"}


def _coloring_shorthand(spec: str) -> Coloring:
    kind, *fields = spec.split(":")
    try:
        if kind == "random":
            n, p, seed = fields
            n, p, seed = int(n), parse_rho(p), int(seed)
        else:
            n, color = fields
            n = int(n)
            if color not in (RED, BLUE):
                raise ValueError(f"unknown color {color!r}")
    except (ValueError, ZeroDivisionError):  # field count, number or colour
        raise UsageError(f"coloring shorthand must be {_SHORTHAND_FORMS[kind]}, "
                         f"got {spec!r}") from None
    if kind == "random":
        return randomlab.sample_coloring(n, p, seed)
    return Coloring.monochromatic(n, color)


def _load_coloring(spec: str) -> tuple[Coloring, Optional[str]]:
    """Coloring from a file, or shorthands random:<n>:<p>:<seed> / mono:<n>:<R|B>."""
    if spec.startswith(("random:", "mono:")):
        return _coloring_shorthand(spec), None
    path = Path(spec)
    if not path.exists():
        raise InputError(f"coloring file not found: {spec}")
    data = path.read_bytes()
    try:
        return parse_coloring(data), hashlib.sha256(data).hexdigest()
    except GraphFormatError as e:
        raise InputError(f"{spec}: {e}") from None


def _load_graph_arg(spec: str) -> tuple[Graph, Optional[str]]:
    try:
        return read_pattern(spec)
    except FileNotFoundError as e:
        raise InputError(str(e)) from None
    except GraphFormatError as e:
        raise InputError(f"{spec}: {e}") from None


# Most values one grid may name: ``sweep --n`` and ``--seeds``, and ``--t`` of
# ``bounds --grid`` and ``sweep --kind bounds``.  A bounds grid of 10**4 t
# values and two densities takes 0.14 s, and a search sweep of 10**4 seeds
# 1.2 s for K3 at n = 20 and 2.3 s for C5 at n = 40 (in-process, one core of
# a 2-vCPU x86-64 host).  That holds for every theorem but base-case, which
# takes one step per unit of --s in each cell.
GRID_LIMIT = 10 ** 4
# Most --s of ``bounds`` and ``sweep --kind bounds``: base-case sums one term
# per unit of s, 0.12 to 0.2 s per cell at s = 10**6 (in-process, one core of
# a 2-vCPU x86-64 host), so a grid of GRID_LIMIT cells may still take about
# half an hour.
S_LIMIT = 10 ** 6


def _grid(flag: str, spec: str) -> list[int]:
    """Parse '8', '8,16,32', or 'start:stop:step' (stop inclusive, step at
    least 1) naming at most GRID_LIMIT values; the size of a start:stop:step
    is checked before its list is built."""
    try:
        if ":" in spec:
            a, b, step = (int(p) for p in spec.split(":"))
        else:
            values = [int(p) for p in spec.split(",")]
    except ValueError:  # a field that is no integer, or not three of them
        raise UsageError(f"{flag} must be an integer, a comma list of them or "
                         f"start:stop:step, got {spec!r}") from None
    if ":" in spec:
        if step < 1:
            raise UsageError(f"{flag} must be start:stop:step with a step of at least 1, "
                             f"got {spec!r}")
        values = range(a, b + 1, step)
    size = max(0, (b - a) // step + 1) if ":" in spec else len(values)
    if size > GRID_LIMIT:
        raise UsageError(f"{flag} must be a grid of at most {GRID_LIMIT} values, "
                         f"got {size} in {spec!r}")
    return list(values)


@dataclass(frozen=True)
class _Range:
    """A numeric flag's range, declared once as its ``type=``: text that
    ``parse`` refuses keeps argparse's "invalid int value" message, and a value
    outside lo..hi is a usage error naming the flag."""

    flag: str
    parse: Callable[[str], float]
    lo: float
    hi: float = math.inf
    ends: str = "[]"  # each end closed or open; an open lo with no hi is 0, "positive"
    top: str = ""  # hi as the message writes it, where its digits would not do
    keep_text: bool = False  # return the text: a density reaches the manifest as typed

    @property
    def __name__(self) -> str:  # argparse's "invalid <name> value"
        return self.parse.__name__

    def __call__(self, text: str):
        value = self.parse(text)
        self.check(value, text)
        return text if self.keep_text else value

    def read(self, text: str) -> float:
        """The value of ``text`` outside argparse, for a flag whose range holds
        only with another flag's value: text that ``parse`` refuses is out of
        range too."""
        try:
            value = self.parse(text)
        except ValueError:
            value = math.nan  # fails every range check
        self.check(value, text)
        return value

    def check(self, value: float, text: str = "") -> None:
        # written as a not-inside test so that NaN fails it too
        if not ((self.lo < value if self.ends[0] == "(" else self.lo <= value)
                and (value < self.hi if self.ends[1] == ")" else value <= self.hi)):
            if self.hi < math.inf:
                domain = f"in {self.ends[0]}{self.lo}, {self.top or self.hi}{self.ends[1]}"
            else:
                domain = "positive" if self.ends[0] == "(" else f"at least {self.lo}"
            raise UsageError(f"{self.flag} must be {domain}, "
                             f"got {text if self.keep_text else value}")


def density(text: str) -> float:
    """A density as p/q or a float; 1/0 is no number either, nor a p/q too
    large for a float."""
    try:
        return parse_rho(text)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(text) from None


_SEED = (int, 0, randomlab.SEED_LIMIT, "[)", "2**128")  # the range of a Philox key
# search --rho, sweep --rho with --kind search, and each --rho of a bounds list
_SEARCH_RHO = _Range("--rho", density, 0, 1, "(]", keep_text=True)


def _check_seed(flag: str, seed: int, count: int) -> None:
    """Seeds ``seed`` .. ``seed + count - 1`` must all be Philox keys."""
    top = "2**128" if count == 1 else f"2**128 - {count - 1}"
    _Range(flag, int, 0, randomlab.SEED_LIMIT - count + 1, "[)", top).check(seed)


def _seeded(flag: str, load, spec: str):
    """``load(spec)``, where a shorthand whose seed is no Philox key, or a gnp
    shorthand whose rho is no number in [0, 1], is a usage error that names
    ``flag``."""
    try:
        return load(spec)
    except randomlab.SeedError:
        raise UsageError(f"{flag} must be a shorthand whose seed is in [0, 2**128), "
                         f"got {spec!r}") from None
    except ShorthandError as e:
        raise UsageError(f"{flag} must be {e.args[0]}") from None


def _load_inputs(args: argparse.Namespace, **loaders) -> tuple[list, dict[str, str]]:
    """Each named flag's input, loaded in order by its loader, and the manifest
    hashes of the ones read from files, keyed by flag."""
    loaded, hashes = [], {}
    for flag, load in loaders.items():
        value, digest = _seeded(f"--{flag}", load, getattr(args, flag))
        loaded.append(value)
        if digest:
            hashes[flag] = digest
    return loaded, hashes


def _manifest(args: argparse.Namespace, hashes: dict[str, str]) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "out") and v is not None}
    return {
        "subcommand": args.subcommand,
        "flags": flags,
        "input_hashes": hashes,
        "tool_version": TOOL_VERSION,
        "generator_version": randomlab.GENERATOR_VERSION,
    }


@contextlib.contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """The --out file, opened to write text, or stdout without one."""
    if not out:
        yield sys.stdout
        return
    with open(out, "w") as f:
        yield f


def _write(out: Optional[str], text: str):
    """``text`` to the --out file, or to stdout without one."""
    with _output(out) as f:
        f.write(text)


def _emit_result(args: argparse.Namespace, hashes: dict[str, str], result) -> int:
    """Write the JSON payload envelope: schema tag, manifest and result."""
    payload = {"schema": SCHEMA, "manifest": _manifest(args, hashes), "result": result}
    _write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _emit_csv(header: list[str], rows: list[list], out: Optional[str]) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(out, buf.getvalue())
    return 0


# --------------------------------------------------------------------------
# Subcommand handlers, one per leaf subcommand.
# --------------------------------------------------------------------------


def _densities(args) -> list:
    """The --rho comma list, each value in the range of ``search --rho``, a p/q
    as a Fraction and otherwise a float; [None] when it is absent.  Each
    parameter the theorem's ``bounds.TABLE`` row requires must be given, and
    a --rho only to a theorem whose row requires or optionally takes it."""
    row = bounds_mod.TABLE[args.theorem]
    for p in row.required:
        if getattr(args, p) in (None, ""):  # an empty --rho is no --rho
            raise UsageError(f"--{p} is required for theorem {args.theorem}")
    if not args.rho:
        return [None]
    if "rho" not in row.required + row.optional:
        raise UsageError(f"--rho is not a parameter of theorem {args.theorem}")
    rhos = args.rho.split(",")
    values = [_SEARCH_RHO.read(r) for r in rhos]  # the float of each, once in range
    return [Fraction(r) if "/" in r else x for r, x in zip(rhos, values)]


def _emit_bounds_grid(args) -> int:
    """One CSV row per (t, rho) cell of the --t grid and the --rho list."""
    rhos = _densities(args)
    rows = []
    for t in sorted(_grid("--t", args.t)):
        for r in rhos:
            rep = bounds_mod.evaluate(args.theorem, t=t, rho=r, s=args.s, m=args.m)
            for one in rep if isinstance(rep, tuple) else (rep,):
                rows.append([args.theorem, t, "" if r is None else str(r),
                             f"{one.log2_bound:.12g}", one.preconditions_met])
    return _emit_csv(["theorem", "t", "rho", "log2_bound", "preconditions_met"], rows,
                     args.out)


def _cmd_bounds(args) -> int:
    if args.grid:
        return _emit_bounds_grid(args)
    if ":" in args.t or "," in args.t:
        raise UsageError("a grid of --t needs --grid")
    try:
        args.t_int = int(args.t)  # recorded in the manifest next to --t
    except ValueError:
        raise UsageError(f"--t must be an integer, got {args.t!r}") from None
    rhos = _densities(args)
    if len(rhos) != 1:
        raise UsageError("a comma list of --rho needs --grid")
    rep = bounds_mod.evaluate(args.theorem, t=args.t_int, rho=rhos[0], s=args.s, m=args.m)
    result = [r.to_json() for r in rep] if isinstance(rep, tuple) else rep.to_json()
    return _emit_result(args, {}, result)


_BIDENSE_STATUS = {Certified: "certified", BiDensityWitness: "witness", TooLarge: "too_large"}


def _cmd_embed(args) -> int:
    (pattern, host), hashes = _load_inputs(
        args, pattern=_load_graph_arg,
        host=_load_coloring if args.color else _load_graph_arg)
    result: dict = {}
    if args.sigma is not None:
        cert = check_bidense_exact(host, args.sigma, args.delta, color=args.color,
                                   budget=args.budget)
        result["bidense"] = {"status": _BIDENSE_STATUS[type(cert)], **cert.to_json()}
    res = embed_greedy(pattern, host, args.delta, color=args.color)
    if res.ok:
        result["status"] = "embedded"
        result["embedding"] = list(res.embedding.image)
    else:
        result["status"] = "failure"
        result["failure"] = res.failure.to_json()
    result["trace_summary"] = {
        "steps": len(res.trace),
        "part_size": res.part_size,
        "hypothesis_held": res.hypothesis_held,
    }
    return _emit_result(args, hashes, result)


def _search(coloring: Coloring, pattern: Graph, mode: str, rho: Optional[float],
            seed: int, max_depth: Optional[int] = None, clique_s: Optional[int] = None,
            degree_cap: Optional[int] = None) -> SearchOutcome:
    """One search of ``mode``.  Defaults: rho None is the pattern's density,
    max_depth None is SearchConfig's, clique_s None is the pattern's size and
    degree_cap None its maximum degree."""
    config = SearchConfig(rho=float(pattern.density) if rho is None else rho, seed=seed,
                          max_depth=SearchConfig.max_depth if max_depth is None else max_depth)
    if mode == "mono":
        return find_mono_H(coloring, pattern, config)
    if mode == "vs-clique":
        return find_red_H_or_blue_clique(coloring, pattern,
                                         pattern.t if clique_s is None else clique_s, config)
    return find_random_graph_mono(coloring, pattern,
                                  pattern.max_degree if degree_cap is None else degree_cap,
                                  config)


def _cmd_search(args) -> int:
    (coloring, pattern), hashes = _load_inputs(args, coloring=_load_coloring,
                                               pattern=_load_graph_arg)
    rho = parse_rho(args.rho) if args.rho else None
    outcome = _search(coloring, pattern, args.mode, rho, args.seed, args.budget,
                      args.clique_s, args.degree_cap)
    result = outcome.to_json()
    if not args.trace_full:
        result["trace"] = result["trace"][-5:]
        result["trace_truncated"] = True
    return _emit_result(args, hashes, result)


def _cmd_random_gnp(args) -> int:
    g = randomlab.sample_gnp(args.t_int, parse_rho(args.rho), args.seed)
    with _output(args.out) as f:
        serialize_graph(g, f)  # a chunk at a time: the text is never whole
    return 0


def _cmd_random_partition(args) -> int:
    (g,), hashes = _load_inputs(args, graph=_load_graph_arg)
    cert = randomlab.judicious_partition(g, args.max_tries, args.seed)
    return _emit_result(args, hashes, cert.to_json())


def _cmd_random_spread(args) -> int:
    (g,), hashes = _load_inputs(args, graph=_load_graph_arg)
    rep = randomlab.verify_degree_spread(g, args.delta, args.eps, parse_rho(args.rho),
                                         args.mode, args.budget, args.seed)
    return _emit_result(args, hashes, rep.to_json())


def _cmd_random_chernoff(args) -> int:
    bound = randomlab.chernoff_tail(args.n, args.p, args.theta)
    result = {"n": args.n, "p": args.p, "theta": args.theta, "bound": bound,
              "exponential_base": "e"}
    if args.empirical is not None:
        result["empirical"] = randomlab.empirical_binomial_tail(
            args.n, args.p, args.theta, args.empirical, args.seed)
        result["samples"] = args.empirical
    return _emit_result(args, {}, result)


def _cmd_oracle_find(args) -> int:
    (coloring, pattern), hashes = _load_inputs(args, coloring=_load_coloring,
                                               pattern=_load_graph_arg)
    emb = oracle_mod.find_mono_subgraph_exact(coloring, pattern, args.color)
    result = {"found": emb is not None}
    if emb is not None:
        result["embedding"] = list(emb.image)
    return _emit_result(args, hashes, result)


def _cmd_oracle_ramsey(args) -> int:
    (h1, h2), hashes = _load_inputs(args, h1=_load_graph_arg, h2=_load_graph_arg)
    cert = oracle_mod.ramsey_number_exact(h1, h2, args.nmax)
    result = {"kind": cert.kind, "n": cert.n, "verified": cert.verify(),
              "generator_version": randomlab.GENERATOR_VERSION}
    if cert.witness is not None:
        result["witness_at"] = cert.witness_n
        result["witness"] = serialize_coloring(cert.witness, compact=True).strip()
    if cert.classes is not None:
        result["classes"] = list(cert.classes)
    return _emit_result(args, hashes, result)


def _cmd_oracle_certify_lower(args) -> int:
    _check_seed("--seed", args.seed, args.tries)  # every try's seed, before any draw
    pairs = args.n * (args.n - 1) // 2  # drawn by each try
    if args.tries * pairs > oracle_mod.CERTIFY_PAIRS_LIMIT:
        raise UsageError(f"--tries must be in [1, {oracle_mod.CERTIFY_PAIRS_LIMIT // pairs}] "
                         f"at --n {args.n}, {oracle_mod.CERTIFY_PAIRS_LIMIT} pairs drawn "
                         f"in all, got {args.tries}")
    (pattern,), hashes = _load_inputs(args, pattern=_load_graph_arg)
    witness = oracle_mod.lower_bound_certificate_random(pattern, args.n, args.tries,
                                                        args.seed)
    result = {"kind": "lower" if witness is not None else "not_found",
              "n": args.n, "verified": witness is not None,
              "generator_version": randomlab.GENERATOR_VERSION}
    if witness is not None:
        result["witness"] = serialize_coloring(witness, compact=True).strip()
    return _emit_result(args, hashes, result)


def _sweep_search_cell(cell):
    n, seed, pattern, pattern_spec, mode, rho, p_red = cell
    coloring = randomlab.sample_coloring(n, p_red, seed)
    outcome = _search(coloring, pattern, mode, rho, seed)
    return [n, seed, pattern_spec, mode, outcome.kind, outcome.color or ""]


def _workers() -> int:
    """RAMSEYKIT_WORKERS, 1 when it is unset: an integer in [1, os.cpu_count()]."""
    text, top = os.environ.get("RAMSEYKIT_WORKERS", "1"), os.cpu_count() or 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if not 1 <= workers <= top:
        raise UsageError(f"RAMSEYKIT_WORKERS must be an integer in [1, {top}], got {text}")
    return workers


def _cmd_sweep(args) -> int:
    if args.kind == "bounds":
        _require(args, "sweep --kind bounds", "theorem", "t")
        return _emit_bounds_grid(args)
    _require(args, "sweep --kind search", "pattern", "n")
    workers = _workers()
    rho = _SEARCH_RHO.read(args.rho) if args.rho else None
    ns = _grid("--n", args.n)
    seeds = _grid("--seeds", args.seeds)
    for seed in seeds:
        _Range("--seeds", *_SEED).check(seed)
    pattern, _ = _seeded("--pattern", _load_graph_arg, args.pattern)  # once for all cells
    cells = [(n, s, pattern, args.pattern, args.mode, rho, args.p_red)
             for n, s in sorted((n, s) for n in ns for s in seeds)]
    workers = min(workers, len(cells))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            rows = pool.map(_sweep_search_cell, cells)
    else:
        rows = [_sweep_search_cell(c) for c in cells]
    rows.sort(key=lambda r: (r[0], r[1]))
    return _emit_csv(["n", "seed", "pattern", "mode", "outcome", "color"], rows, args.out)


# --------------------------------------------------------------------------
# Argument wiring.
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ramseykit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    out = _Parser(add_help=False)
    out.add_argument("--out")  # the one flag every leaf subcommand takes

    def leaf(subparsers, name: str, func, **kwargs) -> _Parser:
        p = subparsers.add_parser(name, parents=[out], **kwargs)
        p.set_defaults(func=func)
        return p

    def ranged(p, flag: str, *domain, keep_text: bool = False, **kwargs):
        p.add_argument(flag, type=_Range(flag, *domain, keep_text=keep_text), **kwargs)

    p = leaf(sub, "bounds", _cmd_bounds, help="evaluate a bound formula in log2 domain")
    p.add_argument("--theorem", required=True, choices=bounds_mod.THEOREMS)
    p.add_argument("--t", required=True, help="vertex count, or a grid spec with --grid")
    p.add_argument("--rho", help="density as p/q or float (comma list with --grid)")
    ranged(p, "--s", int, 0, S_LIMIT)
    p.add_argument("--m", type=int)
    p.add_argument("--grid", action="store_true", help="CSV rows over the --t grid")

    p = leaf(sub, "embed", _cmd_embed, help="greedy embedding into a host")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--color", choices=[RED, BLUE])
    ranged(p, "--delta", float, 0, 1, "(]", required=True)
    ranged(p, "--sigma", float, 0, 0.5, "(]", "1/2", help="also run the exact bi-density check")
    ranged(p, "--budget", int, 1, default=10 ** 9)

    p = leaf(sub, "search", _cmd_search, help="constructive monochromatic search")
    p.add_argument("--coloring", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", default="mono",
                   choices=["mono", "vs-clique", "random-bounded"])
    p.add_argument("--rho", type=_SEARCH_RHO)
    ranged(p, "--clique-s", int, 1, MAX_VERTICES)  # the blue K_s is built as a Graph
    ranged(p, "--degree-cap", int, 0)
    ranged(p, "--budget", int, 1, help="recursion depth (default 8)")
    ranged(p, "--seed", *_SEED, default=0)
    p.add_argument("--trace-full", action="store_true")

    p = sub.add_parser("random", help="samplers and probabilistic checks")
    rsub = p.add_subparsers(dest="random_op", required=True)
    q = leaf(rsub, "gnp", _cmd_random_gnp)
    ranged(q, "--t", int, 1, MAX_VERTICES, dest="t_int", required=True)
    ranged(q, "--rho", density, 0, 1, keep_text=True, required=True)
    ranged(q, "--seed", *_SEED, default=0)
    q = leaf(rsub, "partition", _cmd_random_partition)
    q.add_argument("--graph", required=True)
    ranged(q, "--max-tries", int, 1, default=64)
    ranged(q, "--seed", *_SEED, default=0)
    q = leaf(rsub, "spread", _cmd_random_spread)
    q.add_argument("--graph", required=True)
    ranged(q, "--delta", float, 0, 1, "(]", required=True)
    ranged(q, "--eps", float, 0, math.inf, "(]", required=True)
    ranged(q, "--rho", density, 0, 1, "(]", keep_text=True, required=True)
    q.add_argument("--mode", default="sampled", choices=["sampled", "exhaustive"])
    ranged(q, "--budget", int, 1, randomlab.SPREAD_SETS_LIMIT, default=10_000)
    ranged(q, "--seed", *_SEED, default=0)
    q = leaf(rsub, "chernoff", _cmd_random_chernoff)
    # numpy draws binomials of at most 2**63 - 1 trials
    ranged(q, "--n", int, 1, 2 ** 63, "[)", "2**63", required=True)
    ranged(q, "--p", float, 0, 1, "()", required=True)
    ranged(q, "--theta", float, 0, 1, required=True)
    ranged(q, "--empirical", int, 1, randomlab.EMPIRICAL_LIMIT)
    ranged(q, "--seed", *_SEED, default=0)

    p = sub.add_parser("oracle", help="exact desk-scale computations")
    osub = p.add_subparsers(dest="oracle_op", required=True)
    q = leaf(osub, "find", _cmd_oracle_find)
    q.add_argument("--coloring", required=True)
    q.add_argument("--pattern", required=True)
    q.add_argument("--color", required=True, choices=[RED, BLUE])
    q = leaf(osub, "ramsey", _cmd_oracle_ramsey)
    q.add_argument("--h1", required=True)
    q.add_argument("--h2", required=True)
    ranged(q, "--nmax", int, 1, default=8,
           help=f"largest n searched, 1 to {oracle_mod.DEFAULT_NMAX_GUARD}")
    q = leaf(osub, "certify-lower", _cmd_oracle_certify_lower)
    q.add_argument("--pattern", required=True)
    ranged(q, "--n", int, 1, required=True)
    ranged(q, "--tries", int, 1, oracle_mod.CERTIFY_TRIES_LIMIT, default=1000)
    q.add_argument("--seed", type=int, default=0)  # checked with --tries by its handler

    p = leaf(sub, "sweep", _cmd_sweep, help="parameter grids, CSV output")
    p.add_argument("--kind", required=True, choices=["bounds", "search"])
    p.add_argument("--theorem", choices=bounds_mod.THEOREMS)
    p.add_argument("--t")
    p.add_argument("--rho")
    ranged(p, "--s", int, 0, S_LIMIT)
    p.add_argument("--m", type=int)
    p.add_argument("--pattern")
    p.add_argument("--mode", default="mono", choices=["mono", "vs-clique"])
    p.add_argument("--n")
    p.add_argument("--seeds", default="0:4:1")
    ranged(p, "--p-red", float, 0, 1, default=0.5)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser ``run`` uses, built once per process: parse_args leaves it
    unchanged and returns a fresh Namespace each time."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 1
    except oracle_mod.OracleRefusal as e:
        sys.stderr.write(f"usage error: oracle refused: {e}\n")
        return 1
    except (InputError, GraphFormatError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except (ValueError, ZeroDivisionError, FileNotFoundError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def main():  # console entry point
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
