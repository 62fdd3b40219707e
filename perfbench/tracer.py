"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds each layer's public functions (and the few
methods that build or derive graphs) in every ``ramseykit`` namespace that
holds them, so ``from .embedder import embed_greedy`` in ``search`` sees
the wrapper too.  Each call becomes a span (name, start, end, parent, op id)
kept in memory; self time is a span's duration minus the time its child
spans cover, and the tracer's own bookkeeping is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter


def _edges(counts, args, result):
    counts["graphs.edges_validated"] += sum(r.bit_count() for r in args[0].rows) // 2


def _parse_bytes(counts, args, result):
    counts["graphs.parse_bytes"] += len(args[0])


def _serialize_bytes(counts, args, result):
    if result is not None:
        counts["graphs.serialize_bytes"] += len(result)


def _pairs(counts, args, result):
    counts["randomlab.pairs_sampled"] += args[0] * (args[0] - 1) // 2


def _partition(counts, args, result):
    if result is not None:
        counts["randomlab.partition_tries"] += result.tries_used
        counts["randomlab.partition_accepted"] += result.accepted


def _spread(counts, args, result):
    if result is not None:
        counts["randomlab.spread_sets"] += result.sets_inspected


def _bidense(counts, args, result):
    counts["embedder.bidense_sets_checked"] += getattr(result, "sets_checked", 0)


def _greedy(counts, args, result):
    if result is not None:
        counts["embedder.greedy_ok"] += result.ok


def _hit(key):
    def count(counts, args, result):
        counts[key] += result is not None
    return count


def _trace_events(counts, args, result):
    if result is not None:
        counts["search.trace_events"] += len(result.trace)


# (span name, module, attribute path, counter)
TARGETS = (
    ("graphs.construct", "graphs", "Graph.__post_init__", _edges),
    ("graphs.derive", "graphs", "Graph.induced", None),
    ("graphs.derive", "graphs", "Coloring.swapped", None),
    ("graphs.derive", "graphs", "Coloring.class_graph", None),
    ("graphs.parse", "graphs", "parse_graph", _parse_bytes),
    ("graphs.parse", "graphs", "parse_coloring", _parse_bytes),
    ("graphs.serialize", "graphs", "serialize_graph", _serialize_bytes),
    ("graphs.serialize", "graphs", "serialize_coloring", _serialize_bytes),
    ("randomlab.sample", "randomlab", "sample_gnp", _pairs),
    ("randomlab.sample", "randomlab", "sample_coloring", _pairs),
    ("randomlab.partition", "randomlab", "judicious_partition", _partition),
    ("randomlab.spread", "randomlab", "verify_degree_spread", _spread),
    ("oracle.ramsey", "oracle", "ramsey_number_exact", None),
    ("oracle.clique", "oracle", "find_clique_exact", _hit("oracle.clique_hits")),
    ("oracle.subgraph", "oracle", "find_mono_subgraph_exact", _hit("oracle.subgraph_hits")),
    ("oracle.verify", "oracle", "verify_embedding", None),
    ("oracle.verify", "oracle", "RamseyCertificate.verify", None),
    ("oracle.certify_lower", "oracle", "lower_bound_certificate_random",
     _hit("oracle.certify_lower_hits")),
    ("embedder.bidense", "embedder", "check_bidense_exact", _bidense),
    ("embedder.sparse_pair", "embedder", "find_sparse_pair_heuristic",
     _hit("embedder.sparse_pair_hits")),
    ("embedder.greedy", "embedder", "embed_greedy", _greedy),
    ("search.mono", "search", "find_mono_H", _trace_events),
    ("search.vs_clique", "search", "find_red_H_or_blue_clique", _trace_events),
    ("search.random_bounded", "search", "find_random_graph_mono", _trace_events),
    ("search.chase", "search", "neighborhood_chase", None),
    ("bounds.evaluate", "bounds", "evaluate", None),
    ("cli.run", "cli", "run", None),
)

# (metric, unit, better, source); source is ("self", span) for summed self
# time, ("calls", span), ("count", key), or ("frac", key, span) = key / calls.
METRICS = (
    ("graphs.construct_s", "s", "lower", ("self", "graphs.construct")),
    ("graphs.constructs", "count", "lower", ("calls", "graphs.construct")),
    ("graphs.edges_validated", "count", "lower", ("count", "graphs.edges_validated")),
    ("graphs.derive_s", "s", "lower", ("self", "graphs.derive")),
    ("graphs.parse_s", "s", "lower", ("self", "graphs.parse")),
    ("graphs.parse_bytes", "bytes", "lower", ("count", "graphs.parse_bytes")),
    ("graphs.serialize_s", "s", "lower", ("self", "graphs.serialize")),
    ("graphs.serialize_bytes", "bytes", "lower", ("count", "graphs.serialize_bytes")),
    ("randomlab.sample_s", "s", "lower", ("self", "randomlab.sample")),
    ("randomlab.pairs_sampled", "count", "lower", ("count", "randomlab.pairs_sampled")),
    ("randomlab.partition_s", "s", "lower", ("self", "randomlab.partition")),
    ("randomlab.partition_tries", "count", "lower", ("count", "randomlab.partition_tries")),
    ("randomlab.partition_accept_frac", "frac", "higher",
     ("frac", "randomlab.partition_accepted", "randomlab.partition")),
    ("randomlab.spread_s", "s", "lower", ("self", "randomlab.spread")),
    ("randomlab.spread_sets", "count", "lower", ("count", "randomlab.spread_sets")),
    ("oracle.ramsey_s", "s", "lower", ("self", "oracle.ramsey")),
    ("oracle.ramsey_calls", "count", "lower", ("calls", "oracle.ramsey")),
    ("oracle.clique_s", "s", "lower", ("self", "oracle.clique")),
    ("oracle.clique_calls", "count", "lower", ("calls", "oracle.clique")),
    ("oracle.clique_hit_frac", "frac", "higher",
     ("frac", "oracle.clique_hits", "oracle.clique")),
    ("oracle.subgraph_s", "s", "lower", ("self", "oracle.subgraph")),
    ("oracle.subgraph_calls", "count", "lower", ("calls", "oracle.subgraph")),
    ("oracle.subgraph_hit_frac", "frac", "higher",
     ("frac", "oracle.subgraph_hits", "oracle.subgraph")),
    ("oracle.verify_s", "s", "lower", ("self", "oracle.verify")),
    ("oracle.verify_calls", "count", "lower", ("calls", "oracle.verify")),
    ("oracle.certify_lower_s", "s", "lower", ("self", "oracle.certify_lower")),
    ("oracle.certify_lower_hit_frac", "frac", "higher",
     ("frac", "oracle.certify_lower_hits", "oracle.certify_lower")),
    ("embedder.bidense_s", "s", "lower", ("self", "embedder.bidense")),
    ("embedder.bidense_sets_checked", "count", "lower",
     ("count", "embedder.bidense_sets_checked")),
    ("embedder.sparse_pair_s", "s", "lower", ("self", "embedder.sparse_pair")),
    ("embedder.sparse_pair_calls", "count", "lower", ("calls", "embedder.sparse_pair")),
    ("embedder.sparse_pair_hit_frac", "frac", "higher",
     ("frac", "embedder.sparse_pair_hits", "embedder.sparse_pair")),
    ("embedder.greedy_s", "s", "lower", ("self", "embedder.greedy")),
    ("embedder.greedy_calls", "count", "lower", ("calls", "embedder.greedy")),
    ("embedder.greedy_ok_frac", "frac", "higher",
     ("frac", "embedder.greedy_ok", "embedder.greedy")),
    ("search.mono_s", "s", "lower", ("self", "search.mono")),
    ("search.vs_clique_s", "s", "lower", ("self", "search.vs_clique")),
    ("search.random_bounded_s", "s", "lower", ("self", "search.random_bounded")),
    ("search.chase_s", "s", "lower", ("self", "search.chase")),
    ("search.chase_calls", "count", "lower", ("calls", "search.chase")),
    ("search.trace_events", "count", "lower", ("count", "search.trace_events")),
    ("bounds.evaluate_s", "s", "lower", ("self", "bounds.evaluate")),
    ("bounds.evaluate_calls", "count", "lower", ("calls", "bounds.evaluate")),
    ("cli.run_s", "s", "lower", ("self", "cli.run")),
    ("cli.out_bytes", "bytes", "lower", ("count", "cli.out_bytes")),
)
OVERHEAD = ("trace.overhead_frac", "frac", "lower")


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self.op_id = -1

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._stack.clear()  # a deadline may have cut the last op mid-span

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "ramseykit" or name.startswith("ramseykit.")]
        for span, module, path, counter in TARGETS:
            owner = importlib.import_module(f"ramseykit.{module}")
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                owners = [owner]
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
                owners = [m for m in modules if getattr(m, attr, None) is original]
            wrapper = self._wrap(span, original, counter)
            for o in owners:
                setattr(o, attr, wrapper)
                self._patches.append((o, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, span, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                tracer.self_s[span] += dur - frame[1]
                tracer.calls[span] += 1
                tracer.spans[frame[0]] = (span, start, end, parent, tracer.op_id)
                if counter is not None:
                    counter(tracer.counts, args, result)
                if stack:
                    stack[-1][1] += perf_counter() - start

        return traced

    def snapshot(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        out = {}
        for name, _, _, source in METRICS:
            kind, key = source[0], source[1]
            if kind == "self":
                out[name] = self.self_s[key]
            elif kind == "calls":
                out[name] = self.calls[key]
            elif kind == "count":
                out[name] = self.counts[key]
            else:
                calls = self.calls[source[2]]
                out[name] = self.counts[key] / calls if calls else 0.0
        return out
