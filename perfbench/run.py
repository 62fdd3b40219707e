#!/usr/bin/env python3
"""ramseykit benchmark: closed-loop, in-process CLI workloads.

    python3 perfbench/run.py --workload dense_sampling --seed 1 --seconds 30 --trace 0

One caller issues each op as an in-process ``ramseykit.cli.run(argv)`` call,
only after the previous one returned, in whole passes over the workload's
seeded op list.  The number of passes is fixed by ``--seconds`` and the
workload's nominal pass time, so every run of a seed does the same work and
fails the same ops.  ``RAMSEYKIT_WORKERS`` is removed, so everything runs in
this one process.  Every output is checked after the loop by ``checks.py``,
outside the timed interval.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, half as many of each, and prints the per-layer
metrics of ``tracer.py`` plus the tracing overhead.  The last stdout line is
one JSON object; a record naming every failed or non-positive op and its
cause is written to ``perfbench/out/``.  ``--smoke`` shrinks every input.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import METRICS, OVERHEAD, Tracer
from workloads import HELD_OUT_SEED, WORK_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 7
SMOKE_PASS_S = 0.5   # nominal pass time of the tiny smoke inputs

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("found_frac", "frac"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Deadline(BaseException):
    """Raised by the interval timer; not an Exception, so no handler in the
    program under test can swallow it."""


def _alarm(signum, frame):
    raise Deadline


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from ramseykit import cli
    except ImportError as e:
        sys.exit(f"perfbench: cannot import ramseykit from {src}: {e}")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: ramseykit resolved outside {src}: {cli.__file__}")
    return cli


class Runner:
    """Runs ops, keeping per-execution latency, failure cause and output hash."""

    def __init__(self, cli, ops, deadline_s):
        self.cli = cli
        self.ops = ops
        self.deadline_s = deadline_s
        self.execs = [[] for _ in ops]      # per op: [latency, cause, sha]
        self.first = [None] * len(ops)      # per op: (stdout, sha) of first success
        signal.signal(signal.SIGALRM, _alarm)

    def run_op(self, i: int, tracer: Tracer | None) -> float:
        op = self.ops[i]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(i)
        cause = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.run(list(op.argv))
            if rc != 0:
                cause = f"exit {rc}: {err.getvalue().strip()}"
        except Deadline:
            cause = f"deadline {self.deadline_s:g} s hit"
        except Exception as e:  # one broken op must not end the run
            cause = "".join(traceback.format_exception(e, limit=-2)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start

        data = out.getvalue().encode()
        if "--out" in op.argv and cause is None:
            data = Path(op.argv[op.argv.index("--out") + 1]).read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if tracer is not None:
            tracer.counts["cli.out_bytes"] += len(data)
        if cause is None:
            if self.first[i] is None:
                self.first[i] = (out.getvalue(), sha)
            elif self.first[i][1] != sha:
                cause = "output differs from the first pass"
        self.execs[i].append([latency, cause, sha])
        return latency

    def run_pass(self, tracer: Tracer | None = None) -> float:
        return sum(self.run_op(i, tracer) for i in range(len(self.ops)))

    def passed_in_pass(self, k: int) -> int:
        return sum(1 for execs in self.execs if execs[k][1] is None)

    def check_outputs(self) -> list[dict]:
        """Check each op's first good output; returns one summary per op."""
        import checks  # networkx loads here, after peak RSS is read

        summary = []
        for i, op in enumerate(self.ops):
            verdict = None
            if self.first[i] is not None:
                out_file = op.argv[op.argv.index("--out") + 1] if "--out" in op.argv else None
                verdict = checks.check(op, self.first[i][0], out_file)
                if not verdict.ok:
                    for e in self.execs[i]:
                        e[1] = e[1] or verdict.cause
            causes = sorted({e[1] for e in self.execs[i] if e[1]})
            summary.append({
                "id": i,
                "argv": " ".join(op.argv),
                "executions": len(self.execs[i]),
                "failed": sum(1 for e in self.execs[i] if e[1]),
                "latencies_s": [e[0] for e in self.execs[i]],
                "ok": verdict is not None and verdict.ok,
                "positive": bool(verdict and verdict.ok and verdict.positive),
                "can_find": op.can_find,
                "cause": "; ".join(causes) or (verdict.cause if verdict else ""),
                "incorrect": verdict is not None and not verdict.ok,
                "known_defect": op.note,
                "sha256": sorted({e[2] for e in self.execs[i] if not e[1]}),
            })
        return summary


def probe_setup(args) -> list[float]:
    """Fresh-process set-up times: start until cli is imported and ops are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def pass_count(seconds: float, pass_s: float) -> int:
    """Passes in a run: as many nominal passes as fit ``seconds``, rounded.
    A count, not a clock, ends the run, so its work does not depend on how
    fast the host happens to be."""
    return max(1, round(seconds / pass_s))


def repeat(step, times: int) -> list[float]:
    """Run ``step`` ``times`` times; returns each step's wall time."""
    walls = []
    for _ in range(times):
        t = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t)
    return walls


def end_to_end(runner, summary, walls, setup, rss_mb, workload):
    lat, passed, found, base = [], 0, 0, 0
    for op, execs, s in zip(runner.ops, runner.execs, summary):
        for latency, cause, _ in execs:
            ok = cause is None
            passed += ok
            # a failed op misses every latency limit: it counts at the deadline
            lat.append(latency if ok else runner.deadline_s)
            if op.can_find:
                base += 1
                found += ok and s["positive"]
    tail_s, beyond = tail(lat, workload.tail_pct)
    values = {
        # per pass: ops that passed / the pass's wall time; median over passes
        "ops_per_s": statistics.median(runner.passed_in_pass(k) / w
                                       for k, w in enumerate(walls)),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "found_frac": found / base,
        "ok_frac": passed / len(lat),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    extra = {"error_frac": 1 - passed / len(lat), "pass_walls_s": walls,
             "tail": {"percentile": workload.tail_pct, "ops": len(lat), "ops_beyond": beyond},
             "setup_samples_s": setup}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, extra


def traced_loop(runner, passes, workload):
    tracer = Tracer()
    plain, traced, snaps, calls, spans = [], [], [], None, None

    def pair():
        nonlocal calls, spans
        plain.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        snaps.append(tracer.snapshot())
        if calls is None:
            calls, spans = dict(tracer.calls), tracer.spans

    repeat(pair, max(1, round(passes / 2)))
    problems = [f"span {name} recorded no calls" for name in workload.spans
                if not calls.get(name)]
    metrics = {}
    for name, unit, _, _ in METRICS:
        vals = [s[name] for s in snaps]
        if unit == "s":
            metrics[name] = statistics.median(vals)
        else:
            if len(set(vals)) != 1:
                problems.append(f"{name} differs between traced passes: {vals}")
            metrics[name] = vals[0]
    metrics[OVERHEAD[0]] = statistics.median(traced) / statistics.median(plain) - 1
    units = {name: unit for name, unit, _, _ in METRICS}
    units[OVERHEAD[0]] = OVERHEAD[1]
    out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    extra = {"passes_untraced_s": plain, "passes_traced_s": traced}
    return out, extra, problems, spans


def write_spans(path: Path, spans):
    t0 = spans[0][1] if spans else 0.0
    with path.open("w") as f:
        f.write("name\tstart_s\tend_s\tparent\top\n")
        for name, start, end, parent, op in spans:
            f.write(f"{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{op}\n")


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.environ.pop("RAMSEYKIT_WORKERS", None)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        import_cli()
        workload.build(args.seed, args.smoke)
        print(time.monotonic())
        return 0

    load_start = os.getloadavg()
    cli = import_cli()
    ops = workload.build(args.seed, args.smoke)
    (ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, ops, workload.deadline_s)

    passes = pass_count(args.seconds, SMOKE_PASS_S if args.smoke else workload.pass_s)
    problems, spans = [], None
    if args.trace:
        metrics, extra, problems, spans = traced_loop(runner, passes, workload)
        summary = runner.check_outputs()
    else:
        setup = probe_setup(args)
        walls = repeat(runner.run_pass, passes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary = runner.check_outputs()
        metrics, extra = end_to_end(runner, summary, walls, setup, rss_mb, workload)

    problems += [f"op {s['id']} ({s['argv']}): {s['cause']}" for s in summary if s["incorrect"]]
    attempted = sum(s["executions"] for s in summary)
    failed = sum(s["failed"] for s in summary)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "deadline_s": workload.deadline_s,
        "env": {**environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "passes": len(runner.execs[0]),
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, **extra,
        "failed_ops": [s for s in summary if s["failed"]],
        "non_positive_ops": [s for s in summary if s["can_find"] and not s["positive"]],
        "ops": summary,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        write_spans(OUT_DIR / f"{tag}-spans.tsv", spans)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        t = extra["tail"]
        print(f"error_frac = {extra['error_frac']:.6g} frac")
        print(f"op_tail_s is p{t['percentile']} of {t['ops']} ops, {t['ops_beyond']} beyond it")
    for s in record["failed_ops"]:
        print(f"failed x{s['failed']}: {s['argv']} -- {s['cause']}")
    print(f"non-positive ops: {len(record['non_positive_ops'])}, causes in the record")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record: {(OUT_DIR / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
