"""Benchmark of the doublepell package: one client, closed loop, one process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from this checkout's src/.  Each
run sets up the workload (import plus input generation), runs one warm-up
pass, then repeats passes over the same operations until --seconds have
passed.  The set-up is timed several times before the first pass and
between passes, so that its median samples the whole run.  Each operation
starts when the previous one ends and runs under the workload's deadline;
one that outlives it counts as a failed "timeout" operation.  Outputs are
checked after each pass, outside the timed region.

The last line of standard output is one JSON object: "correct", "attempted",
"failed" and "metrics".  With --trace 0 the metrics are the end-to-end ones,
from untraced passes.  With --trace 1 untraced and traced passes alternate;
the metrics are the per-layer ones, from the traced passes, and the spans of
the last traced pass, the growth curves, the outcome of one try at each of
the workload's probes (the known cliffs, and rungs too slow for every pass)
and the run metadata are written to .bench_out/ in the checkout.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import spans as spans_mod
import workloads as wl
from deadline import Timeout, call_with_deadline

SETUP_REPEATS = 3
MIN_PASSES = 2
OUT_DIR = wl.REPO_ROOT / ".bench_out"

OK, WRONG, TIMEOUT, ERROR = "ok", "wrong", "timeout", "error"


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]
    statuses: list[str]
    points: int

    @property
    def correct_ops(self) -> int:
        return self.statuses.count(OK)


def set_up(workload: wl.Workload, seed: int, answers: dict):
    """Import the package and build the inputs; return the operations, the
    workload's probes and the set-up time."""
    gc.collect()
    started = time.perf_counter()
    dp = wl.import_package()
    ops = workload.build(dp, seed, answers)
    elapsed = time.perf_counter() - started
    return ops, workload.probes(dp, answers), elapsed


def time_set_ups(workload: wl.Workload, seed: int, answers: dict) -> list[float]:
    """Set up SETUP_REPEATS more times and return the times; the modules
    the operations were built from are put back, so that the passes and
    the tracer keep using them."""
    kept = {name: module for name, module in sys.modules.items() if wl.is_package_module(name)}
    times = [set_up(workload, seed, answers)[2] for _ in range(SETUP_REPEATS)]
    for name in [name for name in sys.modules if wl.is_package_module(name)]:
        del sys.modules[name]
    sys.modules.update(kept)
    return times


def timed(fn):
    """fn() and its wall time, leaving out the cost of arming the deadline,
    which is a large share of the cheapest operations' latency."""
    started = time.perf_counter()
    output = fn()
    return output, time.perf_counter() - started


def run_pass(ops, deadline_s: float, tracer: spans_mod.Tracer | None = None) -> PassResult:
    """Run every operation once, back to back, then check the outputs."""
    outputs, latencies = [], []
    gc.collect()
    started = time.perf_counter()
    with tracer or contextlib.nullcontext():
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(index)
            op_started = time.perf_counter()
            try:
                output, latency = call_with_deadline(
                    functools.partial(timed, op.run), op.deadline_s or deadline_s
                )
                outputs.append((OK, output))
            except Timeout:
                outputs.append((TIMEOUT, None))
                latency = time.perf_counter() - op_started
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outputs.append((ERROR, None))
                latency = time.perf_counter() - op_started
            latencies.append(latency)
    wall_s = time.perf_counter() - started
    statuses, points = [], 0
    for op, (status, output) in zip(ops, outputs):
        if status == OK:
            try:
                produced = op.check(output)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                produced = None
            if produced is None:
                print(f"wrong output: {op.key}", file=sys.stderr)
                status = WRONG
            else:
                points += produced
        statuses.append(status)
    return PassResult(wall_s, latencies, statuses, points)


def end_to_end_metrics(passes: list[PassResult], setup_times: list[float]) -> dict:
    job_s = statistics.median(p.wall_s for p in passes)
    correct = statistics.median(p.correct_ops for p in passes)
    latencies = [t for p in passes for t in p.latencies]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s": {"value": job_s, "unit": "s"},
        "ops_per_s": {"value": correct / job_s, "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def outcomes(ops, result: PassResult) -> dict:
    """Each operation's latency if it finished with a correct output, its
    status otherwise."""
    return {
        op.key: latency if status == OK else status
        for op, status, latency in zip(ops, result.statuses, result.latencies)
    }


def growth_curve(ops, passes: list[PassResult], probes, probe_outcomes: dict) -> dict:
    """Median latency of each ladder rung, or "timeout" if it ever timed
    out, followed by the outcome of each rung among the probes."""
    curve = {}
    for index, op in enumerate(ops):
        if op.rung is None:
            continue
        if any(p.statuses[index] == TIMEOUT for p in passes):
            curve[op.rung] = TIMEOUT
        else:
            curve[op.rung] = statistics.median(p.latencies[index] for p in passes)
    curve.update({op.rung: probe_outcomes[op.key] for op in probes if op.rung is not None})
    return curve


def commit_id() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = wl.REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer_metrics(layers: list[dict], untraced: list[PassResult], traced: list[PassResult]) -> dict:
    metrics = {}
    for name in spans_mod.LAYER_METRICS:
        metrics[name] = {
            "value": statistics.median(m[name] for m in layers),
            "unit": spans_mod.layer_unit(name),
        }
    overhead = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced) - 1
    )
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def write_trace(workload: wl.Workload, args, ops, untraced, tracer, metrics, probes, probed) -> dict:
    probe_outcomes = outcomes(probes, probed)
    summary = {
        "meta": {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": commit_id(),
        },
        "growth_job_s": growth_curve(ops, untraced, probes, probe_outcomes),
        "probes": probe_outcomes,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                **summary,
                "per_layer": metrics,
                "ops": [op.key for op in ops],
                "span_fields": spans_mod.SPAN_FIELDS,
                "spans": tracer.spans,
            },
            fh,
        )
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    try:
        answers = wl.load_answers(workload.name)
        ops, probes, first_setup = set_up(workload, args.seed, answers)
        setup_times = [first_setup, *time_set_ups(workload, args.seed, answers)]
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up {workload.name}: {exc}", file=sys.stderr)
        return 2

    run_pass(ops, workload.deadline_s)
    untraced, traced, layers = [], [], []
    tracer = None
    started = time.perf_counter()
    # Start another pass while at least half of it would fit in the window.
    while len(untraced) < MIN_PASSES or (
        time.perf_counter() - started + untraced[-1].wall_s / 2 < args.seconds
    ):
        untraced.append(run_pass(ops, workload.deadline_s))
        setup_times += time_set_ups(workload, args.seed, answers)
        if args.trace:
            tracer = spans_mod.Tracer()
            traced.append(run_pass(ops, workload.deadline_s, tracer))
            layers.append(spans_mod.layer_metrics(tracer, traced[-1].points))

    measured = untraced + traced
    probe_statuses = []
    if args.trace:
        metrics = per_layer_metrics(layers, untraced, traced)
        probed = run_pass(probes, workload.deadline_s)
        probe_statuses = probed.statuses
        print(json.dumps(write_trace(workload, args, ops, untraced, tracer, metrics, probes, probed)))
    else:
        metrics = end_to_end_metrics(untraced, setup_times)
    statuses = [s for p in measured for s in p.statuses]
    failed = sum(s != OK for s in statuses)
    print(
        f"{workload.name} seed {args.seed}: {len(measured)} passes of {len(ops)} ops, "
        f"{statuses.count(TIMEOUT)} timeouts, {statuses.count(WRONG)} wrong, "
        f"{statuses.count(ERROR)} errors",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not {WRONG, ERROR} & {*statuses, *probe_statuses},
        "attempted": len(statuses),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
