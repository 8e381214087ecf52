"""Record the answers the benchmark checks outputs against.

Run at the commit whose answers are trusted, from the repository root:

    python3 bench/record_answers.py [workload ...]

It writes answers/<workload>.json.  Operations that outlive the recording
deadline get no answer; the benchmark checks those from first principles.
For families-ladder and box-search it also records each pool curve's cost
at each small rung or at the drawn bound, which only picks out the middle
of the pool the seed draws from and, for families-ladder, its cliffs.
"""

from __future__ import annotations

import json
import platform
import sys
import time

import workloads as wl
from deadline import Timeout, call_with_deadline

# No shorter than the benchmark's own deadlines, except for Pell: every
# problem of the timed grid finishes in a small part of 2 s, and the slower
# ones recorded under it have an answer to meet once their windows shrink.
RECORD_DEADLINE_S = {
    "families-ladder": 30.0,
    "box-search": 60.0,
    "pell-grid": 2.0,
    "classify-corpus": 5.0,
}


COST_REPEATS = 5
COST_REPEAT_BELOW_S = 1.0


def _timed(fn, deadline):
    started = time.perf_counter()
    try:
        out = call_with_deadline(fn, deadline)
    except Timeout:
        return None, None
    return out, time.perf_counter() - started


def _report_digest(dp, argv, deadline):
    out, elapsed = _timed(lambda: wl.run_cli(dp, argv), deadline)
    if out is None:
        return None, None
    code, text = out
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return wl.digest(text), elapsed


def _costed_digest(dp, argv, deadline):
    """The report digest and its cost: the fastest of several runs when
    the job is short, so that machine noise does not reorder curves of
    nearly equal cost."""
    answer, elapsed = _report_digest(dp, argv, deadline)
    if elapsed is not None and elapsed < COST_REPEAT_BELOW_S:
        for _ in range(COST_REPEATS - 1):
            elapsed = min(elapsed, _report_digest(dp, argv, deadline)[1])
    return answer, None if elapsed is None else round(elapsed, 4)


def record_families(dp, deadline):
    answers, cost = {}, {}
    for count in wl.FAMILY_LADDER:
        key = wl.family_key(wl.WORKED_EXAMPLE, count)
        answers[key], _ = _report_digest(dp, wl.family_argv(wl.WORKED_EXAMPLE, count), deadline)
    for curve in wl.small_curves():
        rungs = []
        for count in wl.FAMILY_SMALL_RUNGS:
            key = wl.family_key(curve, count)
            answers[key], elapsed = _costed_digest(dp, wl.family_argv(curve, count), deadline)
            rungs.append(elapsed)
        if None not in rungs:
            cost[wl.curve_text(curve)] = rungs
    return {"answers": _drop_none(answers), "cost_s": cost}


def record_box(dp, deadline):
    answers, cost = {}, {}
    for bound in (*wl.BOX_LADDER, wl.BOX_TOP_RUNG):
        key = wl.box_key(wl.WORKED_EXAMPLE, bound)
        answers[key], _ = _report_digest(dp, wl.box_argv(wl.WORKED_EXAMPLE, bound), deadline)
    for curve in wl.box_curves(dp):
        key = wl.box_key(curve, wl.BOX_DRAWN_BOUND)
        answers[key], elapsed = _costed_digest(dp, wl.box_argv(curve, wl.BOX_DRAWN_BOUND), deadline)
        if elapsed is not None:
            cost[wl.curve_text(curve)] = elapsed
    return {"answers": _drop_none(answers), "cost_s": cost}


def record_pell(dp, deadline):
    answers = {}
    problems = [
        (D, N)
        for D in wl.pell_discriminants()
        for N in range(-wl.PELL_N_MAX, wl.PELL_N_MAX + 1)
        if N
    ]
    for D, N in problems + list(wl.PELL_CLIFFS):
        solutions, _ = _timed(lambda: wl.solve_pell(dp, D, N), deadline)
        if solutions is not None:
            answers[wl.pell_key(D, N)] = wl.pell_digest(solutions)
    return {"answers": answers}


def record_classify(dp, deadline):
    verdicts, failing = [], {}
    for index, params in enumerate(wl.classify_params()):
        pair = wl.synthetic_pair(dp, params)
        out = None if pair is None else _timed(lambda: wl.classify_point(dp, *pair), deadline)[0]
        if out is None:
            verdicts.append(wl.UNRECORDED)
            continue
        verdict, bad = out
        verdicts.append(str(wl.VERDICTS.index(verdict)))
        if bad:
            failing[str(index)] = sorted(bad)
    return {"verdicts": "".join(verdicts), "failing_identities": failing}


def _drop_none(mapping):
    return {k: v for k, v in mapping.items() if v is not None}


RECORDERS = {
    "families-ladder": record_families,
    "box-search": record_box,
    "pell-grid": record_pell,
    "classify-corpus": record_classify,
}


def main(argv):
    dp = wl.import_package()
    for name in argv or list(RECORDERS):
        started = time.perf_counter()
        data = RECORDERS[name](dp, RECORD_DEADLINE_S[name])
        data["recorded_with"] = {"python": platform.python_version(), "doublepell": dp.__version__}
        wl.ANSWERS_DIR.mkdir(exist_ok=True)
        with open(wl.ANSWERS_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: recorded in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
