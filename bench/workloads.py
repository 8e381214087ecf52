"""The four benchmark workloads and the checks on their outputs.

Each workload turns a seed into a list of operations.  An operation calls
one public entry point of the package: `doublepell.cli.main` with
`--no-timing` for the CLI workloads, the library functions for the others.
Its output is compared with the answer recorded under `answers/` by
record_answers.py, or, where no answer was recorded because the operation
did not finish then, checked from first principles.

Every workload keeps its cost nearly the same from seed to seed: a fixed
backbone (the worked example, the Pell problems with the largest windows)
carries most of the work, and the seed draws the rest from inputs of
matched cost where cost varies widely.  Otherwise the spread between seeds
would hide the spread a change causes.

No operation of a workload outlives its deadline at commit 7a9aade.  The
known cliffs, which do, are among a workload's `probes`: operations that a
traced run tries once, outside the measured passes, and reports in its
trace file.  The cliffs run under a short deadline of their own; the other
probes are growth-curve rungs too slow to repeat in every pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
ANSWERS_DIR = BENCH_DIR / "answers"
DEFAULT_SEED = 1

WORKED_EXAMPLE = (2, 3, 1, 1)

# families-ladder: the worked example climbs the --count ladder.  The
# FAMILY_CORE pool curves nearest the pool's median recorded cost run the
# upper small rung; their jobs hold the latency median.  The seed draws
# FAMILY_DRAWS curves from the FAMILY_BAND nearest the median for the lower
# small rung, below the median.  Run together, curves of nearly equal
# recorded cost differ up to twofold, so a median on drawn jobs would move
# with the seed.  Pool curves slower than FAMILY_CLIFF_S at a small rung
# when recorded are factorize cliffs: probes, under CLIFF_DEADLINE_S.
FAMILY_LADDER = (8, 12, 16, 20)
FAMILY_SMALL_RUNGS = (4, 8)
FAMILY_CORE = 6
FAMILY_DRAWS = 6
FAMILY_BAND = 25
FAMILY_CLIFF_S = 5.0
CLIFF_DEADLINE_S = 0.5
SMALL_COEFFS = (2, 3, 5, 6, 7)
SMALL_CONSTANTS = (-2, -1, 1, 2, 3)

# box-search: the ROADMAP ladder on the worked example, plus drawn curves
# at a bound low enough that their jobs stay cheaper than the ladder's
# first rung.  They come from the BOX_BAND pool curves nearest the pool's
# median recorded cost and outnumber the rungs, so that their jobs form one
# cluster that holds the latency median, whichever curves the seed picks.
# The ladder's top rung, BOX_TOP_RUNG, takes 6-9 s, more than the rest of a
# pass together; in every pass it would leave a run two or three passes,
# too few for a steady median, so it is a probe.
BOX_PRIMES = "2,3"
BOX_LADDER = (5, 8)
BOX_TOP_RUNG = 12
BOX_DRAWS = 8
BOX_BAND = 40
BOX_DRAWN_BOUND = 3

# pell-grid: pell_classes scans a window of candidates whose length,
# pell_window(D, N), grows with the fundamental unit; its time is about
# proportional.  Over every nonsquare D up to PELL_D_MAX and 1 <= |N| <=
# PELL_N_MAX, the problems with a window above PELL_WINDOW_FLOOR and up to
# PELL_WINDOW_CAP, the steep part of the cliff, form the fixed backbone.
# For each D and sign the seed draws PELL_N_DRAWS of the cheap N, whose
# jobs hold the latency median.  Longer windows grow to about a second at
# 2*10^6 and never end for the ROADMAP cliffs, the workload's probes.
PELL_D_MAX = 100
PELL_N_MAX = 7
PELL_N_DRAWS = 3
PELL_WINDOW_FLOOR = 10**4
PELL_WINDOW_CAP = 3 * 10**5
PELL_CLIFFS = ((61, 1), (109, 1), (181, 1))
PELL_ITERATE_BOUND = 10**6

# classify-corpus: the conftest recipe over a wider parameter grid.
CLASSIFY_COEFFS = tuple(v for v in range(-6, 7) if v not in (0, 1))
CLASSIFY_EPS_MAX = 20
CLASSIFY_X = (1, 2, 3)
CLASSIFY_DRAWS = 500

VERDICTS = (
    "RationalPoint",
    "KRational",
    "Family_xy",
    "Family_xz",
    "Family_yz",
    "Exceptional_x",
    "Exceptional_y",
    "Exceptional_z",
    "Sporadic",
)
UNRECORDED = "-"


@dataclass(frozen=True)
class Op:
    """One operation: `run` does the work, `check` takes its output and
    returns the number of points it produced, or None if it is wrong.
    `rung` names its place on a growth curve; `deadline_s` overrides the
    workload's deadline."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], int | None]
    rung: str | None = None
    deadline_s: float | None = None


@dataclass(frozen=True)
class Workload:
    """A named set of operations built from a seed, and the probes kept
    out of it; see README.md for why each exists."""

    name: str
    deadline_s: float
    build: Callable[[Any, int, dict], list[Op]]
    probes: Callable[[Any, dict], list[Op]] = lambda dp, answers: []


def is_package_module(name: str) -> bool:
    return name == "doublepell" or name.startswith("doublepell.")


def import_package():
    """Import doublepell afresh from this checkout's src/, never from
    anywhere else on the path, and return the package."""
    package_dir = SRC_DIR / "doublepell"
    if not (package_dir / "__init__.py").is_file():
        raise ImportError(f"no doublepell package in {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [m for m in sys.modules if is_package_module(m)]:
        del sys.modules[name]
    dp = importlib.import_module("doublepell")
    importlib.import_module("doublepell.cli")
    if Path(dp.__file__).resolve().parent != package_dir:
        raise ImportError(f"doublepell was imported from {dp.__file__}, not {package_dir}")
    return dp


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_answers(name: str) -> dict:
    path = ANSWERS_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def curve_text(curve) -> str:
    return ",".join(str(v) for v in curve)


# --- CLI reports -----------------------------------------------------------


def run_cli(dp, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dp.cli.main([*argv, "--no-timing"])
    return code, buf.getvalue()


def check_report_from_first_principles(dp, text: str) -> int | None:
    """Every reported point lies on the curve, and the verdict in the
    report is the one the two classification routes agree on."""
    report = json.loads(text)
    c = report["curve"]
    curve = dp.validate_curve(c["a"], c["b"], c["c"], c["d"])
    for rec in report["results"]:
        coords = [tuple(Fraction(v) for v in rec[k]) for k in ("x", "y", "z")]
        point = dp.QuadPoint.make(rec["eps"], *coords)
        if not dp.on_curve(curve, point):
            return None
        sym = dp.sym_invariants(curve, point)
        if dp.loci_from_invariants(curve, sym) != dp.loci_from_signs(point):
            return None
        if dp.classify(curve, point).verdict.value != rec["classification"]["verdict"]:
            return None
    return len(report["results"])


def _report_checker(dp, recorded: str | None):
    def check(output) -> int | None:
        code, text = output
        if code != 0:
            return None
        if recorded is None:
            return check_report_from_first_principles(dp, text)
        if digest(text) != recorded:
            return None
        return len(json.loads(text)["results"])

    return check


def _cli_op(dp, key: str, argv: list[str], answers: dict, rung=None, deadline_s=None) -> Op:
    return Op(key, lambda: run_cli(dp, argv), _report_checker(dp, answers.get(key)), rung, deadline_s)


# --- families-ladder -------------------------------------------------------


def small_curves() -> list[tuple[int, int, int, int]]:
    """Curves with small positive nonsquare a, b: infinite families whose
    Pell units are tiny, so the work is completing and canonicalizing
    points, which is factorize-bound."""
    out = []
    for a in SMALL_COEFFS:
        for b in SMALL_COEFFS:
            for c in SMALL_CONSTANTS:
                for d in SMALL_CONSTANTS:
                    if a != b and a * d != b * c and (a, b, c, d) != WORKED_EXAMPLE:
                        out.append((a, b, c, d))
    return out


def family_key(curve, count: int) -> str:
    return f"families {curve_text(curve)} {count}"


def family_argv(curve, count: int) -> list[str]:
    return ["families", "--curve", curve_text(curve), "--count", str(count)]


def central(ordered: list, band: int) -> list:
    """The `band` items in the middle of `ordered`."""
    start = (len(ordered) - band) // 2
    return ordered[start:start + band]


def central_draw(rng: random.Random, ordered: list, band: int, k: int) -> list:
    """k distinct items from the `band` items in the middle of `ordered`."""
    return rng.sample(central(ordered, band), k)


def family_costs(answers: dict) -> tuple[dict, list]:
    """Each pool curve's recorded cost per small rung, and the curves
    that were slower than FAMILY_CLIFF_S at one of them."""
    cost = {curve: answers["cost_s"].get(curve_text(curve)) for curve in small_curves()}
    cliffs = [c for c, rungs in cost.items() if rungs is None or max(rungs) > FAMILY_CLIFF_S]
    return cost, cliffs


def build_families(dp, seed: int, answers: dict) -> list[Op]:
    rng = _rng("families-ladder", seed)
    recorded = answers["answers"]
    cost, cliffs = family_costs(answers)
    pool = sorted((c for c in cost if c not in cliffs), key=lambda c: (cost[c][-1], c))
    low, high = FAMILY_SMALL_RUNGS
    ops = [
        _cli_op(dp, family_key(curve, count), family_argv(curve, count), recorded)
        for count, curves in (
            (low, central_draw(rng, pool, FAMILY_BAND, FAMILY_DRAWS)),
            (high, central(pool, FAMILY_CORE)),
        )
        for curve in curves
    ]
    for count in FAMILY_LADDER:
        ops.append(
            _cli_op(dp, family_key(WORKED_EXAMPLE, count), family_argv(WORKED_EXAMPLE, count),
                    recorded, rung=f"count={count}")
        )
    return ops


def family_cliffs(dp, answers: dict) -> list[Op]:
    count = FAMILY_SMALL_RUNGS[-1]
    return [
        _cli_op(dp, family_key(curve, count), family_argv(curve, count), answers["answers"],
                deadline_s=CLIFF_DEADLINE_S)
        for curve in family_costs(answers)[1]
    ]


# --- box-search ------------------------------------------------------------


def box_curves(dp) -> list[tuple[int, int, int, int]]:
    """Small curves whose bc - ad has no prime outside {2, 3}: the genus-1
    locus search then meets only tiny Pell problems, so the box scan does
    nearly all the work."""
    return [
        c for c in small_curves()
        if set(dp.factorize(c[1] * c[2] - c[0] * c[3])) <= {2, 3}
    ]


def box_key(curve, bound: int) -> str:
    return f"search {curve_text(curve)} {bound}"


def box_argv(curve, bound: int) -> list[str]:
    return [
        "search", "--curve", curve_text(curve),
        "--primes", BOX_PRIMES, "--coeff-bound", str(bound),
    ]


def build_box(dp, seed: int, answers: dict) -> list[Op]:
    recorded, cost = answers["answers"], answers["cost_s"]
    pool = sorted(
        (c for c in box_curves(dp) if curve_text(c) in cost),
        key=lambda c: (cost[curve_text(c)], c),
    )
    ops = [
        _cli_op(dp, box_key(curve, BOX_DRAWN_BOUND), box_argv(curve, BOX_DRAWN_BOUND), recorded)
        for curve in central_draw(_rng("box-search", seed), pool, BOX_BAND, BOX_DRAWS)
    ]
    return ops + [box_rung(dp, bound, recorded) for bound in BOX_LADDER]


def box_rung(dp, bound: int, recorded: dict) -> Op:
    return _cli_op(dp, box_key(WORKED_EXAMPLE, bound), box_argv(WORKED_EXAMPLE, bound),
                   recorded, f"coeff_bound={bound}")


def box_probes(dp, answers: dict) -> list[Op]:
    return [box_rung(dp, BOX_TOP_RUNG, answers["answers"])]


# --- pell-grid -------------------------------------------------------------


def pell_discriminants() -> list[int]:
    return [D for D in range(2, PELL_D_MAX + 1) if isqrt(D) ** 2 != D]


def fundamental_unit(D: int) -> tuple[int, int]:
    """Least (x, y) with x^2 - D y^2 = 1, from the continued fraction of
    sqrt(D); the benchmark's own, so that the inputs do not depend on the
    package."""
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    (p0, p1), (q0, q1) = (1, a0), (0, 1)
    while p1 * p1 - D * q1 * q1 != 1:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
    return p1, q1


def pell_window(D: int, N: int) -> int:
    """Length of the candidate scan pell_classes documents for nonsquare
    D > 0: y <= y1*sqrt(N(x1+1)/(2D)) for N > 0, the mirrored x-window
    x <= x1*sqrt(|N|(x1+1)/(2D)) for N < 0."""
    x1, y1 = fundamental_unit(D)
    scale = y1 if N > 0 else x1
    return isqrt(scale * scale * abs(N) * (x1 + 1) // (2 * D)) + 1


def pell_key(D: int, N: int) -> str:
    return f"pell {D} {N}"


def solve_pell(dp, D: int, N: int) -> list[tuple[int, int]]:
    sols = dp.pell_classes(dp.PellProblem(D, N))
    return dp.pell_iterate(sols, PELL_ITERATE_BOUND)


def pell_digest(solutions) -> str:
    return digest(json.dumps([list(s) for s in solutions]))


def check_pell_from_first_principles(D: int, N: int, solutions) -> bool:
    """Each listed pair solves x^2 - D y^2 = N within the bound, once."""
    return len(set(solutions)) == len(solutions) and all(
        x * x - D * y * y == N and abs(y) <= PELL_ITERATE_BOUND for x, y in solutions
    )


def _pell_op(dp, D: int, N: int, answers: dict, deadline_s=None) -> Op:
    recorded = answers.get(pell_key(D, N))

    def check(solutions) -> int | None:
        if recorded is None:
            ok = check_pell_from_first_principles(D, N, solutions)
        else:
            ok = pell_digest(solutions) == recorded
        return 0 if ok else None

    return Op(pell_key(D, N), lambda: solve_pell(dp, D, N), check, deadline_s=deadline_s)


def build_pell(dp, seed: int, answers: dict) -> list[Op]:
    rng = _rng("pell-grid", seed)
    problems = []
    for D in pell_discriminants():
        for sign in (-1, 1):
            windows = {n: pell_window(D, sign * n) for n in range(1, PELL_N_MAX + 1)}
            cheap = [n for n, w in windows.items() if w <= PELL_WINDOW_FLOOR]
            drawn = rng.sample(cheap, min(PELL_N_DRAWS, len(cheap)))
            steep = [n for n, w in windows.items() if PELL_WINDOW_FLOOR < w <= PELL_WINDOW_CAP]
            problems.extend((D, sign * n) for n in sorted(drawn + steep))
    return [_pell_op(dp, D, N, answers["answers"]) for D, N in problems]


def pell_cliffs(dp, answers: dict) -> list[Op]:
    return [_pell_op(dp, D, N, answers["answers"], CLIFF_DEADLINE_S) for D, N in PELL_CLIFFS]


# --- classify-corpus -------------------------------------------------------


def classify_params() -> list[tuple[int, int, int, int, int]]:
    """(a, b, e, ux, vx) grid of the conftest recipe; see synthetic_pair."""
    eps = [
        e for e in range(-CLASSIFY_EPS_MAX, CLASSIFY_EPS_MAX + 1)
        if e not in (0, 1) and all(e % (p * p) for p in range(2, CLASSIFY_EPS_MAX))
    ]
    return [
        (a, b, e, ux, vx)
        for a in CLASSIFY_COEFFS
        for b in CLASSIFY_COEFFS
        if a != b
        for e in eps
        for ux in CLASSIFY_X
        for vx in CLASSIFY_X
    ]


def synthetic_pair(dp, params):
    """Make the point x = ux + vx*sqrt(e), y = a*ux + vx*sqrt(e),
    z = b*ux + vx*sqrt(e) first, then derive c and d so it lies on the
    curve; None when the derived curve is degenerate."""
    a, b, e, ux, vx = params
    c = (a - 1) * (a * ux * ux - e * vx * vx)
    d = (b - 1) * (b * ux * ux - e * vx * vx)
    if c == 0 or d == 0 or a * d == b * c:
        return None
    curve = dp.validate_curve(a, b, c, d)
    point = dp.QuadPoint.make(e, (ux, vx), (a * ux, vx), (b * ux, vx))
    return curve, point


def classify_point(dp, curve, point) -> tuple[str, frozenset[str]]:
    """The verdict and the names of the identities that fail."""
    verdict = dp.classify(curve, point).verdict.value
    report = dp.verify_identities(curve, point).as_dict()
    return verdict, frozenset(name for name, ok in report.items() if not ok)


def _classify_op(dp, index: int, pair, answers: dict) -> Op:
    curve, point = pair
    expected = (
        VERDICTS[int(answers["verdicts"][index])],
        frozenset(answers["failing_identities"].get(str(index), ())),
    )

    def check(output) -> int | None:
        return 1 if output == expected else None

    return Op(f"classify {index}", lambda: classify_point(dp, curve, point), check)


def build_classify(dp, seed: int, answers: dict) -> list[Op]:
    params = classify_params()
    order = list(range(len(params)))
    _rng("classify-corpus", seed).shuffle(order)
    chosen = {}
    for index in order:
        pair = synthetic_pair(dp, params[index])
        if pair is not None:
            chosen[index] = pair
            if len(chosen) == CLASSIFY_DRAWS:
                break
    return [_classify_op(dp, index, chosen[index], answers) for index in sorted(chosen)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("families-ladder", 30.0, build_families, family_cliffs),
        Workload("box-search", 60.0, build_box, box_probes),
        Workload("pell-grid", 5.0, build_pell, pell_cliffs),
        Workload("classify-corpus", 5.0, build_classify),
    )
}
