"""Batch command-line surface with JSON/CSV reports.

Thin shell over the library: all algebraic assertions live in the core
modules, the CLI only encodes results and maps errors to exit codes
(0 success, 2 domain/usage error, 3 internal invariant failure).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction

from .classify import FAMILY_VERDICTS, Verdict, classify, family_image
from .curve import (
    CurveParams,
    QuadPoint,
    SPrimeSet,
    compute_bounds,
    validate_curve,
    verify_identities,
)
from .errors import DomainError, PanicInvariant
from .pell import PellProblem, pell_classes, pell_iterate
from .search import (
    SearchConfig,
    _point_key,
    box_search,
    enumerate_family_xy,
    enumerate_family_xz,
    enumerate_family_yz,
    search_exceptional,
)

_IDENTITY_NAMES = (
    "linear_fgh",
    "inverse_fgh",
    "product_linear",
    "product_inverse",
    "unit_sum",
    "ff_square_ratio",
)

_INVARIANT_NAMES = ("ff", "gg", "hh", "alpha", "beta", "gamma")

_EXPECTED_FLAG = {
    "family_xy": ("gamma", Verdict.FAMILY_XY),
    "family_xz": ("beta", Verdict.FAMILY_XZ),
    "family_yz": ("alpha", Verdict.FAMILY_YZ),
}


def _parse_curve(text: str) -> CurveParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"curve must be 'a,b,c,d', got {text!r}")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"curve entries must be integers: {exc}") from exc
    return validate_curve(a, b, c, d)


def _parse_primes(text: str | None) -> SPrimeSet:
    if not text:
        return SPrimeSet.empty()
    try:
        primes = frozenset(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DomainError(f"primes must be integers: {exc}") from exc
    return SPrimeSet(primes)


def _parse_point(text: str) -> QuadPoint:
    chunks = text.split(";")
    if len(chunks) != 4:
        raise DomainError("point must be 'eps;ux,vx;uy,vy;uz,vz'")
    try:
        eps = int(chunks[0])
        coords = []
        for chunk in chunks[1:]:
            u_txt, v_txt = chunk.split(",")
            coords.append((Fraction(u_txt), Fraction(v_txt)))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad point literal {text!r}: {exc}") from exc
    return QuadPoint.make(eps, *coords)


def _fr(q: Fraction) -> str:
    return str(q)


def _mq_pairs(value) -> list:
    return [[rad, str(co)] for rad, co in value.items()]


def _point_record(curve: CurveParams, point: QuadPoint, source: str | None = None) -> dict:
    cls = classify(curve, point)
    sym = cls.sym
    record = {
        "eps": point.eps,
        "x": [_fr(point.x[0]), _fr(point.x[1])],
        "y": [_fr(point.y[0]), _fr(point.y[1])],
        "z": [_fr(point.z[0]), _fr(point.z[1])],
        "classification": {
            "verdict": cls.verdict.value,
            "degenerate_flags": sorted(cls.degenerate_flags),
            "sign_pattern": "".join(cls.sign_pattern) if cls.sign_pattern else None,
            "multi_degenerate": cls.multi_degenerate,
        },
        "family_image": None,
        "invariants": {name: _mq_pairs(getattr(sym, name)) for name in _INVARIANT_NAMES},
    }
    if cls.verdict in FAMILY_VERDICTS:
        image = family_image(curve, point, cls.verdict)
        record["family_image"] = [_fr(image[0]), _fr(image[1])]
    if source is not None:
        record["source"] = source
    return record


def _check_family_verdict(source: str, record: dict):
    flag, expected = _EXPECTED_FLAG[source]
    cls = record["classification"]
    verdict = cls["verdict"]
    if verdict in (Verdict.RATIONAL.value, Verdict.K_RATIONAL.value):
        return
    if verdict == expected.value:
        return
    if cls["multi_degenerate"] and flag in cls["degenerate_flags"]:
        return
    raise PanicInvariant(f"{source} emission classified as {verdict}")


def _flatten_mq(pairs: list) -> str:
    if not pairs:
        return "0"
    return " + ".join(
        co if rad == 1 else f"{co}*sqrt({rad})" for rad, co in pairs
    )


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _result_rows(results: list[dict]):
    yield [
        "source", "eps", "ux", "vx", "uy", "vy", "uz", "vz",
        "verdict", "degenerate_flags", "sign_pattern", "multi_degenerate",
        "family_image", *_INVARIANT_NAMES,
    ]
    for rec in results:
        cls = rec["classification"]
        inv = rec["invariants"]
        yield [
            rec.get("source", ""),
            rec["eps"],
            rec["x"][0], rec["x"][1],
            rec["y"][0], rec["y"][1],
            rec["z"][0], rec["z"][1],
            cls["verdict"],
            ";".join(cls["degenerate_flags"]),
            cls["sign_pattern"] or "",
            cls["multi_degenerate"],
            ";".join(rec["family_image"]) if rec["family_image"] else "",
            *(_flatten_mq(inv[name]) for name in _INVARIANT_NAMES),
        ]


def _emit(report: dict, args) -> None:
    """Write the report in the chosen format.  CSV holds one row per point
    result, one per Pell solution, or one per summary field otherwise."""
    if args.format == "csv" and "results" in report:
        text = _csv_text(_result_rows(report["results"]))
    elif args.format == "csv" and "solutions" in report:
        text = _csv_text([["x", "y"], *report["solutions"]])
    elif args.format == "csv":
        text = _csv_text(
            [key, value]
            for key, value in report.items()
            if key not in ("command", "parameters", "curve", "timing")
        )
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, parameters: dict, curve: CurveParams | None) -> dict:
    report: dict = {"command": command, "parameters": parameters}
    if curve is not None:
        report["curve"] = {"a": curve.a, "b": curve.b, "c": curve.c, "d": curve.d}
    return report


def cmd_pell(args) -> tuple[dict, int]:
    problem = PellProblem(args.D, args.N)
    sols = pell_classes(problem)
    listed = pell_iterate(sols, args.bound)
    if args.count is not None:
        listed = listed[: args.count]
    report = _base_report("pell", {"D": args.D, "N": args.N, "bound": args.bound, "count": args.count}, None)
    report["fundamental"] = list(sols.fundamental) if sols.fundamental else None
    report["class_reps"] = [list(r) for r in sols.class_reps]
    report["finite_complete"] = sols.finite_complete
    report["solutions"] = [list(s) for s in listed]
    return report, 0


def _generate_points(curve: CurveParams, s_primes: SPrimeSet, count: int) -> list[QuadPoint]:
    """Candidate points for verification: families first, then a small box.

    The per-family budget is capped: far along a family the completed
    coordinate squares to a huge integer whose squarefree decomposition
    exceeds desk-scale factoring, so curves with thin families simply yield
    fewer points than requested.
    """
    if count == 0:
        return []
    per_family = min(count // 3 + 2, 25)
    cfg = SearchConfig(curve, s_primes, family_count=per_family)
    seen: dict[tuple, QuadPoint] = {}
    for enumerator in (enumerate_family_xy, enumerate_family_xz, enumerate_family_yz):
        for pt in enumerator(cfg):
            seen.setdefault((pt.eps,) + pt.flat(), pt)
    if len(seen) < count:
        small = SearchConfig(curve, s_primes, coeff_bound=6, eps_bound=13, family_count=1)
        for pt in box_search(small):
            seen.setdefault((pt.eps,) + pt.flat(), pt)
        for pt in search_exceptional(small):
            seen.setdefault((pt.eps,) + pt.flat(), pt)
    ordered = sorted(seen.values(), key=_point_key)
    return ordered[:count]


def cmd_families(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    s_primes = _parse_primes(args.primes)
    results = []
    if args.count > 0:
        cfg = SearchConfig(curve, s_primes, family_count=args.count)
        for source, enumerator in (
            ("family_xy", enumerate_family_xy),
            ("family_xz", enumerate_family_xz),
            ("family_yz", enumerate_family_yz),
        ):
            for pt in enumerator(cfg):
                record = _point_record(curve, pt, source)
                _check_family_verdict(source, record)
                results.append(record)
    report = _base_report("families", {"count": args.count}, curve)
    report["results"] = results
    return report, 0


def cmd_search(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    s_primes = _parse_primes(args.primes)
    cfg = SearchConfig(
        curve, s_primes, coeff_bound=args.coeff_bound, eps_bound=args.eps_bound
    )
    results = [_point_record(curve, pt, "box") for pt in box_search(cfg)]
    results.extend(
        _point_record(curve, pt, "exceptional") for pt in search_exceptional(cfg)
    )
    report = _base_report(
        "search",
        {
            "eps_bound": args.eps_bound,
            "coeff_bound": args.coeff_bound,
            "primes": sorted(s_primes.primes),
        },
        curve,
    )
    report["results"] = results
    return report, 0


def cmd_classify(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    point = _parse_point(args.point)
    record = _point_record(curve, point)
    report = _base_report("classify", {"point": args.point}, curve)
    report["results"] = [record]
    return report, 0


def cmd_verify(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    s_primes = _parse_primes(args.primes)
    points = _generate_points(curve, s_primes, args.count)
    per_identity = {name: {"pass": 0, "fail": 0} for name in _IDENTITY_NAMES}
    failures = 0
    for index, point in enumerate(points):
        outcome = verify_identities(curve, point).as_dict()
        if args.inject_failure and index == 0:
            outcome["unit_sum"] = False
        for name, ok in outcome.items():
            per_identity[name]["pass" if ok else "fail"] += 1
            failures += 0 if ok else 1
    report = _base_report("verify", {"count": args.count}, curve)
    report["identity_summary"] = {
        "points": len(points),
        "failures": failures,
        "per_identity": per_identity,
    }
    return report, (3 if failures else 0)


def cmd_bounds(args) -> tuple[dict, int]:
    n1, n2 = compute_bounds(args.s, args.H)
    report = _base_report("bounds", {"s": args.s, "H": args.H}, None)
    report["bounds"] = {
        "nondegenerate": str(n1),
        "nondegenerate_digits": len(str(n1)),
        "exceptional": str(n2),
        "exceptional_digits": len(str(n2)),
    }
    return report, 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None)
    parser.add_argument("--no-timing", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublepell",
        description="Enumerate and classify quadratic integral points on double Pell curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pell", help="solve x^2 - D y^2 = N")
    p.add_argument("D", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("families", help="enumerate the three point families")
    p.add_argument("--curve", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--primes", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("search", help="exhaustive box and genus-1 locus search")
    p.add_argument("--curve", default=None)
    p.add_argument("--eps-bound", type=int, default=None)
    p.add_argument("--coeff-bound", type=int, default=None)
    p.add_argument("--primes", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", help="classify a single point")
    p.add_argument("--curve", default=None)
    p.add_argument("--point", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--curve", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--primes", default=None)
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="exact finiteness bounds")
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--H", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    return build_parser()


_DEFAULTS = {
    "pell": {"bound": 100, "count": None},
    "families": {"curve": None, "count": 3, "primes": None},
    "search": {"curve": None, "eps_bound": 15, "coeff_bound": 5, "primes": None},
    "classify": {"curve": None, "point": None},
    "verify": {"curve": None, "count": 25, "primes": None},
    "bounds": {"s": 1, "H": 1},
}
_COMMON_DEFAULTS = {"format": "json", "out": None, "no_timing": False}


# The type of each config value, as its flag parses it; null is accepted
# only where the default is null.
_CONFIG_TYPES = {
    **dict.fromkeys(("bound", "count", "eps_bound", "coeff_bound", "s", "H"), int),
    **dict.fromkeys(("curve", "primes", "point", "out", "format"), str),
    "no_timing": bool,
}


def _apply_config(args: argparse.Namespace) -> None:
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # malformed JSON or bad UTF-8
                raise DomainError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise DomainError("config file must hold a JSON object")
    defaults = dict(_COMMON_DEFAULTS)
    defaults.update(_DEFAULTS.get(args.command, {}))
    known = set(defaults) | {"command", "config"}
    unknown = set(config) - known
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        kind = _CONFIG_TYPES.get(key)
        if kind is None or (value is None and defaults[key] is None):
            continue
        if type(value) is not kind or (key == "format" and value not in ("json", "csv")):
            expected = '"json" or "csv"' if key == "format" else kind.__name__
            raise DomainError(f"config value for {key!r} must be {expected}, got {value!r}")
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, fallback))


_REQUIRED = {
    "families": ("curve",),
    "search": ("curve",),
    "classify": ("curve", "point"),
    "verify": ("curve",),
}


def main(argv=None) -> int:
    """Parse, validate, run one command, time it and emit its report."""
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        for key in _REQUIRED.get(args.command, ()):
            if getattr(args, key) is None:
                raise DomainError(f"--{key} is required for {args.command}")
        if getattr(args, "count", None) is not None and args.count < 0:
            raise DomainError(f"--count must be nonnegative, got {args.count}")
        started = time.perf_counter()
        report, code = args.func(args)
        if not args.no_timing:
            report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
        _emit(report, args)
        return code
    except PanicInvariant as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
