"""Batch command-line surface with JSON/CSV reports.

Thin shell over the library: all algebraic assertions live in the core
modules, the CLI only encodes results and maps errors to exit codes
(0 success, 2 domain/usage error, 3 internal invariant failure).

Each command's options are declared once, in `_COMMANDS` and `_COMMON`.
A config file (`--config`) is a JSON object keyed by flag name with `_`
for `-`; each value has its flag's JSON type, null only where the default
is null.  Flags win over it, and its "command" and "config" keys are ignored.
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
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .classify import FAMILY_FLAG, Verdict, classify, family_image
from .curve import (
    CurveParams,
    IdentityReport,
    QuadPoint,
    SPrimeSet,
    SymPoint,
    compute_bounds,
    on_curve,
    validate_curve,
    verify_identities,
)
from .errors import DomainError, OffCurve, PanicInvariant
from .exactmath import isqrt_exact
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

_INVARIANT_NAMES = SymPoint._fields[1:]

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


def _parse_point(text: str, curve: CurveParams) -> QuadPoint:
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
    root = isqrt_exact(eps)
    if root:  # eps = root^2 folds into the rational part
        return QuadPoint._of_squarefree(1, *((u, v * root) for u, v in coords))
    # sqrt(eps) is irrational, so on_curve is exact before make() factors eps.
    if eps and not on_curve(curve, unfolded := QuadPoint._of_squarefree(eps, *coords)):
        raise OffCurve(f"{unfolded} is not on {curve}")
    return QuadPoint.make(eps, *coords)


def _mq_pairs(value) -> list:
    return [[rad, str(co)] for rad, co in value.items()]


def _point_record(curve: CurveParams, point: QuadPoint, source: str | None) -> dict:
    cls = classify(curve, point)
    sym = cls.sym
    coords = [str(q) for q in point.flat()]
    record = {
        "eps": point.eps,
        "x": coords[0:2],
        "y": coords[2:4],
        "z": coords[4:6],
        "classification": {
            "verdict": cls.verdict.value,
            "degenerate_flags": sorted(cls.degenerate_flags),
            "sign_pattern": "".join(cls.sign_pattern) if cls.sign_pattern else None,
            "multi_degenerate": cls.multi_degenerate,
        },
        "family_image": None,
        "invariants": {name: _mq_pairs(getattr(sym, name)) for name in _INVARIANT_NAMES},
    }
    if cls.verdict in FAMILY_FLAG:
        image = family_image(curve, point, cls.verdict)
        record["family_image"] = [str(image[0]), str(image[1])]
    if source is not None:
        record["source"] = source
    return record


def _check_family_verdict(record: dict, expected: Verdict):
    cls = record["classification"]
    verdict = cls["verdict"]
    if verdict in (Verdict.RATIONAL.value, Verdict.K_RATIONAL.value, expected.value):
        return
    if cls["multi_degenerate"] and FAMILY_FLAG[expected] in cls["degenerate_flags"]:
        return
    raise PanicInvariant(f"{record['source']} emission classified as {verdict}")


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
            *rec["x"], *rec["y"], *rec["z"],
            cls["verdict"],
            ";".join(cls["degenerate_flags"]),
            cls["sign_pattern"] or "",
            cls["multi_degenerate"],
            ";".join(rec["family_image"]) if rec["family_image"] else "",
            *(_flatten_mq(inv[name]) for name in _INVARIANT_NAMES),
        ]


def _json_text(value) -> str:
    """json.dumps(value, indent=2), faster: json runs its C encoder only
    when indent is None, so _json_chunks lays the text out itself and
    leaves strings to json's C escaper."""
    out: list[str] = []
    _json_chunks(value, "\n", out)
    return "".join(out)


def _json_chunks(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of value to out, for the types a report holds:
    dicts with str keys, lists, str, int, bool, None and float.  `indent`
    is the newline and spaces that open a line at the depth of value."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif not value and isinstance(value, (list, dict)):
        out.append("[]" if isinstance(value, list) else "{}")
    elif isinstance(value, list):
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_chunks(item, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _leaf_rows(value: dict, prefix: str = ""):
    """[dotted key, leaf] for each leaf of the nested dicts in value, as
    bounds.nondegenerate or identity_summary.per_identity.linear_fgh.pass."""
    for key, item in value.items():
        if isinstance(item, dict):
            yield from _leaf_rows(item, f"{prefix}{key}.")
        else:
            yield [prefix + key, item]


def _emit(report: dict, args) -> None:
    """Write the report in the chosen format.  CSV holds one row per point
    result, one per Pell solution, or one per summary leaf otherwise."""
    if args.format == "csv" and "results" in report:
        text = _csv_text(_result_rows(report["results"]))
    elif args.format == "csv" and "solutions" in report:
        text = _csv_text([["x", "y"], *report["solutions"]])
    elif args.format == "csv":
        summary = {
            key: value
            for key, value in report.items()
            if key not in ("command", "parameters", "curve", "timing")
        }
        text = _csv_text([["key", "value"], *_leaf_rows(summary)])
    else:
        text = _json_text(report) + "\n"
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


def _points_report(command: str, parameters: dict, curve: CurveParams, sourced) -> dict:
    """A report with one record per (source, point) pair of `sourced`, in
    its order; a None source leaves the record without a source field."""
    report = _base_report(command, parameters, curve)
    report["results"] = [_point_record(curve, pt, source) for source, pt in sourced]
    return report


def cmd_pell(args) -> tuple[dict, int]:
    problem = PellProblem(args.D, args.N)
    sols = pell_classes(problem)
    listed = pell_iterate(sols, args.bound)[: args.count]
    report = _base_report("pell", {"D": args.D, "N": args.N, "bound": args.bound, "count": args.count}, None)
    report["fundamental"] = list(sols.fundamental) if sols.fundamental else None
    report["class_reps"] = [list(r) for r in sols.class_reps]
    report["finite_complete"] = sols.finite_complete
    report["solutions"] = [list(s) for s in listed]
    return report, 0


def _families(cfg: SearchConfig) -> list[tuple[str, Verdict, list[QuadPoint]]]:
    """The three families as (source, verdict, points).  Each enumerator is
    looked up by name at the call, not kept in a table built at import, so a
    wrapper bound over the module's name is the one that runs."""
    return [
        ("family_xy", Verdict.FAMILY_XY, enumerate_family_xy(cfg)),
        ("family_xz", Verdict.FAMILY_XZ, enumerate_family_xz(cfg)),
        ("family_yz", Verdict.FAMILY_YZ, enumerate_family_yz(cfg)),
    ]


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
    seen = {pt for _, _, points in _families(cfg) for pt in points}
    if len(seen) < count:
        small = SearchConfig(curve, s_primes, coeff_bound=6, eps_bound=13, family_count=1)
        seen.update(box_search(small), search_exceptional(small))
    return sorted(seen, key=_point_key)[:count]


def cmd_families(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    s_primes = _parse_primes(args.primes)
    families = []
    if args.count > 0:
        families = _families(SearchConfig(curve, s_primes, family_count=args.count))
    sourced = ((source, pt) for source, _, points in families for pt in points)
    report = _points_report("families", {"count": args.count}, curve, sourced)
    expected = {source: verdict for source, verdict, _ in families}
    for record in report["results"]:
        _check_family_verdict(record, expected[record["source"]])
    return report, 0


def cmd_search(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    s_primes = _parse_primes(args.primes)
    cfg = SearchConfig(
        curve, s_primes, coeff_bound=args.coeff_bound, eps_bound=args.eps_bound
    )
    searches = (("box", box_search), ("exceptional", search_exceptional))
    sourced = ((source, pt) for source, search in searches for pt in search(cfg))
    parameters = {
        "eps_bound": args.eps_bound,
        "coeff_bound": args.coeff_bound,
        "primes": sorted(s_primes.primes),
    }
    return _points_report("search", parameters, curve, sourced), 0


def cmd_classify(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    point = _parse_point(args.point, curve)
    return _points_report("classify", {"point": args.point}, curve, [(None, point)]), 0


def cmd_verify(args) -> tuple[dict, int]:
    curve = _parse_curve(args.curve)
    s_primes = _parse_primes(args.primes)
    points = _generate_points(curve, s_primes, args.count)
    per_identity = {name: {"pass": 0, "fail": 0} for name in IdentityReport._fields}
    for point in points:
        for name, ok in verify_identities(curve, point).as_dict().items():
            per_identity[name]["pass" if ok else "fail"] += 1
    failures = sum(counts["fail"] for counts in per_identity.values())
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


class _Option(NamedTuple):
    kind: type | tuple  # int, str, bool for a switch, or a tuple of the strings allowed
    default: object = None
    required: bool = False


_CURVE = _Option(str, required=True)

# command -> (help line, function, own options).  Every command takes the
# _COMMON options after its own; pell also takes D and N, before them.
_COMMANDS = {
    "pell": ("solve x^2 - D y^2 = N", cmd_pell, {"bound": _Option(int, 100), "count": _Option(int)}),
    "families": ("enumerate the three point families", cmd_families,
                 {"curve": _CURVE, "count": _Option(int, 3), "primes": _Option(str)}),
    "search": ("exhaustive box and genus-1 locus search", cmd_search,
               {"curve": _CURVE, "eps_bound": _Option(int, 15), "coeff_bound": _Option(int, 5),
                "primes": _Option(str)}),
    "classify": ("classify a single point", cmd_classify,
                 {"curve": _CURVE, "point": _Option(str, required=True)}),
    "verify": ("run the exact identity suite", cmd_verify,
               {"curve": _CURVE, "count": _Option(int, 25), "primes": _Option(str)}),
    "bounds": ("exact finiteness bounds", cmd_bounds, {"s": _Option(int, 1), "H": _Option(int, 1)}),
}
_COMMON = {"format": _Option(("json", "csv"), "json"), "out": _Option(str),
           "config": _Option(str), "no_timing": _Option(bool, False)}


def _options(command: str) -> dict[str, _Option]:
    return {**_COMMANDS[command][2], **_COMMON}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublepell",
        description="Enumerate and classify quadratic integral points on double Pell curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, run, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if command == "pell":
            p.add_argument("D", type=int)
            p.add_argument("N", type=int)
        # Every default is None, so that _apply_config sees which were given.
        for name, option in _options(command).items():
            if option.kind is bool:
                kwargs = {"action": "store_true"}
            elif isinstance(option.kind, tuple):
                kwargs = {"choices": option.kind}
            else:
                kwargs = {"type": option.kind}
            help_text = "required" if option.required else f"default: {json.dumps(option.default)}"
            p.add_argument("--" + name.replace("_", "-"), default=None, help=help_text, **kwargs)
        p.set_defaults(func=run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    return build_parser()


def _apply_config(args: argparse.Namespace) -> None:
    """Set each option not given as a flag from the config file, else to
    its default; every key is checked, in file order, before any is set."""
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # malformed JSON or bad UTF-8
                raise DomainError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise DomainError("config file must hold a JSON object")
    options = _options(args.command)
    unknown = set(config) - set(options) - {"command"}
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        option = options.get(key)
        if key in ("command", "config") or (value is None and option.default is None):
            continue
        if isinstance(option.kind, tuple):  # a choice of strings
            ok, expected = value in option.kind, " or ".join(map(json.dumps, option.kind))
        else:
            ok, expected = type(value) is option.kind, option.kind.__name__
        if not ok:
            raise DomainError(f"config value for {key!r} must be {expected}, got {value!r}")
    for key, option in options.items():
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, option.default))


def main(argv=None) -> int:
    """Parse, validate, run one command, time it and emit its report."""
    args = _parser().parse_args(argv)
    try:
        _apply_config(args)
        for key, option in _options(args.command).items():
            if option.required and getattr(args, key) is None:
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
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
