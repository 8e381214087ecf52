import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import doublepell
from doublepell.cli import _COMMANDS, _json_text, _options, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# A small run of each command, with its required options given as flags.
_SMALL_RUNS = {
    "pell": ("pell", "2", "1"),
    "families": ("families", "--curve", "2,3,1,1"),
    "search": ("search", "--curve", "2,3,1,1"),
    "classify": ("classify", "--curve", "2,3,1,1", "--point", "13;2,0;3,0;0,1"),
    "verify": ("verify", "--curve", "2,3,1,1"),
    "bounds": ("bounds",),
}
assert set(_SMALL_RUNS) == set(_COMMANDS)
_TABLE_OPTIONS = [(command, name) for command in _COMMANDS for name in _options(command)]


class TestPellCommand:
    def test_reference_run(self, capsys):
        report = run_json(capsys, "pell", "2", "1", "--bound", "100", "--no-timing")
        assert report["fundamental"] == [3, 2]
        assert report["class_reps"] == [[1, 0]]
        assert report["finite_complete"] is False
        abs_pairs = {(abs(x), abs(y)) for x, y in report["solutions"]}
        assert abs_pairs == {(1, 0), (3, 2), (17, 12), (99, 70)}

    def test_negative_d_finite_notice(self, capsys):
        report = run_json(capsys, "pell", "-1", "1", "--no-timing")
        assert report["finite_complete"] is True
        assert sorted(map(tuple, report["solutions"])) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_square_d(self, capsys):
        report = run_json(capsys, "pell", "4", "1", "--no-timing")
        assert report["finite_complete"] is True
        assert sorted(map(tuple, report["solutions"])) == [(-1, 0), (1, 0)]

    def test_count_truncates_listing(self, capsys):
        report = run_json(
            capsys, "pell", "2", "1", "--bound", "100", "--count", "3", "--no-timing"
        )
        assert len(report["solutions"]) == 3

    def test_csv_solution_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "pell", "3", "1", "--bound", "30", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {(int(r["x"]), int(r["y"])) for r in rows} >= {(2, 1), (7, 4), (26, 15)}

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "pell", "2", "0")
        assert code == 2 and "error" in err


class TestFamiliesCommand:
    def test_reference_curve(self, capsys):
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "3", "--no-timing"
        )
        verdicts = {
            (rec["source"], rec["eps"]): rec["classification"]["verdict"]
            for rec in report["results"]
        }
        assert verdicts[("family_xy", 13)] == "Family_xy"
        assert verdicts[("family_xz", 33)] == "Family_xz"
        assert verdicts[("family_yz", 10)] == "Family_yz"
        assert verdicts[("family_xz", 3)] == "KRational"
        images = {
            rec["eps"]: rec["family_image"]
            for rec in report["results"]
            if rec["family_image"]
        }
        assert images[13] == ["2", "3"]
        assert images[33] == ["4", "7"]
        assert images[10] == ["9", "11"]

    def test_count_zero_only_validates(self, capsys):
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "0", "--no-timing"
        )
        assert report["results"] == []

    def test_degenerate_curve_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "families", "--curve", "1,1,1,1")
        assert code == 2

    @pytest.mark.parametrize(
        # psi_12, a strong pseudoprime to the 12 prime bases up to 37.
        "primes", ["4", "318665857834031151167461"]
    )
    def test_composite_prime_exits_2(self, capsys, primes):
        code, out, err = run_cli(
            capsys, "families", "--curve", "2,3,1,1", "--primes", primes, "--count", "1"
        )
        assert code == 2 and out == ""
        assert f"{primes} is not prime" in err

    def test_csv_and_json_carry_same_data(self, capsys):
        json_report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "3", "--no-timing"
        )
        code, out, _ = run_cli(
            capsys,
            "families", "--curve", "2,3,1,1", "--count", "3",
            "--format", "csv", "--no-timing",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(json_report["results"])
        by_key = {(r["source"], int(r["eps"])): r for r in rows}
        for rec in json_report["results"]:
            row = by_key[(rec["source"], rec["eps"])]
            assert row["verdict"] == rec["classification"]["verdict"]
            assert row["ux"] == rec["x"][0] and row["vz"] == rec["z"][1]


    @pytest.mark.parametrize(
        "curve, sources",
        [
            # (y^2 - 2)/4 is never integral, as y is even on 2y^2 - 4z^2 = 8.
            ("4,2,2,-1", ["family_xz"] * 3),
            # u^2 - 12z^2 = -8, the conic 4y^2 - 3z^2 = -2 after u = 4y, has
            # solutions, but none with 4 | u.
            ("3,4,1,2", ["family_xy"] * 3),
        ],
    )
    def test_yz_walk_without_points_ends_at_its_cap(self, capsys, curve, sources):
        report = run_json(
            capsys, "families", "--curve", curve, "--count", "3", "--no-timing"
        )
        assert [rec["source"] for rec in report["results"]] == sources


class TestSearchCommand:
    def test_reference_box(self, capsys):
        report = run_json(
            capsys,
            "search", "--curve", "2,3,1,1",
            "--eps-bound", "15", "--coeff-bound", "5", "--no-timing",
        )
        box = [rec for rec in report["results"] if rec["source"] == "box"]
        assert {rec["eps"] for rec in box} == {1, 3, 13}
        assert all(rec["source"] != "exceptional" for rec in report["results"])

    def test_empty_box_exits_zero(self, capsys):
        report = run_json(
            capsys,
            "search", "--curve", "5,7,2,3",
            "--eps-bound", "3", "--coeff-bound", "2", "--no-timing",
        )
        assert report["results"] == []

    def test_huge_eps_bound_sieves_only_the_box(self, capsys):
        # The squarefree sieve stops at the largest radicand the box can
        # meet, not at eps_bound: sized at eps_bound it would take 10 GB
        # here.  The child's address space is capped at 1 GB, so a sieve
        # sized at eps_bound fails fast instead of filling memory.
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from doublepell.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        argv = ["search", "--curve", "2,3,1,1", "--no-timing"]
        src = str(Path(doublepell.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run(
            [sys.executable, "-c", probe, *argv, "--eps-bound", "10000000000"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        peak_kb = int(child.stderr.split()[-1])
        assert peak_kb < 100 * 1024
        narrow = run_json(capsys, *argv, "--eps-bound", "100")
        assert json.loads(child.stdout)["results"] == narrow["results"]

    def test_primes_admit_denominators(self, capsys):
        report = run_json(
            capsys,
            "search", "--curve", "2,3,1,1", "--primes", "2,3",
            "--eps-bound", "3", "--coeff-bound", "3", "--no-timing",
        )
        assert report["parameters"]["primes"] == [2, 3]


class TestClassifyCommand:
    def test_family_point(self, capsys):
        report = run_json(
            capsys,
            "classify", "--curve", "2,3,1,1",
            "--point", "13;2,0;3,0;0,1", "--no-timing",
        )
        record = report["results"][0]
        assert record["classification"]["verdict"] == "Family_xy"
        assert record["classification"]["degenerate_flags"] == ["gamma"]
        assert record["classification"]["sign_pattern"] == "++-"
        assert record["invariants"]["ff"] == [[1, "17"], [2, "12"]]

    def test_rational_point(self, capsys):
        report = run_json(
            capsys,
            "classify", "--curve", "2,3,1,1",
            "--point", "1;0,0;1,0;1,0", "--no-timing",
        )
        assert report["results"][0]["classification"]["verdict"] == "RationalPoint"

    def test_off_curve_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--curve", "2,3,1,1", "--point", "1;1,0;1,0;1,0"
        )
        assert code == 2 and "not on" in err

    # The product of the primes 10^17 + 3 and 10^18 + 3, which factoring
    # does not split in seconds.
    HARD_SEMIPRIME = 100000000000000003 * 1000000000000000003

    def test_off_curve_point_is_refused_before_eps_is_factored(self, capsys, deadline):
        with deadline(2):
            code, _, err = run_cli(
                capsys, "classify", "--curve", "2,3,1,1",
                "--point", f"{self.HARD_SEMIPRIME};0,1;1,0;1,0",
            )
        assert code == 2 and "not on" in err

    def test_on_curve_point_over_an_unsplittable_eps_exits_2(self, capsys, monkeypatch, deadline):
        # x = 1 + sqrt(n), y = 2 + sqrt(n), z = 3 + sqrt(n) is on the curve
        # with c = 2 - n and d = 6 - 2n, so eps is factored to be printed;
        # rho, capped at stretches of 2^10 steps here, gives up and names it.
        n = self.HARD_SEMIPRIME
        monkeypatch.setattr(sys.modules["doublepell.exactmath"], "_RHO_MAX_STRETCH", 2**10)
        with deadline(2):
            code, _, err = run_cli(
                capsys, "classify", "--curve", f"2,3,{2 - n},{6 - 2 * n}",
                "--point", f"{n};1,1;2,1;3,1",
            )
        assert code == 2 and f"cannot factor {n}" in err

    def test_square_eps_folds_without_factoring(self, capsys, deadline):
        # y = (1/N)*sqrt(N^2) = 1, so the point is the rational (0, 1, 1).
        n = self.HARD_SEMIPRIME
        with deadline(2):
            report = run_json(
                capsys,
                "classify", "--curve", "2,3,1,1",
                "--point", f"{n * n};0,0;0,1/{n};1,0", "--no-timing",
            )
        record = report["results"][0]
        assert record["eps"] == 1 and record["y"] == ["1", "0"]

    def test_fraction_literals(self, capsys):
        report = run_json(
            capsys,
            "classify", "--curve", "4,9,-3,32",
            "--point", "5;1,1;4,1;9,1", "--no-timing",
        )
        assert report["results"][0]["classification"]["verdict"] == "Sporadic"


class TestVerifyCommand:
    def test_reference_curve_clean(self, capsys):
        report = run_json(
            capsys, "verify", "--curve", "2,3,1,1", "--count", "50", "--no-timing"
        )
        summary = report["identity_summary"]
        assert summary["points"] == 50
        assert summary["failures"] == 0
        for counts in summary["per_identity"].values():
            assert counts["fail"] == 0

    def test_second_curve_clean(self, capsys):
        report = run_json(
            capsys, "verify", "--curve", "5,3,1,1", "--count", "15", "--no-timing"
        )
        assert report["identity_summary"]["failures"] == 0

    def test_curve_without_generatable_points_reports_zero(self, capsys):
        # All three conics of (5,7,2,3) fail congruence conditions, so no
        # quadratic integral points can be generated; the run stays clean.
        report = run_json(
            capsys, "verify", "--curve", "5,7,2,3", "--count", "50", "--no-timing"
        )
        summary = report["identity_summary"]
        assert summary["points"] == 0
        assert summary["failures"] == 0

    def test_large_pell_unit_in_an_exceptional_shape_does_not_stall(self, capsys, deadline):
        # bc - ad = 29 puts eps = 29 among the radicands.  The z-rational
        # shape is then t^2 - 261 u^2 = 2, whose Pell unit has y = 11891880;
        # solving it as a Pell problem meant a class window of about 10^10.
        with deadline(10):
            report = run_json(
                capsys, "verify", "--curve=-1,9,3,2", "--count", "3", "--no-timing"
            )
        assert report["identity_summary"]["failures"] == 0

    def test_injected_failure_exits_3(self, capsys, monkeypatch):
        cli = sys.modules["doublepell.cli"]
        original = cli.verify_identities
        points = []

        def failing_at_first_point(curve, point):
            report = original(curve, point)
            points.append(point)
            return dataclasses.replace(report, unit_sum=False) if len(points) == 1 else report

        monkeypatch.setattr(cli, "verify_identities", failing_at_first_point)
        code, out, _ = run_cli(
            capsys, "verify", "--curve", "2,3,1,1", "--count", "5", "--no-timing"
        )
        assert code == 3
        assert json.loads(out)["identity_summary"]["failures"] == 1


class TestBoundsCommand:
    def test_exact_decimal_expansions(self, capsys):
        report = run_json(capsys, "bounds", "--s", "1", "--H", "1", "--no-timing")
        bounds = report["bounds"]
        assert bounds["nondegenerate"] == str(2**2838)
        assert bounds["exceptional"] == str(3 * 2**1122)
        assert bounds["nondegenerate_digits"] == 855

    def test_s_zero_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--s", "0", "--H", "1")
        assert code == 2

    def test_s_two(self, capsys):
        report = run_json(capsys, "bounds", "--s", "2", "--H", "1", "--no-timing")
        assert report["bounds"]["nondegenerate"] == str(2**5673)

    @pytest.mark.parametrize(
        "argv, largest",
        [(("--s", "6"), "s must be at most 5"), (("--H", "13"), "H must be at most 12")],
        ids=["s", "H"],
    )
    def test_past_printable_range_exits_2(self, capsys, argv, largest):
        code, out, err = run_cli(capsys, "bounds", *argv, "--no-timing")
        assert code == 2 and out == ""
        assert largest in err

    def test_largest_printable_s(self, capsys):
        report = run_json(capsys, "bounds", "--s", "5", "--no-timing")
        assert report["bounds"]["nondegenerate_digits"] == 4269


class TestPlumbing:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (("bounds", "--s", "1", "--H", "1"), "bounds.nondegenerate"),
            (("verify", "--curve", "2,3,1,1", "--count", "5"),
             "identity_summary.per_identity.linear_fgh.pass"),
        ],
    )
    def test_summary_csv_rows_are_the_json_leaves(self, capsys, argv, key):
        # A summary CSV has one key,value row per leaf of the JSON report,
        # its key the dotted path to the leaf, not a dict printed as text.
        report = run_json(capsys, *argv, "--no-timing")
        code, out, _ = run_cli(capsys, *argv, "--format", "csv", "--no-timing")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))

        def leaves(value, path):
            if not isinstance(value, dict):
                return [(path, str(value))]
            return [leaf for name, item in value.items() for leaf in leaves(item, f"{path}.{name}")]

        expected = [
            leaf
            for name, value in report.items()
            if name not in ("command", "parameters", "curve")
            for leaf in leaves(value, name)
        ]
        assert [(row["key"], row["value"]) for row in rows] == expected
        assert key in dict(expected)

    def test_deterministic_output_without_timing(self, capsys):
        first = run_cli(
            capsys, "families", "--curve", "2,3,1,1", "--count", "3", "--no-timing"
        )
        second = run_cli(
            capsys, "families", "--curve", "2,3,1,1", "--count", "3", "--no-timing"
        )
        assert first == second

    def test_parser_built_once_across_commands(self, capsys, monkeypatch, tmp_path):
        # main keeps one parser per process; back-to-back runs of different
        # subcommands, with and without --config, must not leak into each
        # other's reports.
        cli = sys.modules["doublepell.cli"]
        builds = []

        def counted_build():
            builds.append(None)
            return original_build()

        original_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counted_build)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"curve": "2,3,1,1", "count": 2}))
        runs = [
            ("families", "--curve", "2,3,1,1", "--count", "2", "--no-timing"),
            ("pell", "2", "1", "--bound", "50", "--no-timing"),
            ("search", "--curve", "2,3,1,1", "--coeff-bound", "2", "--no-timing"),
            ("families", "--config", str(config), "--no-timing"),
            ("bounds", "--s", "1", "--H", "1", "--no-timing", "--format", "csv"),
            ("classify", "--curve", "2,3,1,1", "--point", "1;0,0;1,0;1,0", "--no-timing"),
        ]
        cli._parser.cache_clear()
        try:
            first = [run_cli(capsys, *argv) for argv in runs]
            again = [run_cli(capsys, *argv) for argv in reversed(runs)]
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        assert again[::-1] == first
        assert all(code == 0 for code, _, _ in first)
        assert first[3] == first[0]

    def test_timing_present_by_default(self, capsys):
        report = run_json(capsys, "bounds", "--s", "1", "--H", "1")
        assert "timing" in report and report["timing"]["seconds"] >= 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "bounds", "--s", "1", "--H", "1", "--no-timing", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["bounds"]["nondegenerate_digits"] == 855

    def test_config_file_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"curve": "2,3,1,1", "count": 2, "no_timing": True}))
        report = run_json(capsys, "families", "--config", str(config))
        assert report["curve"] == {"a": 2, "b": 3, "c": 1, "d": 1}
        assert "timing" not in report

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"curve": "2,3,1,1", "count": 1}))
        report = run_json(
            capsys, "families", "--config", str(config), "--count", "2", "--no-timing"
        )
        xy = [r for r in report["results"] if r["source"] == "family_xy"]
        assert len(xy) == 2

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"curve": "2,3,1,1", "bogus": 1}))
        code, _, err = run_cli(capsys, "families", "--config", str(config))
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("families",), {"curve": "2,3,1,1", "count": "3"}),
            (("families",), {"curve": "2,3,1,1", "count": True}),
            (("families",), {"curve": "2,3,1,1", "count": None}),
            (("families",), {"curve": [2, 3, 1, 1]}),
            (("families",), {"curve": "2,3,1,1", "primes": 2}),
            (("families",), {"curve": "2,3,1,1", "format": "xml"}),
            (("families",), {"curve": "2,3,1,1", "no_timing": 1}),
            (("families",), {"curve": "2,3,1,1", "out": 7}),
            (("pell", "2", "1"), {"bound": "x"}),
            (("pell", "2", "1"), {"bound": None}),
            (("search",), {"curve": "2,3,1,1", "coeff_bound": 2.5}),
            (("search",), {"curve": "2,3,1,1", "eps_bound": "3"}),
            (("classify", "--curve", "2,3,1,1"), {"point": 1}),
            (("bounds",), {"s": "1"}),
            (("bounds",), {"H": False}),
        ],
    )
    def test_config_value_of_wrong_type_exits_2(self, capsys, tmp_path, argv, config):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == 2 and out == ""
        assert "config value for" in err

    @pytest.mark.parametrize("command, name", _TABLE_OPTIONS)
    def test_config_set_to_the_default_changes_nothing(self, capsys, tmp_path, command, name):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: _options(command)[name].default}))
        argv = (*_SMALL_RUNS[command], "--no-timing")
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--config", str(path)) == plain

    @pytest.mark.parametrize(
        "command, name", [option for option in _TABLE_OPTIONS if option[1] != "config"]
    )
    def test_config_value_of_wrong_json_type_exits_2(self, capsys, tmp_path, command, name):
        # A number where a string or a choice of strings is due, a string
        # where a number, a number where a switch.
        wrong = {int: "1", bool: 1}.get(_options(command)[name].kind, 1)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: wrong}))
        code, out, err = run_cli(capsys, *_SMALL_RUNS[command], "--config", str(path))
        assert code == 2 and out == ""
        assert "config value for" in err

    def test_command_and_config_keys_are_ignored(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": 5, "config": [1], "curve": "2,3,1,1"}))
        configured = run_cli(capsys, "families", "--config", str(path), "--no-timing")
        assert configured == run_cli(capsys, "families", "--curve", "2,3,1,1", "--no-timing")

    def test_help_shows_defaults_and_required_flags(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["families", "--help"])
        assert exit_info.value.code == 0
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert "default: 3" in next(line for line in lines if line.startswith("--count"))
        assert "required" in next(line for line in lines if line.startswith("--curve"))

    @pytest.mark.parametrize("content", [b'{"curve": "2,3,1,1",', b'{"curve": "\xff"}'])
    def test_malformed_config_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "families", "--config", str(path))
        assert code == 2 and out == ""
        assert "not valid JSON" in err

    def test_config_null_where_default_is_null(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"curve": "2,3,1,1", "count": 1, "primes": None, "out": None}))
        report = run_json(capsys, "families", "--config", str(path), "--no-timing")
        assert len(report["results"]) == 3

    @pytest.mark.parametrize(
        "argv, curve",
        [
            (("families", "--curve=-1,9,3,2", "--count", "2"), [-1, 9, 3, 2]),
            (
                ("search", "--curve=-2,3,1,1", "--coeff-bound", "2", "--eps-bound", "6"),
                [-2, 3, 1, 1],
            ),
        ],
    )
    def test_negative_first_curve_entry_with_equals_form(self, capsys, argv, curve):
        # "--curve -1,9,3,2" would read -1,9,3,2 as an option and exit 2.
        report = run_json(capsys, *argv, "--no-timing")
        assert list(report["curve"].values()) == curve

    def test_missing_required_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--curve", "2,3,1,1")
        assert code == 2 and "required" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("pell", "2", "1", "--count", "-1"),
            ("families", "--curve", "2,3,1,1", "--count", "-2"),
            ("verify", "--curve", "2,3,1,1", "--count", "-1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_count_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--no-timing")
        assert code == 2 and out == ""
        assert "--count must be nonnegative" in err


class TestWorkPerPoint:
    def test_invariants_and_curve_check_once_per_record(self, capsys, count_calls):
        counts = {"sym_invariants": 0, "on_curve": 0}
        for name in counts:
            count_calls(counts, "doublepell.curve", name)
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "3", "--no-timing"
        )
        records = len(report["results"])
        assert records == 9
        assert counts == {"sym_invariants": records, "on_curve": records}

    def test_one_pell_solve_per_family_and_one_make_per_record(
        self, capsys, monkeypatch, count_calls
    ):
        counts = {"pell_classes": 0, "make": 0}
        count_calls(counts, "doublepell.pell", "pell_classes")
        quad_point = sys.modules["doublepell.curve"].QuadPoint
        original_make = quad_point.make.__func__

        def counted_make(cls, *args):
            counts["make"] += 1
            return original_make(cls, *args)

        monkeypatch.setattr(quad_point, "make", classmethod(counted_make))
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "20", "--no-timing"
        )
        records = len(report["results"])
        assert records == 60
        assert counts == {"pell_classes": 3, "make": records}

    def test_family_walks_make_no_canonicalizing_call(self, capsys, count_calls):
        # Each family point is canonical as QuadPoint.make builds it.
        counts = {"canonical_representative": 0}
        count_calls(counts, "doublepell.curve", "canonical_representative")
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "20", "--no-timing"
        )
        assert len(report["results"]) == 60
        assert counts == {"canonical_representative": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ("families", "--curve", "2,3,1,1", "--count", "3"),
            ("verify", "--curve", "2,3,1,1", "--count", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_family_enumerator_runs_once_through_its_cli_binding(
        self, capsys, count_calls, argv
    ):
        # The benchmark's tracer wraps the enumerators by rebinding their
        # names in doublepell.cli; a table of them built at import would
        # keep calling the originals.
        names = ("enumerate_family_xy", "enumerate_family_xz", "enumerate_family_yz")
        counts = dict.fromkeys(names, 0)
        for name in names:
            count_calls(counts, "doublepell.search", name)
        run_json(capsys, *argv, "--no-timing")
        assert counts == dict.fromkeys(names, 1)

    def test_search_solves_no_pell_problem(self, capsys, count_calls):
        counts = {"pell_classes": 0}
        count_calls(counts, "doublepell.pell", "pell_classes")
        run_json(
            capsys, "search", "--curve", "2,3,1,1", "--coeff-bound", "3", "--no-timing"
        )
        assert counts == {"pell_classes": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ("families", "--curve", "2,3,1,1", "--count", "20"),
            ("search", "--curve", "2,3,1,1", "--coeff-bound", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_field_inverse_per_point(self, capsys, monkeypatch, argv):
        # alpha, beta, gamma come in closed form from the conjugate
        # products; the general inverse is left to verify_identities.
        multi_quad = sys.modules["doublepell.exactmath"].MultiQuad
        original_inverse = multi_quad.inverse
        calls = []

        def counted_inverse(self):
            calls.append(self)
            return original_inverse(self)

        monkeypatch.setattr(multi_quad, "inverse", counted_inverse)
        report = run_json(capsys, *argv, "--no-timing")
        assert report["results"]
        assert len(calls) == 0

    def test_box_scan_builds_fractions_only_for_candidates(self, capsys, count_fractions):
        # The box is scanned in integers over one common denominator; a
        # Fraction is built only for a candidate that passed both root tests,
        # and for the records printed.  A Fraction scan makes about 10^6.
        calls = count_fractions()
        report = run_json(
            capsys, "search", "--curve", "2,3,1,1", "--primes", "2,3",
            "--coeff-bound", "8", "--no-timing",
        )
        assert report["results"]
        assert len(calls) <= 10_000

    def test_per_point_path_builds_few_fractions(self, capsys, count_fractions):
        # canonical_representative, on_curve and sym_invariants run in
        # integers over the point's common denominator, and MultiQuad holds
        # integer numerators, so comparing an invariant with an int builds
        # none, and family_image tests its conic in integers over that
        # denominator too; Fractions are built for the coordinates and for
        # the invariants the report prints.  The same path in Fraction
        # arithmetic builds about 270 per record.
        calls = count_fractions()
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "20", "--no-timing"
        )
        records = len(report["results"])
        assert records == 60
        assert len(calls) <= 18 * records

    def test_factorize_only_where_a_radicand_enters(self, capsys, count_calls):
        # QuadPoint.make factors each raw radicand once; the curve's two
        # square roots add two more.  Nothing per point factors again.
        counts = {"factorize": 0}
        count_calls(counts, "doublepell.exactmath", "factorize")
        report = run_json(
            capsys, "families", "--curve", "2,3,1,1", "--count", "20", "--no-timing"
        )
        records = len(report["results"])
        assert records == 60
        # At least one call per record: a layer that split radicands
        # without calling factorize by its module name would hide its time
        # from the exactmath.factorize spans.
        assert records <= counts["factorize"] <= records + 4


_JSON_SCALARS = (
    st.text()
    | st.text(alphabet='"\\/\x00\x01\x1f\x7f\u00e9\u2028\ud800\U0001f600 ab\n\t')
    | st.integers()
    | st.integers(min_value=10**40, max_value=10**200)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(deadline=None)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        json.dumps({"value": Fraction(1, 2)}, indent=2)
    with pytest.raises(TypeError):
        _json_text({"value": Fraction(1, 2)})
