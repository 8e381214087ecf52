"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10]: children a [1, 4] and b [3, 6] overlap, c [8, 12]
    # runs past the root's end; a has a child of its own.
    tree = [
        (1, None, 0, "cli.main", 0.0, 10.0),
        (2, 1, 0, "exactmath.factorize", 1.0, 4.0),
        (3, 1, 0, "exactmath.factorize", 3.0, 6.0),
        (4, 1, 0, "pell.pell_classes", 8.0, 12.0),
        (5, 2, 0, "exactmath.MultiQuad.mul", 2.0, 3.0),
    ]
    assert spans.self_times(tree) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}

    tracer = spans.Tracer()
    tracer.spans.extend(tree)
    metrics = spans.layer_metrics(tracer, points=4)
    assert metrics["cli.main.self_s"] == 3.0
    assert metrics["exactmath.factorize.self_s"] == 5.0
    assert metrics["exactmath.factorize.calls"] == 2
    assert metrics["exactmath.factorize.per_point"] == 0.5


def test_deadline_turns_the_pell_cliff_into_a_recorded_timeout():
    dp = wl.import_package()
    op = wl.Op("pell 61 1", lambda: dp.pell_classes(dp.PellProblem(61, 1)), lambda out: 0)
    deadline = 0.2
    started = time.perf_counter()
    result = run.run_pass([op], deadline)
    elapsed = time.perf_counter() - started
    assert result.statuses == [run.TIMEOUT]
    assert deadline <= elapsed < deadline + 0.5


def _bindings(dp):
    """Every binding the tracer may replace, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name == "doublepell" or name.startswith("doublepell."):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls in (dp.MultiQuad, dp.QuadPoint, Fraction):
        out.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return out


def test_traced_pass_wraps_every_binding_and_removes_the_wrappers():
    dp = wl.import_package()
    before = _bindings(dp)
    curve = wl.WORKED_EXAMPLE
    op = wl.Op("families", lambda: wl.run_cli(dp, wl.family_argv(curve, 2)), lambda out: 0)
    tracer = spans.Tracer()
    result = run.run_pass([op], 10.0, tracer)
    assert result.statuses == [run.OK]

    after = _bindings(dp)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = {span[0]: span[3] for span in tracer.spans}
    # The CLI binds the enumerators by `from ... import`; their spans must
    # hang under cli.main.
    parents = {names[span[1]] for span in tracer.spans if span[3] == "search.enumerate_family"}
    assert parents == {"cli.main"}
    assert tracer.counts["exactmath.Fraction.new"] > 0
    assert tracer.counts["curve.QuadPoint.make"] > 0


def test_same_seed_gives_same_inputs_and_the_probes_stay_out_of_the_passes():
    dp = wl.import_package()
    for name, workload in wl.WORKLOADS.items():
        answers = wl.load_answers(name)
        first = [op.key for op in workload.build(dp, 7, answers)]
        assert first == [op.key for op in workload.build(dp, 7, answers)]
        assert first != [op.key for op in workload.build(dp, 8, answers)]
        assert not {op.key for op in workload.probes(dp, answers)} & set(first)
    probes = {
        name: {op.key for op in workload.probes(dp, wl.load_answers(name))}
        for name, workload in wl.WORKLOADS.items()
    }
    assert probes == {
        "families-ladder": {"families 3,7,1,2 8", "families 7,3,2,1 8"},
        "box-search": {"search 2,3,1,1 12"},
        "pell-grid": {"pell 61 1", "pell 109 1", "pell 181 1"},
        "classify-corpus": set(),
    }


def test_pell_window_matches_the_scan_and_orders_the_cliffs():
    assert wl.fundamental_unit(61) == (1766319049, 226153980)
    assert wl.fundamental_unit(2) == (3, 2)
    # D = 2, N = 1: the scan runs y = 0, 1, 2 (2*2*y^2 <= 2^2 * 1 * 4).
    assert wl.pell_window(2, 1) == 3
    timed_max = max(
        wl.pell_window(D, N)
        for D in wl.pell_discriminants()
        for N in range(-wl.PELL_N_MAX, wl.PELL_N_MAX + 1)
        if N and wl.pell_window(D, N) <= wl.PELL_WINDOW_CAP
    )
    assert all(wl.pell_window(D, N) > 1000 * timed_max for D, N in wl.PELL_CLIFFS)


def test_timing_set_ups_keeps_the_modules_the_operations_use():
    dp = wl.import_package()
    before = {name: m for name, m in sys.modules.items() if wl.is_package_module(name)}
    workload = wl.WORKLOADS["pell-grid"]
    times = run.time_set_ups(workload, 1, wl.load_answers("pell-grid"))
    after = {name: m for name, m in sys.modules.items() if wl.is_package_module(name)}
    assert len(times) == run.SETUP_REPEATS and all(t > 0 for t in times)
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
    assert sys.modules["doublepell"] is dp
