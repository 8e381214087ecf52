"""Shared corpus of on-curve points used across the suite.

Two sources: the Pell-driven enumerators on a handful of fixed curves, and
a synthetic generator that manufactures a genuinely quadratic point first
and derives curve constants from it, which covers the sporadic class
cheaply on many distinct curves.
"""

import signal
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from doublepell import (
    DegenerateCurve,
    QuadPoint,
    SearchConfig,
    box_search,
    enumerate_family_xy,
    enumerate_family_xz,
    enumerate_family_yz,
    search_exceptional,
    validate_curve,
)

FIXED_CURVES = [
    (2, 3, 1, 1),
    (2, 3, 1, 5),
    (3, 2, 1, 1),
    (2, 3, 3, 17),
    (5, 3, 1, 1),
]

_SYNTH_A = [2, 3, -2, 4, 5, -3]
_SYNTH_B = [3, 5, 7, 9, -5, 10]
_SYNTH_EPS = [5, 7, 10, 13, -1, -2, 17, 21]
_SYNTH_XPAIRS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (1, 3)]


def synthetic_pairs():
    """(curve, point) pairs with the point exactly on the curve.

    With x = ux + vx*sqrt(e), setting y = a*ux + vx*sqrt(e) and
    z = b*ux + vx*sqrt(e) forces c = (a-1)(a*ux^2 - e*vx^2) and
    d = (b-1)(b*ux^2 - e*vx^2); both are nonzero whenever e avoids the
    square class of a and b.
    """
    pairs = []
    for a in _SYNTH_A:
        for b in _SYNTH_B:
            if a == b:
                continue
            for e in _SYNTH_EPS:
                for ux, vx in _SYNTH_XPAIRS:
                    c = (a - 1) * (a * ux * ux - e * vx * vx)
                    d = (b - 1) * (b * ux * ux - e * vx * vx)
                    if c == 0 or d == 0:
                        continue
                    try:
                        curve = validate_curve(a, b, c, d)
                    except DegenerateCurve:
                        continue
                    point = QuadPoint.make(e, (ux, vx), (a * ux, vx), (b * ux, vx))
                    pairs.append((curve, point))
    return pairs


def enumerated_pairs(family_count=6, exceptional_bound=30):
    pairs = []
    for params in FIXED_CURVES:
        curve = validate_curve(*params)
        cfg = SearchConfig(curve, family_count=family_count)
        for enumerator in (enumerate_family_xy, enumerate_family_xz, enumerate_family_yz):
            pairs.extend((curve, p) for p in enumerator(cfg))
        exc_cfg = SearchConfig(curve, coeff_bound=exceptional_bound)
        pairs.extend((curve, p) for p in search_exceptional(exc_cfg))
    reference = validate_curve(2, 3, 1, 1)
    box_cfg = SearchConfig(reference, coeff_bound=5, eps_bound=15)
    pairs.extend((reference, p) for p in box_search(box_cfg))
    return pairs


def _negate(point):
    return QuadPoint.make(
        point.eps,
        (-point.x[0], -point.x[1]),
        (-point.y[0], -point.y[1]),
        (-point.z[0], -point.z[1]),
    )


def build_corpus():
    seen = set()
    corpus = []
    pairs = enumerated_pairs() + synthetic_pairs()
    # Fully negated companions share the invariant triple but form distinct
    # conjugate pairs, so fibers of size > 1 actually occur in the corpus.
    pairs.extend((curve, _negate(point)) for curve, point in pairs[:300])
    for curve, point in pairs:
        key = (curve, point)
        if key in seen:
            continue
        seen.add(key)
        corpus.append((curve, point))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def reference_curve():
    return validate_curve(2, 3, 1, 1)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(counts, module_name, name) counts in counts[name] the
    calls of `name` through every doublepell binding of it."""

    def install(counts, module_name, name):
        original = getattr(sys.modules[module_name], name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        for bound_in, module in list(sys.modules.items()):
            if bound_in.partition(".")[0] != "doublepell":
                continue
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)

    return install


@pytest.fixture
def count_fractions(monkeypatch):
    """count_fractions() returns a list that gains one entry for every
    Fraction built from then on, until the test ends."""

    def install():
        original_new = Fraction.__new__
        calls = []

        def counted_new(cls, *args, **kwargs):
            calls.append(None)
            return original_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        return calls

    return install


class DeadlineExceeded(BaseException):
    """Raised into a test body that outlives its deadline.

    A BaseException, so that no `except Exception` in the code under test
    can swallow it.
    """


@pytest.fixture
def deadline():
    """`with deadline(seconds):` fails the test once the block has run for
    `seconds` of wall time, so a hang fails in seconds instead of stalling
    the suite.  SIGALRM based: main thread only, and the alarm is cleared
    when the block ends."""

    @contextmanager
    def arm(seconds):
        def expire(signum, frame):
            raise DeadlineExceeded(f"still running after the {seconds} s deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return arm
