"""Spans and counters around the package's public functions.

The traced run wraps each layer's public functions from here, outside the
package: `Tracer.install` replaces every binding of a wrapped function, in
every `doublepell` module namespace that holds it (the CLI binds
`box_search` and the `enumerate_family_*` functions with `from ... import`,
so wrapping only `doublepell.search` would miss those calls), and
`Tracer.uninstall` puts the originals back.

A span is (span_id, parent_id, op_id, name, start, end), kept in memory.
Hot constructors and `on_curve` are counted without a span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

SPAN_FIELDS = ("span_id", "parent_id", "op_id", "name", "start", "end")

# (span name, module, attribute); several attributes may share one name.
SPANNED = (
    ("exactmath.factorize", "doublepell.exactmath", "factorize"),
    ("exactmath.MultiQuad.mul", "doublepell.exactmath", "MultiQuad.__mul__"),
    ("exactmath.MultiQuad.mul", "doublepell.exactmath", "MultiQuad.__rmul__"),
    ("exactmath.MultiQuad.inverse", "doublepell.exactmath", "MultiQuad.inverse"),
    ("pell.pell_classes", "doublepell.pell", "pell_classes"),
    ("pell.pell_iterate", "doublepell.pell", "pell_iterate"),
    ("pell.solve_conic", "doublepell.pell", "solve_conic"),
    ("curve.canonical_representative", "doublepell.curve", "canonical_representative"),
    ("curve.sym_invariants", "doublepell.curve", "sym_invariants"),
    ("curve.verify_identities", "doublepell.curve", "verify_identities"),
    ("classify.classify", "doublepell.classify", "classify"),
    ("search.enumerate_family", "doublepell.search", "enumerate_family_xy"),
    ("search.enumerate_family", "doublepell.search", "enumerate_family_xz"),
    ("search.enumerate_family", "doublepell.search", "enumerate_family_yz"),
    ("search.box_search", "doublepell.search", "box_search"),
    ("search.search_exceptional", "doublepell.search", "search_exceptional"),
    ("cli.main", "doublepell.cli", "main"),
)

COUNTED = (
    ("exactmath.MultiQuad.init", "doublepell.exactmath", "MultiQuad.__init__"),
    ("exactmath.Fraction.new", "fractions", "Fraction.__new__"),
    ("curve.QuadPoint.make", "doublepell.curve", "QuadPoint.make"),
    ("curve.on_curve", "doublepell.curve", "on_curve"),
)

# Spans whose result length is the number of points the layer produced.
POINT_PRODUCERS = frozenset({"search.enumerate_family", "search.box_search"})
DIGITS_OF_ARGUMENT = frozenset({"exactmath.factorize"})

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    "exactmath.factorize.calls",
    "exactmath.factorize.self_s",
    "exactmath.factorize.max_digits",
    "exactmath.factorize.per_point",
    "exactmath.MultiQuad.mul.calls",
    "exactmath.MultiQuad.mul.self_s",
    "exactmath.MultiQuad.inverse.calls",
    "exactmath.MultiQuad.inverse.self_s",
    "exactmath.MultiQuad.init.calls",
    "exactmath.Fraction.new.calls",
    "pell.pell_classes.calls",
    "pell.pell_classes.self_s",
    "pell.pell_iterate.calls",
    "pell.pell_iterate.self_s",
    "pell.solve_conic.self_s",
    "curve.QuadPoint.make.calls",
    "curve.canonical_representative.calls",
    "curve.canonical_representative.self_s",
    "curve.on_curve.calls",
    "curve.sym_invariants.calls",
    "curve.sym_invariants.self_s",
    "curve.sym_invariants.per_point",
    "curve.verify_identities.self_s",
    "classify.classify.calls",
    "classify.classify.self_s",
    "search.enumerate_family.self_s",
    "search.enumerate_family.points",
    "search.box_search.self_s",
    "search.box_search.points",
    "search.search_exceptional.self_s",
    "cli.main.self_s",
)


def layer_unit(metric: str) -> str:
    kind = metric.rpartition(".")[2]
    return {"self_s": "s", "max_digits": "digits"}.get(kind, "count")


def _resolve(module_name: str, attribute: str):
    """(owner, attribute name, raw value): the class dict entry for
    'Class.method', the module attribute otherwise."""
    owner = sys.modules[module_name]
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    raw = owner.__dict__[name] if classes else getattr(owner, name)
    return owner, name, raw


def _rewrap(raw, wrap):
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    return wrap(raw)


class Tracer:
    """Records spans and counts while installed; one tracer per pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.max_digits = 0
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack.clear()

    def install(self) -> None:
        for name, module_name, attribute in SPANNED:
            self._install(module_name, attribute, functools.partial(self._spanned, name))
        for name, module_name, attribute in COUNTED:
            self._install(module_name, attribute, functools.partial(self._counted, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _install(self, module_name: str, attribute: str, wrap) -> None:
        owner, name, raw = _resolve(module_name, attribute)
        wrapped = _rewrap(raw, wrap)
        if "." in attribute:
            self._restore.append((owner, name, raw))
            setattr(owner, name, wrapped)
            return
        for module_key, module in list(sys.modules.items()):
            if module_key != "doublepell" and not module_key.startswith("doublepell."):
                continue
            for binding, value in list(vars(module).items()):
                if value is raw:
                    self._restore.append((module, binding, raw))
                    setattr(module, binding, wrapped)

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name: str, fn):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter
        produces_points = name in POINT_PRODUCERS
        digits_of_argument = name in DIGITS_OF_ARGUMENT

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if digits_of_argument:
                self.max_digits = max(self.max_digits, len(str(abs(args[0]))))
            span_id = next(ids)
            depth = len(stack)
            parent = stack[-1] if depth else None
            start = clock()
            try:
                stack.append(span_id)
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                del stack[depth:]
                spans.append((span_id, parent, self.op_id, name, start, end))
            if produces_points:
                counts[name + ".points"] += len(result)
            return result

        return spanned


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span_id, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _parent, _op, _name, start, end in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer, points: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass that produced `points`."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    own = self_times(tracer.spans)
    for span in tracer.spans:
        calls[span[3]] += 1
        self_s[span[3]] += own[span[0]]
    calls.update(tracer.counts)
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = self_s[name]
        elif kind == "per_point":
            out[metric] = calls[name] / points if points else 0.0
        elif kind == "max_digits":
            out[metric] = tracer.max_digits
        elif kind == "points":
            out[metric] = calls[metric]
        else:
            out[metric] = calls[name]
    return out
