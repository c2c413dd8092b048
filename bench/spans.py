"""Outside-in tracing of the library's layers, from the benchmark's own files.

:func:`install` wraps the public entry points of each module of
``macmahon`` and rebinds every module-level name that refers to them, so a
call reaches the wrapper whichever ``from ... import`` binding it goes
through.  Each wrapper records a span (name, start, end, parent span, op
id) in a :class:`Recorder`; spans stay in memory until the run ends.
:func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: Public functions wrapped per module (module-level names).
FUNCTIONS = {
    "qseries": ("bernoulli", "divisor_power_sums", "eisenstein", "eisenstein_odd",
                "multiple_divisor_series", "multiple_divisor_series_odd",
                "macmahon_a", "macmahon_c", "partition_oracle"),
    "identities": ("verify_main_a", "verify_main_c", "verify_geng22",
                   "verify_exp_quasi_shuffle", "lemma_combinatorial_check",
                   "express_in_generators", "extract_polynomials", "zeta_two_power"),
    "numerics": ("multitangent", "monotangent", "lipschitz_value", "eval_qseries_at",
                 "limit_check", "richardson"),
    "cli": ("main",),
}


class Recorder:
    """Spans of one single-threaded run, kept in flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name table
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.op_id = -1
        self._stack = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def __len__(self):
        return len(self.name)

    def dump(self, path) -> None:
        """Write all spans as gzipped JSON: a name table and one row per span."""
        rows = [[self.names[n], s, e, p, o] for n, s, e, p, o in
                zip(self.name, self.start, self.end, self.parent, self.op)]
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "spans": rows, "counters": dict(self.counters)}, fh)


def _wrap(fn, recorder: Recorder, name: str):
    nid = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = recorder.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(i)

    return wrapper


def _wrap_series_mul(fn, recorder: Recorder, series_cls):
    ids = {}
    counters = recorder.counters

    @functools.wraps(fn)
    def mul(self, other):
        depth = self._series_depth
        if depth not in ids:
            ids[depth] = recorder.name_id(f"series.mul.d{depth}")
        if isinstance(other, series_cls) and other._series_depth == depth:
            # schoolbook-equivalent coefficient products, computed from the orders
            n = min(len(self.coeffs), len(other.coeffs))
            counters[f"series.mul.d{depth}.coeff_products"] += n * (n + 1) // 2
        i = recorder.open(ids[depth])
        try:
            return fn(self, other)
        finally:
            recorder.close(i)

    return mul


def rebind(original, replacement, modules=None) -> list:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Returns the ``(module, name)`` pairs changed.
    """
    changed = []
    for module in list(sys.modules.values() if modules is None else modules):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


class Installation:
    """What :func:`install` changed, so that it can be undone."""

    def __init__(self):
        self.bindings = []  # (module, name, original)
        self.methods = []  # (class, name, original)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.bindings):
            setattr(module, attr, original)
        for cls, attr, original in reversed(self.methods):
            setattr(cls, attr, original)
        self.bindings.clear()
        self.methods.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap the traced entry points of every ``macmahon`` module."""
    import importlib

    inst = Installation()
    series = importlib.import_module("macmahon.series")
    quasishuffle = importlib.import_module("macmahon.quasishuffle")
    Series = series.Series

    mul = _wrap_series_mul(Series.__mul__, recorder, Series)
    for attr, wrapper in (("__mul__", mul), ("__rmul__", mul),
                          ("exp", _wrap(Series.exp, recorder, "series.exp")),
                          ("compose", _wrap(Series.compose, recorder, "series.compose"))):
        inst.methods.append((Series, attr, Series.__dict__[attr]))
        setattr(Series, attr, wrapper)
    product = quasishuffle.QuasiShuffleAlgebra.__dict__["product"]
    inst.methods.append((quasishuffle.QuasiShuffleAlgebra, "product", product))
    quasishuffle.QuasiShuffleAlgebra.product = _wrap(product, recorder, "quasishuffle.product")

    for module_name, names in FUNCTIONS.items():
        module = importlib.import_module(f"macmahon.{module_name}")
        for name in names:
            original = getattr(module, name)
            wrapper = _wrap(original, recorder, f"{module_name}.{name}")
            for mod, attr in rebind(original, wrapper):
                inst.bindings.append((mod, attr, original))
    return inst


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def self_times(rec: Recorder) -> list:
    """Per span: its duration minus the time its direct child spans cover.

    Spans of one thread nest, so the children of a span are disjoint and
    their durations simply add up.
    """
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            covered[p] += dur[i]
    return [d - c for d, c in zip(dur, covered)]


def outermost(rec: Recorder) -> list:
    """Per span: True unless an enclosing span has the same name (recursion)."""
    out = []
    for i, n in enumerate(rec.name):
        p = rec.parent[i]
        while p >= 0 and rec.name[p] != n:
            p = rec.parent[p]
        out.append(p < 0)
    return out


def summarize(rec: Recorder) -> dict:
    """{name: {"calls", "self_s", "total_s"}} over all spans."""
    selfs = self_times(rec)
    outer = outermost(rec)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for i, n in enumerate(rec.name):
        entry = out[rec.names[n]]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if outer[i]:
            entry["total_s"] += rec.end[i] - rec.start[i]
    return dict(out)


def self_by_op_kind(rec: Recorder, op_kinds: dict) -> dict:
    """{op kind: {span name: self seconds}}; ``op_kinds`` maps op id to kind."""
    selfs = self_times(rec)
    out = defaultdict(Counter)
    for i, n in enumerate(rec.name):
        out[op_kinds[rec.op[i]]][rec.names[n]] += selfs[i]
    return {k: dict(v) for k, v in out.items()}


#: Per-layer metrics: name -> (unit, how it is read from the summary).
LAYER_METRICS = {
    "series.mul.d1.calls": ("count", ("series.mul.d1", "calls")),
    "series.mul.d1.self_s": ("s", ("series.mul.d1", "self_s")),
    "series.mul.d1.coeff_products": ("count", ("counter", "series.mul.d1.coeff_products")),
    "series.mul.d2.calls": ("count", ("series.mul.d2", "calls")),
    "series.mul.d2.self_s": ("s", ("series.mul.d2", "self_s")),
    "series.exp.total_s": ("s", ("series.exp", "total_s")),
    "series.compose.total_s": ("s", ("series.compose", "total_s")),
    "qseries.multiple_divisor_series.calls": ("count", ("qseries.multiple_divisor_series", "calls")),
    "qseries.multiple_divisor_series.self_s": ("s", ("qseries.multiple_divisor_series", "self_s")),
    "qseries.multiple_divisor_series_odd.self_s":
        ("s", ("qseries.multiple_divisor_series_odd", "self_s")),
    "qseries.macmahon_a.total_s": ("s", ("qseries.macmahon_a", "total_s")),
    "qseries.macmahon_c.total_s": ("s", ("qseries.macmahon_c", "total_s")),
    "qseries.eisenstein.total_s": ("s", ("qseries.eisenstein", "total_s")),
    "qseries.eisenstein_odd.total_s": ("s", ("qseries.eisenstein_odd", "total_s")),
    "identities.express_in_generators.self_s":
        ("s", ("identities.express_in_generators", "self_s")),
    "identities.express.monomials": ("count", ("counter", "identities.express.monomials")),
    "identities.verify_main.total_s": ("s", ("identities.verify_main_a", "identities.verify_main_c",
                                             "total_s")),
    "identities.verify_geng22.total_s": ("s", ("identities.verify_geng22", "total_s")),
    "identities.verify_exp_quasi_shuffle.total_s":
        ("s", ("identities.verify_exp_quasi_shuffle", "total_s")),
    "identities.lemma_combinatorial_check.total_s":
        ("s", ("identities.lemma_combinatorial_check", "total_s")),
    "quasishuffle.product.calls": ("count", ("quasishuffle.product", "calls")),
    "quasishuffle.product.self_s": ("s", ("quasishuffle.product", "self_s")),
    "quasishuffle.cache_entries": ("count", ("counter", "quasishuffle.cache_entries")),
    "numerics.multitangent.self_s": ("s", ("numerics.multitangent", "self_s")),
    "numerics.limit_check.self_s": ("s", ("numerics.limit_check", "self_s")),
    "numerics.lipschitz_value.self_s": ("s", ("numerics.lipschitz_value", "self_s")),
    "cli.main.self_s": ("s", ("cli.main", "self_s")),
}


def layer_metrics(summary: dict, counters: dict) -> dict:
    """The :data:`LAYER_METRICS` from a :func:`summarize` result and the counters."""
    out = {}
    for metric, (unit, source) in LAYER_METRICS.items():
        if source[0] == "counter":
            value = counters.get(source[1], 0)
        else:
            *names, field = source
            value = sum(summary.get(n, {}).get(field, 0) for n in names)
        out[metric] = {"value": value, "unit": unit}
    return out
