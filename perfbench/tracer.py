"""Span tracing of the uncorrsets layers, installed from outside the package.

The tracer replaces functions of the loaded ``uncorrsets`` modules with
timing wrappers and puts every original back on ``uninstall``.  A function
is often bound under more than one name (``constructions`` imports
``sturm_root_count``, ``isolate_root`` and ``exact_sign`` by name,
``ASequence.__getitem__`` is ``value``, ``MultiPoly.__rmul__`` is
``__mul__``), so every binding of the same object in every package module
or class is patched, which is what lets the trace see internal calls too.

Spans (name, start, end, parent, job) live in flat arrays until the run
ends.  A span's self time is its duration minus the durations of its
direct children; recursion (``mp_det``) therefore nests cleanly.  The few
hot leaves listed in ``COUNTERS`` are counted but not timed.
"""

from __future__ import annotations

import gzip
import types
import weakref
from array import array
from fractions import Fraction
from time import perf_counter

# (metric name, module, qualified attribute); one metric may cover several
# functions, as "constructions.make" covers every make_* builder.
SPANNED = [
    ("engine.verify_claim", "engine", "verify_claim"),
    ("engine.enumerate_box_offsets", "engine", "enumerate_box_offsets"),
    ("engine.condition_lhs", "engine", "condition_lhs"),
    ("engine.offsets_delta", "engine", "offsets_delta"),
    ("engine.ASequence.value", "engine", "ASequence.value"),
    ("engine.check_analytic", "engine", "check_analytic"),
    ("engine.enumerate_box_table", "engine", "enumerate_box_table"),
    ("engine.is_uncorrelated", "engine", "is_uncorrelated"),
    ("engine.moment", "engine", "moment"),
    ("engine.classify_symmetric", "engine", "classify_symmetric"),
    ("engine.witness_from_json", "engine", "witness_from_json"),
    ("numeric.exact_sign", "numeric", "exact_sign"),
    ("model.rescale", "model", "rescale"),
    ("model.table_from_offsets", "model", "table_from_offsets"),
    ("constructions.make", "constructions", "make_*"),
    ("constructions.beta_star", "constructions", "beta_star"),
    ("constructions.slopeline_beta_star", "constructions", "slopeline_beta_star"),
    ("constructions.AlgebraicSlopeLine.contains", "constructions",
     "AlgebraicSlopeLine.contains"),
    ("constructions.AlgebraicSlopeLine.enumerate_box", "constructions",
     "AlgebraicSlopeLine.enumerate_box"),
    ("constructions.slopeline_d_poly", "constructions", "slopeline_d_poly"),
    ("polynomials.IntPoly.gcd", "polynomials", "IntPoly.gcd"),
    ("polynomials.sturm_root_count", "polynomials", "sturm_root_count"),
    ("polynomials.isolate_root", "polynomials", "isolate_root"),
    ("polynomials.MultiPoly.mul", "polynomials", "MultiPoly.__mul__"),
    ("polynomials.MultiPoly.add", "polynomials", "MultiPoly.__add__"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.det", "linalg", "det"),
    ("determinants.mp_det", "determinants", "mp_det"),
    ("determinants.f_closed", "determinants", "f_closed"),
    ("determinants.g_closed", "determinants", "g_closed"),
    ("determinants.independence_certificate", "determinants",
     "independence_certificate"),
]

COUNTERS = [
    ("numeric.QuadExt", "numeric", "QuadExt.__init__"),
    ("numeric.as_exact", "numeric", "as_exact"),
]

# values whose size numeric.max_bits tracks
SIZED = {"engine.condition_lhs", "engine.offsets_delta", "engine.moment"}

# enumerations whose last two arguments are the box, for engine.member_ratio
ENUMERATIONS = {"engine.enumerate_box_offsets", "engine.enumerate_box_table",
                "constructions.AlgebraicSlopeLine.enumerate_box"}

# layers whose escaping exceptions are counted as <layer>.errors
ERROR_LAYERS = ("engine", "constructions")

ROOT = "bench.job"


def _bits(v) -> int:
    if isinstance(v, int):
        return v.bit_length()
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if hasattr(v, "a") and hasattr(v, "b"):
        return max(_bits(v.a), _bits(v.b))
    return 0


def _underlying(value):
    if isinstance(value, (staticmethod, classmethod)):
        return value.__func__
    return value


class Tracer:
    """Wraps the package's layer functions and records their spans.

    ``install`` and ``uninstall`` may alternate any number of times; spans and
    counts accumulate across them.
    """

    def __init__(self, mods: types.SimpleNamespace):
        self.mods = mods
        self.names: list[str] = [ROOT]
        self._name_id = {ROOT: 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.errors = {layer: 0 for layer in ERROR_LAYERS}
        self.max_bits = 0
        self.gcd_nontrivial = 0
        self.value_distinct = 0
        self.members = 0
        self.cells = 0
        self._seen_j: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def _targets(self, module: str, attr: str):
        """(function, owner-class-or-None) pairs named by a table entry."""
        mod = getattr(self.mods, module)
        if attr == "make_*":
            return [(getattr(mod, n), None) for n in sorted(vars(mod))
                    if n.startswith("make_") and callable(getattr(mod, n))]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            return [(_underlying(vars(cls)[meth]), cls)]
        return [(getattr(mod, attr), None)]

    def _bind_everywhere(self, fn, cls, wrapper) -> None:
        if cls is not None:
            for key, value in list(vars(cls).items()):
                if _underlying(value) is fn:
                    new = type(value)(wrapper) if isinstance(
                        value, (staticmethod, classmethod)) else wrapper
                    self._patches.append((cls, key, value))
                    setattr(cls, key, new)
            return
        for mod in self.mods.all_modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for metric, module, attr in SPANNED:
            for fn, cls in self._targets(module, attr):
                self._bind_everywhere(fn, cls, self._span_wrapper(metric, fn))
        for metric, module, attr in COUNTERS:
            for fn, cls in self._targets(module, attr):
                self._bind_everywhere(fn, cls, self._count_wrapper(metric, fn))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts
        counts.setdefault(metric, 0)

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, metric: str, fn):
        name_id = self._name_id.setdefault(metric, len(self.names))
        if name_id == len(self.names):
            self.names.append(metric)
        layer = metric.split(".")[0]
        sized = metric in SIZED
        is_gcd = metric == "polynomials.IntPoly.gcd"
        is_value = metric == "engine.ASequence.value"
        is_enum = metric in ENUMERATIONS
        tracer = self

        def spanned(*args, **kwargs):
            if is_value:
                tracer._note_value(args[0], args[1])
            stack = tracer._stack
            idx = tracer._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer in tracer.errors:
                    outer = (tracer.names[tracer.span_name[stack[-2]]]
                             if len(stack) > 1 else "")
                    if not outer.startswith(layer + "."):
                        tracer.errors[layer] += 1
                raise
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.span_start[idx] = t0
                stack.pop()
            if sized:
                b = _bits(result)
                if b > tracer.max_bits:
                    tracer.max_bits = b
            elif is_gcd and result.degree >= 1:
                tracer.gcd_nontrivial += 1
            elif is_enum:
                tracer.members += len(result)
                tracer.cells += args[-2] * args[-1]
            return result

        spanned.__wrapped__ = fn
        return spanned

    def _note_value(self, seq, j) -> None:
        seen = self._seen_j.get(seq)
        if seen is None:
            seen = self._seen_j[seq] = set()
        if j not in seen:
            seen.add(j)
            self.value_distinct += 1

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    # -- jobs ----------------------------------------------------------

    def run_job(self, job_id: int, fn, *args):
        """Run one job under a root span and return its result."""
        self._job = job_id
        idx = self._open(0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self._stack.pop()
            self._job = -1

    # -- results -------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time."""
        n = len(self.span_name)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for i in range(n):
            row = out[names[self.span_name[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id,name,start,end,parent,job\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_job[i]}\n"
                )
