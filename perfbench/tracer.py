"""Spans around the package's public functions, recorded from outside.

``Tracer.install()`` wraps each function of ``LAYERS`` in every module
namespace of the package that binds it (``cli`` does ``from
.cycle_index import ci_gcp``, so both ``cli.ci_gcp`` and
``cycle_index.ci_gcp`` are replaced); methods are replaced on their
class.  Each call records a span: name, start, end, parent span and
query id.  Spans stay in memory until ``write``.  Counters are updated
after a span has closed, so their cost is not in any span's time.
"""

from __future__ import annotations

import gzip
import math
import re
import sys
import time
import weakref

# layer -> wrapped names; "Class.method" names are patched on the class
LAYERS = {
    "cli": ["main"],
    "arith": ["factorize", "units"],
    "field": ["make_field", "FqConfig.dlog_table", "dlog",
              "CyclotomicContext.coset_index"],
    "forms": ["PolyForm.parse", "PolyForm.__str__", "PolyForm.eval",
              "poly_to_cyclotomic", "analyze_permutation", "cyclotomic_to_poly",
              "invert_permutation", "eval_cyclotomic"],
    "wreath": ["WreathElem.parse", "cyclotomic_to_wreath",
               "wreath_to_cyclotomic", "cycle_type_wreath", "fcp"],
    "cycle_index": ["ci_sym", "ci_hol", "ci_gcp", "ci_focp", "ci_cp",
                    "polya_compose", "CycleIndex.substitute", "CycleIndex.star"],
    "conjugacy": ["hol_class_id", "hol_conjugate", "conjugacy_invariant",
                  "rep_system", "reps_as_cyclotomic"],
    "oracle": ["materialize", "enumerate_group", "ci_brute"],
}
GENERATORS = {"oracle.enumerate_group"}

COUNTERS = {
    "field.dlog_table.builds": "count",
    "field.dlog_table.entries": "count",
    "field.elems_printed": "count",
    "field.dlog_table.use_ratio": "ratio",
    "forms.poly.dense_slots": "count",
    "forms.poly.nonzero_terms": "count",
    "forms.poly.fill_ratio": "ratio",
    "cycle_index.terms_out": "count",
    "conjugacy.hol_class_id.candidates": "count",
    "oracle.points": "count",
    "oracle.elements": "count",
    "trace.overhead_frac": "ratio",
}

_ELEM = re.compile(r"w\^\d+")


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items()
            for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def self_times(starts, ends, parents) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children.get(idx, ()), key=starts.__getitem__):
            lo, hi = max(starts[child], reach), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _phi(n: int) -> int:
    out, f = n, 2
    while f * f <= n:
        if n % f == 0:
            out -= out // f
            while n % f == 0:
                n //= f
        f += 1
    return out - out // n if n > 1 else out


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.layer_of = [name.split(".", 1)[0] for name in self.names]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.name_ids: list[int] = []
        self.queries: list[int] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._tables = weakref.WeakSet()
        self._patches = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_ids.append(name_id)
        self.queries.append(self.query)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name_id: int, fn):
        tracer = self
        after = self._after.get(self.names[name_id])

        def span(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, idx, args, result)
            return result

        return span

    def _wrap_generator(self, name_id: int, fn):
        tracer = self

        def spans(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counts["oracle.elements"] += 1
                yield item

        return spans

    # -- counters, run after the span closed -------------------------------

    def _left_layer(self, idx: int) -> bool:
        parent = self.parents[idx]
        return (parent < 0 or self.layer_of[self.name_ids[parent]]
                != self.layer_of[self.name_ids[idx]])

    def _dlog_table(self, idx, args, result):
        cfg = args[0]
        if cfg not in self._tables:
            self._tables.add(cfg)
            self.counts["field.dlog_table.builds"] += 1
            self.counts["field.dlog_table.entries"] += cfg.q - 1

    def _poly(self, idx, args, result):
        self.counts["forms.poly.dense_slots"] += len(result.coeffs)
        self.counts["forms.poly.nonzero_terms"] += len(result.terms())

    def _cycle_index(self, idx, args, result):
        if self._left_layer(idx):
            self.counts["cycle_index.terms_out"] += len(result.terms)

    def _hol_class_id(self, idx, args, result):
        g = args[0]
        if g.b:
            self.counts["conjugacy.hol_class_id.candidates"] += (
                g.m // math.gcd((1 - g.a) % g.m, g.m) * _phi(g.m))

    def _materialize(self, idx, args, result):
        self.counts["oracle.points"] += result.n

    _after = {
        "field.FqConfig.dlog_table": _dlog_table,
        "forms.PolyForm.parse": _poly,
        "forms.cyclotomic_to_poly": _poly,
        "forms.invert_permutation": _poly,
        "cycle_index.ci_sym": _cycle_index,
        "cycle_index.ci_hol": _cycle_index,
        "cycle_index.ci_gcp": _cycle_index,
        "cycle_index.ci_focp": _cycle_index,
        "cycle_index.ci_cp": _cycle_index,
        "cycle_index.polya_compose": _cycle_index,
        "cycle_index.CycleIndex.substitute": _cycle_index,
        "cycle_index.CycleIndex.star": _cycle_index,
        "conjugacy.hol_class_id": _hol_class_id,
        "oracle.materialize": _materialize,
    }

    def count_output(self, text: str):
        self.counts["field.elems_printed"] += len(_ELEM.findall(text))

    # -- patching ----------------------------------------------------------

    def install(self):
        import cycloperm  # noqa: F401  (loads every module of the package)
        modules = [mod for name, mod in sys.modules.items()
                   if name == "cycloperm" or name.startswith("cycloperm.")]
        for name_id, full in enumerate(self.names):
            layer, name = full.split(".", 1)
            module = sys.modules[f"cycloperm.{layer}"]
            make = (self._wrap_generator if full in GENERATORS else self._wrap)
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make(name_id, raw.__func__))
                else:
                    new = make(name_id, raw)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, name)
            wrapper = make(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self time per function and layer, and counters."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for name_id, s in zip(self.name_ids, selfs):
            calls[name_id] += 1
            busy[name_id] += s
        out = {}
        layer_calls: dict[str, int] = {}
        layer_busy: dict[str, float] = {}
        for name_id, full in enumerate(self.names):
            out[f"{full}.calls"] = calls[name_id] / passes
            out[f"{full}.self_s"] = busy[name_id] / passes
            layer = self.layer_of[name_id]
            layer_calls[layer] = layer_calls.get(layer, 0) + calls[name_id]
            layer_busy[layer] = layer_busy.get(layer, 0.0) + busy[name_id]
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer] / passes
            out[f"{layer}.self_s"] = layer_busy[layer] / passes
        for name, value in self.counts.items():
            out[name] = value / passes
        c = self.counts
        out["field.dlog_table.use_ratio"] = (
            c["field.elems_printed"] / c["field.dlog_table.entries"]
            if c["field.dlog_table.entries"] else 0.0)
        out["forms.poly.fill_ratio"] = (
            c["forms.poly.nonzero_terms"] / c["forms.poly.dense_slots"]
            if c["forms.poly.dense_slots"] else 0.0)
        return out

    def write(self, path):
        """All spans as gzipped TSV: query, name, parent, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("query\tname\tparent\tstart\tend\n")
            for q, n, p, s, e in zip(self.queries, self.name_ids, self.parents,
                                     self.starts, self.ends):
                fh.write(f"{q}\t{self.names[n]}\t{p}\t{s:.9f}\t{e:.9f}\n")
