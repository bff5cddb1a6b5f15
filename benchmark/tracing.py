"""Spans and counters around the program's public functions, from outside.

install() replaces each traced function wherever the program looks it up:
every module-level name in the spreadbent package bound to the original
(so spreadbent.quasifield.combo_coeffs as well as
spreadbent.polynomials.combo_coeffs), and the FieldCtx / PreQuasifield
methods on their classes.  A span is (name, start, end, parent, operation
id), kept in flat arrays in memory and written as JSON by dump().  Scalar
field operations, called millions of times, only bump a counter.

metrics() turns a dumped trace into the per-layer metrics: inclusive time
per name, self time (minus direct child spans), call counts, and counts
computed from array sizes.
"""

import json
import sys
import time
from array import array
from weakref import WeakKeyDictionary

import numpy as np

# span name -> (module or class path, attribute); classes are wrapped in place
SPANS = {
    "field.field_ctx": ("spreadbent.field", "field_ctx"),
    "field.vmul": ("spreadbent.field:FieldCtx", "vmul"),
    "field.vpow": ("spreadbent.field:FieldCtx", "vpow"),
    "field.vtrace": ("spreadbent.field:FieldCtx", "vtrace"),
    "field.vinv": ("spreadbent.field:FieldCtx", "vinv"),
    "polynomials.dickson_eval": ("spreadbent.polynomials", "dickson_eval"),
    "polynomials.combo_coeffs": ("spreadbent.polynomials", "combo_coeffs"),
    "polynomials.square_trace_inverse_eval": ("spreadbent.polynomials",
                                              "square_trace_inverse_eval"),
    "quasifield.make_family": ("spreadbent.quasifield", "make_family"),
    "quasifield.mult_table": ("spreadbent.quasifield:PreQuasifield",
                              "mult_table"),
    "quasifield.div_table_formula": ("spreadbent.quasifield:PreQuasifield",
                                     "div_table_formula"),
    "quasifield.div_table_oracle": ("spreadbent.quasifield:PreQuasifield",
                                    "div_table_oracle"),
    "quasifield.verify_axioms": ("spreadbent.quasifield", "verify_axioms"),
    "spread.build_spread": ("spreadbent.spread", "build_spread"),
    "spread.verify_spread": ("spreadbent.spread", "verify_spread"),
    "boolfun.walsh_spectrum": ("spreadbent.boolfun", "walsh_spectrum"),
    "boolfun.is_bent": ("spreadbent.boolfun", "is_bent"),
    "boolfun.degree": ("spreadbent.boolfun", "degree"),
    "boolfun.save_tt": ("spreadbent.boolfun", "save_tt"),
    "construct.ps_minus": ("spreadbent.construct", "ps_minus"),
    "construct.ps_plus": ("spreadbent.construct", "ps_plus"),
    "construct.ps_from_components": ("spreadbent.construct",
                                     "ps_from_components"),
    "construct.selector_from_support": ("spreadbent.construct",
                                        "selector_from_support"),
    "cli.main": ("spreadbent.cli", "main"),
}
# qdiv_formula is overridden per family, so each subclass is wrapped
QDIV_CLASSES = ("FieldFamily", "DempwolffMullerFamily", "KnuthFamily",
                "KantorFamily")
COUNTERS = {
    "field.mul_calls": ("spreadbent.field:FieldCtx", "mul"),
    "field.pow_calls": ("spreadbent.field:FieldCtx", "pow"),
    "field.solve_quadratic_calls": ("spreadbent.field:FieldCtx",
                                    "solve_quadratic"),
    "polynomials.eval_linearized_calls": ("spreadbent.polynomials",
                                          "eval_linearized"),
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS) + ["quasifield.qdiv_formula"]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.current_op = -1
        self.counts = {k: 0 for k in COUNTERS}
        self.counts.update({"field.vmul_elems": 0, "field.vpow_elems": 0,
                            "field.kernel_bytes": 0,
                            "boolfun.fwht_butterflies": 0,
                            "boolfun.save_tt_bytes": 0,
                            "quasifield.div_entries": 0})
        self._last_div = WeakKeyDictionary()

    def spanned(self, fn, name, after=None):
        idx = self.names.index(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(i)
            self.start[i] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counts computed from array sizes ------------------------------------

    def _kernel(self, elems_key):
        def after(args, out):
            out = np.asarray(out)
            if elems_key:
                self.counts[elems_key] += out.size
            self.counts["field.kernel_bytes"] += out.nbytes + sum(
                np.asarray(a).nbytes for a in args[1:]
                if not isinstance(a, (int, np.integer)) or np.ndim(a))
        return after

    def _fwht(self, args, out):
        n = args[0].n
        self.counts["boolfun.fwht_butterflies"] += n << (n - 1)

    def _save_tt(self, args, out):
        self.counts["boolfun.save_tt_bytes"] += (1 << args[0].n) // 4

    def _div_formula(self, args, out):
        # a cached table comes back as the same object: count fresh ones only
        Q = args[0]
        if self._last_div.get(Q) is not out:
            self._last_div[Q] = out
            self.counts["quasifield.div_entries"] += out.size

    def _div_oracle(self, args, out):
        self.counts["quasifield.div_entries"] += out.size

    def install(self):
        after = {"field.vmul": self._kernel("field.vmul_elems"),
                 "field.vpow": self._kernel("field.vpow_elems"),
                 "field.vtrace": self._kernel(None),
                 "field.vinv": self._kernel(None),
                 "boolfun.walsh_spectrum": self._fwht,
                 "boolfun.save_tt": self._save_tt,
                 "quasifield.div_table_formula": self._div_formula,
                 "quasifield.div_table_oracle": self._div_oracle}
        for name, (where, attr) in SPANS.items():
            _replace(where, attr,
                     lambda fn, name=name: self.spanned(fn, name,
                                                        after.get(name)))
        for cls in QDIV_CLASSES:
            _replace(f"spreadbent.quasifield:{cls}", "qdiv_formula",
                     lambda fn: self.spanned(fn, "quasifield.qdiv_formula"))
        for key, (where, attr) in COUNTERS.items():
            _replace(where, attr, lambda fn, key=key: self.counted(fn, key))

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "counts": self.counts,
                       "spans": {"name": self.name.tolist(),
                                 "parent": self.parent.tolist(),
                                 "op": self.op.tolist(),
                                 "start_ns": self.start.tolist(),
                                 "end_ns": self.end.tolist()},
                       **extra}, fh)


def _replace(where, attr, make):
    """Swap the function for its wrapper on a class, or in every spreadbent
    module namespace that binds the same object."""
    mod, _, cls = where.partition(":")
    if cls:
        owner = getattr(sys.modules[mod], cls)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    orig = getattr(sys.modules[mod], attr)
    wrapped = make(orig)
    for name, module in list(sys.modules.items()):
        if (name == "spreadbent" or name.startswith("spreadbent.")) and \
                getattr(module, attr, None) is orig:
            setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from a dumped trace

# metric -> span whose durations are summed (no traced function recurses)
INCLUSIVE = {
    "field.field_ctx_s": "field.field_ctx",
    "field.vmul_s": "field.vmul",
    "field.vpow_s": "field.vpow",
    "field.vtrace_s": "field.vtrace",
    "field.vinv_s": "field.vinv",
    "polynomials.dickson_eval_s": "polynomials.dickson_eval",
    "polynomials.combo_coeffs_s": "polynomials.combo_coeffs",
    "polynomials.square_trace_inverse_eval_s":
        "polynomials.square_trace_inverse_eval",
    "quasifield.make_family_s": "quasifield.make_family",
    "quasifield.mult_table_s": "quasifield.mult_table",
    "quasifield.div_table_formula_s": "quasifield.div_table_formula",
    "quasifield.div_table_oracle_s": "quasifield.div_table_oracle",
    "quasifield.qdiv_formula_s": "quasifield.qdiv_formula",
    "quasifield.verify_axioms_s": "quasifield.verify_axioms",
    "spread.build_spread_s": "spread.build_spread",
    "spread.verify_spread_s": "spread.verify_spread",
    "boolfun.walsh_spectrum_s": "boolfun.walsh_spectrum",
    "boolfun.degree_s": "boolfun.degree",
    "boolfun.save_tt_s": "boolfun.save_tt",
    "construct.ps_plus_s": "construct.ps_plus",
    "construct.ps_from_components_s": "construct.ps_from_components",
    "construct.selector_s": "construct.selector_from_support",
}
SELF = {"boolfun.is_bent_s": "boolfun.is_bent",
        "construct.ps_minus_s": "construct.ps_minus",
        "cli.main_s": "cli.main"}
CALLS = {
    "field.solve_quadratic_calls": None,
    "polynomials.dickson_eval_calls": "polynomials.dickson_eval",
    "polynomials.combo_coeffs_calls": "polynomials.combo_coeffs",
    "polynomials.square_trace_inverse_eval_calls":
        "polynomials.square_trace_inverse_eval",
    "quasifield.qdiv_formula_calls": "quasifield.qdiv_formula",
    "quasifield.verify_axioms_calls": "quasifield.verify_axioms",
    "spread.verify_spread_calls": "spread.verify_spread",
    "boolfun.walsh_spectrum_calls": "boolfun.walsh_spectrum",
    "construct.ps_minus_calls": "construct.ps_minus",
}
UNITS = {"_s": "s", "_calls": "count", "_elems": "count", "_bytes": "bytes",
         "_entries": "count", "_butterflies": "count", "_per_s": "1/s",
         "_us": "us"}


def unit_of(metric: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if metric.endswith(suffix):
            return UNITS[suffix]
    return "count"


def metrics(trace: dict) -> dict:
    names = trace["names"]
    sp = trace["spans"]
    name = np.asarray(sp["name"], dtype=np.int64)
    parent = np.asarray(sp["parent"], dtype=np.int64)
    dur = (np.asarray(sp["end_ns"], dtype=np.int64)
           - np.asarray(sp["start_ns"], dtype=np.int64)) / 1e9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur)) if len(dur) else dur
    self_time = dur - child

    def idx(n):
        return names.index(n)

    out = {}
    for metric, n in INCLUSIVE.items():
        out[metric] = float(dur[name == idx(n)].sum())
    for metric, n in SELF.items():
        out[metric] = float(self_time[name == idx(n)].sum())
    counts = trace["counts"]
    for metric, n in CALLS.items():
        out[metric] = (counts[metric] if n is None
                       else int((name == idx(n)).sum()))
    for key in ("field.vmul_elems", "field.vpow_elems", "field.kernel_bytes",
                "field.mul_calls", "field.pow_calls",
                "polynomials.eval_linearized_calls",
                "boolfun.fwht_butterflies", "boolfun.save_tt_bytes",
                "quasifield.div_entries"):
        out[key] = counts[key]

    div_s = out["quasifield.div_table_formula_s"] + \
        out["quasifield.div_table_oracle_s"]
    out["quasifield.div_table_per_s"] = (
        out["quasifield.div_entries"] / div_s if div_s else 0.0)
    qd = dur[name == idx("quasifield.qdiv_formula")] * 1e6
    out["quasifield.qdiv_formula_per_s"] = (
        len(qd) / out["quasifield.qdiv_formula_s"] if len(qd) else 0.0)
    out["quasifield.qdiv_formula_p50_us"] = (
        float(np.percentile(qd, 50)) if len(qd) else 0.0)
    out["quasifield.qdiv_formula_p99_us"] = (
        float(np.percentile(qd, 99)) if len(qd) else 0.0)
    return out
