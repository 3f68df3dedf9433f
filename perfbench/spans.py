"""Span recorder for the traced run.

Wraps the module attributes through which each layer of ``homapprox`` is
entered, records one span per call (name, start, end, parent, case id) plus
optional counts taken at the same boundary, keeps the spans in memory and
aggregates them into per-pass totals and self times.  Spans inside the
package itself are not recorded; only calls that cross these attributes are.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np


def _lp_counts(args, kwargs, result):
    a_ub = kwargs.get("A_ub")
    rows = 0 if a_ub is None else int(np.shape(a_ub)[0])
    return {"weighted_approx.lp_solves": 1, "weighted_approx.lp_rows_max": rows}


def _gauge_counts(args, kwargs, result):
    shape = np.shape(args[1])
    return {"geometry.gauge_points": int(np.prod(shape[:-1], dtype=int))}


def _multiply_counts(args, kwargs, result):
    return {"polys.multiply_terms": len(args[0].coeffs) * len(args[1].coeffs)}


def _write_counts(args, kwargs, result):
    return {"cli.bytes_written": len(args[1].encode())}


def _one(name):
    return lambda args, kwargs, result: {name: 1}


# (span name, "module:attribute", counter).  A function is rebound in every
# homapprox module that holds it, so calls through any import alias are seen;
# linprog is rebound only where weighted_approx holds it.
TARGETS = [
    ("weighted_approx.fit", "homapprox.weighted_approx:_joint_lp",
     _one("weighted_approx.fits")),
    ("weighted_approx.fit", "homapprox.weighted_approx:_weighted_lp",
     _one("weighted_approx.fits")),
    ("weighted_approx.linprog", "homapprox.weighted_approx:linprog", _lp_counts),
    ("weighted_approx.basis", "homapprox.weighted_approx:_grid", None),
    ("weighted_approx.basis", "homapprox.weighted_approx:_basis_matrix", None),
    ("weighted_approx.monomial",
     "homapprox.weighted_approx:WeightedApproximant.monomial_coeffs", None),
    ("weighted_approx.monomial",
     "homapprox.weighted_approx:_homog_from_monomial", None),
    ("weighted_approx.eval",
     "homapprox.weighted_approx:WeightedApproximant.eval_points", None),
    ("pipeline.theorem2", "homapprox.pipeline:approximate_theorem2", None),
    ("pipeline.theorem1", "homapprox.pipeline:approximate_theorem1", None),
    ("pipeline.weierstrass", "homapprox.pipeline:_weierstrass_fit",
     _one("pipeline.weierstrass_fits")),
    ("pipeline.report", "homapprox.pipeline:_pair_report", None),
    ("unity.unity", "homapprox.unity:approximate_unity", None),
    ("unity.patch_fit", "homapprox.unity:_patch_coeffs",
     _one("unity.patch_fits")),
    ("unity.lift", "homapprox.unity:_lift_cheb", None),
    ("polys.multiply", "homapprox.polys:HomogeneousPoly.multiply",
     _multiply_counts),
    ("polys.eval", "homapprox.polys:HomogeneousPoly.__call__", None),
    ("geometry.gauge", "homapprox.geometry:ConvexBody.gauge", _gauge_counts),
    ("geometry.weight", "homapprox.geometry:ConvexBody.weight", None),
    ("partition.patches", "homapprox.partition:sphere_patches", None),
    ("partition.sum", "homapprox.partition:partition_sum_and_overlap", None),
    ("potential.support", "homapprox.potential:mrs_support", None),
    ("potential.density", "homapprox.potential:density", None),
    ("potential.check", "homapprox.potential:equilibrium_check", None),
    ("potential.check", "homapprox.potential:check_weight", None),
    ("expr.parse", "homapprox.expr:parse_expr", None),
    ("expr.eval", "homapprox.expr:Node.__call__", None),
    ("cli.run", "homapprox.cli:run", None),
    ("cli.write", "homapprox.cli:_atomic_write", _write_counts),
]

# time metric -> span name; each also gets a "<layer>.<what>_self_s" twin
TIME_SPANS = {
    "weighted_approx.fit_s": "weighted_approx.fit",
    "weighted_approx.linprog_s": "weighted_approx.linprog",
    "weighted_approx.basis_s": "weighted_approx.basis",
    "weighted_approx.monomial_s": "weighted_approx.monomial",
    "weighted_approx.eval_s": "weighted_approx.eval",
    "pipeline.theorem2_s": "pipeline.theorem2",
    "pipeline.theorem1_s": "pipeline.theorem1",
    "pipeline.weierstrass_s": "pipeline.weierstrass",
    "pipeline.report_s": "pipeline.report",
    "unity.unity_s": "unity.unity",
    "unity.patch_fit_s": "unity.patch_fit",
    "unity.lift_s": "unity.lift",
    "polys.multiply_s": "polys.multiply",
    "polys.eval_s": "polys.eval",
    "geometry.gauge_s": "geometry.gauge",
    "geometry.weight_s": "geometry.weight",
    "partition.patches_s": "partition.patches",
    "partition.sum_s": "partition.sum",
    "potential.support_s": "potential.support",
    "potential.density_s": "potential.density",
    "potential.check_s": "potential.check",
    "expr.parse_s": "expr.parse",
    "expr.eval_s": "expr.eval",
    "cli.run_s": "cli.run",
    "cli.write_s": "cli.write",
}
# count metric -> spans that must be wrapped for it; a counter key of the
# same name is summed per pass (or maximized, for names ending in _max)
COUNTS = {
    "weighted_approx.lp_solves": ("weighted_approx.linprog",),
    "weighted_approx.lp_rows_max": ("weighted_approx.linprog",),
    "weighted_approx.lp_solves_per_fit": ("weighted_approx.linprog",
                                          "weighted_approx.fit"),
    "pipeline.weierstrass_fits": ("pipeline.weierstrass",),
    "pipeline.unity_calls": ("pipeline.theorem1", "unity.unity"),
    "unity.patch_fits": ("unity.patch_fit",),
    "polys.multiply_terms": ("polys.multiply",),
    "geometry.gauge_points": ("geometry.gauge",),
    "cli.bytes_written": ("cli.write",),
}
# every per-layer metric -> (unit, spans it needs), in report order
PER_LAYER = {}
for _m, _span in TIME_SPANS.items():
    PER_LAYER[_m] = ("s", (_span,))
    PER_LAYER[_m[:-2] + "_self_s"] = ("s", (_span,))
for _m, _spans in COUNTS.items():
    PER_LAYER[_m] = ("1" if _m.endswith("_per_fit") else "count", _spans)
PER_LAYER["trace.overhead_s"] = ("s", ())


_INHERITED = object()


def self_time(start, end, children):
    """Duration of [start, end] minus the part covered by child intervals."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


class Tracer:
    """In-memory spans; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []         # [name, start, end, parent, case, counts]
        self.cases = []         # case id -> (pass index, case name)
        self.case = None
        self._stack = []
        self._undo = []
        self.targets = TARGETS
        self.missing = []       # "module:attribute" targets not found

    def begin_case(self, pass_index, name):
        self.cases.append((pass_index, name))
        self.case = len(self.cases) - 1

    def record(self, name, counter, post=None):
        """Decorator factory: wrap fn so that each call records a span.

        ``counter(args, kwargs, result)`` returns counts for the span;
        ``post(result)`` may wrap parts of the result in turn.
        """
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                span = [name, self.clock(), None, parent, self.case, None]
                idx = len(self.spans)
                self.spans.append(span)
                self._stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    span[2] = self.clock()
                if counter is not None:
                    span[5] = counter(args, kwargs, result)
                if post is not None:
                    post(result)
                return result
            return traced
        return wrap

    def install(self, targets=TARGETS):
        """Wrap every target that exists; unknown ones go to self.missing."""
        self.targets = targets
        wrapped = {}
        for name, spec, counter in targets:
            modname, attr = spec.split(":")
            try:
                module = importlib.import_module(modname)
                owner, leaf = module, attr
                if "." in attr:
                    cls, leaf = attr.split(".")
                    owner = getattr(module, cls)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(spec)
                continue
            post = self._trace_weight_fn if name == "geometry.weight" else None
            new = self.record(name, counter, post)(orig)
            self._set(owner, leaf, new)
            if owner is module and attr != "linprog":
                wrapped[id(orig)] = (orig, new)
        # rebind import aliases of the wrapped functions in the package
        for modname, module in list(sys.modules.items()):
            if modname != "homapprox" and not modname.startswith("homapprox."):
                continue
            for key, val in list(vars(module).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(module, key, hit[1])

    def _trace_weight_fn(self, weight):
        """Body weights are evaluated through weight.w_fn: time that too."""
        weight.w_fn = self.record("geometry.weight", None)(weight.w_fn)

    def _set(self, owner, key, value):
        # an attribute inherited by a class is shadowed, then deleted again
        self._undo.append((owner, key, vars(owner).get(key, _INHERITED)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, key)
            else:
                setattr(owner, key, value)

    def missing_metrics(self):
        """Per-layer metrics that need a span none of whose targets exists."""
        found = {n for n, spec, _ in self.targets if spec not in self.missing}
        return {m for m, (_, need) in PER_LAYER.items()
                if any(n not in found for n in need)}

    def per_pass(self):
        """{pass index: {metric: value}} from the recorded spans."""
        children = {}
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children.setdefault(s[3], []).append((s[1], s[2]))
        passes = {}
        for i, (name, start, end, parent, case, counts) in enumerate(self.spans):
            if case is None:
                continue
            p = self.cases[case][0]
            acc = passes.setdefault(p, {})
            # total time counts only the outermost span of each name, so a
            # layer re-entered through itself is not counted twice
            anc, outer, under_t1 = parent, True, False
            while anc is not None:
                aname = self.spans[anc][0]
                outer &= aname != name
                under_t1 |= aname == "pipeline.theorem1"
                anc = self.spans[anc][3]
            if outer:
                acc[name + ":total"] = acc.get(name + ":total", 0.0) + end - start
            acc[name + ":self"] = acc.get(name + ":self", 0.0) + self_time(
                start, end, children.get(i, ()))
            if name == "unity.unity" and under_t1:
                acc["pipeline.unity_calls"] = acc.get("pipeline.unity_calls", 0) + 1
            for key, val in (counts or {}).items():
                if key.endswith("_max"):
                    acc[key] = max(acc.get(key, 0), val)
                else:
                    acc[key] = acc.get(key, 0) + val
        out = {}
        for p, acc in passes.items():
            m = {}
            for metric, span in TIME_SPANS.items():
                m[metric] = acc.get(span + ":total", 0.0)
                m[metric[:-2] + "_self_s"] = acc.get(span + ":self", 0.0)
            for metric in COUNTS:
                m[metric] = acc.get(metric, 0)
            fits = acc.get("weighted_approx.fits", 0)
            m["weighted_approx.lp_solves_per_fit"] = (
                acc.get("weighted_approx.lp_solves", 0) / fits if fits else 0.0)
            out[p] = m
        return out

    def metrics(self, passes):
        """Median over the given traced passes of each per-layer metric."""
        table = self.per_pass()
        rows = [table.get(p, {}) for p in passes]
        missing = self.missing_metrics()
        out = {}
        for metric in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            if metric in missing:
                out[metric] = None
            else:
                out[metric] = statistics.median(r.get(metric, 0) for r in rows)
        return out

    def dump(self, path):
        """Write the spans as JSON: one [name, start, end, parent, case, counts]
        row per span; parent indexes the spans, case indexes the
        [pass, case name] rows of "cases"."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "case",
                                  "counts"],
                       "cases": self.cases, "missing": self.missing,
                       "spans": self.spans}, fh)
