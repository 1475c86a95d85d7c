"""Span and counter tracing installed from outside the program.

``Tracer.install`` replaces public functions and methods of ``rect4`` with
recording wrappers.  A function is replaced in every loaded module that binds
it (``rect4`` and the benchmark's ``workloads``), because several modules import functions by name (``cli``
imports ``analyze``, ``hyperplane`` imports ``vartest``, ...) and wrapping
only the defining module would miss those calls.  Nothing under ``src/`` is
edited; the wrappers exist only in the traced process.

Each span wrapper records (name, start, end, parent) in flat arrays kept in
memory until the run ends.  Field-level primitives, which run millions of
times, get counting wrappers only.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, object, span name): functions and methods that record spans
SPANS = (
    ("rect4.plane_coordinates", "vartest", "plane_coordinates.vartest"),
    ("rect4.plane_coordinates", "TameStep.apply", "plane_coordinates.TameStep.apply"),
    ("rect4.plane_coordinates", "complement", "hyperplane.complement"),
    ("rect4.verifier", "verify_plane_pair", "verifier.verify_plane_pair"),
    ("rect4.verifier", "verify_coordinate_system", "verifier.verify_coordinate_system"),
    ("rect4.polynomials.groebner", "groebner_basis", "groebner.groebner_basis"),
    ("rect4.polynomials.groebner", "normal_form", "groebner.normal_form"),
    ("rect4.polynomials.groebner", "s_polynomial", "groebner.s_polynomial"),
    ("rect4.polynomials.multipoly", "MultiPoly.substitute", "multipoly.substitute"),
    ("rect4.polynomials.multipoly", "MultiPoly.__mul__", "multipoly.mul"),
    ("rect4.polynomials.factor", "univariate_factor", "factor.univariate_factor"),
    ("rect4.polynomials.bivariate", "bivariate_irreducible", "bivariate.bivariate_irreducible"),
    ("rect4.fields", "extend", "fields.extend"),
    ("rect4.fields", "composite_extension", "fields.extend"),
    ("rect4.hyperplane", "domain_check", "hyperplane.domain_check"),
    ("rect4.hyperplane", "root_data", "hyperplane.root_data"),
    ("rect4.hyperplane", "coordinate_results", "hyperplane.coordinate_results"),
    ("rect4.hyperplane", "ufd_check", "hyperplane.ufd_check"),
    ("rect4.hyperplane", "fibration_check", "hyperplane.fibration_check"),
    ("rect4.hyperplane", "regularity_check", "hyperplane.regularity_check"),
    ("rect4.filtration", "FiltrationContext.build", "filtration.FiltrationContext.build"),
    ("rect4.filtration", "w_degree", "filtration.w_degree"),
    ("rect4.filtration", "gr_relation_residual", "filtration.gr_relation_residual"),
    ("rect4.exprparse", "parse_polynomial", "exprparse.parse"),
    ("rect4.exprparse", "parse_field_spec", "exprparse.parse"),
    ("rect4.cli", "analysis_to_json", "cli.render"),
    ("rect4.cli", "_print_report", "cli.render"),
    ("rect4.cli", "main", "cli.main"),
)

# (module, object, counter name): count calls only
COUNTS = (
    ("rect4.polynomials.multipoly", "MultiPoly.__init__", "multipoly.new"),
    ("rect4.fields", "FieldElement.__init__", "fields.element_new"),
)

# raw arithmetic of each field class, counted per class
RAW_OPS = ("raw_add", "raw_neg", "raw_sub", "raw_mul", "raw_inv", "raw_div")
RAW_CLASSES = (
    ("RationalField", "fields.raw_ops.Q"),
    ("PrimeField", "fields.raw_ops.Fp"),
    ("RationalFunctionField", "fields.raw_ops.Fp_s"),
    ("ExtensionField", "fields.raw_ops.ext"),
)

# modules whose by-name imports are rebound: the program's, and the
# benchmark's own operations module, which calls rect4 functions by name
BINDING_PACKAGES = ("rect4", "workloads")

ROOT = "op"  # the benchmark's span around one whole operation


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_outer = bytearray()  # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._depth = []
        self.counts = defaultdict(int)
        self.stats = defaultdict(int)  # outcome counters observed on results

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def spanned(self, name, fn, observe=None):
        nid = self._id(name)
        stack, depth = self._stack, self._depth
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_outer = self.span_parent, self.span_outer
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_outer.append(depth[nid] == 0)
            span_end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
            if observe is not None:
                observe(self, idx, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function and method of the loaded rect4."""
        for module, obj, name in SPANS:
            self._patch(module, obj, self.spanned(name, _lookup(module, obj), OBSERVERS.get(name)))
        for module, obj, name in COUNTS:
            self._patch(module, obj, self.counted(name, _lookup(module, obj)))
        fields = sys.modules["rect4.fields"]
        for cls_name, name in RAW_CLASSES:
            cls = getattr(fields, cls_name)
            for op in RAW_OPS:
                setattr(cls, op, self.counted(name, getattr(cls, op)))

    @staticmethod
    def _patch(module, obj, wrapper):
        original = wrapper.__wrapped__
        if "." in obj:
            cls_name, attr = obj.split(".")
            cls = getattr(sys.modules[module], cls_name)
            if isinstance(cls.__dict__[attr], classmethod):
                wrapper = classmethod(wrapper)
            setattr(cls, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] in BINDING_PACKAGES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls, busy_s (outermost spans) and self_s."""
        n = len(self.names)
        calls, busy, self_time = [0] * n, [0.0] * n, [0.0] * n
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, outer = self.span_parent, self.span_outer
        for i in range(len(starts)):
            nid = names[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            if outer[i]:
                busy[nid] += dur
            self_time[nid] += dur
            p = parents[i]
            if p >= 0:
                self_time[names[p]] -= dur
        return {
            name: {"calls": calls[i], "busy_s": busy[i], "self_s": self_time[i]}
            for i, name in enumerate(self.names)
        }

    def parent_name(self, idx):
        p = self.span_parent[idx]
        return None if p < 0 else self.names[self.span_name[p]]


def _lookup(module, obj):
    target = sys.modules[module]
    for part in obj.split("."):
        target = getattr(target, part) if not isinstance(target, type) else target.__dict__[part]
    if isinstance(target, classmethod):
        target = target.__func__
    return target


# -- outcome observers: ratios measured where the work happens ---------------


def _observe_normal_form(tracer, idx, result):
    if tracer.parent_name(idx) == "groebner.groebner_basis":
        tracer.stats["groebner.nf_in_basis"] += 1
        tracer.stats["groebner.nf_zero_in_basis"] += result.is_zero()


def _observe_groebner_basis(tracer, idx, result):
    tracer.stats["groebner.bases"] += 1
    tracer.stats["groebner.basis_elements"] += len(result)


def _observe_vartest(tracer, idx, result):
    if result.accepted:
        tracer.stats["plane_coordinates.accepted"] += 1
        tracer.stats["plane_coordinates.steps"] += len(result.certificate.steps)


def _observe_factor(tracer, idx, result):
    tracer.stats["factor.results"] += 1
    tracer.stats["factor.incomplete"] += not result.complete


def _observe_bivariate(tracer, idx, result):
    tracer.stats["bivariate.results"] += 1
    tracer.stats["bivariate.unknown"] += result.is_unknown


OBSERVERS = {
    "groebner.normal_form": _observe_normal_form,
    "groebner.groebner_basis": _observe_groebner_basis,
    "plane_coordinates.vartest": _observe_vartest,
    "factor.univariate_factor": _observe_factor,
    "bivariate.bivariate_irreducible": _observe_bivariate,
}


def _share(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The named per-layer metrics, as {name: (value, unit)}."""
    spans = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def span(name, field):
        return spans.get(name, empty)[field]

    st = tracer.stats
    out = {}
    for name in (
        "plane_coordinates.vartest",
        "groebner.groebner_basis",
    ):
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.busy_s"] = (span(name, "busy_s"), "s")
        out[f"{name}.self_s"] = (span(name, "self_s"), "s")
    for name in (
        "plane_coordinates.TameStep.apply",
        "verifier.verify_plane_pair",
        "groebner.normal_form",
        "multipoly.substitute",
        "multipoly.mul",
        "factor.univariate_factor",
        "bivariate.bivariate_irreducible",
        "filtration.w_degree",
    ):
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.busy_s"] = (span(name, "busy_s"), "s")
    for name in (
        "verifier.verify_coordinate_system",
        "fields.extend",
        "hyperplane.domain_check",
        "hyperplane.root_data",
        "hyperplane.coordinate_results",
        "hyperplane.ufd_check",
        "hyperplane.fibration_check",
        "hyperplane.regularity_check",
        "hyperplane.complement",
        "filtration.FiltrationContext.build",
        "filtration.gr_relation_residual",
        "exprparse.parse",
        "cli.render",
    ):
        out[f"{name}.busy_s"] = (span(name, "busy_s"), "s")
    out["cli.main.self_s"] = (span("cli.main", "self_s"), "s")
    out["groebner.s_polynomial.calls"] = (span("groebner.s_polynomial", "calls"), "count")
    out["plane_coordinates.certificate_steps"] = (
        _share(st["plane_coordinates.steps"], st["plane_coordinates.accepted"]),
        "count",
    )
    out["groebner.basis_size"] = (
        _share(st["groebner.basis_elements"], st["groebner.bases"]),
        "count",
    )
    out["groebner.zero_reduction_share"] = (
        _share(st["groebner.nf_zero_in_basis"], st["groebner.nf_in_basis"]),
        "ratio",
    )
    out["factor.incomplete_share"] = (
        _share(st["factor.incomplete"], st["factor.results"]),
        "ratio",
    )
    out["bivariate.unknown_share"] = (
        _share(st["bivariate.unknown"], st["bivariate.results"]),
        "ratio",
    )
    out["multipoly.new.calls"] = (tracer.counts["multipoly.new"], "count")
    out["fields.element_new.calls"] = (tracer.counts["fields.element_new"], "count")
    for _, name in RAW_CLASSES:
        out[name] = (tracer.counts[name], "count")
    return out
