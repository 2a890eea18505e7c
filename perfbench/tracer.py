"""Spans around the calls one module of ``abelian_codes`` makes into another.

The program itself is not changed: ``install`` wraps the functions listed
in ``TARGETS`` after import.  Each module imports its helpers with
``from .x import y``, so a function is replaced under every module that
holds it, not only where it is defined.  Spans and counters are kept in
memory and turned into per-layer metrics by ``layer_metrics``.

A span is ``[name, parent, start, end]``; ``parent`` is the index of the
enclosing span or -1.  The process is single-threaded, so a stack gives
the parent link.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name).  The span name is "<layer>.<function>".
TARGETS = [
    ("finite_field", "field_make", "finite_field.field_make"),
    ("finite_field", "splitting_field", "finite_field.splitting_field"),
    ("finite_field", "element_of_order", "finite_field.element_of_order"),
    ("abelian_group", "group_make", "abelian_group.group_make"),
    ("abelian_group", "cyclic_subgroups", "abelian_group.cyclic_subgroups"),
    ("abelian_group", "cocyclic_subgroups", "abelian_group.cocyclic_subgroups"),
    ("abelian_group", "annihilator", "abelian_group.annihilator"),
    ("abelian_group", "quotient_type", "abelian_group.quotient_type"),
    ("abelian_group", "all_subgroups", "abelian_group.all_subgroups"),
    ("abelian_group", "_index_p_cover_within", "abelian_group._index_p_cover_within"),
    ("abelian_group", "subgroup_orbits", "abelian_group.subgroup_orbits"),
    ("abelian_group", "aut_generators", "abelian_group.aut_generators"),
    ("abelian_group", "automorphisms", "abelian_group.automorphisms"),
    ("group_algebra", "primitive_idempotents", "group_algebra.primitive_idempotents"),
    ("group_algebra", "cocyclic_idempotent_family",
     "group_algebra.cocyclic_idempotent_family"),
    ("group_algebra", "cocyclic_idempotent", "group_algebra.cocyclic_idempotent"),
    ("group_algebra", "hat", "group_algebra.hat"),
    ("group_algebra", "phi_subgroup", "group_algebra.phi_subgroup"),
    ("group_algebra", "row_reduce_raw", "group_algebra.row_reduce_raw"),
    ("codes", "classify", "codes.classify"),
    ("codes", "tau_sweep", "codes.tau_sweep"),
    ("codes", "minimal_code", "codes.minimal_code"),
    ("codes", "weight_distribution", "codes.weight_distribution"),
    ("codes", "min_weight_or_bound", "codes.min_weight_or_bound"),
]

MUL = "group_algebra.AlgebraElement.__mul__"
GENERATED = "abelian_group.Subgroup.generated"
CLI = "cli.run"

# Per-layer time metrics: (metric, span names, how).  "total" sums the
# spans of the set that have no ancestor in the set; "self" sums their
# durations minus the durations of their direct children.
TIME_METRICS = [
    ("finite_field.field_make_s", {"finite_field.field_make"}, "total"),
    ("finite_field.splitting_field_s",
     {"finite_field.splitting_field", "finite_field.element_of_order"}, "total"),
    ("abelian_group.subgroups_s",
     {"abelian_group.cyclic_subgroups", "abelian_group.cocyclic_subgroups",
      "abelian_group.annihilator", "abelian_group.quotient_type",
      "abelian_group.all_subgroups"}, "total"),
    ("abelian_group.covers_s", {"abelian_group._index_p_cover_within"}, "total"),
    ("abelian_group.orbits_s",
     {"abelian_group.subgroup_orbits", "abelian_group.aut_generators",
      "abelian_group.automorphisms"}, "total"),
    ("group_algebra.phi_subgroup_s", {"group_algebra.phi_subgroup"}, "total"),
    ("group_algebra.idempotents_self_s",
     {"group_algebra.primitive_idempotents"}, "self"),
    ("group_algebra.family_self_s",
     {"group_algebra.cocyclic_idempotent_family",
      "group_algebra.cocyclic_idempotent", "group_algebra.hat"}, "self"),
    ("group_algebra.row_reduce_s", {"group_algebra.row_reduce_raw"}, "total"),
    ("codes.weights_s", {"codes.weight_distribution"}, "total"),
    ("codes.basis_self_s", {"codes.minimal_code"}, "self"),
    ("codes.bound_s", {"codes.min_weight_or_bound.fallback"}, "total"),
    ("cli.self_s", {CLI}, "self"),
]

COUNT_METRICS = [
    "abelian_group.subgroups_generated",
    "group_algebra.convolutions",
    "group_algebra.conv_terms",
    "codes.weight_enumerations",
    "codes.codewords_enumerated",
    "codes.bound_fallbacks",
    "codes.minimal_codes",
]

# Derived from the counters; codes.minimal_codes is the base of the ratio.
RATIO_METRICS = ["codes.enumerations_per_code"]


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call.  ``name`` may be a function
        of the call's arguments; ``after(tracer, result, *args, **kwargs)``
        runs once the span is closed, to update counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(self, result, *args, **kwargs)
            return result

        return traced


def _after_mul(tracer, result, a, b):
    tracer.count("group_algebra.convolutions")
    tracer.count("group_algebra.conv_terms", len(a.support) * len(b.support))


def _after_generated(tracer, result, *args):
    tracer.count("abelian_group.subgroups_generated")


def _after_minimal_code(tracer, result, *args):
    tracer.count("codes.minimal_codes")


def _after_weights(tracer, result, code, *args, **kwargs):
    tracer.count("codes.weight_enumerations")
    tracer.count("codes.codewords_enumerated",
                 code.algebra.ctx.order ** code.dimension)


def _over_cap(code, cap=None):
    from abelian_codes.codes import DEFAULT_DIMENSION_CAP

    return code.dimension > (DEFAULT_DIMENSION_CAP if cap is None else cap)


def _bound_name(code, *args, **kwargs):
    if _over_cap(code, *args, **kwargs):
        return "codes.min_weight_or_bound.fallback"
    return "codes.min_weight_or_bound"


def _after_bound(tracer, result, code, *args, **kwargs):
    if _over_cap(code, *args, **kwargs):
        tracer.count("codes.bound_fallbacks")


AFTER = {
    "codes.minimal_code": _after_minimal_code,
    "codes.weight_distribution": _after_weights,
    "codes.min_weight_or_bound": _after_bound,
}


def install(tracer):
    """Wrap every target in the imported ``abelian_codes`` package."""
    import abelian_codes.cli  # noqa: F401  (loads every module)
    from abelian_codes.abelian_group import Subgroup
    from abelian_codes.group_algebra import AlgebraElement

    modules = [m for n, m in sys.modules.items()
               if n == "abelian_codes" or n.startswith("abelian_codes.")]
    for module, attr, span in TARGETS:
        original = getattr(sys.modules["abelian_codes." + module], attr)
        name = _bound_name if span == "codes.min_weight_or_bound" else span
        wrapped = tracer.wrap(name, original, AFTER.get(span))
        replaced = 0
        for m in modules:
            if vars(m).get(attr) is original:
                setattr(m, attr, wrapped)
                replaced += 1
        if not replaced:
            raise RuntimeError("trace target %s.%s not found" % (module, attr))
    AlgebraElement.__mul__ = tracer.wrap(MUL, AlgebraElement.__mul__, _after_mul)
    generated = Subgroup.__dict__["generated"].__func__
    Subgroup.generated = classmethod(
        tracer.wrap(GENERATED, generated, _after_generated))


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def _outermost(spans, names):
    """Indices of spans named in ``names`` with no ancestor named in it."""
    inside = [False] * len(spans)  # some ancestor-or-self is in names
    out = []
    for i, s in enumerate(spans):  # parents precede their children
        parent_inside = s[1] >= 0 and inside[s[1]]
        inside[i] = parent_inside or s[0] in names
        if s[0] in names and not parent_inside:
            out.append(i)
    return out


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced job (times in s, counts exact)."""
    own = self_times(spans)
    out = {}
    for metric, names, how in TIME_METRICS:
        if how == "total":
            out[metric] = sum(spans[i][3] - spans[i][2]
                              for i in _outermost(spans, names))
        else:
            out[metric] = sum(t for s, t in zip(spans, own) if s[0] in names)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    return out


def add_metrics(total, job):
    """Sum per-job metrics into a pass total and derive the ratios."""
    for k, v in job.items():
        if k not in RATIO_METRICS:
            total[k] = total.get(k, 0) + v
    codes = total.get("codes.minimal_codes", 0)
    total["codes.enumerations_per_code"] = (
        total.get("codes.weight_enumerations", 0) / codes if codes else 0.0)
    return total
