"""Span recorder for the traced run.

Spans are recorded around the public functions of each cmforms layer by
patching them from outside the package; nothing under src/ knows about
tracing.  Each span keeps its name, start, end and parent in memory (flat
arrays, one entry per span).  A layer's self time is its spans' durations
minus the part covered by their direct children.  `uninstall` restores
every patched binding.

Modules bind many names with `from .x import y` (groups, hermitian, cli,
calgebra, the package namespace), so a function is patched wherever any
cmforms module holds it, not only in its home module.
"""

import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names = []            # span name by id
        self._ids = {}
        self.name_id = array("H")  # per span
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []           # open span indices
        self._depth = {}           # open spans per name
        self.counts = {}           # counters not tied to a span
        self.decided = {}          # name -> [decided verdicts, calls]
        self._patches = []         # (owner, attr, original)

    # --- recording ---------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def active(self, name):
        return self._depth.get(name, 0) > 0

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, on_result=None):
        """Wrap fn so each call records one span named `name`."""
        sid = self._id(name)
        clock = time.perf_counter
        depth = self._depth
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name] -= 1
                stack.pop()
                self.end[idx] = clock()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name, when, unless=None):
        """Wrap fn so each call made while span `when` is open (and span
        `unless` is not) increments counter `name`; no span is recorded."""
        def counted(*args, **kwargs):
            if self.active(when) and not (unless and self.active(unless)):
                self.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def verdicts(self, name, is_decided):
        self.decided.setdefault(name, [0, 0])

        def record(result):
            tally = self.decided[name]
            tally[0] += 1 if is_decided(result) else 0
            tally[1] += 1
        return record

    # --- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, wrapper):
        """Replace every module-level binding of fn inside cmforms."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cmforms"
                                   or modname.startswith("cmforms.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def patch_method(self, cls, attrs, wrapper):
        for attr in attrs:
            self._set(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------

    def summary(self):
        """name -> {"calls", "total_s", "self_s"} over all recorded spans."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            d = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            d["calls"] += 1
            d["total_s"] += dur
            d["self_s"] += dur - covered[i]
        return out


def install(tracer):
    """Patch the public functions of every layer; returns the tracer."""
    from cmforms import (calgebra, cli, dgroups, field, groups, hermitian,
                         linalg, polyn, residue, serialize)
    catalog_mod = sys.modules["cmforms.catalog"]  # cmforms.catalog is the function
    t = tracer

    def fn(mod, attr, name, on_result=None):
        orig = getattr(mod, attr)
        t.patch_function(orig, t.span(name, orig, on_result))

    def meth(cls, attrs, name):
        orig = cls.__dict__[attrs[0]]
        t.patch_method(cls, attrs, t.span(name, orig))

    for attr in ("isolate_real_roots", "refine_isolator", "interval_eval"):
        fn(polyn, attr, "polyn." + attr)

    meth(field.FieldElement, ("__mul__", "__rmul__"), "field.mul")
    meth(field.FieldElement, ("inverse",), "field.inverse")
    meth(field.TotallyRealField, ("sign_of_coords",), "field.sign_of_coords")
    fn(field, "weak_approx_find", "field.weak_approx_find")

    for attr in ("mat_mul", "det", "char_poly", "inverse"):
        fn(linalg, attr, "linalg." + attr)

    meth(hermitian.HermitianForm, ("__init__",), "hermitian.HermitianForm")
    fn(hermitian, "signature_profile", "hermitian.signature_profile")
    fn(hermitian, "equivalent", "hermitian.equivalent")

    def decided(v):
        return v.status != residue.UNKNOWN

    fn(residue, "is_norm", "residue.is_norm",
       t.verdicts("residue.is_norm", decided))
    fn(residue, "hilbert_symbol", "residue.hilbert_symbol")
    rel = field.FieldElement.__dict__["relative_norm"]
    t.patch_method(field.FieldElement, ("relative_norm",),
                   t.counter(rel, "residue.is_norm.candidates",
                             when="residue.is_norm", unless="field.inverse"))

    def closure_size(elems):
        t.count("groups.closure.elements", len(elems))

    fn(groups, "closure", "groups.closure", closure_size)
    for attr in ("invariant_under", "average_form", "regular_embed"):
        fn(groups, attr, "groups." + attr)

    fn(catalog_mod, "catalog", "catalog.catalog")

    meth(calgebra.CubicExtElement, ("__mul__", "__rmul__"), "calgebra.lmul")
    meth(calgebra.CubicExtElement, ("inverse",), "calgebra.linverse")
    meth(calgebra.CyclicCubicExtension, ("tau_of",), "calgebra.tau_of")
    meth(calgebra.CyclicAlgebra, ("multiply",), "calgebra.multiply")
    meth(calgebra.CyclicAlgebra, ("reduced_norm",), "calgebra.reduced_norm")
    for attr in ("splitting_signature", "unitary_membership",
                 "verify_involution"):
        fn(calgebra, attr, "calgebra." + attr)
    fn(calgebra, "is_division_candidate", "calgebra.is_division_candidate",
       t.verdicts("calgebra.is_division_candidate", decided))
    lrel = calgebra.CubicExtElement.__dict__["relative_norm"]
    t.patch_method(calgebra.CubicExtElement, ("relative_norm",),
                   t.counter(lrel, "calgebra.is_division_candidate.candidates",
                             when="calgebra.is_division_candidate",
                             unless="calgebra.linverse"))

    for attr in ("elements", "irreducible_degrees", "second_type_verdict"):
        fn(dgroups, attr, "dgroups." + attr)

    fn(cli, "main", "cli.main")
    for attr, value in list(vars(serialize).items()):
        if callable(value) and getattr(value, "__module__", None) \
                == serialize.__name__:
            fn(serialize, attr, "serialize")
    return t


# Per-layer metrics reported by the traced run: (metric, source, key,
# field).  "span" reads `field` of span `key` in the summary, "count" the
# counter `key` and "ratio" the decided/calls tally of `key`.
METRICS = [
    ("polyn.isolate_real_roots.self_s", "span", "polyn.isolate_real_roots", "self_s"),
    ("polyn.refine_isolator.calls", "span", "polyn.refine_isolator", "calls"),
    ("polyn.interval_eval.calls", "span", "polyn.interval_eval", "calls"),
    ("polyn.interval_eval.self_s", "span", "polyn.interval_eval", "self_s"),
    ("field.mul.calls", "span", "field.mul", "calls"),
    ("field.mul.self_s", "span", "field.mul", "self_s"),
    ("field.inverse.calls", "span", "field.inverse", "calls"),
    ("field.inverse.self_s", "span", "field.inverse", "self_s"),
    ("field.sign_of_coords.calls", "span", "field.sign_of_coords", "calls"),
    ("field.sign_of_coords.self_s", "span", "field.sign_of_coords", "self_s"),
    ("field.weak_approx_find.calls", "span", "field.weak_approx_find", "calls"),
    ("field.weak_approx_find.self_s", "span", "field.weak_approx_find", "self_s"),
    ("linalg.mat_mul.calls", "span", "linalg.mat_mul", "calls"),
    ("linalg.mat_mul.self_s", "span", "linalg.mat_mul", "self_s"),
    ("linalg.det.calls", "span", "linalg.det", "calls"),
    ("linalg.det.self_s", "span", "linalg.det", "self_s"),
    ("linalg.char_poly.calls", "span", "linalg.char_poly", "calls"),
    ("linalg.char_poly.self_s", "span", "linalg.char_poly", "self_s"),
    ("linalg.inverse.calls", "span", "linalg.inverse", "calls"),
    ("linalg.inverse.self_s", "span", "linalg.inverse", "self_s"),
    ("hermitian.HermitianForm.calls", "span", "hermitian.HermitianForm", "calls"),
    ("hermitian.HermitianForm.self_s", "span", "hermitian.HermitianForm", "self_s"),
    ("hermitian.signature_profile.calls", "span", "hermitian.signature_profile", "calls"),
    ("hermitian.signature_profile.self_s", "span", "hermitian.signature_profile", "self_s"),
    ("hermitian.equivalent.calls", "span", "hermitian.equivalent", "calls"),
    ("hermitian.equivalent.self_s", "span", "hermitian.equivalent", "self_s"),
    ("residue.is_norm.calls", "span", "residue.is_norm", "calls"),
    ("residue.is_norm.self_s", "span", "residue.is_norm", "self_s"),
    ("residue.hilbert_symbol.calls", "span", "residue.hilbert_symbol", "calls"),
    ("residue.is_norm.candidates", "count", "residue.is_norm.candidates", None),
    ("residue.is_norm.decided_ratio", "ratio", "residue.is_norm", None),
    ("groups.closure.calls", "span", "groups.closure", "calls"),
    ("groups.closure.self_s", "span", "groups.closure", "self_s"),
    ("groups.closure.elements", "count", "groups.closure.elements", None),
    ("groups.invariant_under.self_s", "span", "groups.invariant_under", "self_s"),
    ("groups.average_form.self_s", "span", "groups.average_form", "self_s"),
    ("groups.regular_embed.calls", "span", "groups.regular_embed", "calls"),
    ("groups.regular_embed.self_s", "span", "groups.regular_embed", "self_s"),
    ("catalog.catalog.calls", "span", "catalog.catalog", "calls"),
    ("catalog.catalog.self_s", "span", "catalog.catalog", "self_s"),
    ("calgebra.lmul.calls", "span", "calgebra.lmul", "calls"),
    ("calgebra.lmul.self_s", "span", "calgebra.lmul", "self_s"),
    ("calgebra.linverse.calls", "span", "calgebra.linverse", "calls"),
    ("calgebra.tau_of.calls", "span", "calgebra.tau_of", "calls"),
    ("calgebra.tau_of.self_s", "span", "calgebra.tau_of", "self_s"),
    ("calgebra.multiply.calls", "span", "calgebra.multiply", "calls"),
    ("calgebra.multiply.self_s", "span", "calgebra.multiply", "self_s"),
    ("calgebra.reduced_norm.calls", "span", "calgebra.reduced_norm", "calls"),
    ("calgebra.reduced_norm.self_s", "span", "calgebra.reduced_norm", "self_s"),
    ("calgebra.splitting_signature.self_s", "span", "calgebra.splitting_signature", "self_s"),
    ("calgebra.unitary_membership.self_s", "span", "calgebra.unitary_membership", "self_s"),
    ("calgebra.verify_involution.self_s", "span", "calgebra.verify_involution", "self_s"),
    ("calgebra.is_division_candidate.calls", "span", "calgebra.is_division_candidate", "calls"),
    ("calgebra.is_division_candidate.self_s", "span", "calgebra.is_division_candidate", "self_s"),
    ("calgebra.is_division_candidate.candidates", "count", "calgebra.is_division_candidate.candidates", None),
    ("calgebra.is_division_candidate.decided_ratio", "ratio", "calgebra.is_division_candidate", None),
    ("dgroups.elements.self_s", "span", "dgroups.elements", "self_s"),
    ("dgroups.irreducible_degrees.self_s", "span", "dgroups.irreducible_degrees", "self_s"),
    ("dgroups.second_type_verdict.calls", "span", "dgroups.second_type_verdict", "calls"),
    ("dgroups.second_type_verdict.self_s", "span", "dgroups.second_type_verdict", "self_s"),
    ("cli.main.calls", "span", "cli.main", "calls"),
    ("cli.main.self_s", "span", "cli.main", "self_s"),
    ("serialize.self_s", "span", "serialize", "self_s"),
]


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(tracer):
    """Metric name -> value for every entry of METRICS (0 when unused)."""
    spans = tracer.summary()
    out = {}
    for metric, source, key, field in METRICS:
        if source == "span":
            out[metric] = spans.get(key, {}).get(field, 0)
        elif source == "count":
            out[metric] = tracer.counts.get(key, 0)
        else:
            decided, calls = tracer.decided.get(key, (0, 0))
            out[metric] = decided / calls if calls else 0.0
    return out
