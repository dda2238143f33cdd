"""In-memory span tracing of the library's layers.

A span is (name, start, end, parent).  Library functions are traced by
replacing them, for the length of a traced pass, at the module attribute
where their caller looks them up; the library itself is not edited.  A
layer's self time is its span's duration minus the time its child spans
cover, minus the part of each child's wrapper that runs outside the child's
span (calibrated per run by child_cost).  Without that last term a layer
that makes many cheap traced calls, as classify does with prime_divisors
once per candidate omega, would be charged for the tracing.
"""

import json
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

from torustwist import certify, cli, cyclotomic, obstruction, tristram


def _count_certificate(tracer, result, args):
    """Candidate, survivor and sigma_d usefulness counts of one classify."""
    if result.trivial or result.exceptional:
        return
    tracer.add("obstruction.candidates", result.normalized.q - 2)
    tracer.add("obstruction.survivors", len(result.survivors))
    tracer.add("tristram.sigma_d.evaluated", len(result.sigma_inputs))
    tracer.add("tristram.sigma_d.useful", len(
        {e.reason for e in result.eliminations
         if e.reason.startswith("condition-iv(")}))


def _add_dimension(tracer, result, args):
    tracer.add("seifert.dim_sum", result.dimension)


def _add_resolved(tracer, result, args):
    tracer.add("certify.float_rung.resolved", result is not None)


def _max_bits(tracer, result, args):
    tracer.counters["certify.mp_rung.max_bits"] = max(
        tracer.counters.get("certify.mp_rung.max_bits", 0), args[2])


def _add_applicable(tracer, result, args):
    tracer.add("fourmanifold.kikuchi.applicable", result.applicable)


def _add_bytes(counter):
    def observe(tracer, result, args):
        tracer.add(counter, len(result.encode()))
    return observe


# (module, attribute, span name, observer): each attribute is the one the
# calling code reads at call time
PATCHES = (
    (obstruction, "classify", "obstruction.classify", _count_certificate),
    (cli, "classify", "obstruction.classify", _count_certificate),
    (obstruction, "sigma_d", "tristram.sigma_d", None),
    (tristram, "sigma_d_counting", "tristram.sigma_d_counting", None),
    (obstruction, "prime_divisors", "tristram.prime_divisors", None),
    (obstruction, "certificate_to_json", "obstruction.certificate_to_json",
     _add_bytes("obstruction.certificate_to_json.bytes")),
    (obstruction, "template_sequences", "fourmanifold.template_sequences", None),
    (obstruction, "ledger_from_sequence", "fourmanifold.ledger_from_sequence",
     None),
    (obstruction, "kikuchi_eliminate", "fourmanifold.kikuchi_eliminate",
     _add_applicable),
    (cli, "sigma_closed", "lattice.sigma_closed", None),
    (cli, "render_scan_csv", "cli.render_scan_csv",
     _add_bytes("cli.render_scan_csv.bytes")),
    (tristram, "seifert_matrix", "seifert.seifert_matrix", _add_dimension),
    (tristram, "build_form", "tristram.build_form", None),
    (tristram, "inertia", "tristram.inertia", None),
    (certify, "inertia_via_congruence", "certify.float_rung", _add_resolved),
    (certify, "inertia_mp", "certify.mp_rung", _max_bits),
    (cyclotomic, "hermitian_nullity_exact", "cyclotomic.nullity_exact", None),
)


class Tracer:
    """Spans as parallel arrays, indexed by span number."""

    def __init__(self):
        self.child_cost = 0.0
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counters = {}

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, result, args)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Trace every function in PATCHES until the block exits."""
        saved = []
        try:
            for module, attr, name, observe in PATCHES:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, saved[-1][2], observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self):
        """{name: {"calls", "s", "self_s"}} over all recorded spans."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i] + self.child_cost
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_id):
            agg = out[self.names[nid]]
            agg["calls"] += 1
            agg["s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name_id": list(self.name_id),
                       "start": list(self.start), "end": list(self.end),
                       "parent": list(self.parent),
                       "child_cost": self.child_cost,
                       "counters": self.counters}, fh)


def _noop():
    return None


def child_cost(calls=20000, repeats=5):
    """Median seconds per traced call that its wrapper spends outside the
    call's own span, and so inside the caller's span: the traced call
    minus its span minus the untraced call."""
    probe = Tracer()
    traced = probe.wrap("calibration", _noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            _noop()
        bare = perf_counter() - t0
        mark = len(probe.start)
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        total = perf_counter() - t0
        inside = sum(e - s for s, e in zip(probe.start[mark:], probe.end[mark:]))
        costs.append((total - inside - bare) / calls)
    return max(statistics.median(costs), 0.0)
