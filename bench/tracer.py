"""Per-module spans and counters for the traced benchmark run.

The tracer wraps public functions of the package from outside: nothing in
``src/`` changes.  Two details make the wrapping see every call:

* ``policypaths/__init__`` re-exports functions under their module names
  (``policypaths.attack`` is the *function* ``attack`` as an attribute of
  the package), so modules are taken from ``sys.modules``;
* modules copy names with ``from .mdp import occupancy``, so a wrapper is
  bound in every ``policypaths`` module namespace that holds the original.

A span records (name, start, end, parent span, instance).  Spans stay in
memory until the run ends.  Hot leaf functions (``check_policy`` and the
landscape field evaluation) get call counters only.
"""

import collections
import contextlib
import functools
import gzip
import inspect
import json
import sys
import time

SPANNED = {
    "mdp": ("stationary_distribution", "occupancy", "check_ergodicity"),
    "tabular": ("verify_equiconnectedness", "interpolate_policies"),
    "network": ("forward",),
    "numerics": ("pinv", "dykstra", "extragradient_saddle", "lp_solve", "nnls",
                 "project_polyhedron"),
    "netpaths": ("weight_fullrank_repair", "rank_restore_first_layer",
                 "first_layer_swap", "preimage_chain_path",
                 "fullrank_tall_path", "assemble_nn_path", "h_map"),
    "attack": ("attack", "region_from_anchor", "maxmin_value", "minmax_value",
               "minimax_gap", "det_occupancies"),
    "landscape": ("census", "find_stationary_points", "superlevel_components",
                  "field_grid", "heatmap_csv"),
    "cli": ("main",),
}
COUNTED = {"mdp": ("check_policy",)}

# Error classes of policypaths.errors, plus the benchmark's own outcomes.
ERROR_TYPES = (
    "AnchorInvalid", "BoundViolated", "CapExceeded", "CrossCheckMismatch",
    "Infeasible", "IterationCap", "LpFailure", "NonConvergence",
    "NonPositiveEntry", "NonPositivePolicy", "OutOfDomain", "OutputDrift",
    "PathStalled", "PolicyFloorViolated", "PolicyPathsError", "RankDeficient",
    "RepairUnavailable", "RestorationStalled", "ShapeMismatch", "SwapFailed",
    "Unbounded", "ZeroStateMass", "Timeout", "GateViolation", "Other")


class Tracer:
    """Spans and counters of one traced pass; see ``tracing`` to install."""

    def __init__(self):
        self.spans = []                     # (name, start, end, parent, instance)
        self.stack = []                     # indices of open spans
        self.calls = collections.Counter()  # name -> calls so far
        self.counts = collections.Counter() # derived counters
        self.kind_calls = collections.defaultdict(collections.Counter)
        self.kind_instances = collections.Counter()
        self.errors = collections.Counter()
        self.instance = -1
        self._kind = None
        self._before = None

    def _open(self, name):
        self.calls[name] += 1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, (self.stack[-2] if len(self.stack) > 1 else -1)

    def _close(self, idx, name, start, parent):
        end = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.instance)

    def begin_instance(self, index, kind):
        # A deadline can interrupt the tracer between its own statements;
        # no span of an earlier instance may stay open into this one.
        self.stack.clear()
        self.instance = index
        self._kind = kind
        self._before = self.calls.copy()
        self.kind_instances[kind] += 1
        idx, parent = self._open("instance")
        self._instance_span = (idx, parent, time.perf_counter())

    def end_instance(self, error=None, counters=None):
        idx, parent, start = self._instance_span
        self._close(idx, "instance", start, parent)
        self.kind_calls[self._kind].update(self.calls - self._before)
        if error is not None:
            self.errors[error if error in ERROR_TYPES else "Other"] += 1
        if counters:
            self.counts.update(counters)

    def span_wrapper(self, name, fn, after=None):
        needs_before = getattr(after, "needs_before", False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls.copy() if needs_before else None
            idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, parent)
            if after is not None:
                after(self, fn, args, kwargs, result, before)
            return result
        return wrapper

    def count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- aggregation -------------------------------------------------------

    def span_totals(self):
        """name -> [calls, total seconds, self seconds] over closed spans."""
        child = collections.defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            row = totals[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return totals

    def write(self, path):
        """Dump every span as gzipped JSON lines, names interned."""
        names = sorted({s[0] for s in self.spans if s is not None})
        ids = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": names,
                                 "fields": ["name", "start", "end", "parent",
                                            "instance"]}) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps([ids[s[0]], s[1], s[2], s[3], s[4]])
                             + "\n")


def _after_stationary(t, fn, args, kwargs, result, before):
    t.counts["mdp.stationary_distribution.iterations"] += result.iterations


def _after_ergodicity(t, fn, args, kwargs, result, before):
    t.counts["mdp.check_ergodicity.policies"] += result.checked_policies


def _after_verify(t, fn, args, kwargs, result, before):
    t.counts["tabular.verify.alphas"] += len(result.alphas)
    t.counts["tabular.verify.occupancy_calls"] += (
        t.calls["mdp.occupancy"] - before["mdp.occupancy"])


_after_verify.needs_before = True


def _after_assemble(t, fn, args, kwargs, result, before):
    t.counts["netpaths.snapshots"] += sum(len(s.points) for s in result.segments)
    t.counts["netpaths.path.forward_calls"] += (
        t.calls["network.forward"] - before["network.forward"])
    t.counts["netpaths.path.occupancy_calls"] += (
        t.calls["mdp.occupancy"] - before["mdp.occupancy"])


_after_assemble.needs_before = True


def _after_region(t, fn, args, kwargs, result, before):
    t.counts["attack.region.generators"] += result.generators.shape[1]


def _after_saddle(t, fn, args, kwargs, result, before):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    t.counts["numerics.extragradient_saddle.iterations"] += result.iterations
    converged = result.gap is not None \
        and result.gap <= bound.arguments["gap_tol"]
    if result.iterations >= bound.arguments["iters"] and not converged:
        t.counts["numerics.extragradient_saddle.capped"] += 1


AFTER = {
    "mdp.stationary_distribution": _after_stationary,
    "mdp.check_ergodicity": _after_ergodicity,
    "tabular.verify_equiconnectedness": _after_verify,
    "netpaths.assemble_nn_path": _after_assemble,
    "attack.region_from_anchor": _after_region,
    "numerics.extragradient_saddle": _after_saddle,
}


def _rebind(original, replacement, patches):
    """Bind ``replacement`` wherever a policypaths module holds ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "policypaths" and not mod_name.startswith("policypaths."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))


@contextlib.contextmanager
def tracing(tracer):
    """Install ``tracer``'s wrappers for the duration of the block."""
    patches = []
    try:
        for short, names in SPANNED.items():
            mod = sys.modules[f"policypaths.{short}"]
            for fn_name in names:
                name = f"{short}.{fn_name}"
                original = getattr(mod, fn_name)
                _rebind(original,
                        tracer.span_wrapper(name, original, AFTER.get(name)),
                        patches)
        for short, names in COUNTED.items():
            mod = sys.modules[f"policypaths.{short}"]
            for fn_name in names:
                original = getattr(mod, fn_name)
                _rebind(original,
                        tracer.count_wrapper(f"{short}.{fn_name}", original),
                        patches)
        field_cls = sys.modules["policypaths.landscape"].ScalarField2D
        original_call = field_cls.__call__
        field_cls.__call__ = tracer.count_wrapper("landscape.field",
                                                  original_call)
        patches.append((field_cls, "__call__", original_call))
        yield tracer
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


# -- per-layer metrics ------------------------------------------------------

PER_INSTANCE_CALLS = (
    "mdp.stationary_distribution", "mdp.occupancy", "mdp.check_policy",
    "tabular.interpolate_policies", "network.forward", "numerics.pinv",
    "netpaths.h_map", "attack.det_occupancies", "numerics.dykstra",
    "numerics.lp_solve", "numerics.nnls", "numerics.project_polyhedron",
    "landscape.field_grid", "landscape.field")
PER_INSTANCE_TIME = (
    "mdp.stationary_distribution", "mdp.occupancy", "mdp.check_ergodicity",
    "tabular.verify_equiconnectedness", "network.forward", "numerics.pinv",
    "netpaths.weight_fullrank_repair", "netpaths.rank_restore_first_layer",
    "netpaths.first_layer_swap", "netpaths.preimage_chain_path",
    "netpaths.fullrank_tall_path", "netpaths.assemble_nn_path",
    "attack.attack", "attack.region_from_anchor", "attack.maxmin_value",
    "attack.minmax_value", "attack.det_occupancies", "numerics.dykstra",
    "numerics.extragradient_saddle", "numerics.lp_solve", "numerics.nnls",
    "numerics.project_polyhedron", "landscape.find_stationary_points",
    "landscape.superlevel_components", "landscape.field_grid",
    "landscape.heatmap_csv", "cli.main")
PER_INSTANCE_SELF = ("tabular.verify_equiconnectedness",
                     "netpaths.assemble_nn_path", "cli.main")
PER_INSTANCE_COUNTS = {
    "mdp.stationary_distribution.iterations": "iter/inst",
    "mdp.check_ergodicity.policies": "policies/inst",
    "numerics.extragradient_saddle.iterations": "iter/inst",
    "numerics.extragradient_saddle.capped": "runs/inst",
    "netpaths.snapshots": "snapshots/inst",
    "cli.report_bytes": "bytes/inst",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Every per-layer metric, normalised per traced instance where the
    name carries no ratio of its own."""
    n = sum(tracer.kind_instances.values())
    totals = tracer.span_totals()
    calls, counts = tracer.calls, tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for name in PER_INSTANCE_CALLS:
        put(f"{name}.calls", _ratio(calls[name], n), "calls/inst")
    for name in PER_INSTANCE_TIME:
        put(f"{name}.time_s", _ratio(totals[name][1], n), "s/inst")
    for name in PER_INSTANCE_SELF:
        put(f"{name}.self_s", _ratio(totals[name][2], n), "s/inst")
    for name, unit in PER_INSTANCE_COUNTS.items():
        put(name, _ratio(counts[name], n), unit)
    put("tabular.useful_eval_ratio",
        _ratio(counts["tabular.verify.alphas"],
               counts["tabular.verify.occupancy_calls"]), "ratio")
    paths = calls["netpaths.assemble_nn_path"]
    put("netpaths.forward_per_snapshot",
        _ratio(counts["netpaths.path.forward_calls"],
               counts["netpaths.snapshots"]), "calls/snapshot")
    put("netpaths.occupancy_per_path",
        _ratio(counts["netpaths.path.occupancy_calls"], paths), "calls/path")
    put("attack.det_occupancies.per_game",
        _ratio(tracer.kind_calls["game"]["attack.det_occupancies"],
               tracer.kind_instances["game"]), "calls/game")
    put("attack.region.generators",
        _ratio(counts["attack.region.generators"],
               calls["attack.region_from_anchor"]), "gens/region")
    for err in ERROR_TYPES:
        put(f"errors.{err}.count", tracer.errors[err], "count")
    return out
