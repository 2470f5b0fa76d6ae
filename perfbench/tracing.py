"""Span tracing for the traced benchmark run.

The traced run replaces public functions of ``mublp`` at the module
attribute their callers look them up through (the simplex as the LP solve
loop sees it is ``mublp.lp.solve_equality_form``), records one span per call
and counts work at the same boundaries.  A span is (layer, parent span,
operation id, start, end); spans stay in memory and are written out when the
run ends.  A layer's self time is its spans' duration minus the part covered
by their child spans.

A call site that no longer exists makes its layer absent: the metrics that
need it are left out of the report, never reported as zero.

Only the main thread calls the wrapped functions, so one stack tracks the
open spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array

# layer -> call sites, "module:attribute" or "module:Class.attribute"
LAYERS = {
    "simplex": ("mublp.lp:solve_equality_form",),
    "lp.solve_lp": ("mublp.lp:solve_lp",),
    "lp.constraint_row": ("mublp.lp:LpProblem.constraint_row",),
    "lp.canonical_char": ("mublp.lp:canonical_char",),
    "lp.build_orbits": ("mublp.lp:build_orbits",),
    "lp.extract_dual_witness": ("mublp.lp:extract_dual_witness",),
    "lp.char_orbit": ("mublp.lp:char_orbit",),
    "torus.exact_grid_codes": (
        "mublp.torus:exact_grid_codes",
        "mublp.lp:exact_grid_codes",
    ),
    "torus.grid_to_csv": ("mublp.torus:grid_to_csv",),
    "torus.classify": (
        "mublp.hadamard:classify",
        "mublp.witness:classify",
        "mublp.lp:classify",
    ),
    "hadamard.family_to_points": ("mublp.hadamard:family_to_points",),
    "hadamard.verify_family": (
        "mublp.hadamard:verify_family",
        "mublp.constructions:verify_family",
    ),
    "constructions.build": (
        "mublp.constructions:prime_power_mubs",
        "mublp.constructions:prime_mubs",
    ),
    "witness.check_point_set": ("mublp.witness:check_point_set",),
    "witness.expand_h": ("mublp.witness:expand_h",),
    "witness.delsarte_bound": (
        "mublp.lp:delsarte_bound",
        "mublp.witness:delsarte_bound",
    ),
    "serialize.write_json": ("mublp.cli:write_json",),
    "serialize.load_json": ("mublp.cli:load_json",),
}

# Root spans, one per benchmark operation; their self time is the CLI's own
# code outside every wrapped layer.
OP_PREFIX = "op."


class Absent(LookupError):
    """A metric needs a layer or counter that this program does not have."""


# ---------------------------------------------------------------------------
# counters taken from the arguments and results of wrapped calls


def _simplex(tracer, args, kwargs, result):
    rows, cols = args[0].shape
    tracer.count("simplex.iterations", result.iterations)
    tracer.count("simplex.degenerate_pivots", result.degenerate_pivots)
    # the restricted master has one column per generated row plus 2 per orbit
    tracer.last_rows = cols - 2 * rows


def _solve_lp(tracer, args, kwargs, result):
    tracer.count("lp.rounds", result.rounds)
    tracer.count("lp.rows_generated", tracer.last_rows)
    tracer.last_rows = 0


def _build_orbits(tracer, args, kwargs, result):
    tracer.count("lp.orbits", len(result.orbits))
    tracer.count("lp.orbit_points", result.total_points())


def _extract_dual_witness(tracer, args, kwargs, result):
    sol = args[0] if args else kwargs["sol"]
    tracer.count("lp.dual_support", len(sol.dual))


def _exact_grid_codes(tracer, args, kwargs, result):
    tracer.count("torus.grid_points", int(result.size))


def _family_to_points(tracer, args, kwargs, result):
    n = len(result)
    tracer.count("hadamard.pairs_checked", n * (n - 1) // 2)


def _check_point_set(tracer, args, kwargs, result):
    poly = args[1] if len(args) > 1 else kwargs["t"]
    tracer.count("witness.support_terms", len(poly.terms))


# layer -> (hook, counters it feeds)
HOOKS = {
    "simplex": (_simplex, ("simplex.iterations", "simplex.degenerate_pivots")),
    "lp.solve_lp": (_solve_lp, ("lp.rounds", "lp.rows_generated")),
    "lp.build_orbits": (_build_orbits, ("lp.orbits", "lp.orbit_points")),
    "lp.extract_dual_witness": (_extract_dual_witness, ("lp.dual_support",)),
    "torus.exact_grid_codes": (_exact_grid_codes, ("torus.grid_points",)),
    "hadamard.family_to_points": (_family_to_points, ("hadamard.pairs_checked",)),
    "witness.check_point_set": (_check_point_set, ("witness.support_terms",)),
}

# ---------------------------------------------------------------------------
# per-layer metrics of one pass


def _ratio(num, den):
    return num / den if den else 0.0


class PassView:
    """Layer times, call counts and counters of one traced pass."""

    def __init__(self, total, self_time, calls, counts, absent):
        self._total = total
        self._self = self_time
        self._calls = calls
        self._counts = counts
        self._absent = absent

    def _check(self, name):
        if name in self._absent:
            raise Absent(name)

    def time(self, layer):
        self._check(layer)
        return self._total.get(layer, 0.0)

    def self_time(self, layer):
        self._check(layer)
        return self._self.get(layer, 0.0)

    def calls(self, layer):
        self._check(layer)
        return self._calls.get(layer, 0)

    def count(self, name):
        self._check(name)
        return self._counts.get(name, 0)

    def op_self_time(self):
        return sum(v for k, v in self._self.items() if k.startswith(OP_PREFIX))


# metric name -> value from a PassView; the names and units are those of the
# per_layer list in BENCHMARK.json
LAYER_METRICS = {
    "simplex.s": lambda v: v.time("simplex"),
    "simplex.calls": lambda v: v.calls("simplex"),
    "simplex.iterations": lambda v: v.count("simplex.iterations"),
    "simplex.degenerate_pivots": lambda v: v.count("simplex.degenerate_pivots"),
    "simplex.degenerate_ratio": lambda v: _ratio(
        v.count("simplex.degenerate_pivots"), v.count("simplex.iterations")
    ),
    "simplex.iterations_per_s": lambda v: _ratio(
        v.count("simplex.iterations"), v.time("simplex")
    ),
    "lp.solve_lp.s": lambda v: v.time("lp.solve_lp"),
    "lp.solve_lp.self_s": lambda v: v.self_time("lp.solve_lp"),
    "lp.rounds": lambda v: v.count("lp.rounds"),
    "lp.rows_generated": lambda v: v.count("lp.rows_generated"),
    "lp.constraint_row.calls": lambda v: v.calls("lp.constraint_row"),
    "lp.constraint_row.s": lambda v: v.time("lp.constraint_row"),
    "lp.canonical_char.calls": lambda v: v.calls("lp.canonical_char"),
    "lp.canonical_char.s": lambda v: v.time("lp.canonical_char"),
    "lp.rows_per_candidate": lambda v: _ratio(
        v.count("lp.rows_generated"), v.calls("lp.canonical_char")
    ),
    "torus.exact_grid_codes.s": lambda v: v.time("torus.exact_grid_codes"),
    "torus.exact_grid_codes.calls": lambda v: v.calls("torus.exact_grid_codes"),
    "torus.grid_points": lambda v: v.count("torus.grid_points"),
    "torus.grid_to_csv.self_s": lambda v: v.self_time("torus.grid_to_csv"),
    "torus.csv_bytes": lambda v: v.count("torus.csv_bytes"),
    "lp.build_orbits.s": lambda v: v.time("lp.build_orbits"),
    "lp.build_orbits.self_s": lambda v: v.self_time("lp.build_orbits"),
    "lp.orbits": lambda v: v.count("lp.orbits"),
    "lp.orbit_points": lambda v: v.count("lp.orbit_points"),
    "lp.extract_dual_witness.s": lambda v: v.time("lp.extract_dual_witness"),
    "lp.extract_dual_witness.self_s": lambda v: v.self_time(
        "lp.extract_dual_witness"
    ),
    "lp.char_orbit.calls": lambda v: v.calls("lp.char_orbit"),
    "lp.char_orbit.s": lambda v: v.time("lp.char_orbit"),
    "lp.dual_support": lambda v: v.count("lp.dual_support"),
    "witness.delsarte_bound.s": lambda v: v.time("witness.delsarte_bound"),
    "torus.classify.calls": lambda v: v.calls("torus.classify"),
    "torus.classify.s": lambda v: v.time("torus.classify"),
    "hadamard.family_to_points.s": lambda v: v.time("hadamard.family_to_points"),
    "hadamard.family_to_points.self_s": lambda v: v.self_time(
        "hadamard.family_to_points"
    ),
    "hadamard.pairs_checked": lambda v: v.count("hadamard.pairs_checked"),
    "hadamard.verify_family.s": lambda v: v.time("hadamard.verify_family"),
    "constructions.build.s": lambda v: v.time("constructions.build"),
    "witness.check_point_set.s": lambda v: v.time("witness.check_point_set"),
    "witness.expand_h.s": lambda v: v.time("witness.expand_h"),
    "witness.support_terms": lambda v: v.count("witness.support_terms"),
    "serialize.write_json.s": lambda v: v.time("serialize.write_json"),
    "serialize.load_json.s": lambda v: v.time("serialize.load_json"),
    "cli.json_bytes": lambda v: v.count("cli.json_bytes"),
    "cli.self_s": lambda v: v.op_self_time(),
}


# ---------------------------------------------------------------------------


def _resolve(site):
    """(owner object, attribute name) of a call site, or None if it is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        # one entry per span, in the order the spans opened
        self._layer = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._outer = array("b")    # no enclosing span of the same layer
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._open_layers: dict[int, int] = {}
        self._patched: list = []
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self.last_rows = 0
        self.absent: set[str] = set()
        self._pass_mark = 0
        for layer, sites in LAYERS.items():
            if all(_resolve(site) is None for site in sites):
                self.absent.add(layer)
                self.absent.update(HOOKS.get(layer, (None, ()))[1])

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            hook = HOOKS.get(layer)
            for site in sites:
                found = _resolve(site)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(layer, original, hook))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        return traced

    def _run_hook(self, hook, args, kwargs, result) -> None:
        fn, counters = hook
        if self.absent.isdisjoint(counters):
            try:
                fn(self, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                # the call's signature or result changed shape
                self.absent.update(counters)

    # -- spans and counters ----------------------------------------------

    def open(self, layer: str) -> int:
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        index = len(self._start)
        depth = self._open_layers.get(layer_id, 0)
        self._open_layers[layer_id] = depth + 1
        self._layer.append(layer_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op_id)
        self._outer.append(depth == 0)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()
        self._open_layers[self._layer[index]] -= 1

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_pass(self) -> None:
        self._pass_mark = len(self._start)
        self.counts = {}
        self.last_rows = 0

    def end_pass(self):
        """Per-layer metrics of the pass since ``begin_pass``.

        Returns (metrics, self time per layer).
        """
        lo, hi = self._pass_mark, len(self._start)
        covered: dict[int, float] = {}
        for i in range(lo, hi):
            parent = self._parent[i]
            if parent >= lo:
                covered[parent] = covered.get(parent, 0.0) + (
                    self._end[i] - self._start[i]
                )
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i in range(lo, hi):
            layer = self.layer_names[self._layer[i]]
            duration = self._end[i] - self._start[i]
            calls[layer] = calls.get(layer, 0) + 1
            if self._outer[i]:
                total[layer] = total.get(layer, 0.0) + duration
            self_time[layer] = (
                self_time.get(layer, 0.0) + duration - covered.get(i, 0.0)
            )
        view = PassView(total, self_time, calls, self.counts, self.absent)
        metrics = {}
        for name, formula in LAYER_METRICS.items():
            try:
                metrics[name] = formula(view)
            except Absent:
                pass
        return metrics, self_time

    def write(self, path: str) -> None:
        """Write every recorded span as gzipped JSON columns."""
        payload = {
            "layers": self.layer_names,
            "columns": ["layer", "parent", "op", "start_s", "end_s"],
            "layer": self._layer.tolist(),
            "parent": self._parent.tolist(),
            "op": self._op.tolist(),
            "start_s": self._start.tolist(),
            "end_s": self._end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)
