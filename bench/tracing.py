"""Outside-in tracing of the cubenergy layers, installed by the benchmark.

``Tracer.install`` replaces every public function of the seven modules at
every binding the package holds (``decide_le`` is bound in ``intervals``,
``legendre`` and ``verify``; ``packed_subset_energy`` in ``energy``,
``verify`` and ``extension``), and patches ``CountsMap.__init__`` and
``workprec.__enter__``.  Each call becomes a span (name, start, end,
parent) kept in flat arrays; ``uninstall`` puts the originals back.  A
module's self time is the length of its spans minus the part their child
spans cover, so code that is not wrapped (private helpers, the ``lhs``/
``rhs`` closures of the grid checks, the optimizer's ``ratio_of``) counts
toward the module of the nearest wrapped caller.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

MODULES = ("lattice", "energy", "verify", "intervals", "legendre",
           "extension", "cli")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("lattice.self_s", "s", "lower"),
    ("lattice.convolve_calls", "count", "lower"),
    ("lattice.convolve_s", "s", "lower"),
    ("lattice.convolve_out_entries", "count", "lower"),
    ("lattice.convolve_fill", "ratio", "higher"),
    ("lattice.countsmap_builds", "count", "lower"),
    ("lattice.countsmap_build_s", "s", "lower"),
    ("energy.self_s", "s", "lower"),
    ("energy.energy_calls", "count", "lower"),
    ("energy.energy_s", "s", "lower"),
    ("energy.packed_subset_energy_calls", "count", "lower"),
    ("energy.packed_subset_energy_s", "s", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.subsets_checked", "count", "higher"),
    ("verify.subsets_per_s", "1/s", "higher"),
    ("verify.energy_threshold_calls", "count", "lower"),
    ("verify.energy_threshold_s", "s", "lower"),
    ("verify.levels_searched", "count", "higher"),
    ("verify.witness_search_s", "s", "lower"),
    ("intervals.self_s", "s", "lower"),
    ("intervals.decide_le_calls", "count", "lower"),
    ("intervals.decide_le_s", "s", "lower"),
    ("intervals.floor_power_log2_calls", "count", "lower"),
    ("intervals.floor_power_log2_s", "s", "lower"),
    ("intervals.prec_levels", "count", "lower"),
    ("intervals.prec_bits_max", "bits", "lower"),
    ("intervals.prec_bits_total", "bits", "lower"),
    ("intervals.decisions_per_level", "ratio", "higher"),
    ("legendre.self_s", "s", "lower"),
    ("legendre.grid_points", "count", "higher"),
    ("legendre.grid_check_s", "s", "lower"),
    ("legendre.grid_points_per_s", "1/s", "higher"),
    ("legendre.grid_undecided", "count", "lower"),
    ("legendre.sign_pattern_calls", "count", "lower"),
    ("legendre.sign_pattern_s", "s", "lower"),
    ("legendre.compare_alpha_calls", "count", "lower"),
    ("legendre.psi_shape_s", "s", "lower"),
    ("extension.self_s", "s", "lower"),
    ("extension.optimize_de_s", "s", "lower"),
    ("extension.optimizer_sweeps", "count", "higher"),
    ("extension.sweeps_per_s", "1/s", "higher"),
    ("extension.restricted_enumeration_s", "s", "lower"),
    ("extension.de_ratio_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.dumps_canonical_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

GRID_LEAVES = ("check_legendre_inequality", "check_key_inequality",
               "check_two_point_inequality", "check_goal_inequality",
               "check_cfil_instance", "check_convex_concave")

HOOK = "trace.hook"


# result hooks: read counts off a call's result, outside its span


def _convolve_hook(result, args, stats):
    stats["convolve_out_entries"] += len(result.entries)
    if result.entries:
        cells = 1
        for axis in zip(*result.entries):
            cells *= max(axis) - min(axis) + 1
        stats["convolve_cells"] += cells


def _sweep_hook(result, args, stats):
    stats["subsets_checked"] += result.subsets_checked


def _witness_hook(result, args, stats):
    stats["levels_searched"] += len(result.levels)


def _grid_hook(result, args, stats):
    stats["grid_points"] += result.points
    stats["grid_undecided"] += len(result.undecided)


def _optimizer_hook(result, args, stats):
    stats["optimizer_sweeps"] += result.iterations


def _workprec_hook(result, args, stats):
    bits = args[0].prec
    stats["prec_levels"] += 1
    stats["prec_bits_total"] += bits
    if bits > stats["prec_bits_max"]:
        stats["prec_bits_max"] = bits


HOOKS: Dict[str, Callable] = {
    "lattice.convolve": _convolve_hook,
    "verify.sweep_cube": _sweep_hook,
    "verify.witness_search_general_cube": _witness_hook,
    "extension.optimize_de": _optimizer_hook,
    "intervals.workprec": _workprec_hook,
}
HOOKS.update(("legendre." + leaf, _grid_hook) for leaf in GRID_LEAVES)

STAT_KEYS = ("convolve_out_entries", "convolve_cells", "subsets_checked",
             "levels_searched", "grid_points", "grid_undecided",
             "optimizer_sweeps", "prec_levels", "prec_bits_total",
             "prec_bits_max")


class Tracer:
    """Span recorder for the cubenergy package in this process."""

    def __init__(self):
        self.names: List[str] = []          # name id -> "module.function"
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.pass_bounds: List[Tuple[int, int]] = []
        self.stats: Dict[str, float] = dict.fromkeys(STAT_KEYS, 0)
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object, object]] = []
        self._hook_id = self._name_id(HOOK)
        self._build()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        hook_id = self._hook_id
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, stats = self._stack, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                # the hook is a span of its own, so no module pays for it
                hid = len(names)
                names.append(hook_id)
                parents.append(stack[-1])
                starts.append(clock())
                ends.append(0.0)
                hook(result, args, stats)
                ends[hid] = clock()
            return result
        return wrapper

    def _build(self):
        """Make one wrapper per public function, plus the two methods."""
        self._wrappers: Dict[int, Tuple[object, object]] = {}
        for short in MODULES:
            mod = importlib.import_module("cubenergy." + short)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self._wrappers[id(obj)] = (obj, self._wrap(obj, short + "." + attr))
        lattice = importlib.import_module("cubenergy.lattice")
        intervals = importlib.import_module("cubenergy.intervals")
        self._methods = [
            (lattice.CountsMap, "__init__",
             self._wrap(lattice.CountsMap.__init__, "lattice.CountsMap")),
            (intervals.workprec, "__enter__",
             self._wrap(intervals.workprec.__enter__, "intervals.workprec")),
        ]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, mod in list(sys.modules.items()):
            if modname != "cubenergy" and not modname.startswith("cubenergy."):
                continue
            for attr, obj in list(vars(mod).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._patches.append((mod, attr, obj, pair[1]))
        for owner, attr, wrapper in self._methods:
            self._patches.append((owner, attr, owner.__dict__[attr], wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def begin_pass(self):
        self._pass_start = len(self.span_name)

    def end_pass(self):
        self.pass_bounds.append((self._pass_start, len(self.span_name)))

    # -- derived figures --------------------------------------------------

    def _aggregate(self):
        """Per-name call counts and inclusive times, per-module self times."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        module_of = [name.split(".", 1)[0] for name in self.names]
        label = list(self.names)
        calls: Dict[str, int] = {}
        total: Dict[str, float] = {}
        self_time: Dict[str, float] = {}
        for i in range(n):
            nid = names[i]
            dur = ends[i] - starts[i]
            key = label[nid]
            calls[key] = calls.get(key, 0) + 1
            total[key] = total.get(key, 0.0) + dur
            mod = module_of[nid]
            self_time[mod] = self_time.get(mod, 0.0) + dur - child[i]
        return calls, total, self_time

    def per_layer(self, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
        """Every PER_LAYER figure, per traced pass."""
        passes = max(len(self.pass_bounds), 1)
        calls, total, self_time = self._aggregate()
        st = self.stats

        def c(name):
            return calls.get(name, 0) / passes

        def t(name):
            return total.get(name, 0.0) / passes

        def ratio(a, b):
            return a / b if b else 0.0

        grid_s = sum(t("legendre." + leaf) for leaf in GRID_LEAVES)
        out = {
            "lattice.convolve_calls": c("lattice.convolve"),
            "lattice.convolve_s": t("lattice.convolve"),
            "lattice.convolve_out_entries": st["convolve_out_entries"] / passes,
            "lattice.convolve_fill": ratio(st["convolve_out_entries"],
                                           st["convolve_cells"]),
            "lattice.countsmap_builds": c("lattice.CountsMap"),
            "lattice.countsmap_build_s": t("lattice.CountsMap"),
            "energy.energy_calls": c("energy.energy"),
            "energy.energy_s": t("energy.energy"),
            "energy.packed_subset_energy_calls": c("energy.packed_subset_energy"),
            "energy.packed_subset_energy_s": t("energy.packed_subset_energy"),
            "verify.subsets_checked": st["subsets_checked"] / passes,
            "verify.subsets_per_s": ratio(st["subsets_checked"] / passes,
                                          t("verify.sweep_cube")),
            "verify.energy_threshold_calls": c("verify.energy_threshold"),
            "verify.energy_threshold_s": t("verify.energy_threshold"),
            "verify.levels_searched": st["levels_searched"] / passes,
            "verify.witness_search_s": t("verify.witness_search_general_cube"),
            "intervals.decide_le_calls": c("intervals.decide_le"),
            "intervals.decide_le_s": t("intervals.decide_le"),
            "intervals.floor_power_log2_calls": c("intervals.floor_power_log2"),
            "intervals.floor_power_log2_s": t("intervals.floor_power_log2"),
            "intervals.prec_levels": st["prec_levels"] / passes,
            "intervals.prec_bits_max": st["prec_bits_max"],
            "intervals.prec_bits_total": st["prec_bits_total"] / passes,
            "intervals.decisions_per_level": ratio(calls.get("intervals.decide_le", 0),
                                                   st["prec_levels"]),
            "legendre.grid_points": st["grid_points"] / passes,
            "legendre.grid_check_s": grid_s,
            "legendre.grid_points_per_s": ratio(st["grid_points"] / passes, grid_s),
            "legendre.grid_undecided": st["grid_undecided"] / passes,
            "legendre.sign_pattern_calls": c("legendre.certify_sign_pattern"),
            "legendre.sign_pattern_s": t("legendre.certify_sign_pattern"),
            "legendre.compare_alpha_calls": c("legendre.compare_alpha"),
            "legendre.psi_shape_s": t("legendre.certify_psi_shape"),
            "extension.optimize_de_s": t("extension.optimize_de"),
            "extension.optimizer_sweeps": st["optimizer_sweeps"] / passes,
            "extension.sweeps_per_s": ratio(st["optimizer_sweeps"] / passes,
                                            t("extension.optimize_de")),
            "extension.restricted_enumeration_s": t("extension.restricted_enumeration"),
            "extension.de_ratio_calls": c("extension.de_ratio"),
            "cli.dumps_canonical_s": t("cli.dumps_canonical"),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans": (len(self.span_name) - calls.get(HOOK, 0)) / passes,
        }
        for mod in MODULES:
            out[mod + ".self_s"] = self_time.get(mod, 0.0) / passes
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path: str):
        """Write the spans of the last traced pass as tab-separated rows:
        id, parent id, name, start and end in seconds from the pass start."""
        lo, hi = self.pass_bounds[-1]
        t0 = self.span_start[lo] if hi > lo else 0.0
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            fh.writelines(
                "%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    i - lo, parents[i] - lo if parents[i] >= lo else -1,
                    self.names[names[i]], starts[i] - t0, ends[i] - t0)
                for i in range(lo, hi))
