"""Run-time span recorder for the traced benchmark run.

`Tracer.install` wraps the public functions of every package module
(plus the private entry points named in `EXTRA`) from outside the
package.  Calls inside a module resolve through module globals, so each
wrapper is rebound under every name, in every package module and module
level dict, that refers to the original function.  Hot predicates stay
unwrapped.  Each call records one span in memory:
[name, start, end, parent span, operation id, size, extra].
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("pog", "auxgraph", "interval", "friendly", "rounds",
          "completions", "hardness", "cli")

# Private functions that are layer entry points in their own right.
EXTRA = {
    "interval": {"_find_hole"},
    "cli": {"_cmd_complete", "_cmd_recognize", "_cmd_check_ordering",
            "_cmd_extend_rep", "_cmd_reduce_3sat", "_cmd_verify_cert"},
}
# Called per pair or per vertex; a span each would cost more than the work.
HOT = {"aux_adjacent", "require_oriented", "as_assignment"}
# First argument is a Pog whose vertex count sizes the call, for the
# growth-exponent fits.
SIZED = {"auxgraph.build_aux", "interval.lbfs", "pog.classify",
         "completions.complete_to_strong"}


def _wrappable(mod, attr, obj, layer):
    if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
        return False
    if attr in HOT:
        return False
    return not attr.startswith("_") or attr in EXTRA.get(layer, ())


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.op = -1
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        sized = name in SIZED
        build = name == "auxgraph.build_aux"
        check = name == "rounds.check_ordering"

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   args[0].n if sized else 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            # counters are read after the clock stops
            if build:
                rec[6] = [len(out.verts), sum(map(len, out.adj)) // 2]
            elif check and len(args) > 2 and args[2] == "excellent":
                rec[6] = len(args[0].arcs) ** 2
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        prefix = self.package + "."
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(prefix))]
        swap = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, obj in list(vars(mod).items()):
                if _wrappable(mod, attr, obj, layer):
                    swap[obj] = self._wrap(obj, "%s.%s" % (layer, attr))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in swap:
                    self._undo.append((vars(mod), attr, obj))
                    setattr(mod, attr, swap[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in swap:
                            self._undo.append((obj, key, val))
                            obj[key] = swap[val]

    def uninstall(self):
        for table, key, obj in reversed(self._undo):
            table[key] = obj
        self._undo.clear()

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op",
                                 "size", "extra"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- analysis ----------------------------------------------------------------


def self_times(spans):
    """Per span: duration minus the time its direct children cover.  One
    thread, so children never overlap each other."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            own[s[3]] -= d
    return dur, own


def fit_exponent(points):
    """Least-squares slope of log(median time) on log(size) over the
    distinct sizes; 0.0 when fewer than two sizes were seen."""
    by = {}
    for size, t in points:
        if size > 0 and t > 0:
            by.setdefault(size, []).append(t)
    sizes = sorted(by)
    if len(sizes) < 2:
        return 0.0, {}
    xs = [math.log(n) for n in sizes]
    ys = [math.log(statistics.median(by[n])) for n in sizes]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, {n: statistics.median(by[n]) for n in sizes}


# metric name -> wrapped function names whose self time it sums
SELF_METRICS = {
    "auxgraph.build_aux_s": ["auxgraph.build_aux"],
    "auxgraph.two_colour_s": ["auxgraph.two_colour"],
    "auxgraph.closure_s": ["auxgraph.consentaneous_closure"],
    "interval.lbfs_s": ["interval.lbfs"],
    "interval.check_peo_s": ["interval.check_peo"],
    "interval.lex_two_colouring_s": ["interval.lex_two_colouring"],
    "interval.obstruction_s": ["interval.find_proper_interval_obstruction",
                               "interval._find_hole"],
    "interval.representation_s": [
        "interval.representation_from_orientation",
        "interval.orientation_from_representation",
        "interval.validate_representation",
        "interval.extend_interval_representation",
        "interval.parse_representation", "interval.render_representation"],
    "friendly.is_friendly_s": ["friendly.is_friendly"],
    "friendly.bad_triples_s": ["friendly.bad_triples"],
    "friendly.forbidden_cycle_s": ["friendly.forbidden_cycle"],
    "friendly.complete_cells_s": ["friendly.complete_cells"],
    "friendly.complement_components_s": ["friendly.complement_components"],
    "rounds.find_round_ordering_s": ["rounds.find_round_ordering"],
    "rounds.check_ordering_s": ["rounds.check_ordering"],
    "completions.complete_to_strong_s": ["completions.complete_to_strong"],
    "completions.two_sat_s": ["completions.two_sat"],
    "completions.find_cycle_factor_s": ["completions.find_cycle_factor"],
    "completions.complete_to_transitive_tournament_s": [
        "completions.complete_to_transitive_tournament"],
    "completions.complete_to_in_tournament_s": [
        "completions.complete_to_in_tournament"],
    "hardness.build_reduction_s": ["hardness.build_reduction"],
    "hardness.assignment_to_ordering_s": ["hardness.assignment_to_ordering"],
    "hardness.exact_complete_s": ["hardness.exact_complete"],
    "hardness.parse_dimacs_s": ["hardness.parse_dimacs"],
    "pog.parse_s": ["pog.parse_pog", "pog.parse_ordering"],
    "pog.render_s": ["pog.render_pog", "pog.render_ordering"],
    "pog.classify_s": ["pog.classify"],
    "pog.find_directed_cycle_s": ["pog.find_directed_cycle"],
    "pog.verify_certificate_s": ["pog.verify_certificate"],
    "cli.run_s": ["cli.run"],
    "cli.complete_s": ["cli._cmd_complete"],
    "cli.recognize_s": ["cli._cmd_recognize"],
    "cli.extend_rep_s": ["cli._cmd_extend_rep"],
    "cli.reduce_3sat_s": ["cli._cmd_reduce_3sat"],
    "cli.check_ordering_s": ["cli._cmd_check_ordering"],
    "cli.verify_cert_s": ["cli._cmd_verify_cert"],
}
CALL_METRICS = {
    "auxgraph.build_aux_calls": "auxgraph.build_aux",
    "rounds.find_round_ordering_calls": "rounds.find_round_ordering",
    "hardness.assignments_tried": "hardness.orient_by_assignment",
    "pog.classify_calls": "pog.classify",
    "pog.certificates_checked": "pog.verify_certificate",
}
EXP_METRICS = {
    "auxgraph.build_aux_exp": "auxgraph.build_aux",
    "interval.lbfs_exp": "interval.lbfs",
    "completions.complete_to_strong_exp": "completions.complete_to_strong",
    "pog.classify_exp": "pog.classify",
}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_exp"):
        return "exponent"
    if name.endswith(("_per_op", "_per_ordering", "_ratio", "_yield")):
        return "ratio"
    return "count"


def layer_metrics(spans, op_labels, op_scale):
    """Per-layer numbers over the traced operations, plus a breakdown by
    operation kind for the report.  `op_labels[k]` is the kind of op k
    and `op_scale[k]` converts its raw seconds to nominal seconds."""
    dur, own = self_times(spans)
    scale = [op_scale[s[4]] for s in spans]
    dur = [d * c for d, c in zip(dur, scale)]
    own = [o * c for o, c in zip(own, scale)]
    self_by = {}
    for s, o in zip(spans, own):
        self_by[s[0]] = self_by.get(s[0], 0.0) + o
    calls_by = Counter(s[0] for s in spans)
    m = {}
    for metric, names in SELF_METRICS.items():
        m[metric] = sum(self_by.get(n, 0.0) for n in names)
    for layer in LAYERS:
        m[layer + ".busy_s"] = sum(v for k, v in self_by.items()
                                   if k.startswith(layer + "."))
    for metric, name in CALL_METRICS.items():
        m[metric] = calls_by.get(name, 0)

    # builds that returned; one that raised has no sizes
    builds = [s for s in spans if s[0] == "auxgraph.build_aux" and s[6]]
    building_ops = {s[4] for s in builds}
    m["auxgraph.builds_per_op"] = (len(builds) / len(building_ops)
                                   if building_ops else 0.0)
    m["auxgraph.vertices"] = sum(s[6][0] for s in builds)
    m["auxgraph.edges"] = sum(s[6][1] for s in builds)
    m["auxgraph.pair_tests"] = sum(s[6][0] * (s[6][0] - 1) // 2 for s in builds)
    m["auxgraph.edge_yield"] = (m["auxgraph.edges"] / m["auxgraph.pair_tests"]
                                if m["auxgraph.pair_tests"] else 0.0)
    m["rounds.excellent_arc_pairs"] = sum(
        s[6] for s in spans if s[0] == "rounds.check_ordering")
    tries = calls_by.get("hardness.orient_by_assignment", 0)
    calls = calls_by.get("hardness.assignment_to_ordering", 0)
    m["hardness.assignments_per_ordering"] = tries / calls if calls else 0.0

    # classify calls with an exact_complete span among their ancestors
    inside = [False] * len(spans)
    for k, s in enumerate(spans):
        p = s[3]
        inside[k] = p >= 0 and (inside[p] or spans[p][0] == "hardness.exact_complete")
    m["hardness.exact_leaf_checks"] = sum(
        1 for k, s in enumerate(spans) if inside[k] and s[0] == "pog.classify")

    fits = {}
    for metric, name in EXP_METRICS.items():
        slope, medians = fit_exponent(
            [(s[5], d) for s, d in zip(spans, dur) if s[0] == name])
        m[metric] = slope
        fits[metric] = {"sizes": sorted(medians),
                        "median_s": [medians[n] for n in sorted(medians)]}

    by_kind = {}
    for s, o in zip(spans, own):
        kind = by_kind.setdefault(op_labels[s[4]], {})
        kind[s[0]] = kind.get(s[0], 0.0) + o
    kinds = {}
    ops_of = Counter(op_labels)
    for label, table in sorted(by_kind.items()):
        total = sum(table.values())
        top = sorted(table.items(), key=lambda kv: -kv[1])[:5]
        nbuild = sum(1 for s in builds if op_labels[s[4]] == label)
        kinds[label] = {
            "ops": ops_of[label],
            "traced_s": total,
            "builds_per_op": nbuild / ops_of[label],
            "top_self": [[name, t, t / total if total else 0.0]
                         for name, t in top],
        }
    return m, {"fits": fits, "by_kind": kinds}
