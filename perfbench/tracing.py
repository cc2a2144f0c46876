"""Spans and exact counts at opttree's layer boundaries, recorded from outside.

The tracer swaps wrappers into the module attributes that callers look up at
call time (``opttree.cli.solve``, ``opttree.solver.splits_generic``, ...), so
no file of the library changes. Each wrapped call becomes a span (name,
start, end, parent, instance) kept in flat arrays; self time is a span's
duration minus the time its child spans cover. Counts come from the
arguments and results seen at the same boundaries.

A boundary whose attribute no longer exists is reported as absent and its
metrics read 0, so a refactor that moves a boundary does not stop the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import math
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT_SPAN = "cli.main"
OBSERVE_SPAN = "trace.observe"


class Tracer:
    """Span store plus the counters its observers fill; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current = -1
        self.counts: Counter = Counter()
        self.per_instance: dict[str, set] = {}
        self.absent: list[str] = []
        self.solve_depth = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.instance.append(self.current)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_id(name)
        oid = self.name_id(OBSERVE_SPAN)

        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                j = self.open(oid)
                try:
                    observe(self, args, kwargs, result)
                except Exception as exc:  # a changed result format must not stop the run
                    note = f"{name} (unreadable: {type(exc).__name__})"
                    if note not in self.absent:
                        self.absent.append(note)
                finally:
                    self.close(j)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_instance(self, index: int) -> int:
        self.current = index
        self.per_instance = {}
        return self.open(self.name_id(ROOT_SPAN))

    def end_instance(self, span: int) -> None:
        self.close(span)
        for key, seen in self.per_instance.items():
            self.counts[key] += len(seen)
        self.per_instance = {}

    def distinct(self, key: str, item) -> None:
        self.per_instance.setdefault(key, set()).add(item)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        if not self.name:
            return {}
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        per_name = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.instance, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---- observers: exact counts from arguments and results ---------------------

def _obs_enumerate(t, args, kwargs, rules):
    t.counts["rules_K"] += len(rules)
    diagnostics = kwargs.get("diagnostics") or {}
    t.counts["duplicates"] += diagnostics.get("duplicate", 0)
    t.counts["degenerate"] += diagnostics.get("degenerate", 0)


def _obs_ancestry(t, args, kwargs, matrix):
    rows = getattr(matrix, "entries", matrix)
    t.counts["ancestry_calls"] += 1
    t.counts["ancestry_entries"] += sum(len(r) for r in rows)
    t.counts["ancestry_nonzero"] += sum(len(r) - list(r).count(0) for r in rows)


def _obs_splits_generic(t, args, kwargs, triples):
    t.counts["internal_nodes"] += 1
    t.counts["feasible_calls"] += bool(triples)
    t.distinct("index_sets", tuple(args[0]))


def _obs_splits_bsp(t, args, kwargs, triples):
    t.counts["splits_bsp"] += 1


def _obs_split_segments(t, args, kwargs, sides):
    t.counts["split_segments"] += 1
    t.counts["fragments_out"] += len(sides[0]) + len(sides[1])


def _obs_splits_mcmp(t, args, kwargs, triples):
    t.counts["splits_mcmp"] += 1
    items = args[0]
    # Sub-chains are slices of one chain of distinct MatrixDim objects, so the
    # first object and the length identify a contiguous sub-chain exactly.
    t.distinct("subchains", (id(items[0]), len(items)))


def _obs_splits_kd(t, args, kwargs, triples):
    t.counts["splits_kd"] += 1


def _obs_permutations(t, args, kwargs, pairs):
    rules, k = args[0], args[1]
    t.counts["permutations_tried"] += math.comb(len(rules), k) * math.factorial(k)
    t.counts["valid_permutations"] += len(pairs)


def _obs_downward(t, args, kwargs, tree):
    t.counts["downward_calls"] += 1


def _obs_leaf(t, args, kwargs, cost):
    t.counts["leaf_cost_calls"] += 1


# (module, attribute, span name, observer). The solver, generator and cli
# look these names up in their own module namespace at call time.
BOUNDARIES = [
    ("opttree.cli", "load_csv", "data.load", None),
    ("opttree.cli", "load_scene", "data.load", None),
    ("opttree.cli", "enumerate_axis_rules", "rule_systems.enumerate", _obs_enumerate),
    ("opttree.cli", "enumerate_hyperplane_rules", "rule_systems.enumerate", _obs_enumerate),
    ("opttree.cli", "enumerate_surface2_rules", "rule_systems.enumerate", _obs_enumerate),
    ("opttree.cli", "solve", "solver.solve", None),
    ("opttree.cli", "min_by", "solver.min_by", None),
    ("opttree.cli", "tree_cost", "solver.tree_cost", None),
    ("opttree.cli", "solve_bsp", "solver.bsp", None),
    ("opttree.cli", "solve_mcmp", "solver.mcmp", None),
    ("opttree.cli", "solve_kd", "solver.kd", None),
    ("opttree.cli", "ancestry_matrix", "rules.ancestry_matrix", _obs_ancestry),
    ("opttree.solver", "ancestry_matrix", "rules.ancestry_matrix", _obs_ancestry),
    ("opttree.solver", "splits_generic", "rule_systems.splits", _obs_splits_generic),
    ("opttree.solver", "splits_bsp", "rule_systems.splits", _obs_splits_bsp),
    ("opttree.rule_systems", "split_segments", "rule_systems.splits", _obs_split_segments),
    ("opttree.solver", "splits_mcmp", "rule_systems.splits", _obs_splits_mcmp),
    ("opttree.solver", "splits_kd", "rule_systems.splits", _obs_splits_kd),
    # enumerate_permutation_trees binds ancestry_matrix as a default argument,
    # so its matrices are not seen above; the function is timed whole.
    ("opttree.cli", "enumerate_permutation_trees", "generator.permutation_trees", _obs_permutations),
    ("opttree.cli", "all_tree_shapes", "generator.tree_shapes", None),
    ("opttree.cli", "shape_to_tree", "generator.shape_to_tree", None),
    ("opttree.cli", "downward_accumulate", "trees.downward_accumulate", _obs_downward),
    ("opttree.cli", "serialize", "treefmt.serialize", None),
]

# Objectives the CLI reads from its own namespace; their leaf cost is wrapped.
OBJECTIVE_ATTRS = ("MISCLASSIFICATION", "OBJECTIVES")


def _accepts_diagnostics(fn) -> bool:
    try:
        return "diagnostics" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _with_diagnostics(wrapped):
    """Hand the traced enumerator a diagnostics dict, so its observer can count drops."""

    def call(*args, **kwargs):
        kwargs.setdefault("diagnostics", {})
        return wrapped(*args, **kwargs)

    return call


def _in_solve(tracer: Tracer, fn):
    """fn, marking the tracer as inside ``solve`` while it runs."""

    def call(*args, **kwargs):
        tracer.solve_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.solve_depth -= 1

    return call


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrappers in place inside the block; the original attributes restored after it."""
    saved: list[tuple[object, str, object]] = []

    def swap(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    copies: dict[int, object] = {}

    def traced(objective):
        """A copy whose leaf cost is a span only inside ``solve``.

        Outside it, the CLI scores finished trees (``tree_cost``, and the
        oracle's ``min_by``); that leaf cost stays in the caller's span.
        """
        if id(objective) not in copies:
            plain = objective.leaf_cost
            spanned = tracer.wrap("solver.leaf_cost", plain, _obs_leaf)

            def leaf(*args, **kwargs):
                return (spanned if tracer.solve_depth else plain)(*args, **kwargs)

            copies[id(objective)] = dataclasses.replace(objective, leaf_cost=leaf)
        return copies[id(objective)]

    try:
        for modname, attr, span, observe in BOUNDARIES:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.absent.append(f"{modname}.{attr}")
                continue
            wrapped = tracer.wrap(span, _in_solve(tracer, fn) if span == "solver.solve" else fn, observe)
            if span == "rule_systems.enumerate" and _accepts_diagnostics(fn):
                wrapped = _with_diagnostics(wrapped)
            swap(module, attr, wrapped)
        cli = importlib.import_module("opttree.cli")
        for attr in OBJECTIVE_ATTRS:
            value = getattr(cli, attr, None)
            try:
                if isinstance(value, dict):
                    swap(cli, attr, {k: traced(v) for k, v in value.items()})
                else:
                    swap(cli, attr, traced(value))
            except (TypeError, AttributeError):
                tracer.absent.append(f"opttree.cli.{attr}.leaf_cost")
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def counts_and_times(t: Tracer, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their names in BENCHMARK.json."""
    st = t.self_times()
    c = t.counts

    def s(*names):
        return sum(st.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "solver.solve_s": s("solver.solve"),
        "solver.internal_nodes": c["internal_nodes"],
        "solver.distinct_index_sets": c["index_sets"],
        "solver.reuse_ratio": ratio(c["internal_nodes"], c["index_sets"]),
        "solver.feasible_root_frac": ratio(c["feasible_calls"], c["internal_nodes"]),
        "solver.leaf_cost_calls": c["leaf_cost_calls"],
        "solver.leaf_cost_s": s("solver.leaf_cost"),
        "solver.min_by_s": s("solver.min_by"),
        "solver.tree_cost_s": s("solver.tree_cost"),
        "solver.bsp_s": s("solver.bsp"),
        "solver.mcmp_s": s("solver.mcmp"),
        "solver.kd_s": s("solver.kd"),
        "rules.ancestry_s": s("rules.ancestry_matrix"),
        "rules.ancestry_calls": c["ancestry_calls"],
        "rules.ancestry_entries": c["ancestry_entries"],
        "rules.ancestry_nonzero_frac": ratio(c["ancestry_nonzero"], c["ancestry_entries"]),
        "rule_systems.enumerate_s": s("rule_systems.enumerate"),
        "rule_systems.rules_K": c["rules_K"],
        "rule_systems.duplicates_dropped": c["duplicates"],
        "rule_systems.degenerate_dropped": c["degenerate"],
        "rule_systems.splits_s": s("rule_systems.splits"),
        "rule_systems.splits_bsp_calls": c["splits_bsp"],
        "rule_systems.split_segments_calls": c["split_segments"],
        "rule_systems.fragments_out": c["fragments_out"],
        "rule_systems.splits_mcmp_calls": c["splits_mcmp"],
        "rule_systems.distinct_subchains": c["subchains"],
        "rule_systems.splits_kd_calls": c["splits_kd"],
        "generator.permutation_trees_s": s("generator.permutation_trees"),
        "generator.permutations_tried": c["permutations_tried"],
        "generator.valid_permutations": c["valid_permutations"],
        "generator.valid_frac": ratio(c["valid_permutations"], c["permutations_tried"]),
        "generator.tree_shapes_s": s("generator.tree_shapes"),
        "generator.shape_to_tree_s": s("generator.shape_to_tree"),
        "trees.downward_accumulate_s": s("trees.downward_accumulate"),
        "trees.downward_accumulate_calls": c["downward_calls"],
        "data.load_s": s("data.load"),
        "treefmt.serialize_s": s("treefmt.serialize"),
        "cli.self_s": s(ROOT_SPAN),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(t.name),
        "trace.absent_boundaries": len(t.absent),
    }
