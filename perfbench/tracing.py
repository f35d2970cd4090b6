"""Spans at the boundaries of bchrom's layers, for the traced run.

``Tracer.install`` wraps the public functions of each layer module and
patches every ``bchrom`` module that bound the function's name, so calls
between modules are caught as well as calls from the harness.  A span
records its function, start, end, parent span, request id and the type of
any exception that escaped it.  Spans are kept in memory and written out
when the run ends.

A function that calls itself by name keeps the original in its own module:
a wrapper there would double its stack depth, and its inner calls belong to
the same layer metric as the outer one.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "fileio", "graph", "tree_dp", "dominance", "bcoloring", "matching")

# Called in inner loops, or cheaper than a span: their time counts to the
# caller's span.
UNWRAPPED = {
    "graph.norm_edge", "matching.matched_with", "tree_dp.root_tree",
    "tree_dp.combine_all", "tree_dp.combine_one_distinguished",
}
# Counted, without a span.
COUNT_ONLY = {"tree_dp.minplus_convolve": "tree_dp.minplus_calls"}

# Self time of these functions forms the named metric; the rest of a layer
# goes to ``<layer>.other_s``, shown in the table but not a metric.
GROUPS = {
    "graph.classify_s": ("is_tree", "is_forest", "is_connected", "connected_components",
                         "is_triangle_free", "stability_at_most_two"),
    "graph.complement_s": ("complement",),
    "graph.decompose_s": ("decompose_tree_cograph", "induced_subgraph"),
    "graph.evaluate_s": ("evaluate_tc",),
    "tree_dp.smm_s": ("smm_tables", "reconstruct_smm", "min_smm_tree", "min_smm_forest"),
    "tree_dp.deficiency_s": ("deficiency_tables", "deficiency_vector", "f_tree_k",
                             "deficiency_matching"),
    "tree_dp.witness_s": ("reconstruct_deficiency_matching",),
    "dominance.tree_s": ("find_pivot", "b_chromatic_tree", "dominance_vector_tree"),
    "dominance.bcolor_s": ("b_coloring_tree",),
    "dominance.compose_s": ("dominance_union", "dominance_join", "dominance_tc",
                            "b_chromatic_tc", "chromatic_tc", "dominance_vector_cotree"),
    "bcoloring.stability2_s": ("b_chromatic_stability2", "coloring_to_matching",
                               "matching_to_coloring"),
    "bcoloring.chain_s": ("continuity_chain",),
    "bcoloring.verify_s": ("verify_coloring", "validate_coloring"),
}
WHOLE_LAYER = {"cli": "cli.self_s", "fileio": "fileio.parse_s", "matching": "matching.augment_s"}

# (metric, unit, better); the order of the per-layer table.
METRICS = [
    ("cli.self_s", "s", "lower"),
    ("fileio.parse_s", "s", "lower"),
    ("fileio.bytes", "B", "lower"),
    ("graph.classify_s", "s", "lower"),
    ("graph.complement_s", "s", "lower"),
    ("graph.complement_calls", "count", "lower"),
    ("graph.complement_cells", "count", "lower"),
    ("graph.decompose_s", "s", "lower"),
    ("graph.induced_subgraph_calls", "count", "lower"),
    ("graph.evaluate_s", "s", "lower"),
    ("tree_dp.smm_s", "s", "lower"),
    ("tree_dp.deficiency_s", "s", "lower"),
    ("tree_dp.tables_built", "count", "lower"),
    ("tree_dp.table_cells", "count", "lower"),
    ("tree_dp.minplus_calls", "count", "lower"),
    ("tree_dp.witness_s", "s", "lower"),
    ("dominance.tree_s", "s", "lower"),
    ("dominance.bcolor_s", "s", "lower"),
    ("dominance.bcolor_ok_ratio", "ratio", "higher"),
    ("dominance.compose_s", "s", "lower"),
    ("bcoloring.stability2_s", "s", "lower"),
    ("bcoloring.chain_s", "s", "lower"),
    ("bcoloring.verify_s", "s", "lower"),
    ("matching.augment_s", "s", "lower"),
    ("matching.augment_calls", "count", "lower"),
] + [(f"{layer}.errors", "count", "lower") for layer in LAYERS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _cells(tables) -> int:
    return sum(len(vec) for vecs in tables.values.values() for vec in vecs)


# Counters taken at a boundary from its arguments and result.
COUNTERS = {
    "graph.complement": lambda a, r: {"graph.complement_calls": 1,
                                      "graph.complement_cells": a[0].n ** 2},
    "graph.induced_subgraph": lambda a, r: {"graph.induced_subgraph_calls": 1},
    "fileio.read_edgelist": lambda a, r: {"fileio.bytes": os.path.getsize(a[0])},
    "fileio.read_tc_expression": lambda a, r: {"fileio.bytes": os.path.getsize(a[0])},
    "tree_dp.deficiency_tables": lambda a, r: {"tree_dp.tables_built": 1,
                                               "tree_dp.table_cells": _cells(r)},
    "dominance.b_coloring_tree": lambda a, r: {"bcolor_ok": 1},
    "matching.min_length_augmenting_path": lambda a, r: {"matching.augment_calls": 1},
}


def metric_of(qual: str) -> str:
    layer, name = qual.split(".", 1)
    if layer in WHOLE_LAYER:
        return WHOLE_LAYER[layer]
    for metric, names in GROUPS.items():
        if metric.startswith(layer + ".") and name in names:
            return metric
    return layer + ".other_s"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [function, start, end, parent, request, error]
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[int, collections.Counter] = collections.defaultdict(collections.Counter)
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bchrom" or name.startswith("bchrom.")]
        for layer in LAYERS:
            home = importlib.import_module(f"bchrom.{layer}")
            for name, fn in list(vars(home).items()):
                qual = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != home.__name__ or qual in UNWRAPPED):
                    continue
                wrapper = self._counted(qual, fn) if qual in COUNT_ONLY else self._spanned(qual, fn)
                recursive = fn.__name__ in fn.__code__.co_names
                for mod in modules:
                    if recursive and mod is home:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _spanned(self, qual: str, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if counter:
                self.counts[self.request].update(counter(args, result))
            return result

        return traced

    def _counted(self, qual: str, fn):
        name = COUNT_ONLY[qual]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[self.request][name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------

    def summary(self, requests: int, overhead_ratio: float) -> tuple[dict, dict, dict]:
        """(metrics, self seconds per group, escaped errors by layer and
        type) over ``requests`` traced requests."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        groups: collections.Counter = collections.Counter()
        errors: collections.Counter = collections.Counter()
        bcolor_attempts = 0
        for i, rec in enumerate(self.spans):
            qual = rec[0]
            layer = qual.split(".", 1)[0]
            groups[metric_of(qual)] += rec[2] - rec[1] - covered[i]
            if qual == "dominance.b_coloring_tree":
                bcolor_attempts += 1
            parent = self.spans[rec[3]][0].split(".", 1)[0] if rec[3] >= 0 else None
            if rec[5] is not None and parent != layer:
                errors[(layer, rec[5])] += 1
        totals: collections.Counter = collections.Counter()
        table_requests = 0
        for counts in self.counts.values():
            totals.update(counts)
            table_requests += counts["tree_dp.tables_built"] > 0
        per = max(requests, 1)
        metrics = {}
        for name, unit, _ in METRICS:
            if name.endswith(".errors"):
                value = sum(c for (layer, _), c in errors.items() if layer == name[:-7])
            elif name == "tree_dp.tables_built":
                value = totals[name] / table_requests if table_requests else 0.0
            elif name == "dominance.bcolor_ok_ratio":
                value = totals["bcolor_ok"] / bcolor_attempts if bcolor_attempts else 0.0
            elif name == "trace.overhead_ratio":
                value = overhead_ratio
            elif unit == "s":
                value = groups[name] / per
            else:
                value = totals[name] / per
            metrics[name] = {"value": value, "unit": unit}
        table = {g: s / per for g, s in sorted(groups.items())}
        return metrics, table, {f"{layer}:{kind}": c for (layer, kind), c in sorted(errors.items())}

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
