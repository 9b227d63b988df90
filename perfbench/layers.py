"""Which calls into the program are traced, and the per-layer metrics they give.

The layers are the package's modules: groups, sumsets, critical, catalog,
cache and cli.  verifiers only orchestrates calls that are traced here.
A wrapper replaces every binding of the function in the package's modules,
because several modules bind these names at import.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable

from critnum import cache, critical, groups

from measure import ratio, walk_settle
from tracing import Tracer

# (module, attribute, span name)
FUNCTIONS = (
    *(("critnum.groups", ctor, "groups.build") for ctor in (
        "cyclic", "dihedral", "dicyclic", "semidirect_cyclic", "heisenberg",
        "direct_product", "make_group", "load_cayley",
    )),
    ("critnum.groups", "subgroup_closure", "groups.subgroup_closure"),
    ("critnum.groups", "subgroups_of_index", "groups.subgroups_of_index"),
    ("critnum.catalog", "catalog_group", "catalog.group"),
    ("critnum.sumsets", "exact_reach_mask", "sumsets.exact_reach_mask"),
    ("critnum.sumsets", "sigma", "sumsets.sigma"),
    ("critnum.sumsets", "_dp_covers", "sumsets.dp_covers"),
    ("critnum.sumsets", "_alt_orders", "sumsets.alt_orders"),
    ("critnum.sumsets", "_state_search", "sumsets.state_search"),
    ("critnum.critical", "cr_formula", "critical.formula"),
    ("critnum.critical", "witness_lower_bound", "critical.witness"),
    ("critnum.critical", "resolving_sequence", "critical.resolving_sequence"),
    ("critnum.critical", "find_nonbases", "critical.scan"),
    ("critnum.critical", "_scan_task", "critical.scan.task"),
    ("critnum.critical", "_scan_escalate", "critical.scan.escalate"),
    ("critnum.cli", "cli_dispatch", "cli.dispatch"),
)

METHODS = (
    (groups.GroupTable, "translate", "groups.translate"),
    (cache.ResultCache, "get", "cache.get"),
    (cache.ResultCache, "put", "cache.put"),
)

# per-layer metric -> unit; see README.md for the end-to-end metric each should move
PER_LAYER = {
    "critical.scan.s": "s",
    "critical.scan.calls": "count",
    "critical.scan.subsets": "count",
    "critical.scan.worker_busy_s": "s",
    "critical.scan.parallel_eff": "ratio",
    "critical.scan.escalations": "count",
    "critical.scan.alt_rescues": "count",
    "sumsets.walk_settle_frac": "ratio",
    "sumsets.walk_attempts": "count",
    "sumsets.exact_reach_mask.calls": "count",
    "sumsets.exact_reach_mask.s": "s",
    "sumsets.sigma.calls": "count",
    "sumsets.sigma.s": "s",
    "sumsets.escalations": "count",
    "sumsets.state_search.calls": "count",
    "sumsets.state_search.s": "s",
    "groups.translate.calls": "count",
    "groups.translate.s": "s",
    "groups.subgroup_closure.calls": "count",
    "groups.subgroup_closure.s": "s",
    "groups.subgroups_of_index.s": "s",
    "groups.build.s": "s",
    "catalog.group.s": "s",
    "critical.formula.s": "s",
    "critical.witness.s": "s",
    "critical.resolving_sequence.calls": "count",
    "critical.resolving_sequence.s": "s",
    "cli.dispatch.self_s": "s",
    "cache.get.s": "s",
    "cache.put.s": "s",
    "cache.hit_ms": "ms",
    "trace.overhead_s": "s",
}


def _count_scan_task(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def scan_task(args):
        escalations = counts["critical.scan.escalate"]
        checked, found = fn(args)
        counts["critical.scan.subsets"] += checked
        counts["sumsets.walk_attempts"] += checked
        counts["sumsets.walk_settled"] += checked - (counts["critical.scan.escalate"] - escalations)
        return checked, found

    return scan_task


def _count_dp_walk(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def dp_covers(g, members):
        escalations = counts["sumsets.alt_orders"]
        ok = fn(g, members)
        counts["sumsets.walk_attempts"] += 1
        if counts["sumsets.alt_orders"] == escalations:
            counts["sumsets.walk_settled"] += 1
        return ok

    return dp_covers


def _count_rescue(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def scan_escalate(members):
        searches = counts["sumsets.state_search"]
        ok = fn(members)
        if ok and counts["sumsets.state_search"] == searches:
            counts["critical.scan.alt_rescues"] += 1
        return ok

    return scan_escalate


COUNTERS = {
    "critical.scan.task": _count_scan_task,
    "sumsets.dp_covers": _count_dp_walk,
    "critical.scan.escalate": _count_rescue,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced call; returns a function that restores the originals."""
    undo = []

    def rebind(old, new) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "critnum" or modname.startswith("critnum."):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        undo.append((module, attr, old))
                        setattr(module, attr, new)

    for modname, attr, name in FUNCTIONS:
        old = getattr(sys.modules[modname], attr)
        counted = COUNTERS[name](tracer, old) if name in COUNTERS else old
        rebind(old, tracer.wrap(name, counted))
    for cls, attr, name in METHODS:
        old = vars(cls)[attr]
        undo.append((cls, attr, old))
        setattr(cls, attr, tracer.wrap(name, old))

    def restore() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return restore


def per_layer(tracer: Tracer, jobs: int, overhead_s: float, hit_ms: float) -> dict[str, float]:
    """Every per-layer metric from a finished traced run."""
    counts, span_s = tracer.counts, tracer.span_s
    settle, attempts = walk_settle(counts)
    values = {
        "critical.scan.s": span_s["critical.scan"],
        "critical.scan.calls": counts["critical.scan"],
        "critical.scan.subsets": counts["critical.scan.subsets"],
        "critical.scan.worker_busy_s": span_s["critical.scan.task"],
        "critical.scan.parallel_eff": ratio(span_s["critical.scan.task"], jobs * span_s["critical.scan"]),
        "critical.scan.escalations": counts["critical.scan.escalate"],
        "critical.scan.alt_rescues": counts["critical.scan.alt_rescues"],
        "sumsets.walk_settle_frac": settle,
        "sumsets.walk_attempts": attempts,
        "sumsets.escalations": counts["sumsets.alt_orders"],
        "groups.subgroups_of_index.s": span_s["groups.subgroups_of_index"],
        "groups.build.s": span_s["groups.build"],
        "catalog.group.s": span_s["catalog.group"],
        "critical.formula.s": span_s["critical.formula"],
        "critical.witness.s": span_s["critical.witness"],
        "cli.dispatch.self_s": tracer.self_s["cli.dispatch"],
        "cache.get.s": span_s["cache.get"],
        "cache.put.s": span_s["cache.put"],
        "cache.hit_ms": hit_ms,
        "trace.overhead_s": overhead_s,
    }
    for span in (
        "sumsets.exact_reach_mask", "sumsets.sigma",
        "sumsets.state_search", "groups.translate", "groups.subgroup_closure",
        "critical.resolving_sequence",
    ):
        values[f"{span}.calls"] = counts[span]
        values[f"{span}.s"] = span_s[span]
    return {name: values[name] for name in PER_LAYER}
