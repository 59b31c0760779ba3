"""Self times and per-layer metrics from the spans of traced requests.

A span is ``(name id, start ns, end ns, parent index)`` with ``-1`` for no
parent.  A span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

from collections import defaultdict


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(names: list[str], spans: list) -> dict[str, tuple[int, int]]:
    """``name -> (calls, total self ns)`` over the spans of one process."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span is not None and span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        if span is None:
            continue
        nid, start, end, _ = span
        rec = out.setdefault(names[nid], [0, 0])
        rec[0] += 1
        rec[1] += (end - start) - covered_ns(start, end, children.get(i, []))
    return {k: (v[0], v[1]) for k, v in out.items()}


# (metric, unit, source kind, source name)
#   calls: number of spans; self: mean self seconds; count: counter;
#   max: largest value over the run; repeats: repeats / calls of a counter
LAYER_METRICS = [
    ("matrices.snf_calls", "calls/req", "calls", "matrices.snf"),
    ("matrices.snf_s", "s/req", "self", "matrices.snf"),
    ("matrices.snf_max_cells", "cells", "max", "matrices.snf_max_cells"),
    ("matrices.snf_max_bits", "bits", "max", "matrices.snf_max_bits"),
    ("matrices.kernel_calls", "calls/req", "count", "matrices.kernel_calls"),
    ("matrices.solve_calls", "calls/req", "calls", "matrices.solve"),
    ("matrices.solve_s", "s/req", "self", "matrices.solve"),
    ("matrices.intmatrix_builds", "calls/req", "count", "matrices.intmatrix_builds"),
    ("lattices.from_columns_calls", "calls/req", "calls", "lattices.from_columns"),
    ("lattices.from_columns_s", "s/req", "self", "lattices.from_columns"),
    ("lattices.max_bits", "bits", "max", "lattices.max_bits"),
    ("lattices.intersect_calls", "calls/req", "calls", "lattices.intersect"),
    ("lattices.intersect_s", "s/req", "self", "lattices.intersect"),
    ("lattices.preimage_calls", "calls/req", "calls", "lattices.preimage"),
    ("lattices.preimage_s", "s/req", "self", "lattices.preimage"),
    ("lattices.saturation_calls", "calls/req", "count", "lattices.saturation_calls"),
    ("lattices.quotient_invariants_calls", "calls/req", "calls", "lattices.quotient_invariants"),
    ("lattices.quotient_invariants_s", "s/req", "self", "lattices.quotient_invariants"),
    ("modules.fpmodule_builds", "calls/req", "calls", "modules.fpmodule"),
    ("modules.fpmodule_s", "s/req", "self", "modules.fpmodule"),
    ("modules.submodule_builds", "calls/req", "calls", "modules.submodule"),
    ("modules.submodule_s", "s/req", "self", "modules.submodule"),
    ("modules.all_submodules_calls", "calls/req", "calls", "modules.all_submodules"),
    ("modules.all_submodules_s", "s/req", "self", "modules.all_submodules"),
    ("modules.submodules_listed", "count/req", "count", "modules.submodules_listed"),
    ("modules.sub_join_calls", "calls/req", "count", "modules.sub_join_calls"),
    ("modules.sub_meet_calls", "calls/req", "count", "modules.sub_meet_calls"),
    ("modules.quotient_module_calls", "calls/req", "count", "modules.quotient_module_calls"),
    ("modules.sub_as_module_calls", "calls/req", "count", "modules.sub_as_module_calls"),
    ("homs.hom_group_calls", "calls/req", "calls", "homs.hom_group"),
    ("homs.hom_group_s", "s/req", "self", "homs.hom_group"),
    ("homs.hom_group_repeat_ratio", "ratio", "repeats", "homs.hom_group"),
    ("homs.kernel_of_hom_calls", "calls/req", "count", "homs.kernel_of_hom_calls"),
    ("homs.baer_calls", "calls/req", "calls", "homs.baer"),
    ("homs.baer_s", "s/req", "self", "homs.baer"),
    ("homs.baer_elements", "count/req", "count", "homs.baer_elements"),
    ("closure.regular_closure_calls", "calls/req", "calls", "closure.regular_closure"),
    ("closure.regular_closure_s", "s/req", "self", "closure.regular_closure"),
    ("closure.subcategory_builds", "calls/req", "calls", "closure.subcategory"),
    ("closure.subcategory_s", "s/req", "self", "closure.subcategory"),
    ("closure.witnesses", "count/req", "count", "closure.witnesses"),
    ("torsion.universe_builds", "calls/req", "calls", "torsion.universe"),
    ("torsion.universe_s", "s/req", "self", "torsion.universe"),
    ("torsion.universe_objects", "count/req", "count", "torsion.universe_objects"),
    ("torsion.verify_s", "s/req", "self", "torsion.verify"),
    ("torsion.radical_calls", "calls/req", "count", "torsion.radical_calls"),
    ("torsion.radical_repeat_ratio", "ratio", "repeats", "torsion.radical"),
    ("workspace.load_s", "s/req", "self", "workspace.load"),
    ("cli.dump_s", "s/req", "self", "cli.dump"),
    ("cli.report_bytes", "bytes/req", "count", "cli.report_bytes"),
]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-request means (maxima for ``max``) over the trace documents of
    the requests of one run."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    maxima: dict[str, int] = defaultdict(int)
    for doc in traces:
        for name, (n, ns) in self_times(doc["names"], doc["spans"]).items():
            calls[name] += n
            self_ns[name] += ns
        for name, k in doc["counts"].items():
            counts[name] += k
        for name, v in doc["maxima"].items():
            maxima[name] = max(maxima[name], v)
    n_req = max(len(traces), 1)
    out = {}
    for metric, _, kind, source in LAYER_METRICS:
        if kind == "calls":
            value = calls[source] / n_req
        elif kind == "self":
            value = self_ns[source] / 1e9 / n_req
        elif kind == "count":
            value = counts[source] / n_req
        elif kind == "max":
            value = maxima[source]
        else:  # repeats
            total = calls[source] or counts[source + "_calls"]
            value = counts[source + "_repeats"] / total if total else 0.0
        out[metric] = value
    return out
