"""Run the modclose CLI once with spans around the entry points of each layer.

Usage: python3 perfbench/traced.py TRACE_FILE CLI_ARGS...

The package is not modified.  After import, every binding of every entry
point in every ``modclose.*`` namespace (module globals, class attributes,
containers held in globals) is replaced by a wrapper, and
:func:`unwrapped_references` must then find none.  Spans (name, start, end,
parent) are kept in memory and written to TRACE_FILE, with the counters and
the coverage result, when the CLI returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

_perf_ns = time.perf_counter_ns

SRC = Path(__file__).resolve().parents[1] / "src"


def _bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            b = x.bit_length() if x >= 0 else (-x).bit_length()
            if b > best:
                best = b
    return best


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start ns, end ns, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._seen: dict[str, set] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def repeat(self, name: str, key) -> None:
        """Count a repeat when ``key`` was seen before in this process."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.count(name + "_repeats")
        else:
            seen.add(key)

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs outside it."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, _perf_ns(), parent)
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, after=None):
        """Wrap ``fn`` with a call counter only (no span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "counts": self.counts,
            "maxima": self.maxima,
        }


def targets(t: Tracer):
    """(module, attribute path, wrap) for every measured entry point."""

    def snf_after(res, args):
        a = args[0]
        t.maximum("matrices.snf_max_cells", a.rows * a.cols)
        u, d, v = res[0], res[1], res[2]
        t.maximum("matrices.snf_max_bits", max(_bits(u), _bits(d), _bits(v)))

    def lattice_after(res, args):
        t.maximum("lattices.max_bits", _bits(res.basis))

    def all_submodules_after(res, args):
        t.count("modules.submodules_listed", len(res))

    def hom_after(res, args):
        t.repeat("homs.hom_group", (args[0], args[1]))

    def baer_after(res, args):
        t.count("homs.baer_elements", args[0].order() or 0)

    def closure_after(res, args):
        t.count("closure.witnesses", len(res.witnesses))

    def universe_after(res, args):
        t.count("torsion.universe_objects", len(args[0].objects))

    def radical_after(res, args):
        t.repeat("torsion.radical", (args[0], args[1]))

    def dump_after(res, args):
        t.count("cli.report_bytes", len(res.encode()) + 1)

    span, count = t.timed, t.counted
    return [
        ("modclose.matrices", "_snf_with_inverses", lambda f: span("matrices.snf", f, snf_after)),
        ("modclose.matrices", "_kernel_over_z", lambda f: count("matrices.kernel_calls", f)),
        ("modclose.matrices", "solve_linear", lambda f: span("matrices.solve", f)),
        ("modclose.matrices", "IntMatrix.__init__", lambda f: count("matrices.intmatrix_builds", f)),
        ("modclose.lattices", "Lattice.from_columns", lambda f: span("lattices.from_columns", f, lattice_after)),
        ("modclose.lattices", "Lattice.intersect", lambda f: span("lattices.intersect", f)),
        ("modclose.lattices", "Lattice.preimage", lambda f: span("lattices.preimage", f)),
        ("modclose.lattices", "Lattice.saturation", lambda f: count("lattices.saturation_calls", f)),
        ("modclose.lattices", "Lattice.quotient_invariants", lambda f: span("lattices.quotient_invariants", f)),
        ("modclose.modules", "FPModule.__init__", lambda f: span("modules.fpmodule", f)),
        ("modclose.modules", "Submodule.__init__", lambda f: span("modules.submodule", f)),
        ("modclose.modules", "all_submodules", lambda f: span("modules.all_submodules", f, all_submodules_after)),
        ("modclose.modules", "sub_join", lambda f: count("modules.sub_join_calls", f)),
        ("modclose.modules", "sub_meet", lambda f: count("modules.sub_meet_calls", f)),
        ("modclose.modules", "quotient_module", lambda f: count("modules.quotient_module_calls", f)),
        ("modclose.modules", "sub_as_module", lambda f: count("modules.sub_as_module_calls", f)),
        ("modclose.homs", "hom_group", lambda f: span("homs.hom_group", f, hom_after)),
        ("modclose.homs", "kernel_of_hom", lambda f: count("homs.kernel_of_hom_calls", f)),
        ("modclose.homs", "is_injective_module", lambda f: span("homs.baer", f, baer_after)),
        ("modclose.closure", "regular_closure", lambda f: span("closure.regular_closure", f, closure_after)),
        ("modclose.closure", "Subcategory.__init__", lambda f: span("closure.subcategory", f)),
        ("modclose.torsion", "ModuleUniverse.__init__", lambda f: span("torsion.universe", f, universe_after)),
        ("modclose.torsion", "verify_torsion_theory", lambda f: span("torsion.verify", f)),
        ("modclose.torsion", "torsion_radical", lambda f: count("torsion.radical_calls", f, radical_after)),
        ("modclose.workspace", "load_workspace_file", lambda f: span("workspace.load", f)),
        ("modclose.workspace", "dumps_report", lambda f: span("cli.dump", f, dump_after)),
    ]


def _namespaces():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "modclose" or name.startswith("modclose."))
    ]


def _unwrap_attr(value):
    return value.__func__ if isinstance(value, (classmethod, staticmethod)) else value


def unwrapped_references(originals) -> list[str]:
    """Every binding of an original still reachable from a ``modclose.*``
    namespace: module globals, class attributes, and items of dicts, lists
    and tuples held in globals."""
    ids = {id(f) for f in originals}
    found = []
    for mod in _namespaces():
        for name, value in vars(mod).items():
            where = f"{mod.__name__}.{name}"
            if id(value) in ids:
                found.append(where)
            if isinstance(value, type) and value.__module__.startswith("modclose"):
                found += [f"{where}.{attr}" for attr, member in vars(value).items()
                          if id(_unwrap_attr(member)) in ids]
            elif isinstance(value, dict):
                found += [f"{where}[{k!r}]" for k, v in value.items() if id(v) in ids]
            elif isinstance(value, (list, tuple)):
                found += [f"{where}[{i}]" for i, v in enumerate(value) if id(v) in ids]
    return found


def install(t: Tracer) -> list:
    """Wrap every binding of every target; return the original functions."""
    import importlib

    originals = []
    for modname, path, wrap in targets(t):
        mod = importlib.import_module(modname)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = vars(cls)[attr]
            func = _unwrap_attr(raw)
            wrapped = wrap(func)
            setattr(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            originals.append(func)
            continue
        func = getattr(mod, path)
        wrapped = wrap(func)
        originals.append(func)
        for ns in _namespaces():
            for name, value in list(vars(ns).items()):
                if value is func:
                    setattr(ns, name, wrapped)
    return originals


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    from modclose import cli

    tracer = Tracer()
    originals = install(tracer)
    leftovers = unwrapped_references(originals)
    try:
        return cli.main(cli_args)
    finally:
        doc = tracer.dump()
        doc["unwrapped"] = leftovers
        Path(trace_path).write_text(json.dumps(doc, separators=(",", ":")))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
