"""``modclose bounded``: whether a Z-module admits no nonzero map to Z."""

from __future__ import annotations

from . import require


def run(ws, args) -> tuple[int, dict]:
    from ..modules import is_bounded
    mname = require(ws, args.module, "module")
    m = ws.module(mname)
    value = is_bounded(m)
    report = {"module": mname, "bounded": value}
    if args.oracle:
        from ..oracles import oracle_bounded
        agree, report["oracle"] = oracle_bounded(m, value)
        if not agree:
            return 1, report
    return 0, report
