"""``modclose free-rank``: the rank of the largest free summand of a Z-module."""

from __future__ import annotations

from . import require


def run(ws, args) -> tuple[int, dict]:
    from ..modules import free_summand_rank
    mname = require(ws, args.module, "module")
    m = ws.module(mname)
    value = free_summand_rank(m)
    report = {"module": mname, "free_rank": value}
    if args.oracle:
        from ..oracles import oracle_free_rank
        agree, report["oracle"] = oracle_free_rank(m, value)
        if not agree:
            return 1, report
    return 0, report
