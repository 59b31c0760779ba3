"""``modclose free-rank``: the rank of the largest free summand of a Z-module."""

from __future__ import annotations

from . import require


def run(ws, args) -> tuple[int, dict, tuple]:
    from ..modules import free_summand_rank
    mname = require(ws, args.module, "module")
    m = ws.module(mname)
    value = free_summand_rank(m)
    report = {"module": mname, "free_rank": value}
    return 0, report, (m, value)
