"""``modclose free-rank``: the rank of the largest free summand of a Z-module."""

from __future__ import annotations

from . import require
from ..modules import FPModule


def free_summand_rank(m: FPModule) -> int:
    """Rank of the largest free direct summand of a Z-module."""
    if m.ring.is_modular:
        raise ValueError("free-summand rank is defined over the integers; use ring Z")
    return m.free_rank()


def run(ws, args) -> tuple[int, dict, tuple]:
    mname = require(ws, args.module, "module")
    m = ws.module(mname)
    value = free_summand_rank(m)
    report = {"module": mname, "free_rank": value}
    return 0, report, (m, value)
