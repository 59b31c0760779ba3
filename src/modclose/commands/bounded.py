"""``modclose bounded``: whether a Z-module admits no nonzero map to Z."""

from __future__ import annotations

from . import require


def run(ws, args) -> tuple[int, dict, tuple]:
    from ..modules import is_bounded
    mname = require(ws, args.module, "module")
    m = ws.module(mname)
    value = is_bounded(m)
    report = {"module": mname, "bounded": value}
    return 0, report, (m, value)
