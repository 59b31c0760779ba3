"""``modclose bounded``: whether a Z-module admits no nonzero map to Z."""

from __future__ import annotations

from . import require
from ..modules import FPModule


def is_bounded(m: FPModule) -> bool:
    """Whether a Z-module admits no nonzero map to Z: for finitely generated
    modules, no free summand, i.e. no zero among the invariant factors."""
    if m.ring.is_modular:
        raise ValueError("boundedness is defined over the integers; use ring Z")
    return m.free_rank() == 0


def run(ws, args) -> tuple[int, dict, tuple]:
    mname = require(ws, args.module, "module")
    m = ws.module(mname)
    value = is_bounded(m)
    report = {"module": mname, "bounded": value}
    return 0, report, (m, value)
