"""The command handlers of the command-line front end, one module per command.

``modclose.cli`` imports a command's module only when that command runs, so a
process compiles the handler it dispatches and no other.  Each module defines
``run(ws, args)``, which returns the exit code, the report and the argument
tuple of its ``--oracle`` check, ``modclose.oracles.oracle_<name>`` for the
module's name.  No handler reads ``--oracle``: ``cli.main`` runs the check.
A handler imports the library code it calls inside ``run`` (``snf``, which
defines the public Smith form, at its top).  Only ``snf`` builds an
``IntMatrix``; the other reports read hom maps' canonical ``rows``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..modules import FPModule
    from ..workspace import Workspace


def label(module: FPModule) -> str:
    """A module's invariant factors joined by ``+``, or ``0``."""
    if not module.invariant_factors:
        return "0"
    return "+".join(str(f) for f in module.invariant_factors)


def require(ws: Workspace | None, flag_value: str | None, what: str) -> str:
    if ws is None:
        raise ValueError("--workspace FILE is required for this command")
    if flag_value is None:
        raise ValueError(f"--{what} NAME is required for this command")
    return flag_value
