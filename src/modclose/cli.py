"""Command-line front end.

One JSON document goes to stdout; diagnostics go to stderr.  Exit codes:
0 success (and, for verify, all checks passed), 1 verification failure,
oracle mismatch or a stdout closed by its reader, 2 input or validation
error.

This module holds only the argument parser, the command table and ``main``,
because every run compiles it.  Each command's handler is a module of
:mod:`modclose.commands`, imported when that command is dispatched, so a
process compiles only the handler it runs; the brute-force oracles load only
with ``--oracle``.  The arguments are read by a small parser driven by the
command table and two flag tables, which costs far less start-up than
``argparse``.

On import, ``gc.freeze`` is registered with :mod:`atexit`: at interpreter
exit it moves every object left (mostly the compiled library) out of reach
of CPython's final collections, which would otherwise walk all of them,
longer than a request computes.  It never runs inside ``main``.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from .errors import OracleInfeasibleError
from .workspace import decode_int, dumps_report, load_workspace_file

# skip the final collections over the request's objects (module docstring)
atexit.register(gc.freeze)

# command -> help; the handler is ``run`` in ``modclose.commands.<command>``,
# with ``-`` read as ``_``
_COMMANDS = {
    "closure": "closure of a submodule under a subcategory of injectives",
    "verify": "verify the torsion theory induced by a subcategory",
    "snf": "Smith normal form with transforms",
    "hom": "hom group between two modules",
    "bounded": "whether a Z-module admits no nonzero map to Z",
    "free-rank": "rank of the largest free summand of a Z-module",
}


# value flags: flag -> (metavar, help, conversion of the text or None)
_VALUE_FLAGS = {
    "--workspace": ("FILE", "workspace JSON file", None),
    "--module": ("NAME", "module name", None),
    "--sub": ("NAME", "submodule name", None),
    "--cat": ("NAME", "subcategory name", None),
    "--cod": ("NAME", "codomain module name (hom)", None),
    "--matrix": ("JSON", "inline JSON matrix rows (snf)", None),
    "--universe": ("NAMES", "comma-separated module names (verify)", None),
    "--max-gens": ("K", "universe generator bound (verify)", decode_int),
    "--max-order": ("B", "universe order bound (verify)", decode_int),
}

# boolean flags: flag -> help
_BOOL_FLAGS = {
    "--oracle": "recompute against the brute-force oracles and diff",
    "--json": "compact JSON (default)",
    "--pretty": "indented JSON",
}

_USAGE = "usage: modclose [-h] command [options]\n"


def _help() -> str:
    lines = [
        _USAGE,
        "Regular closure operators and torsion theories for finitely",
        "presented modules over Z and Z/n",
        "",
        "options:",
        f"  {'-h, --help':<20} show this help message and exit",
    ]
    for flag, (metavar, purpose, _) in _VALUE_FLAGS.items():
        lines.append(f"  {flag + ' ' + metavar:<20} {purpose}")
    for flag, purpose in _BOOL_FLAGS.items():
        lines.append(f"  {flag:<20} {purpose}")
    lines += ["", "commands:"]
    lines += [f"  {name:<10} {purpose}" for name, purpose in _COMMANDS.items()]
    return "\n".join(lines)


def _write_stdout(text: str) -> bool:
    """Print ``text`` and flush it; False if the reader has closed stdout."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point fd 1 at /dev/null so that the interpreter's own flush at exit
        # cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _usage_error(message: str):
    """Exit 2 with the usage and ``message`` on stderr, nothing on stdout."""
    print(f"{_USAGE}modclose: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_flag(token: str) -> bool:
    """A token that names an option, as opposed to a value: it starts with
    ``-`` and is not a negative number."""
    return token.startswith("-") and token != "-" and not token[1:].isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flag values, read from the two flag tables.

    ``--flag value`` and ``--flag=value`` are both accepted; flags may come
    before or after the command, and a repeated flag keeps its last value.
    Flags must be spelled out in full.  ``-h``/``--help`` prints the help and
    exits 0 (1 if stdout is closed); every other mistake exits 2 with the
    usage on stderr.
    """
    if "-h" in argv or "--help" in argv:
        raise SystemExit(0 if _write_stdout(_help()) else 1)
    args = SimpleNamespace(command=None)
    for flag in _VALUE_FLAGS:
        setattr(args, flag[2:].replace("-", "_"), None)
    for flag in _BOOL_FLAGS:
        setattr(args, flag[2:], False)
    tokens = iter(argv)
    for token in tokens:
        if not _is_flag(token):
            if args.command is not None:
                _usage_error(f"unrecognized arguments: {token}")
            if token not in _COMMANDS:
                _usage_error(
                    f"argument command: invalid choice: {token!r} "
                    f"(choose from {', '.join(_COMMANDS)})"
                )
            args.command = token
            continue
        flag, eq, value = token.partition("=")
        if flag in _BOOL_FLAGS:
            if eq:
                _usage_error(f"argument {flag}: ignored explicit argument {value!r}")
            setattr(args, flag[2:], True)
            continue
        if flag not in _VALUE_FLAGS:
            _usage_error(f"unrecognized arguments: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                _usage_error(f"argument {flag}: expected one argument")
        convert = _VALUE_FLAGS[flag][2]
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid integer value: {value!r}")
        setattr(args, flag[2:].replace("-", "_"), value)
    if args.command is None:
        _usage_error("the following arguments are required: command")
    if args.json and args.pretty:
        _usage_error("argument --pretty: not allowed with argument --json")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    command = import_module(f".commands.{args.command.replace('-', '_')}", __package__)
    try:
        ws = load_workspace_file(args.workspace) if args.workspace else None
        code, report = command.run(ws, args)
    except (ValueError, OracleInfeasibleError, OSError, json.JSONDecodeError) as exc:
        print(f"modclose: error: {exc}", file=sys.stderr)
        return 2
    return code if _write_stdout(dumps_report(report, pretty=args.pretty)) else 1


if __name__ == "__main__":
    sys.exit(main())
