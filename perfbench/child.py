"""Run the modclose CLI once, as its console script does, and note when set-up ended.

Usage: python3 perfbench/child.py MARK_FILE CLI_ARGS...

Set-up ends when ``load_workspace_file`` returns, or, for commands without a
workspace, when the package import is done.  The moment is a
``time.monotonic()`` reading, written to MARK_FILE when the CLI returns, so
that the parent can subtract its own reading taken at spawn.  The peak RSS
of this process (``VmHWM``) follows it: ``ru_maxrss`` from ``os.wait4``
also counts the parent's resident pages at the spawn, on Linux.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from modclose import cli  # noqa: E402

setup_done = time.monotonic()
_load = cli.load_workspace_file


def _peak_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _timed_load(path):
    global setup_done
    ws = _load(path)
    setup_done = time.monotonic()
    return ws


if __name__ == "__main__":
    cli.load_workspace_file = _timed_load
    try:
        code = cli.main(sys.argv[2:])
    finally:
        Path(sys.argv[1]).write_text(f"{setup_done!r} {_peak_rss_kb()}")
    sys.exit(code)
