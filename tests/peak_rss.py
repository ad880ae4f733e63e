"""Run ``python -m returndist ARGS...`` in a child and bound its peak RSS.

Run with the repository's ``src`` on ``PYTHONPATH``, from the directory
the command's files should go to:
``PYTHONPATH=REPO/src python REPO/tests/peak_rss.py LIMIT_MB ARGS...``

The child inherits stdin, stdout and stderr, so a redirect of this
script's stdout catches the command's output. The child's own peak
resident set size (``ru_maxrss`` from ``os.wait4``, in KiB on Linux) is
printed on stderr, and the script exits non-zero when the child fails or
its peak is over LIMIT_MB. POSIX only.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int | str:
    limit, *args = argv
    command = " ".join(["returndist", *args])
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "returndist", *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    mb = usage.ru_maxrss / 1024
    print(f"{command}: peak RSS {mb:.1f} MB", file=sys.stderr)
    if status:
        return f"{command} exited with status {os.waitstatus_to_exitcode(status)}"
    if mb > float(limit):
        return f"{command}: peak RSS {mb:.1f} MB exceeds {limit} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
