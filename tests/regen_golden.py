"""Print the golden-output manifest, or the cases that differ from one.

    PYTHONPATH=src python tests/regen_golden.py > tests/golden.sha256
    PYTHONPATH=src python tests/regen_golden.py tests/golden.sha256

With no argument it prints a manifest line, "<sha256>  <case>", for
every case in tests/test_golden.py. Given a manifest, it prints the
label of each case whose output differs from it (or that only one side
has), and exits 1 if there is any.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import changed_cases, golden_digests, read_manifest


def main(argv: list[str]) -> int:
    expected = read_manifest(Path(argv[0]).resolve()) if argv else None
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            actual = golden_digests()
        finally:
            os.chdir(start)
    if expected is None:
        print("".join(f"{digest}  {label}\n" for label, digest in actual.items()), end="")
        return 0
    changed = changed_cases(expected, actual)
    print("".join(f"{label}\n" for label in changed), end="")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
