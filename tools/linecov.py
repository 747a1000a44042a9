"""List the src/phmoea lines that the tier-1 suite never runs.

Usage (from the repository root):

    PYTHONPATH=src python tools/linecov.py

Installs a stdlib line tracer (``sys.settrace`` and ``threading.settrace``)
before anything imports ``phmoea``, runs the tier-1 suite in this process
through ``pytest.main``, and compares the lines that ran with the executable
lines of every ``src/phmoea/*.py`` code object (``co_lines``). Code run in
subprocesses is not seen. Each line that never ran is printed; the script
exits 1 unless every one matches an ``ALLOWED`` entry and every entry matches
exactly one unexecuted line (so an entry can neither hide a second line with
the same text nor outlive its line), and with pytest's status if the suite
itself fails.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "phmoea"

# (file name, stripped source text) of lines that may stay unexecuted.
ALLOWED = {
    ("cli.py", "sys.exit(main())"),     # the module run as a script (a subprocess)
}

_ran: set[tuple[str, int]] = set()
_prefix = str(SRC) + "/"


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    _ran.add((filename, frame.f_lineno))    # a def line gets only this call event
    return _local


def _executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 is a module's entry instruction, not a source line
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    sys.settrace(_global)
    threading.settrace(_global)
    status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                          str(ROOT / "tests")])
    sys.settrace(None)
    threading.settrace(None)

    missed = 0
    matches = dict.fromkeys(ALLOWED, 0)
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for lineno in sorted(_executable_lines(path)):
            if (str(path), lineno) in _ran:
                continue
            entry = (path.name, source[lineno - 1].strip())
            ok = entry in matches
            if ok:
                matches[entry] += 1
            missed += not ok
            print(f"{'allowed' if ok else 'MISSED '} src/phmoea/{path.name}:{lineno}: {entry[1]}")
    inexact = sorted(e for e, n in matches.items() if n != 1)
    for name, text in inexact:
        print(f"ALLOWED entry matches {matches[name, text]} unexecuted lines: {name}: {text}")
    print(f"{missed} unexecuted src lines outside the allowlist, "
          f"{len(ALLOWED) - len(inexact)} of {len(ALLOWED)} allowlist entries matched once")
    if status != 0:
        return int(status)
    return 1 if missed or inexact else 0


if __name__ == "__main__":
    sys.exit(main())
