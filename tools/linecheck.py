#!/usr/bin/env python3
"""Line gate: run the Tier-1 suite under a line tracer and fail on every
executable line of the checked modules that no test runs.

    python3 tools/linecheck.py

Run from the repository root; the library is imported from src/. The
executable lines of a module are the lines its code objects (the module's
and every function's, class body's, lambda's and comprehension's in it)
name in co_lines(). sys.settrace and threading.settrace record the lines
that run, in the main thread and in every thread the suite starts; lines
run only in a subprocess are not seen. There is no allowlist: a line that
no test can reach is deleted or given a test. Exits 1 if the suite fails
or a checked line is missed, listing each missed line.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = [ROOT / "src" / "levytails" / "engine.py"]


def executable_lines(path: Path) -> set[int]:
    """The lines that the code objects compiled from path name."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    import pytest

    files = {str(path): set() for path in CHECKED}

    def tracer(frame, event, arg):
        seen = files.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in CHECKED:
        lines = executable_lines(path)
        unrun = sorted(lines - files[str(path)])
        text = path.read_text(encoding="utf-8").splitlines()
        rel = path.relative_to(ROOT)
        for line in unrun:
            print(f"{rel}:{line}: not run by any test: "
                  f"{text[line - 1].strip()}")
        print(f"{rel}: {len(unrun)} of {len(lines)} executable lines "
              f"not run")
        missed += len(unrun)
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main())
