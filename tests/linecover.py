"""List every statement of src/mdm that the tier-1 suite never runs, with a stdlib line tracer.

Run from the root of a checkout (no coverage package needed):

    python tests/linecover.py [extra pytest arguments]

It runs the suite in this process with MDM_NO_PARALLEL=1, so verify trials run where they are traced, and
prints `path:line: source` for each statement no test reached. Code run only in a child process (a fresh
`mdm` command, a process pool) counts as not run. Pytest does not collect this file.
"""

import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mdm"
ran: set[tuple[str, int]] = set()


def lines_of(code) -> set[int]:
    """The line of every statement in a code object and the code objects nested in it."""
    nested = (c for c in code.co_consts if hasattr(c, "co_code"))
    return {line for _, line in dis.findlinestarts(code) if line} | set().union(*map(lines_of, nested))


def line(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return line


def trace(frame, event, arg):
    # One module-level local tracer: a closure made per call would be allocated inside the tests' tracemalloc windows.
    return line if frame.f_code.co_filename.startswith(str(SRC)) else None


if __name__ == "__main__":
    import pytest

    os.environ["MDM_NO_PARALLEL"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        source, done = path.read_text(encoding="utf-8"), {ln for f, ln in ran if f == str(path)}
        if not done:  # a module no test imports, such as __main__
            print(f"{path.relative_to(ROOT)}: never imported")
            continue
        for n in sorted(lines_of(compile(source, str(path), "exec")) - done):
            print(f"{path.relative_to(ROOT)}:{n}: {source.splitlines()[n - 1].strip()}")
