#!/usr/bin/env python3
"""Which lines of the package tier-1 never runs.

    python scripts/line_trace.py [extra pytest options]

Runs pytest on tests/ in this interpreter, with criterion 7 deselected,
under a sys.settrace hook (threading.settrace too) that records every line
executed in a frame of src/sgl. The hook is set before pytest imports the
package, so module-level lines count. An executable line is one that some
code object compiled from a src/sgl file maps instructions to
(code.co_lines()). The script prints every executable line that never ran,
as file:line and its text, then one summary line.

The allowlist holds only the body of cli.py's __main__ guard, which runs
under `python -m sgl.cli` and never on import. Exits with pytest's code
when pytest fails, else 1 when any line outside the allowlist never ran,
else 0. Under the hook tier-1 takes several times its usual wall time.
"""

import collections
import os
import pathlib
import sys
import threading
import types

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "sgl"
CRITERION_7 = "tests/test_acceptance.py::test_criterion_7_convergence_benchmark"
# (file name, stripped source text) of the lines that may stay unexecuted
ALLOWED = {("cli.py", "raise SystemExit(main())")}


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line numbers the code objects compiled from path run."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    prefix = str(SRC) + os.sep
    executed = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    import pytest  # after sys.path, before any test module imports sgl

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--deselect", CRITERION_7, str(REPO / "tests"), *argv]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = allowed = total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - executed[str(path)]):
            if (path.name, text[line - 1].strip()) in ALLOWED:
                allowed += 1
                continue
            missing += 1
            print(f"{path.relative_to(REPO)}:{line}: {text[line - 1].strip()}")
    print(
        f"{total} executable lines in src/sgl, {missing} never ran "
        f"(and {allowed} allowlisted); pytest exit code {int(code)}"
    )
    if code:
        return int(code)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
