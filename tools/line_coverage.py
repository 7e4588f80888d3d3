"""Print the lines of ``src/causalrules`` that the tier-1 tests never run.

Usage, from the root of a checkout::

    python3 tools/line_coverage.py                 # every test under tests/
    python3 tools/line_coverage.py tests/test_ingest.py -k distinct

The tests run in this process under ``sys.settrace``, with any
arguments passed on to pytest.  A line counts as executable when the
compiled module maps an instruction to it; docstrings are not counted.
Code that the tests run in a subprocess (the CLI tests that start
``python -m causalrules``) is not traced, so its lines may show as never
run.  No coverage package is needed.  The exit status is pytest's.

This is a development script, not a test: the tests run several times
slower under the tracer.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "causalrules"


def _code_lines(code) -> set[int]:
    """The lines that ``code`` or any code object nested in it maps an
    instruction to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set[int]:
    source = path.read_text()
    code = compile(source, str(path), "exec")
    return _code_lines(code) - _docstring_lines(ast.parse(source))


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = defaultdict(set)
    traced: dict[object, bool] = {}

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        inside = traced.get(code)
        if inside is None:
            inside = traced[code] = code.co_filename.startswith(prefix)
        if inside:
            return local(frame, event, arg)
        return None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *(args or ["-q", str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - seen[str(path)])
        total += len(lines)
        missed += len(never)
        print(f"{path.relative_to(ROOT)}: {len(never)} of {len(lines)} executable lines never run")
        text = path.read_text().splitlines()
        for line in never:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"total: {missed} of {total} executable lines never run "
          f"({100 * (total - missed) / total:.1f}% run)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
