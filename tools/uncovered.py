"""List the statements of the lcmf package that a pytest run never runs.

    python3 tools/uncovered.py [PYTEST ARGS...]

Runs pytest in this process with the given arguments (none: the tests of
tests/), under sys.settrace and threading.settrace, with a line tracer on
the frames of src/lcmf only.  Then, for each function (and each module's
top level), it prints the first lines of the statements that no traced
frame ran: one line per function, `module.py:qualname: line, line, ...`,
and the count last.  The body of an `if TYPE_CHECKING:` block, which never
runs, and `global` and `nonlocal` statements, which hold no code, are left
out.  It needs only the standard library; the coverage
package is not used.

Only this process is traced, so a statement that only a child process of a
test runs (the tests that start `python -m lcmf.cli` or `python -c`) is
listed as not run.  The tracer slows the tests about threefold; a test that
bounds time or traced memory can fail under it (at the time of writing,
tests/test_sequences.py::test_flag_and_split_walks_hold_few_bytes_per_n,
whose tracemalloc bound of 32 B an n read 32.3), and the list is still
made.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import threading

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "lcmf"


def _statements(tree: ast.Module):
    """(qualname, first line, header lines) of each statement, by the
    function (or class, or "<module>") whose own body holds it; the header
    is a compound statement's lines before its body, a simple statement's
    every line."""
    out = []

    def visit(body, scope):
        for i, node in enumerate(body):
            docstring = i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            if docstring and isinstance(node.value.value, str):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue  # no code to run
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                continue
            inner = [b for field in ("body", "orelse", "finalbody", "handlers", "cases")
                     for b in getattr(node, field, ()) if isinstance(b, ast.AST)]
            first_body = min((b.lineno for b in inner), default=node.end_lineno + 1)
            start = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
            out.append((scope, node.lineno, range(start, max(first_body, node.lineno + 1))))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name if scope == "<module>" else f"{scope}.{node.name}"
                visit(node.body, name)
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), scope)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, scope)
            for case in getattr(node, "cases", []):
                visit(case.body, scope)

    visit(tree.body, "<module>")
    return out


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(_PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    tracers = {}

    def tracer_for(filename: str):
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(_PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        by_scope: dict[str, list[int]] = {}
        for scope, first, header in _statements(ast.parse(path.read_text(encoding="utf-8"))):
            if not lines.intersection(header):
                by_scope.setdefault(scope, []).append(first)
        for scope, firsts in by_scope.items():
            print(f"{path.name}:{scope}: {', '.join(map(str, firsts))}")
            missed += len(firsts)
    print(f"{missed} statements not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
