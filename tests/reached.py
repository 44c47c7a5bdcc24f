"""Print each statement of src/retroq that the tier-1 tests never execute.

Runs the tier-1 suite in this process under a ``sys.settrace`` line trace of the retroq
modules alone, then reads each module's syntax tree.  A statement counts as executed when a
line it owns, one in its span outside the statements nested in it, ran.  Definitions of
functions and classes and docstrings are left out.  Report only: the exit status is 0 whatever
the tests or the trace find.  The tests' output goes to stderr, the report to stdout.  From the
root of the repository:

    PYTHONPATH=src python tests/reached.py
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "retroq"


def _trace(ran: dict[str, set[int]]):
    """A global trace function recording ``ran[filename]``, the lines run in retroq modules."""
    prefix = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return start


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (bool(body) and node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def _statements(tree: ast.Module):
    """``(statement, lines it owns)`` for every statement but definitions and docstrings."""
    for parent in ast.walk(tree):  # an except handler or a match case is a parent of its own
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            for node in block if isinstance(block, list) else []:  # a lambda's body is one expression
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        or _is_docstring(node, parent)):
                    continue
                owned = set(range(node.lineno, node.end_lineno + 1))
                for child in ast.walk(node):
                    if child is not node and isinstance(child, ast.stmt):
                        owned -= set(range(child.lineno, child.end_lineno + 1))
                yield node, owned


def unreached(ran: dict[str, set[int]]) -> list[str]:
    """``path:line: first source line`` of each statement no traced line of ``ran`` falls in."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for node, owned in _statements(ast.parse(source)):
            if owned and not owned & hit:
                out.append((path.name, node.lineno, lines[node.lineno - 1].strip()))
    return [f"src/retroq/{name}:{line}: {text}" for name, line, text in sorted(out)]


def main() -> int:
    ran: dict[str, set[int]] = defaultdict(set)
    tracer = _trace(ran)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the report alone
            code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unreached(ran)
    print(f"tier-1 exit status {int(code)}; {len(missed)} statements of src/retroq never executed:")
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
