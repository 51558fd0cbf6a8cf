#!/usr/bin/env python
"""Print the size of a Python source tree: code lines and physical lines.

Code lines are the lines of ``ast.unparse`` of each module with every
docstring stripped, so comments, blank lines, docstrings and line
wrapping do not count.  Physical lines are the lines of the files as
they are.

Run:  python scripts/src_size.py [PATH]      (PATH defaults to src/repro)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of ``source`` unparsed with its docstrings stripped."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main(argv: list) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 2
    code = physical = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        code += code_lines(text)
        physical += len(text.splitlines())
    print(f"{root}: {len(files)} files, {code:,} code lines, "
          f"{physical:,} physical lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
