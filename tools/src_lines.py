"""Count the lines of each ``wccreg`` module as code, docstrings, comments
and blank lines.

    python tools/src_lines.py [--src DIR]

A docstring line is a line of the module's, a class's or a function's
docstring (found with ``ast``); a comment line holds only a comment; a blank
line holds nothing; every other line is code.  Prints one row per module of
``DIR/wccreg`` (default: this checkout's ``src``) and the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("lines", "code", "docstrings", "comments", "blank")


def count(text: str) -> dict:
    """The line counts of one module's source."""
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip()}
    blank = {k for k, line in enumerate(lines, 1) if not line.strip()} - docstrings
    return {"lines": len(lines), "docstrings": len(docstrings), "comments": len(comments - docstrings),
            "blank": len(blank),
            "code": len(lines) - len(docstrings) - len(comments - docstrings) - len(blank)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the program tree to count")
    args = ap.parse_args(argv)
    rows = {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted((args.src / "wccreg").glob("*.py"))}
    rows["total"] = {col: sum(r[col] for r in rows.values()) for col in COLUMNS}
    print(f"{'module':<16}" + "".join(f"{col:>11}" for col in COLUMNS))
    for name, r in rows.items():
        print(f"{name:<16}" + "".join(f"{r[col]:>11,}" for col in COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
