"""Size of the gebs package: file lines and code lines of each module.

Usage, from the repository root, once on each tree to compare:

    python tests/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this tree's ``src/gebs``. Code lines are the lines
that some statement or expression of the module's syntax tree spans, less
blank lines, comment-only lines and the module, class and function
docstrings. One line per module, then the totals.
pytest does not collect this file.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gebs"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text):
    """``(file lines, code lines)`` of one module's source ``text``."""
    tree = ast.parse(text)
    spanned, docstrings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = text.splitlines()
    code = {i for i in spanned - docstrings
            if (line := lines[i - 1].strip()) and not line.startswith("#")}
    return len(lines), len(code)


def report(package=PACKAGE):
    """The printed lines: one per module of ``package``, then the totals."""
    out, totals = [], [0, 0]
    for path in sorted(Path(package).glob("*.py")):
        sizes = count(path.read_text(encoding="utf-8"))
        totals = [t + s for t, s in zip(totals, sizes)]
        out.append(f"{path.name} {sizes[0]} {sizes[1]}")
    out.append(f"total {totals[0]} {totals[1]}")
    return out


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    print("# module file_lines code_lines")
    for line in report(*args[:1]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
