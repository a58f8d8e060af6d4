"""Print the line count and the code-line count of every module of a package.

Usage:  python scripts/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/cqesim`` beside this script's parent.
One row per ``.py`` file, then the total: ``wc -l`` (the file's lines)
and the code lines, the lines that hold a token of a statement.  A line
with only a comment or blank space is not a code line, and neither is a
line of a docstring (a string literal that is the first statement of a
module, class or function body).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token of a statement other than a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "cqesim"
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>7} {'code':>7}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        wc, code = source.count("\n"), code_lines(source)
        total_wc += wc
        total_code += code
        print(f"{path.name:<20} {wc:>7} {code:>7}")
    print(f"{'total':<20} {total_wc:>7} {total_code:>7}")


if __name__ == "__main__":
    main(sys.argv)
