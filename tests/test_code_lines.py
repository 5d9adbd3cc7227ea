"""Code lines of a Python source: non-blank, outside comments and docstrings.

`code_lines` is the count the change log reports for `src/fracteig`.  Run
this file to print it per module and in total:

    python tests/test_code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracteig"

# tokens that hold no code: comments, line ends, indentation and the stream's ends
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines of source that some code token spans, docstrings left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


_SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


class Box:
    """Class docstring."""

    side = 2.0

    def area(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return (self.side
                * self.side) + len(text)
'''


def test_code_lines_count_code_and_leave_out_comments_blanks_and_docstrings():
    # import, class, side, def, the two-line string and the two-line return
    assert code_lines(_SAMPLE) == 8
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


if __name__ == "__main__":
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20s} {count:6d}")
    print(f"{'total':20s} {total:6d}")
