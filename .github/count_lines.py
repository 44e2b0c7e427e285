"""Count each module's code, docstring, comment and blank lines.

Usage: python .github/count_lines.py [FILE ...]

With no files it counts src/regenrepair/*.py. A docstring line is a line of
a module, class or function docstring, found by ast. A comment line holds
only a comment. A code line holds any other token; a line with code and a
trailing comment counts as code. Blank lines hold nothing. The four counts
add up to the file's line count. Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def docstring_lines(tree):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(code, docstring, comment, blank) line counts of one module's text."""
    docs = docstring_lines(ast.parse(text))
    code, comments = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in SKIPPED:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docs
    comments -= code | docs
    total = len(text.splitlines())
    return len(code), len(docs), len(comments), total - len(code) - len(docs) - len(comments)


def main(argv):
    paths = [Path(p) for p in argv] or sorted(Path("src/regenrepair").glob("*.py"))
    rows = [(str(path), *count(path.read_text())) for path in paths]
    rows.append(("total", *(sum(row[c] for row in rows) for c in range(1, 5))))
    width = max(len(row[0]) for row in rows)
    print("%-*s %6s %6s %6s %6s" % (width, "module", "code", "doc", "comment", "blank"))
    for name, *counts in rows:
        print("%-*s %6d %6d %6d %6d" % (width, name, *counts))


if __name__ == "__main__":
    main(sys.argv[1:])
