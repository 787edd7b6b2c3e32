"""Line counts of Python sources: total, and code / docstring-or-comment / blank.

    python3 tools/linecount.py [FILE ...]        (default: src/spptag/*.py)

A line is blank if it holds only whitespace.  It is docstring-or-comment if
it lies in a docstring (the first statement of a module, class or function,
when that is a string; found with ast) or holds nothing but a comment (found
with tokenize).  Every other line is code, including a code line with a
trailing comment.  The totals equal `wc -l`.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "doc", "blank")


def classify(text: str) -> list[str]:
    """One of KINDS for each line of the source text."""
    lines = text.splitlines()
    kinds = ["blank" if not line.strip() else "code" for line in lines]
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            for n in range(body[0].lineno - 1, body[0].end_lineno):
                kinds[n] = "doc"
    code_on, comment_on = set(), []  # lines with a token other than a comment; comment lines
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment_on.append(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                              tokenize.ENDMARKER):
            code_on.update(range(tok.start[0], tok.end[0] + 1))
    for n in comment_on:
        if n not in code_on:
            kinds[n - 1] = "doc"
    return kinds


def counts(kinds) -> dict:
    return {"total": len(kinds), **{k: sum(1 for x in kinds if x == k) for k in KINDS}}


def main(argv) -> int:
    paths = [Path(p) for p in argv] or sorted(Path("src/spptag").glob("*.py"))
    every = []
    for path in paths:
        kinds = classify(path.read_text())
        every += kinds
        c = counts(kinds)
        print(f"{c['total']:6} {c['code']:6} {c['doc']:6} {c['blank']:6}  {path}")
    c = counts(every)
    print(f"{c['total']:6} {c['code']:6} {c['doc']:6} {c['blank']:6}  total"
          "  (lines, code, docstring or comment, blank)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
