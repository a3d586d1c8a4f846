"""Count the code lines of each module in ``src/wavecnn``.

A code line holds at least one token that is not a comment and not part of a
docstring (a statement made of one string literal); blank lines do not count.
Lines come from ``tokenize``, so a statement spread over several lines counts
each of them.  Run from anywhere:

    python tools/code_lines.py [DIR]

It prints one ``module count`` row per file and a closing ``total`` row.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path) -> int:
    """The number of code lines in one Python file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _SKIP:
            continue
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "wavecnn"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
