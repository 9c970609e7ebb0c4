"""Count the lines of each module of src/spspec: all of them, and code only.

Usage:

    python3 tools/loc.py [FILE_OR_DIR ...]

With no argument it counts the `*.py` files of `src/spspec`.  Code lines are
the lines that hold a token of a statement other than a docstring, so blank
lines, comment lines and the lines of a string that stands alone as a
statement (a docstring) are left out; a line that holds code and a comment
counts.  Only the standard library is used.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of the logical line so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            if tok.type == tokenize.NEWLINE:
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one file."""
    source = path.read_text()
    return len(source.splitlines()), code_lines(source)


def main(argv: list[str]) -> int:
    targets = [Path(a) for a in argv] or [ROOT / "src" / "spspec"]
    files = sorted(f for t in targets for f in (t.glob("*.py") if t.is_dir() else [t]))
    total = code = 0
    for f in files:
        n, c = count(f)
        total, code = total + n, code + c
        print(f"{n:6d} {c:6d}  {f.name}")
    print(f"{total:6d} {code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
