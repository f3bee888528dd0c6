"""Count the code lines of the lcmf package, module by module.

    python3 tools/code_lines.py [DIR]

A code line is a physical line that some token other than a comment, a
docstring or the layout tokens (newlines, indents) covers; a docstring is a
string that stands alone as a statement.  The count reads each module with
the standard library's tokenizer, so it does not depend on formatting
choices such as blank lines or comment density.  DIR defaults to src/lcmf
beside this script's parent directory.  One line per module gives its code
and physical lines, and the last line their totals.
"""

from __future__ import annotations

import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BLANK = {tokenize.COMMENT, tokenize.NL}


def code_lines(source: str) -> int:
    """The number of lines of source that a code token covers."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline) if t.type not in _BLANK]
    rows = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        statement = i == 0 or tokens[i - 1].type in _LAYOUT
        if tok.type == tokenize.STRING and statement and tokens[i + 1].type in _LAYOUT:
            continue  # a docstring
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1] / "src" / "lcmf"
    code = physical = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        c, p = code_lines(source), len(source.splitlines())
        print(f"{path.name:16} {c:6} {p:6}")
        code, physical = code + c, physical + p
    print(f"{'total':16} {code:6} {physical:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
