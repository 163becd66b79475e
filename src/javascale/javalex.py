"""Tolerant lexer for Java source text.

Each function reads the text with one compiled master pattern, an
alternation of named groups tried at every position, in the manner of
CPython's ``tokenize`` and Pygments' ``RegexLexer``.  ``tokenize`` walks
the matches of ``_TOKEN`` and dispatches on ``Match.lastgroup``;
``count_sloc`` rewrites the text once with ``_SLOC`` so that comments
vanish (their newlines kept) and literals become plain code characters,
then counts the lines left with code on them.

The lexer never raises on malformed input.  The tolerance rules are:

* A string or char literal closes at its quote or at the end of its line,
  whichever comes first.  A backslash escapes any character except a
  newline, so a literal never spans lines.
* A text block whose three closing quotes never come runs to the end of
  the file.
* A block comment that is never closed ends tokenization; ``count_sloc``
  counts the non-blank lines from the one where it opens as code.
* A number runs over letters, digits, ``_``, ``$`` and ``.``; a sign
  continues it only as an exponent's, after ``e``/``E`` in a decimal
  literal or ``p``/``P`` in a hex one (JLS 3.10.2), so ``0xE-1`` is three
  tokens.
* A character that starts no token (``#``, a non-ASCII letter, a
  vertical tab) is a one-character ``punct`` token.

This is deliberate -- extraction must survive whatever a large crawled
corpus throws at it.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Tok(NamedTuple):
    kind: str  # one of: word, num, str, char, punct, anon
    text: str
    line: int


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

PRIMITIVES = frozenset(
    ["boolean", "byte", "char", "short", "int", "long", "float", "double"]
)

# Longest-match-first punctuation/operator list.
_OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)

ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="]
)

_STRING = r'"[^"\\\n]*(?:\\.?[^"\\\n]*)*"?'
_CHAR = r"'[^'\\\n]*(?:\\.?[^'\\\n]*)*'?"
_TEXT_BLOCK = r'"""[\s\S]*?(?:"""|\Z)'
_LINE_COMMENT = r"//[^\n]*"
_BLOCK_COMMENT = r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"
_OPEN_COMMENT = r"/\*[\s\S]*"

# Each match swallows the blanks after it, so blanks cost no loop turn.
# A file's leading blanks are skipped by ``finditer``'s search, which can
# skip nothing else: the last alternative takes any other character.
_TOKEN = re.compile(
    rf"""(?:
      (?P<nl>\n)
    | (?P<word>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<skip>{_LINE_COMMENT}|{_BLOCK_COMMENT})
    | (?P<open>{_OPEN_COMMENT})
    | (?P<text>{_TEXT_BLOCK})
    | (?P<str>{_STRING})
    | (?P<char>{_CHAR})
    | (?P<num>0[xX][A-Za-z0-9_$.]*(?:(?<=[pP])[+-][A-Za-z0-9_$.]*)*
            |[0-9][A-Za-z0-9_$.]*(?:(?<=[eE])[+-][A-Za-z0-9_$.]*)*)
    | (?P<punct>{"|".join(map(re.escape, _OPERATORS))}|[^ \t\r\f\n])
    )[ \t\r\f]*""",
    re.VERBOSE,
)
_EMITTED = frozenset(["word", "num", "str", "char", "punct"])

_SLOC = re.compile(
    rf"(?P<comment>{_LINE_COMMENT}|{_BLOCK_COMMENT})|(?P<open>{_OPEN_COMMENT})"
    rf"|(?P<text>{_TEXT_BLOCK})|{_STRING}|{_CHAR}"
)
_CODE_LINE = re.compile(r"^[ \t\r\f]*[^ \t\r\f\n]", re.MULTILINE)


def tokenize(text: str) -> list[Tok]:
    """Lex ``text`` into tokens, dropping comments and whitespace."""
    toks: list[Tok] = []
    append = toks.append
    new = tuple.__new__
    line = 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _EMITTED:
            append(new(Tok, (kind, m[kind], line)))
        elif kind == "nl":
            line += 1
        elif kind == "open":
            break
        else:
            body = m[kind]
            if kind == "text":
                append(new(Tok, ("str", body, line)))
            line += body.count("\n")
    return toks


def _as_code(m: re.Match) -> str:
    """Replace one comment or literal by what ``count_sloc`` should see."""
    kind = m.lastgroup
    if kind is None:  # string or char literal: one line of code
        return "x"
    body = m.group()
    if kind == "comment":
        return "\n" * body.count("\n")
    if kind == "text":
        return "x" + "\nx" * body.count("\n")
    # Unterminated block comment: its non-blank lines count as code.
    return "\n".join(["x" if part.strip() else "" for part in body.split("\n")])


def count_sloc(source_text: str) -> int:
    """Count physical source lines: neither blank nor comment-only.

    A literal is matched as a whole, so ``//`` inside a string does not
    start a comment.  Every line a text block spans is code.  An
    unterminated block comment falls back to counting its non-blank lines
    as code.
    """
    return len(_CODE_LINE.findall(_SLOC.sub(_as_code, source_text)))
