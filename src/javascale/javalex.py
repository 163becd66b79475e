"""Tolerant lexer for Java source text.

``lex`` reads the text in one pass over one compiled master pattern, an
alternation of named groups tried at every position, in the manner of
CPython's ``tokenize`` and Pygments' ``RegexLexer``.  It dispatches on
``Match.lastgroup`` and returns the tokens, comments and whitespace
dropped, with the text's SLOC: the lines on which a token starts, and
every line a text block spans.  A comment-only or blank line is not
counted, and ``//`` inside a literal starts no comment.  ``tokenize``
and ``count_sloc`` are its two halves.

The lexer never raises on malformed input.  The tolerance rules are:

* A string or char literal closes at its quote or at the end of its line,
  whichever comes first.  A backslash escapes any character except a
  newline, so a literal never spans lines.
* A text block whose three closing quotes never come runs to the end of
  the file, and every line it spans counts.
* A block comment that is never closed ends the tokens.  Its first line
  counts, and so does each later line that ``str.strip()`` leaves
  non-empty.
* A number runs over letters, digits, ``_``, ``$`` and ``.``; a sign
  continues it only as an exponent's, after ``e``/``E`` in a decimal
  literal or ``p``/``P`` in a hex one (JLS 3.10.2), so ``0xE-1`` is three
  tokens.
* A character that starts no token (``#``, a non-ASCII letter, a
  vertical tab) is a one-character ``punct`` token, so its line counts.

This is deliberate -- extraction must survive whatever a large crawled
corpus throws at it.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class Tok(NamedTuple):
    kind: str  # one of: word, num, str, char, punct
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


def lex(text: str) -> tuple[list[Tok], int]:
    """Lex ``text`` into its tokens and its count of source lines."""
    toks: list[Tok] = []
    append = toks.append
    new = tuple.__new__
    line = 1
    sloc = 0
    counted = 0  # the last line counted as code
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind in _EMITTED:
            append(new(Tok, (kind, m[kind], line)))
            if line != counted:
                sloc += 1
                counted = line
        elif kind == "nl":
            line += 1
        elif kind == "skip":
            line += m[kind].count("\n")
        elif kind == "text":
            body = m[kind]
            append(new(Tok, ("str", body, line)))
            spanned = body.count("\n")
            sloc += spanned + (line != counted)
            line += spanned
            counted = line
        else:  # an unterminated block comment runs to the end of the text
            tail = m[kind].split("\n")[1:]
            sloc += (line != counted) + sum(1 for part in tail if part.strip())
            break
    return toks, sloc


def tokenize(text: str) -> list[Tok]:
    """Lex ``text`` into tokens, dropping comments and whitespace."""
    return lex(text)[0]


def count_sloc(source_text: str) -> int:
    """Count physical source lines: neither blank nor comment-only."""
    return lex(source_text)[1]
