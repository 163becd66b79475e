"""Tolerant lexer for Java source text.

``lex`` reads the text with one ``findall`` over one compiled master
pattern, in the manner of CPython's ``tokenize`` and Pygments'
``RegexLexer``.  The pattern has a single capturing group, so no ``Match``
object is made: each match is one string, a newline, a comment or a token,
with the blanks after it swallowed.  A comment is a match that starts with
``//`` or ``/*``; any other match but a newline is a token.

``lex`` returns the file's token table as parallel sequences, and the
text's SLOC:

* ``texts``: each token's text, interned, so equal texts are one object;
* ``kinds``: a ``str`` of one character per token, read off the token's
  first character: ``w`` a word (``[A-Za-z_$]``), ``n`` a number (a
  digit), ``s`` a string or text block (``"``), ``c`` a char literal
  (``'``), ``p`` punctuation (anything else).  The text fixes the kind, so
  a test such as ``text == "new"`` needs no kind;
* ``lines``: the line on which each token starts, an ``array('i')``.

The SLOC are the lines on which a token starts, and every line a text
block spans.  A comment-only or blank line is not counted, and ``//``
inside a literal starts no comment.  ``tokenize`` and ``count_sloc`` are
thin wrappers over ``lex``.

The lexer never raises on malformed input.  The tolerance rules are:

* A string or char literal closes at its quote or at the end of its line,
  whichever comes first.  A backslash escapes any character except a
  newline, so a literal never spans lines.
* A text block whose three closing quotes never come runs to the end of
  the file, and every line it spans counts.
* A block comment that is never closed ends the tokens.  A ``/*`` match is
  closed only when it is at least 4 characters long and ends with ``*/``,
  so ``/*/`` is not.  Its first line counts, and so does each later line
  that ``str.strip()`` leaves non-empty.
* A number runs over letters, digits, ``_``, ``$`` and ``.``; a sign
  continues it only as an exponent's, after ``e``/``E`` in a decimal
  literal or ``p``/``P`` in a hex one (JLS 3.10.2), so ``0xE-1`` is three
  tokens.
* A character that starts no token (``#``, a non-ASCII letter, a
  vertical tab) is a one-character ``p`` token, so its line counts.

This is deliberate -- extraction must survive whatever a large crawled
corpus throws at it.
"""

from __future__ import annotations

import re
import string
import sys
from array import array
from operator import itemgetter

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
# a block comment runs to its `*/` or to the end of the text
_COMMENT = r"//[^\n]*|/\*[^*]*(?:\*+[^/*][^*]*)*(?:\*+/?)?"

# Each match swallows the blanks after it, so blanks cost no loop turn.
# A file's leading blanks are skipped by ``findall``'s search, which can
# skip nothing else: the last alternative takes any other character.  The
# one-character punctuation that starts no operator is tried early, as it
# is common.
_TOKEN = re.compile(
    rf"""(
      \n
    | [A-Za-z_$][A-Za-z0-9_$]*
    | [(){{}}\[\];,@?~]
    | {_COMMENT}
    | {_TEXT_BLOCK}
    | {_STRING}
    | {_CHAR}
    | 0[xX][A-Za-z0-9_$.]*(?:(?<=[pP])[+-][A-Za-z0-9_$.]*)*
    | [0-9][A-Za-z0-9_$.]*(?:(?<=[eE])[+-][A-Za-z0-9_$.]*)*
    | {"|".join(map(re.escape, _OPERATORS))}|[^ \t\r\f\n]
    )[ \t\r\f]*""",
    re.VERBOSE,
)

# a token's first character -> its kind, for ASCII; ``str.translate``
# leaves a character past ASCII as it is
_KIND_OF_FIRST = dict.fromkeys(range(128), "p") | str.maketrans(
    string.ascii_letters + "_$" + string.digits + "\"'", "w" * 54 + "n" * 10 + "sc"
)


def lex(text: str) -> tuple[list[str], str, array, int]:
    """Lex ``text`` into its token table, ``(texts, kinds, lines)``, and its
    count of source lines."""
    texts: list[str] = []
    lines: list[int] = []
    append = texts.append
    at = lines.append
    line = 1
    code: set[int] = set()  # the lines text blocks and an open comment make code
    tail = 0  # the non-blank lines an unterminated comment runs over
    for s in _TOKEN.findall(text):
        if s == "\n":
            line += 1
        elif s[0] not in '/"':
            append(s)
            at(line)
        elif s[:2] == "//":
            pass
        elif s[:2] == "/*":
            if len(s) >= 4 and s.endswith("*/"):
                line += s.count("\n")
                continue
            code.add(line)
            tail = sum(1 for part in s.split("\n")[1:] if part.strip())
            break
        else:
            append(s)
            at(line)
            if s.startswith('"""'):
                spanned = s.count("\n")
                code.update(range(line, line + spanned + 1))
                line += spanned
    texts = list(map(sys.intern, texts))
    kinds = "".join(map(itemgetter(0), texts)).translate(_KIND_OF_FIRST)
    if not kinds.isascii():
        kinds = re.sub("[^wnscp]", "p", kinds)
    sloc = len(code.union(lines)) + tail
    return texts, kinds, array("i", lines), sloc


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Lex ``text`` into (kind, text, line) triples, dropping comments and
    whitespace."""
    texts, kinds, lines, _ = lex(text)
    return list(zip(kinds, texts, lines))


def count_sloc(source_text: str) -> int:
    """Count physical source lines: neither blank nor comment-only."""
    return lex(source_text)[3]
