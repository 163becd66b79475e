"""Reference lexer: the character-loop ``tokenize`` and ``count_sloc``.

A frozen copy of the lexer that ``javascale.javalex`` replaced with its
master-pattern version, kept so tests can check the two agree.  Two rules
differ from the original loops: a backslash escapes any character except
a newline, so a string or char literal ends at the end of its line; and a
number takes a sign only after ``e``/``E`` in a decimal literal or
``p``/``P`` in a hex one, so ``0xE-1`` is three tokens.
"""

from __future__ import annotations

from typing import NamedTuple


class Tok(NamedTuple):
    """A token as the character loops make it; ``javascale.javalex`` keeps
    no token objects, and its one-character kind is this kind's initial."""

    kind: str  # one of: word, num, str, char, punct
    text: str
    line: int

# Longest-match-first punctuation/operator list.
_OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
]

_WORD_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_WORD_CHARS = _WORD_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def tokenize(text: str) -> list[Tok]:
    """Lex ``text`` into tokens, dropping comments and whitespace."""
    toks: list[Tok] = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    # Unterminated block comment: swallow to EOF.
                    line += text.count("\n", i)
                    i = n
                    continue
                line += text.count("\n", i, j + 2)
                i = j + 2
                continue
        if c == '"':
            if text.startswith('"""', i):
                j = text.find('"""', i + 3)
                end = n if j < 0 else j + 3
                line_start = line
                line += text.count("\n", i, end)
                toks.append(Tok("str", text[i:end], line_start))
                i = end
                continue
            j = i + 1
            while j < n and text[j] not in '"\n':
                j = j + 2 if text[j] == "\\" and text[j + 1 : j + 2] != "\n" else j + 1
            end = min(j + 1, n) if j < n and text[j] == '"' else j
            toks.append(Tok("str", text[i:end], line))
            i = end
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] not in "'\n":
                j = j + 2 if text[j] == "\\" and text[j + 1 : j + 2] != "\n" else j + 1
            end = min(j + 1, n) if j < n and text[j] == "'" else j
            toks.append(Tok("char", text[i:end], line))
            i = end
            continue
        if c in _WORD_START:
            j = i + 1
            while j < n and text[j] in _WORD_CHARS:
                j += 1
            toks.append(Tok("word", text[i:j], line))
            i = j
            continue
        if c in _DIGITS:
            exponent = "pP" if text[i : i + 2] in ("0x", "0X") else "eE"
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _WORD_CHARS or ch == ".":
                    j += 1
                elif ch in "+-" and text[j - 1] in exponent:
                    j += 1
                else:
                    break
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                toks.append(Tok("punct", op, line))
                i += len(op)
                break
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return toks


def count_sloc(source_text: str) -> int:
    """Count physical source lines: neither blank nor comment-only.

    String literals are tracked by the scanner, so ``//`` inside a string
    does not start a comment.  An unterminated block comment falls back to
    counting its lines as code.
    """
    lines = source_text.split("\n")
    has_code = [False] * len(lines)
    i = 0
    n = len(source_text)
    line = 0
    while i < n:
        c = source_text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = source_text[i + 1]
            if nxt == "/":
                j = source_text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = source_text.find("*/", i + 2)
                if j < 0:
                    # Malformed comment: count the remaining non-blank
                    # lines as code.
                    for k in range(line, len(lines)):
                        if lines[k].strip():
                            has_code[k] = True
                    break
                line += source_text.count("\n", i, j + 2)
                i = j + 2
                continue
        # Any other non-whitespace character is code, including string
        # and char literal content.
        has_code[line] = True
        if c == '"':
            if source_text.startswith('"""', i):
                j = source_text.find('"""', i + 3)
                end = n if j < 0 else j + 3
                for k in range(line, line + source_text.count("\n", i, end) + 1):
                    if k < len(has_code):
                        has_code[k] = True
                line += source_text.count("\n", i, end)
                i = end
                continue
            j = i + 1
            while j < n and source_text[j] not in '"\n':
                j = j + 2 if source_text[j] == "\\" and source_text[j + 1 : j + 2] != "\n" else j + 1
            i = min(j + 1, n) if j < n and source_text[j] == '"' else j
            continue
        if c == "'":
            j = i + 1
            while j < n and source_text[j] not in "'\n":
                j = j + 2 if source_text[j] == "\\" and source_text[j + 1 : j + 2] != "\n" else j + 1
            i = min(j + 1, n) if j < n and source_text[j] == "'" else j
            continue
        i += 1
    return sum(has_code)
