"""Extract entity/relation facts from Java source trees.

Extraction is purely syntactic: names are resolved through declared types,
the per-file import table and a built-in ``java.lang`` table.  There is no
type inference and no bytecode analysis, so call receivers that cannot be
resolved are recorded against the receiver text as written; provenance
counting later skips such targets.  Parsing is tolerant: a declaration
that cannot be understood is skipped and counted, never fatal.

Parsing is one pass over one token list per file, whose brackets are
matched once, up front.  Each body the parser captures (a method body, a
field initializer, an initializer block, an enum constant's arguments)
stays a window of its file's tokens: the parser reads the anonymous class
bodies and local type declarations nested in it and records their spans,
and the relation pass walks the window, jumping over those spans.

A simple type name resolves to the first of:

1. the current type or one of its enclosing types, or a member type of
   one of them, innermost first;
2. a top-level type of the same file;
3. a project type of the same package (in the default package, any
   default-package type; a named package does not see the default
   package, JLS 7.5);
4. a single-type import;
5. a project type in a package the file imports with ``p.*``;
6. ``java.lang.<name>``, for the names in ``JAVA_LANG_TYPES``;
7. a guess, ``p.<name>``, when the file has exactly one wildcard import
   ``p.*`` and the name is capitalised, as type names are by convention.

Otherwise it does not resolve.  Primitive types resolve to their boxes.
A dotted name that is a project type stands as is; else its first segment
is resolved as above and the rest appended, or the name is kept as
written.  A type use targets the project type's entity when the name
resolves to one, else the resolved name, else the name as written.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import DataError, DuplicateProjectError, EmptyCorpusError
from .facts import (
    EntityKind,
    FactRelation,
    ProjectFacts,
    RelationKind,
    SourceEntity,
)
# ``tokenize`` is not called here; the benchmark's tracer (bench/worker.py)
# looks it up in this module, with ``count_sloc`` and the public functions
from .javalex import ASSIGN_OPS, KEYWORDS, PRIMITIVES, Tok, count_sloc, lex, tokenize

log = logging.getLogger(__name__)

DEFAULT_PACKAGE = "(default)"

PRIMITIVE_BOX = {
    "boolean": "java.lang.Boolean",
    "byte": "java.lang.Byte",
    "char": "java.lang.Character",
    "short": "java.lang.Short",
    "int": "java.lang.Integer",
    "long": "java.lang.Long",
    "float": "java.lang.Float",
    "double": "java.lang.Double",
}

# Types importable without an explicit import.  Used to resolve bare
# references like Integer or System; deliberately limited to common names.
JAVA_LANG_TYPES = frozenset(
    """Object String CharSequence StringBuilder StringBuffer
    Integer Long Double Float Short Byte Character Boolean Void Number
    Math StrictMath System Runtime Process ProcessBuilder
    Thread ThreadGroup ThreadLocal InheritableThreadLocal Runnable
    Class ClassLoader Package Enum Record Iterable Comparable Cloneable
    AutoCloseable Appendable Readable
    Throwable Exception RuntimeException Error
    ArithmeticException ArrayIndexOutOfBoundsException ArrayStoreException
    ClassCastException ClassNotFoundException CloneNotSupportedException
    IllegalAccessException IllegalArgumentException IllegalStateException
    IllegalMonitorStateException IndexOutOfBoundsException
    InstantiationException InterruptedException NegativeArraySizeException
    NoSuchFieldException NoSuchMethodException NullPointerException
    NumberFormatException SecurityException StringIndexOutOfBoundsException
    UnsupportedOperationException
    AssertionError StackOverflowError OutOfMemoryError NoClassDefFoundError
    ExceptionInInitializerError UnsupportedClassVersionError LinkageError
    VirtualMachineError InternalError
    Deprecated Override SuppressWarnings SafeVarargs FunctionalInterface
    StackTraceElement SecurityManager""".split()
)

# Interfaces an anonymous class is likely implementing rather than
# extending, when the supertype is not declared in the project.
KNOWN_JDK_INTERFACES = frozenset(
    """java.lang.Runnable java.lang.Comparable java.lang.Iterable
    java.lang.Cloneable java.lang.AutoCloseable java.lang.Appendable
    java.lang.Readable java.lang.CharSequence java.lang.Thread.UncaughtExceptionHandler
    java.util.Comparator java.util.Iterator java.util.concurrent.Callable
    java.io.Serializable java.io.Closeable java.awt.event.ActionListener""".split()
)

MODIFIER_WORDS = frozenset(
    """public private protected static final abstract native synchronized
    transient volatile strictfp default sealed""".split()
)

_TYPE_KEYWORDS = frozenset(["class", "interface", "enum"])
_TYPE_KEYWORD_TEXTS = _TYPE_KEYWORDS | {"record"}  # the texts _type_keyword accepts


def _type_keyword(toks: list[Tok], i: int, end: int) -> str | None:
    """The kind of type declared from ``toks[i]`` on, if it starts one:
    ``class``, ``interface`` or ``enum``, or ``record`` followed by a name
    and ``(`` or ``<`` before ``end`` (elsewhere ``record`` is a name)."""
    t = toks[i]
    if t.kind != "word":
        return None
    if t.text in _TYPE_KEYWORDS:
        return t.text
    if (
        t.text == "record"
        and i + 2 < end
        and toks[i + 1].kind == "word"
        and toks[i + 2].text in ("(", "<")
    ):
        return "record"
    return None


# Tokens that may legally appear inside a generic argument list in a usage
# position; anything else means "this was a comparison, not a type".
_GENERIC_OK_PUNCT = frozenset([".", ",", "?", "<", ">", "[", "]"])
_GENERIC_OK_WORDS = frozenset(["extends", "super"])

# Tokens that may start an expression immediately after a cast.
_CAST_FOLLOW_PUNCT = frozenset(["(", "!", "~"])
_CAST_FOLLOW_WORDS = frozenset(["new", "this", "super"])

_DECL_BOUNDARY_PUNCT = frozenset([";", "{", "}", "(", ",", ":", "->"])
_DECL_BOUNDARY_WORDS = frozenset(["final", "else", "do"])

_DECL_TERMINATORS = frozenset(["=", ";", ",", ":", ")"])


def _member_ref(tok: Tok) -> bool:
    """Whether ``tok`` can follow ``::``: an identifier, or ``new``."""
    return tok.kind == "word" and (tok.text == "new" or tok.text not in KEYWORDS)


# ---------------------------------------------------------------------------
# Parse tree (per file)
# ---------------------------------------------------------------------------


@dataclass
class TypeRef:
    base: str
    args: list[str] = field(default_factory=list)
    dims: int = 0


@dataclass
class FieldDecl:
    name: str
    tref: TypeRef
    line: int
    body: tuple[int, int] = (0, 0)  # the initializer, as [start, end) of the file's tokens
    anons: list["TypeDecl"] = field(default_factory=list)
    entity_id: int = 0


@dataclass
class MethodDecl:
    name: str
    ret: TypeRef | None
    params: list[tuple[TypeRef, str]]
    throws: list[TypeRef]
    line: int
    is_ctor: bool = False
    type_params: list[str] = field(default_factory=list)
    type_param_bounds: list[str] = field(default_factory=list)
    body: tuple[int, int] = (0, 0)  # [start, end) of the file's tokens
    anons: list["TypeDecl"] = field(default_factory=list)
    entity_id: int = 0


@dataclass
class InitDecl:
    line: int
    body: tuple[int, int] = (0, 0)  # [start, end) of the file's tokens
    anons: list["TypeDecl"] = field(default_factory=list)


@dataclass
class EnumConst:
    name: str
    line: int
    body: tuple[int, int] = (0, 0)  # the arguments
    # anonymous classes in the arguments, then the constant's class body
    anons: list["TypeDecl"] = field(default_factory=list)
    entity_id: int = 0


@dataclass
class TypeDecl:
    kind: str  # class | interface | enum | annotation
    name: str | None  # None for anonymous classes
    line: int
    extends: list[TypeRef] = field(default_factory=list)
    implements: list[TypeRef] = field(default_factory=list)
    # declaration order; an enum's constants follow its other members
    members: list = field(default_factory=list)
    anon_super: TypeRef | None = None
    is_record: bool = False
    type_params: list[str] = field(default_factory=list)
    type_param_bounds: list[str] = field(default_factory=list)
    fqn: str = ""
    entity_id: int = 0


@dataclass
class FileSyntax:
    path: str
    toks: list[Tok]
    partner: list[int]  # _partners(toks)
    # the `{` of each anonymous class body and the keyword of each local type
    # declaration in a body: the index past its tokens, and its declaration
    nested: dict[int, tuple[int, "TypeDecl"]] = field(default_factory=dict)
    package: str | None = None
    imports: dict[str, str] = field(default_factory=dict)  # simple -> fqn
    wildcard_imports: list[str] = field(default_factory=list)
    types: list[TypeDecl] = field(default_factory=list)
    parse_warnings: int = 0
    sloc: int = 0


# ---------------------------------------------------------------------------
# Structural parsing
# ---------------------------------------------------------------------------


def _partners(toks: list[Tok]) -> list[int]:
    """For each ``(`` and ``{``, the index of the token closing it, or
    ``len(toks)``; one stack per kind, so a ``)`` never closes a ``{``."""
    partner = [len(toks)] * len(toks)
    parens: list[int] = []
    braces: list[int] = []
    stacks = {"(": parens, ")": parens, "{": braces, "}": braces}
    for i in [i for i, t in enumerate(toks) if t.text in stacks]:
        stack = stacks[toks[i].text]
        if toks[i].text in "({":
            stack.append(i)
        elif stack:
            partner[stack.pop()] = i
    return partner


def _skip_type_params(toks: list[Tok], i: int, n: int) -> tuple[list[str], list[str], int]:
    """Parse a declaration type-parameter list from ``<`` up to ``n``.

    Returns the introduced type-variable names (identifiers directly after
    ``<`` or a top-level comma), every other type name mentioned in the
    bounds, and the index past the list.
    """
    depth = 0
    names: list[str] = []
    bounds: list[str] = []
    expect_name = False
    chain: list[str] = []

    def flush() -> None:
        if chain:
            name = ".".join(chain)
            if name not in names:
                bounds.append(name)
            chain.clear()

    while i < n:
        t = toks[i]
        if t.text == "<":
            flush()
            depth += 1
            expect_name = depth == 1
        elif t.text in (">", ">>", ">>>"):
            flush()
            depth -= {">": 1, ">>": 2, ">>>": 3}[t.text]
        elif t.text == "," and depth == 1:
            flush()
            expect_name = True
        elif t.text in ("{", ";", ")"):
            flush()
            return names, bounds, i  # malformed; let the caller cope
        elif t.kind == "word" and t.text not in KEYWORDS:
            if expect_name:
                names.append(t.text)
                expect_name = False
            elif not chain or (i > 0 and toks[i - 1].text == "."):
                chain.append(t.text)
            else:
                flush()
                chain.append(t.text)
        elif t.text != ".":
            flush()
        i += 1
        if depth <= 0:
            return names, bounds, i
    flush()
    return names, bounds, n


def parse_typeref(toks: list[Tok], i: int, n: int) -> tuple[TypeRef | None, int]:
    """Parse a type reference in a usage position, from ``i`` up to ``n``.

    Returns (None, i) when the tokens at ``i`` do not look like a type.
    Generic arguments are collected by base name; array brackets counted.
    """
    if i >= n or toks[i].kind != "word":
        return None, i
    word = toks[i].text
    if word in PRIMITIVES or word in ("void", "var"):
        ref = TypeRef(base=word)
        i += 1
    elif word in KEYWORDS:
        return None, i
    else:
        segs = [word]
        i += 1
        args: list[str] = []
        # generic args may follow any segment
        if i < n and toks[i].text == "<":
            ok, args_here, i2 = _scan_generic_args(toks, i, n)
            if not ok:
                args_here, i2 = [], i
            args += args_here
            i = i2
        while (
            i + 1 < n
            and toks[i].text == "."
            and toks[i + 1].kind == "word"
            and toks[i + 1].text not in KEYWORDS
        ):
            segs.append(toks[i + 1].text)
            i += 2
            if i < n and toks[i].text == "<":
                ok, args_here, i2 = _scan_generic_args(toks, i, n)
                if not ok:
                    break
                args += args_here
                i = i2
        ref = TypeRef(base=".".join(segs), args=args)
    while i + 1 < n and toks[i].text == "[" and toks[i + 1].text == "]":
        ref.dims += 1
        i += 2
    if i < n and toks[i].text == "...":
        ref.dims += 1
        i += 1
    return ref, i


def _scan_generic_args(toks: list[Tok], i: int, n: int) -> tuple[bool, list[str], int]:
    """Scan ``<...>`` in a usage position; reject anything un-type-like."""
    assert toks[i].text == "<"
    depth = 0
    names: list[str] = []
    j = i
    cur: list[str] = []

    def flush() -> None:
        if cur:
            names.append(".".join(cur))
            cur.clear()

    while j < n:
        t = toks[j]
        if t.text == "<":
            flush()
            depth += 1
        elif t.text in (">", ">>", ">>>"):
            depth -= {">": 1, ">>": 2, ">>>": 3}[t.text]
            flush()
            if depth <= 0:
                return True, names, j + 1
        elif t.kind == "word":
            if t.text in _GENERIC_OK_WORDS:
                flush()
            elif t.text in KEYWORDS and t.text not in PRIMITIVES:
                return False, [], i
            else:
                cur.append(t.text)
        elif t.text == ".":
            pass
        elif t.text in _GENERIC_OK_PUNCT:
            flush()
        else:
            return False, [], i
        j += 1
    return False, [], i


class _Parser:
    """Recursive-descent structural parser over a file's tokens up to
    ``end``: the file's end, or the end of the body it reads."""

    def __init__(self, syntax: FileSyntax, end: int):
        self.syntax = syntax
        self.toks = syntax.toks
        self.end = end

    def warn(self) -> None:
        self.syntax.parse_warnings += 1

    # -- helpers ---------------------------------------------------------

    def close(self, i: int) -> int:
        """Index of the token closing the bracket at ``i``, or the window's
        end when the window does not hold it."""
        return min(self.syntax.partner[i], self.end)

    def window(self, end: int) -> _Parser:
        """A parser over the same tokens whose window ends at ``end``."""
        return _Parser(self.syntax, end)

    def _body(
        self, member: FieldDecl | MethodDecl | InitDecl | EnumConst, start: int, end: int
    ) -> FieldDecl | MethodDecl | InitDecl | EnumConst:
        """Make ``[start, end)`` ``member``'s body and parse the types
        nested in it; returns ``member``."""
        member.body = (start, end)
        self.window(end)._nested_types(start, member.anons)
        return member

    def _skip_annotation(self, i: int) -> int:
        # at '@': @Name or @pkg.Name, optional (...)
        toks, n = self.toks, self.end
        i += 1
        while i + 1 < n and toks[i].kind == "word" and toks[i + 1].text == ".":
            i += 2
        if i < n and toks[i].kind == "word":
            i += 1
        if i < n and toks[i].text == "(":
            i = self.close(i) + 1
        return i

    def _skip_mods_annotations(self, i: int) -> int:
        toks, n = self.toks, self.end
        while i < n:
            t = toks[i]
            if t.text == "@" and i + 1 < n and toks[i + 1].text != "interface":
                i = self._skip_annotation(i)
            elif t.kind == "word" and t.text in MODIFIER_WORDS:
                # 'default' only acts as a modifier when not a switch label
                if t.text == "default" and i + 1 < n and toks[i + 1].text == ":":
                    return i
                i += 1
            elif t.kind == "word" and t.text == "non":
                # tolerate 'non-sealed' lexed as ['non', '-', 'sealed']
                if i + 2 < n and toks[i + 1].text == "-" and toks[i + 2].text == "sealed":
                    i += 3
                else:
                    return i
            else:
                return i
        return i

    def _skip_to_member_boundary(self, i: int) -> int:
        toks = self.toks
        depth = 0
        while i < self.end:
            t = toks[i].text
            if t == "{":
                i = self.close(i) + 1
                if depth == 0:
                    return i
                continue
            if t == ";" and depth == 0:
                return i + 1
            if t == "(":
                depth += 1
            elif t == ")":
                if depth == 0:
                    return i
                depth -= 1
            elif t == "}" and depth == 0:
                return i
            i += 1
        return i

    def _typeref_list(self, i: int) -> tuple[list[TypeRef], int]:
        refs: list[TypeRef] = []
        toks, n = self.toks, self.end
        while True:
            while i < n and toks[i].text == "@":
                i = self._skip_annotation(i)
            ref, i = parse_typeref(toks, i, n)
            if ref is None:
                break
            refs.append(ref)
            if i < n and toks[i].text == ",":
                i += 1
                continue
            break
        return refs, i

    # -- file level ------------------------------------------------------

    def parse_file(self) -> None:
        toks, n = self.toks, self.end
        i = 0
        while i < n:
            t = toks[i]
            if t.text == ";":
                i += 1
                continue
            if t.text == "@" and i + 1 < n and toks[i + 1].text != "interface":
                i = self._skip_annotation(i)
                continue
            if t.kind == "word" and t.text == "package":
                segs = []
                i += 1
                while i < n and toks[i].kind == "word":
                    segs.append(toks[i].text)
                    i += 1
                    if i < n and toks[i].text == ".":
                        i += 1
                    else:
                        break
                self.syntax.package = ".".join(segs) if segs else None
                while i < n and toks[i].text != ";":
                    i += 1
                i += 1
                continue
            if t.kind == "word" and t.text == "import":
                i = self._parse_import(i)
                continue
            decl, i2 = self._try_type_decl(i)
            if decl is not None:
                self.syntax.types.append(decl)
                i = i2
                continue
            self.warn()
            i = self._skip_to_member_boundary(i + 1)

    def _parse_import(self, i: int) -> int:
        toks, n = self.toks, self.end
        i += 1
        is_static = False
        if i < n and toks[i].text == "static":
            is_static = True
            i += 1
        segs: list[str] = []
        wildcard = False
        while i < n and toks[i].text != ";":
            if toks[i].kind == "word":
                segs.append(toks[i].text)
            elif toks[i].text == "*":
                wildcard = True
            i += 1
        i += 1
        if not segs:
            return i
        if is_static:
            return i  # static imports do not feed type resolution
        if wildcard:
            self.syntax.wildcard_imports.append(".".join(segs))
        else:
            self.syntax.imports[segs[-1]] = ".".join(segs)
        return i

    # -- type declarations -----------------------------------------------

    def _try_type_decl(self, i: int) -> tuple[TypeDecl | None, int]:
        toks, n = self.toks, self.end
        j = self._skip_mods_annotations(i)
        if j >= n:
            return None, i
        t = toks[j]
        if t.text == "@" and j + 1 < n and toks[j + 1].text == "interface":
            return self._parse_type_decl(j + 2, "annotation", toks[j].line)
        kind = _type_keyword(toks, j, n)
        if kind is not None:
            return self._parse_type_decl(j + 1, kind, t.line)
        return None, i

    def _parse_type_decl(self, i: int, kind: str, line: int) -> tuple[TypeDecl | None, int]:
        toks, n = self.toks, self.end
        if i >= n or toks[i].kind != "word":
            self.warn()
            return None, self._skip_to_member_boundary(i)
        is_record = kind == "record"  # kept as a class
        decl = TypeDecl("class" if is_record else kind, toks[i].text, line, is_record=is_record)
        i += 1
        if i < n and toks[i].text == "<":
            decl.type_params, decl.type_param_bounds, i = _skip_type_params(toks, i, n)
        if is_record and i < n and toks[i].text == "(":
            end = self.close(i)
            for tref, name in self._parse_params(i, end):
                decl.members.append(FieldDecl(name=name, tref=tref, line=line))
            i = end + 1
        # a record header takes only `implements`
        while i < n and toks[i].text != "{":
            t = toks[i]
            if t.kind == "word" and t.text == "extends" and not is_record:
                decl.extends, i = self._typeref_list(i + 1)
            elif t.kind == "word" and t.text == "implements":
                decl.implements, i = self._typeref_list(i + 1)
            elif t.kind == "word" and t.text == "permits" and not is_record:
                _, i = self._typeref_list(i + 1)
            else:
                i += 1
        if i >= n:
            self.warn()
            return decl, n
        end = self.close(i)
        if kind == "enum":
            self._parse_enum_body(decl, i + 1, end)
        else:
            self._parse_members(decl, i + 1, end)
        return decl, end + 1

    def _parse_params(self, i_open: int, i_close: int) -> list[tuple[TypeRef, str]]:
        toks = self.toks
        params: list[tuple[TypeRef, str]] = []
        i = i_open + 1
        while i < i_close:
            while i < i_close and toks[i].text == "@":
                i = self._skip_annotation(i)
            while i < i_close and toks[i].kind == "word" and toks[i].text == "final":
                i += 1
            ref, i2 = parse_typeref(toks, i, self.end)
            if ref is None:
                i += 1
                continue
            i = i2
            if i < i_close and toks[i].kind == "word":
                name = toks[i].text
                i += 1
                while i + 1 < i_close and toks[i].text == "[" and toks[i + 1].text == "]":
                    ref.dims += 1
                    i += 2
                params.append((ref, name))
            while i < i_close and toks[i].text != ",":
                i += 1
            i += 1
        return params

    def _parse_members(self, decl: TypeDecl, i: int, end: int) -> None:
        toks = self.toks
        while i < end:
            t = toks[i]
            if t.text == ";":
                i += 1
                continue
            nested, i2 = self._try_type_decl(i)
            if nested is not None:
                decl.members.append(nested)
                i = i2
                continue
            j = self._skip_mods_annotations(i)
            if j >= end:
                break
            t = toks[j]
            if t.text == "{":
                blk_end = self.close(j)
                decl.members.append(self._body(InitDecl(t.line), j + 1, blk_end))
                i = blk_end + 1
                continue
            names: list[str] = []
            bounds: list[str] = []
            if t.text == "<":
                names, bounds, j = _skip_type_params(toks, j, self.end)
                if j >= end:
                    break
            member, i2 = self._parse_member_after_mods(decl, j, end)
            if member is None:
                self.warn()
                i = self._skip_to_member_boundary(j + 1)
            else:
                if isinstance(member, MethodDecl):
                    member.type_params, member.type_param_bounds = names, bounds
                i = i2

    def _parse_member_after_mods(
        self, decl: TypeDecl, i: int, end: int
    ) -> tuple[object | None, int]:
        toks = self.toks
        ref, j = parse_typeref(toks, i, self.end)
        if ref is None:
            return None, i
        if j < end and toks[j].text == "(":
            # constructor: the "type" was actually the class name
            if ref.base == decl.name and ref.dims == 0:
                return self._parse_callable(decl, None, decl.name, True, j, toks[i].line, end)
            return None, i
        if j < end and toks[j].text == "{" and decl.is_record and ref == TypeRef(decl.name):
            # compact canonical constructor: the parameters are the components
            blk_end = self.close(j)
            member = MethodDecl(
                name=decl.name, ret=None, params=[], throws=[], line=toks[i].line, is_ctor=True
            )
            decl.members.append(self._body(member, j + 1, blk_end))
            return member, blk_end + 1
        if j >= end or toks[j].kind != "word":
            return None, i
        name = toks[j].text
        after = j + 1
        if after < end and toks[after].text == "(":
            return self._parse_callable(decl, ref, name, False, after, toks[i].line, end)
        if after <= end and (after >= end or toks[after].text in ("=", ";", ",", "[")):
            return self._parse_fields(decl, ref, name, after, toks[i].line, end)
        return None, i

    def _parse_callable(
        self,
        decl: TypeDecl,
        ret: TypeRef | None,
        name: str,
        is_ctor: bool,
        i_open: int,
        line: int,
        end: int,
    ) -> tuple[MethodDecl | None, int]:
        toks = self.toks
        close = self.close(i_open)
        params = self._parse_params(i_open, close)
        i = close + 1
        throws: list[TypeRef] = []
        while i < end and toks[i].text not in ("{", ";"):
            if toks[i].kind == "word" and toks[i].text == "throws":
                throws, i = self._typeref_list(i + 1)
            elif toks[i].kind == "word" and toks[i].text == "default":
                # annotation member default value
                while i < end and toks[i].text != ";":
                    i += 1
            else:
                i += 1
        member = MethodDecl(
            name=name, ret=ret, params=params, throws=throws, line=line, is_ctor=is_ctor
        )
        if i < end and toks[i].text == "{":
            blk_end = self.close(i)
            self._body(member, i + 1, blk_end)
            i = blk_end + 1
        else:
            i += 1
        decl.members.append(member)
        return member, i

    def _parse_fields(
        self, decl: TypeDecl, ref: TypeRef, first_name: str, i: int, line: int, end: int
    ) -> tuple[FieldDecl | None, int]:
        toks = self.toks
        name = first_name
        first: FieldDecl | None = None
        while True:
            fd = FieldDecl(name=name, tref=ref, line=line)
            if first is None:
                first = fd
            while i < end and toks[i].text == "[" and i + 1 < end and toks[i + 1].text == "]":
                i += 2
            if i < end and toks[i].text == "=":
                start = i + 1
                depth = 0
                while i < end:
                    t = toks[i].text
                    if t in ("(", "[", "{"):
                        depth += 1
                    elif t in (")", "]", "}"):
                        depth -= 1
                    elif t in (";", ",") and depth == 0:
                        break
                    i += 1
                self._body(fd, start, i)
            decl.members.append(fd)
            if i < end and toks[i].text == ",":
                i += 1
                if i < end and toks[i].kind == "word":
                    name = toks[i].text
                    i += 1
                    continue
            break
        while i < end and toks[i].text != ";":
            i += 1
        return first, i + 1

    def _parse_enum_body(self, decl: TypeDecl, i: int, end: int) -> None:
        toks = self.toks
        consts: list[EnumConst] = []
        # constants come first, up to ';' or the closing brace
        while i < end:
            while i < end and toks[i].text == "@":
                i = self._skip_annotation(i)
            t = toks[i] if i < end else None
            if t is None or t.text == ";":
                i += 1
                break
            if t.kind != "word":
                break
            const = EnumConst(name=t.text, line=t.line)
            i += 1
            if i < end and toks[i].text == "(":
                close = self.close(i)
                self._body(const, i + 1, close)
                i = close + 1
            if i < end and toks[i].text == "{":
                close = self.close(i)
                body = TypeDecl(
                    kind="class",
                    name=None,
                    line=toks[i].line,
                    anon_super=TypeRef(base=decl.name or ""),
                )
                self._parse_members(body, i + 1, close)
                const.anons.append(body)
                i = close + 1
            consts.append(const)
            if i < end and toks[i].text == ",":
                i += 1
                continue
            if i < end and toks[i].text == ";":
                i += 1
                break
        self._parse_members(decl, i, end)
        decl.members += consts

    # -- member bodies ---------------------------------------------------

    def _nested_types(self, i: int, out: list[TypeDecl]) -> None:
        """Parse the anonymous class bodies and local type declarations from
        ``i`` to the window end into ``out``, in source order, and record
        each one's span in ``syntax.nested``."""
        toks, n = self.toks, self.end
        while i < n:
            t = toks[i]
            if t.kind == "word" and t.text == "new":
                ref, j = parse_typeref(toks, i + 1, n)
                if ref is not None and j < n and toks[j].text == "(":
                    close = self.close(j)
                    self.window(close)._nested_types(j + 1, out)
                    i = close + 1
                    if i < n and toks[i].text == "{":
                        blk_end = self.close(i)
                        body = TypeDecl("class", None, toks[i].line, anon_super=ref)
                        self.window(blk_end)._parse_members(body, i + 1, blk_end)
                        out.append(body)
                        self.syntax.nested[i] = (min(blk_end + 1, n), body)
                        i = blk_end + 1
                    continue
            # most tokens are not type keywords, and a set test is cheaper than the call
            kind = _type_keyword(toks, i, n) if t.text in _TYPE_KEYWORD_TEXTS else None
            if (
                kind is not None
                and toks[i - 1].text != "."
                and i + 1 < n
                and toks[i + 1].kind == "word"
            ):
                # local type declaration; a name follows, so it parses
                decl, end = self._parse_type_decl(i + 1, kind, t.line)
                out.append(decl)
                self.syntax.nested[i] = (min(end, n), decl)
                i = end
                continue
            i += 1


def parse_java_file(path_text: str, text: str) -> FileSyntax:
    """Parse one Java compilation unit into its structural summary."""
    toks, sloc = lex(text)
    syntax = FileSyntax(path_text, toks, _partners(toks), sloc=sloc)
    _Parser(syntax, len(toks)).parse_file()
    return syntax


# ---------------------------------------------------------------------------
# Project-level symbol index, entities, name resolution and relations
# ---------------------------------------------------------------------------


_KIND_MAP = {
    "class": EntityKind.CLASS,
    "interface": EntityKind.INTERFACE,
    "enum": EntityKind.ENUM,
    "annotation": EntityKind.ANNOTATION,
}


@dataclass
class _TypeInfo:
    decl: TypeDecl
    file: FileSyntax
    fields: dict[str, FieldDecl] = field(default_factory=dict)
    # the first declared overload of each name; constructors as "<init>"
    methods: dict[str, MethodDecl] = field(default_factory=dict)
    outer: "_TypeInfo | None" = None


class _Scope(NamedTuple):
    """What the names in one type's declarations and bodies can see.

    Built once per type by the relation pass and dropped after it; never
    stored on a ``_TypeInfo``, whose own entry in ``chain`` would make a
    reference cycle that keeps every token list alive until a collection.
    """

    syntax: FileSyntax
    chain: list[_TypeInfo]  # the type, then its enclosing types outward
    skip: frozenset[str]  # type variables declared along the chain
    # member lookup also sees fields/methods inherited from internal
    # superclasses; type-name resolution stays lexical
    lookup: list[_TypeInfo]


def _super_ref(decl: TypeDecl) -> TypeRef | None:
    """The superclass as written: ``extends``, else an anonymous class's base."""
    return decl.extends[0] if decl.extends else decl.anon_super


class _ProjectBuilder:
    def __init__(self):
        self.entities: list[SourceEntity] = []
        self.relations: list[FactRelation] = []
        self.packages: dict[str, int] = {}
        self.types: dict[str, _TypeInfo] = {}
        self.all_infos: list[_TypeInfo] = []  # declaration order, no overwrites

    def _new_entity(self, fqn: str, kind: EntityKind, file: str, line: int) -> int:
        eid = len(self.entities) + 1
        self.entities.append(
            SourceEntity(
                entity_id=eid,
                fqn=fqn,
                kind=kind,
                file=file,
                line=line,
            )
        )
        return eid

    def _contains(self, parent: int, fqn: str, kind: EntityKind, file: str, line: int) -> int:
        eid = self._new_entity(fqn, kind, file, line)
        self.relations.append(FactRelation(parent, RelationKind.CONTAINS, eid))
        return eid

    def package_entity(self, name: str) -> int:
        if name not in self.packages:
            self.packages[name] = self._new_entity(name, EntityKind.PACKAGE, "", 0)
        return self.packages[name]

    def add_file(self, syntax: FileSyntax) -> None:
        pkg_eid = self.package_entity(syntax.package or DEFAULT_PACKAGE)
        for decl in syntax.types:
            fqn = f"{syntax.package}.{decl.name}" if syntax.package else decl.name
            self._add_type(decl, fqn, syntax, pkg_eid, outer=None)

    def _add_type(
        self,
        decl: TypeDecl,
        fqn: str,
        syntax: FileSyntax,
        parent_eid: int,
        outer: _TypeInfo | None,
    ) -> None:
        decl.fqn = fqn
        decl.entity_id = self._contains(
            parent_eid, fqn, _KIND_MAP[decl.kind], syntax.path, decl.line
        )
        info = _TypeInfo(decl=decl, file=syntax, outer=outer)
        self.types.setdefault(fqn, info)
        self.all_infos.append(info)
        counter = 0  # anonymous and local types, numbered across the type
        for member in decl.members:
            if isinstance(member, TypeDecl):
                self._add_type(
                    member, f"{fqn}.{member.name}", syntax, decl.entity_id, outer=info
                )
                continue
            if not isinstance(member, InitDecl):
                self._add_member(member, info, syntax)
            for anon in member.anons:
                counter += 1
                # a named local class gets a binary-style nested name
                self._add_type(
                    anon, f"{fqn}${anon.name or counter}", syntax, decl.entity_id,
                    outer=info,
                )

    def _add_member(
        self, member: FieldDecl | MethodDecl | EnumConst, info: _TypeInfo,
        syntax: FileSyntax,
    ) -> None:
        if isinstance(member, MethodDecl):
            kind = EntityKind.CONSTRUCTOR if member.is_ctor else EntityKind.METHOD
            name = "<init>" if member.is_ctor else member.name
            info.methods.setdefault(name, member)
        else:
            kind, name = EntityKind.FIELD, member.name
            if isinstance(member, FieldDecl):
                info.fields.setdefault(name, member)
        member.entity_id = self._contains(
            info.decl.entity_id, f"{info.decl.fqn}.{name}", kind, syntax.path,
            member.line,
        )

    # -- name resolution --------------------------------------------------

    def resolve(
        self, name: str, syntax: FileSyntax, chain: list[_TypeInfo]
    ) -> str | None:
        """Resolve a source type name to a dotted FQN, or None."""
        if not name:
            return None
        if name in PRIMITIVE_BOX:
            return PRIMITIVE_BOX[name]
        if name in ("void", "var"):
            return None
        if "." in name:
            if name in self.types:
                return name
            head, rest = name.split(".", 1)
            head_fqn = self._resolve_simple(head, syntax, chain)
            if head_fqn is not None:
                return f"{head_fqn}.{rest}"
            return name  # qualified as written
        return self._resolve_simple(name, syntax, chain)

    def _resolve_simple(
        self, name: str, syntax: FileSyntax, chain: list[_TypeInfo]
    ) -> str | None:
        for info in chain:
            if info.decl.name == name:
                return info.decl.fqn
            for member in info.decl.members:
                if isinstance(member, TypeDecl) and member.name == name:
                    return member.fqn
        for decl in syntax.types:
            if decl.name == name:
                return decl.fqn
        pkg = syntax.package
        if pkg:
            cand = f"{pkg}.{name}"
            if cand in self.types:
                return cand
        elif name in self.types:
            return name
        if name in syntax.imports:
            return syntax.imports[name]
        for wpkg in syntax.wildcard_imports:
            cand = f"{wpkg}.{name}"
            if cand in self.types:
                return cand
        if name in JAVA_LANG_TYPES:
            return f"java.lang.{name}"
        if len(syntax.wildcard_imports) == 1 and name[:1].isupper():
            # a capitalised name is a type by convention: guess the one
            # package the file imports whole
            return f"{syntax.wildcard_imports[0]}.{name}"
        return None

    # -- relation pass ------------------------------------------------------

    def emit_relations(self) -> None:
        for info in self.all_infos:
            chain = []
            cur: _TypeInfo | None = info
            while cur is not None:
                chain.append(cur)
                cur = cur.outer
            skip = frozenset(name for link in chain for name in link.decl.type_params)
            self._emit_type(_Scope(info.file, chain, skip, self._lookup_chain(chain)))

    def _lookup_chain(self, chain: list[_TypeInfo]) -> list[_TypeInfo]:
        """``chain`` with each link followed by its internal superclasses."""
        out: list[_TypeInfo] = []
        seen: set[int] = set()
        for info in chain:
            cur: _TypeInfo | None = info
            while cur is not None and id(cur) not in seen:
                seen.add(id(cur))
                out.append(cur)
                ref = _super_ref(cur.decl)
                fqn = None if ref is None else self.resolve(ref.base, cur.file, [cur])
                nxt = self.types.get(fqn)
                cur = nxt if nxt is not None and nxt.decl.kind in ("class", "enum") else None
        return out

    def _emit_type(self, scope: _Scope) -> None:
        decl = scope.chain[0].decl
        emitter = _Emitter(self, scope, decl.entity_id)
        if decl.anon_super is not None:
            resolved = self.resolve(
                decl.anon_super.base, scope.syntax, scope.chain[1:] or scope.chain
            )
            kind = RelationKind.EXTENDS
            target = self.types.get(resolved)
            if target is not None:
                if target.decl.kind in ("interface", "annotation"):
                    kind = RelationKind.IMPLEMENTS
            elif resolved in KNOWN_JDK_INTERFACES:
                kind = RelationKind.IMPLEMENTS
            emitter.type_use(kind, decl.anon_super.base)
        for bound in decl.type_param_bounds:
            emitter.type_use(RelationKind.USES, bound)
        for ref in decl.extends:
            emitter.ref_use(RelationKind.EXTENDS, ref)
        for ref in decl.implements:
            emitter.ref_use(RelationKind.IMPLEMENTS, ref)
        for member in decl.members:
            if not isinstance(member, TypeDecl):
                self._emit_member(member, scope, decl.entity_id)

    def _emit_member(
        self, member: FieldDecl | MethodDecl | InitDecl | EnumConst, scope: _Scope,
        type_eid: int,
    ) -> None:
        if isinstance(member, MethodDecl):
            emitter = _Emitter(self, scope, member.entity_id)
            emitter.skip |= frozenset(member.type_params)
            for bound in member.type_param_bounds:
                emitter.type_use(RelationKind.USES, bound)
            if member.ret is not None and not member.is_ctor:
                emitter.ref_use(RelationKind.USES, member.ret)
            for tref, name in member.params:
                emitter.ref_use(RelationKind.USES, tref)
                emitter.locals[name] = tref
            for tref in member.throws:
                emitter.type_use(RelationKind.USES, tref.base)
        elif isinstance(member, FieldDecl):
            emitter = _Emitter(self, scope, member.entity_id)
            emitter.ref_use(RelationKind.HOLDS, member.tref)
        else:  # an initializer block or an enum constant's arguments
            emitter = _Emitter(self, scope, type_eid)
            if isinstance(member, EnumConst):
                self.relations.append(
                    FactRelation(member.entity_id, RelationKind.HOLDS, type_eid)
                )
        emitter.run(*member.body)


class _Emitter:
    """Records the relations whose source is one entity: a type's
    declaration uses, or a member's signature uses and the token-pattern
    analysis of its body (an initializer block's or an enum constant's
    body counts as its type's).  Every type use, declared or in a body,
    resolves through ``type_use``.  Built per source and dropped after it,
    like ``_Scope``.
    """

    def __init__(self, builder: _ProjectBuilder, scope: _Scope, source_id: int):
        self.b = builder
        self.scope = scope
        self.skip = scope.skip  # type variables in scope; a method adds its own
        self.source = source_id
        self.toks = scope.syntax.toks
        self.end = 0  # the end of the body ``run`` walks
        self.locals: dict[str, TypeRef | None] = {}  # parameters and locals
        self.consumed: set[int] = set()  # token indexes already emitted

    # -- small helpers ----------------------------------------------------

    def emit(self, kind: RelationKind, target: int | str) -> None:
        self.b.relations.append(FactRelation(self.source, kind, target))

    def resolve_type(self, name: str) -> str | None:
        return self.b.resolve(name, self.scope.syntax, self.scope.chain)

    def type_use(self, kind: RelationKind, name: str) -> None:
        """Record a use of the type written ``name``: the project type's
        entity when the name resolves to one, else the resolved name, else
        the name as written."""
        if not name or name in ("void", "var") or name in self.skip:
            return
        resolved = self.resolve_type(name)
        info = self.b.types.get(resolved)
        if info is not None:
            self.emit(kind, info.decl.entity_id)
        else:
            self.emit(kind, name if resolved is None else resolved)

    def ref_use(self, kind: RelationKind, ref: TypeRef) -> None:
        """A reference's base as ``kind``, then each generic argument as USES."""
        self.type_use(kind, ref.base)
        for arg in ref.args:
            self.type_use(RelationKind.USES, arg)

    def find(self, table: str, name: str) -> FieldDecl | MethodDecl | None:
        """The nearest enclosing or inherited declarer's member ``name`` in
        ``table``: ``"fields"`` or ``"methods"``."""
        for info in self.scope.lookup:
            member = getattr(info, table).get(name)
            if member is not None:
                return member
        return None

    def _call_target(self, owner_fqn: str, rest: list[str], name: str) -> int | str:
        if owner_fqn in self.b.types and not rest:
            m = self.b.types[owner_fqn].methods.get(name)
            if m is not None:
                return m.entity_id
        parts = [owner_fqn, *rest, name]
        return ".".join(parts)

    # -- main scan --------------------------------------------------------

    def run(self, start: int, end: int) -> None:
        """Analyse the body ``[start, end)`` of the file's tokens, jumping over
        the anonymous class bodies and local types nested in it.  A lookahead
        may read a local type's first token, but the walk never enters one."""
        toks, nested = self.toks, self.scope.syntax.nested
        self.end = end
        i = start
        prev: Tok | None = None
        while i < end:
            t = toks[i]
            if i in nested:
                # after a local type, `prev` stays the token before it
                i, prev = nested[i][0], t if t.text == "{" else prev
                continue
            if t.kind == "word" and t.text == "new":
                j = self._handle_new(i)
            elif t.kind == "word" and t.text in ("this", "super"):
                j = self._handle_this_super(i, is_super=t.text == "super")
            elif t.kind == "word" and t.text == "instanceof":
                j = self._handle_instanceof(i)
            elif t.kind == "punct" and t.text == "(":
                j = self._try_cast(i) or i + 1
            elif t.kind == "word" and (t.text not in KEYWORDS or t.text in PRIMITIVES):
                j = self._handle_word(i, prev)
            else:
                j = i + 1
            prev = t
            if j > i + 1:  # resume at a span the lookahead ran into
                j = next((k for k in range(i + 1, j) if k in nested), j)
            i = j

    def _handle_new(self, i: int) -> int:
        toks, n = self.toks, self.end
        ref, j = parse_typeref(toks, i + 1, n)
        if ref is None:
            return i + 1
        for arg in ref.args:
            self.type_use(RelationKind.USES, arg)
        if j < n and toks[j].text == "(":
            syntax = self.scope.syntax
            close = min(syntax.partner[j], n)
            if close + 1 < n and toks[close + 1].text == "{":  # a body the parser recorded
                anon = syntax.nested[close + 1][1]
                self.emit(RelationKind.INSTANTIATES, f"{anon.fqn}.<init>")
            else:
                owner = self.resolve_type(ref.base) or ref.base
                self.emit(RelationKind.INSTANTIATES, self._call_target(owner, [], "<init>"))
                # chained call on the fresh instance: new T(...).m(...)
                if (
                    close + 3 < n
                    and toks[close + 1].text == "."
                    and toks[close + 2].kind == "word"
                    and toks[close + 3].text == "("
                ):
                    name = toks[close + 2].text
                    self.emit(RelationKind.CALLS, self._call_target(owner, [], name))
                    self.consumed.add(close + 2)
            return j + 1  # scan proceeds into the constructor args
        if j < n and toks[j].text == "[":
            self.type_use(RelationKind.USES, ref.base)
            return j + 1
        if ref.dims:
            # new T[]{...} array creation with initializer
            self.type_use(RelationKind.USES, ref.base)
        return j

    def _handle_this_super(self, i: int, is_super: bool) -> int:
        toks, n = self.toks, self.end
        own = self.scope.chain[0].decl
        target: str | None = own.fqn
        if is_super:
            ref = _super_ref(own)
            target = None if ref is None else (self.resolve_type(ref.base) or ref.base)
        nxt = toks[i + 1] if i + 1 < n else None
        if nxt is not None and nxt.text == "(":
            if target is not None:
                self.emit(RelationKind.CALLS, self._call_target(target, [], "<init>"))
            return i + 1
        if nxt is None or i + 2 >= n or toks[i + 2].kind != "word":
            return i + 1
        name = toks[i + 2].text
        if nxt.text == "::" and _member_ref(toks[i + 2]):
            if name == "new":
                self.emit(RelationKind.INSTANTIATES, self._call_target(own.fqn, [], "<init>"))
            elif target is not None:
                self.emit(RelationKind.CALLS, self._call_target(target, [], name))
            return i + 3
        if nxt.text == ".":
            if i + 3 < n and toks[i + 3].text == "(":
                self.emit(
                    RelationKind.CALLS,
                    name if target is None else self._call_target(target, [], name),
                )
                return i + 3
            # this.f / super.f field access
            fd = self.find("fields", name)
            if fd is not None and not is_super:
                self._emit_field_access(i + 2, fd)
            return i + 3
        return i + 1

    def _handle_instanceof(self, i: int) -> int:
        toks, n = self.toks, self.end
        ref, j = parse_typeref(toks, i + 1, n)
        if ref is None:
            return i + 1
        self.type_use(RelationKind.INSTANCEOF, ref.base)
        if j < n and toks[j].kind == "word" and toks[j].text not in KEYWORDS:
            self.locals[toks[j].text] = ref  # pattern binding
            j += 1
        return j

    def _try_cast(self, i: int) -> int | None:
        toks, n = self.toks, self.end
        ref, j = parse_typeref(toks, i + 1, n)
        if ref is None or j >= n or toks[j].text != ")":
            return None
        nxt = toks[j + 1] if j + 1 < n else None
        if nxt is None:
            return None
        ok = (
            nxt.kind in ("num", "str", "char")
            or (nxt.kind == "word" and (nxt.text not in KEYWORDS or nxt.text in _CAST_FOLLOW_WORDS))
            or (nxt.kind == "punct" and nxt.text in _CAST_FOLLOW_PUNCT)
        )
        if not ok:
            return None
        if (
            "." not in ref.base
            and not ref.args
            and ref.dims == 0
            and ref.base not in PRIMITIVE_BOX
        ):
            # A bare lowercase name that resolves to nothing is far more
            # likely a parenthesised expression than a cast.
            if ref.base in self.locals or self.find("fields", ref.base) is not None:
                return None
            if not ref.base[:1].isupper() and self.resolve_type(ref.base) is None:
                return None
        self.ref_use(RelationKind.CASTS, ref)
        return j + 1

    def _handle_word(self, i: int, prev: Tok | None) -> int:
        toks, n = self.toks, self.end
        if i in self.consumed:
            return i + 1
        if prev is not None and prev.text == ".":
            # member of an expression value: receiver type unknown
            if i + 1 < n and toks[i + 1].text == "(":
                self.emit(RelationKind.CALLS, toks[i].text)
            return i + 1
        # local variable declaration?
        boundary = (
            prev is None
            or (prev.kind == "punct" and prev.text in _DECL_BOUNDARY_PUNCT)
            or (prev.kind == "word" and prev.text in _DECL_BOUNDARY_WORDS)
        )
        if boundary:
            ref, j = parse_typeref(toks, i, n)
            if (
                ref is not None
                and j < n
                and toks[j].kind == "word"
                and toks[j].text not in KEYWORDS
                and (j + 1 >= n or toks[j + 1].text in _DECL_TERMINATORS)
            ):
                self.locals[toks[j].text] = None if ref.base == "var" else ref
                self.ref_use(RelationKind.USES, ref)
                return j + 1
        # dotted name chain
        segs = [toks[i].text]
        j = i + 1
        while (
            j + 1 < n
            and toks[j].text == "."
            and toks[j + 1].kind == "word"
            and toks[j + 1].text not in KEYWORDS
        ):
            segs.append(toks[j + 1].text)
            j += 2
        after = toks[j] if j < n else None
        if after is not None and after.text == "(":
            self._emit_call(segs)
            return j
        if after is not None and after.text == "::" and j + 1 < n and _member_ref(toks[j + 1]):
            ref_name = toks[j + 1].text
            if ref_name == "new":
                written = ".".join(segs)
                owner = self.resolve_type(written) or written
                self.emit(RelationKind.INSTANTIATES, self._call_target(owner, [], "<init>"))
            else:
                self._emit_call(segs + [ref_name])
            return j + 2
        self._emit_name_use(j - 1, segs, prev)
        return j

    def _emit_call(self, segs: list[str]) -> None:
        name = segs[-1]
        receiver = segs[:-1]
        if not receiver:
            found = self.find("methods", name)
            self.emit(RelationKind.CALLS, name if found is None else found.entity_id)
            return
        head = receiver[0]
        rest = receiver[1:]
        if head in self.locals:
            ref = self.locals[head]
            owner = self.resolve_type(ref.base) if ref is not None else None
        else:
            fd = self.find("fields", head)
            owner = self.resolve_type(head if fd is None else fd.tref.base)
        if owner is None:
            # unresolved receiver; keep the raw text
            self.emit(RelationKind.CALLS, ".".join(segs))
            return
        self.emit(RelationKind.CALLS, self._call_target(owner, rest, name))

    def _emit_name_use(self, last: int, segs: list[str], prev: Tok | None) -> None:
        head = segs[0]
        if head in self.locals:
            return
        fd = self.find("fields", head)
        if fd is not None:
            if len(segs) == 1:
                self._emit_field_access(last, fd, prev)
            return
        if len(segs) == 1:
            if head in self.skip:
                return
            resolved = self.resolve_type(head)
            if resolved is not None and (
                resolved in self.b.types or "." in resolved
            ):
                # a bare type mention: multi-catch clause, class literal, ...
                self.type_use(RelationKind.USES, head)
            return
        owner = self.resolve_type(head)
        if owner is not None and owner in self.b.types:
            info = self.b.types[owner]
            if len(segs) == 2 and segs[1] in info.fields:
                self._emit_field_access(last, info.fields[segs[1]], prev)
        elif owner is not None:
            # static member access on a library type
            self.type_use(RelationKind.USES, head)

    def _emit_field_access(self, last: int, fd: FieldDecl, prev: Tok | None = None) -> None:
        after = self.toks[last + 1] if last + 1 < self.end else None
        write = False
        read = True
        if after is not None and after.kind == "punct":
            if after.text in ASSIGN_OPS:
                write = True
                read = after.text != "="  # compound assignment also reads
            elif after.text in ("++", "--"):
                write = True
                read = False
        if prev is not None and prev.text in ("++", "--"):
            write = True
            read = False
        if write:
            self.emit(RelationKind.WRITES, fd.entity_id)
        if read:
            self.emit(RelationKind.READS, fd.entity_id)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def extract_project(project_root: str | Path, project_id: str) -> ProjectFacts:
    """Extract the fact model for every ``.java`` file under a directory.

    Files are processed in sorted relative-path order, so repeated runs on
    the same tree produce identical entity ids, which run 1..n whatever
    other projects exist.  Unreadable files and unparseable declarations
    are skipped with a recorded warning.  A file name that is not UTF-8,
    which no archive can store, is a ``DataError``.
    """
    root = Path(project_root)
    facts = ProjectFacts(project_id=project_id)
    builder = _ProjectBuilder()
    files = sorted(
        (p for p in root.rglob("*.java") if p.is_file()),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    syntaxes: list[FileSyntax] = []
    total_sloc = 0
    for path in files:
        rel = path.relative_to(root).as_posix()
        try:
            rel.encode("utf-8")
        except UnicodeEncodeError:
            name = os.fsencode(rel)
            raise DataError(f"project {project_id}: file name {name!r} is not UTF-8") from None
        try:
            text = path.read_bytes().decode("utf-8", errors="replace")
        except OSError as exc:
            facts.warnings.append(f"skipped-file {rel}: {exc}")
            log.warning("project=%s file=%s skipped: %s", project_id, rel, exc)
            continue
        try:
            syntax = parse_java_file(rel, text)
        except Exception as exc:  # tolerant by contract
            facts.warnings.append(f"skipped-file {rel}: parse failure {exc}")
            log.warning("project=%s file=%s parse failure: %s", project_id, rel, exc)
            facts.parse_warning_count += 1
            total_sloc += count_sloc(text)
            continue
        total_sloc += syntax.sloc
        if syntax.parse_warnings:
            facts.parse_warning_count += syntax.parse_warnings
            facts.warnings.append(
                f"parse-warnings {rel}: {syntax.parse_warnings} declaration(s) skipped"
            )
        syntaxes.append(syntax)
    for syntax in syntaxes:
        builder.add_file(syntax)
    builder.emit_relations()
    facts.entities = builder.entities
    facts.relations = builder.relations
    facts.sloc = total_sloc
    return facts


def read_manifest(manifest_path: str | Path) -> list[tuple[str, Path]]:
    """Read a corpus manifest: one project-root path per line.

    Returns (project_id, absolute root) pairs sorted by project id; the
    project id is the base name of the path.  Every root must be a
    directory.
    """
    manifest = Path(manifest_path)
    base = manifest.parent
    try:
        lines = manifest.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {manifest} is not UTF-8 text: {exc}") from exc
    roots: list[tuple[str, Path]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        p = Path(line)
        if not p.is_absolute():
            p = base / p
        roots.append((p.name, p))
    if not roots:
        raise EmptyCorpusError(f"manifest {manifest} lists no projects")
    roots.sort(key=lambda item: item[0])
    DuplicateProjectError.check(
        [pid for pid, _ in roots], "duplicate project ids in manifest"
    )
    missing = [str(root) for _, root in roots if not root.is_dir()]
    if missing:
        raise DataError(f"manifest {manifest} lists missing project directories: {missing}")
    return roots


def extract_corpus(manifest_path: str | Path) -> list[ProjectFacts]:
    """Extract every project listed in a manifest.

    Projects come in sorted project-id order, each with its own entity ids
    1..n, so any project can be extracted on its own.
    """
    return [extract_project(root, pid) for pid, root in read_manifest(manifest_path)]
