"""Persistence for facts archives and the per-project metrics table.

The archive is a header line with the format version, a project-count
line, then one record per project: its length, a space, its payload and a
newline, so that truncation is detectable.  A payload is the zlib stream
(RFC 1950; its Adler-32 trailer checks it) of canonical JSON.  Entity ids
are local to their project, so each record is encoded on its own and
records can be written as they are made.  No database engine; readers
rebuild in-memory indexes.

A version 5 record holds one project's facts as extraction makes them:
its scalar fields typed, its sloc and parse-warning counts not negative,
its fqns non-empty strings, its kinds ones the tables below name, its
files strings, its lines ints, and its ids and relations in the form
``facts.check_form`` checks: ids 1..n in row order, relation sources and
targets entity ids, or names for targets, and each ``CONTAINS`` relation
first, its targets increasing and each from an earlier entity.
``encode_columns`` takes only facts of that form and raises a ValueError
naming the first field that breaks it.  The record leaves out what the
form makes implicit and stores each repeated value once:

* ``entities`` holds four arrays, the fqn, kind, file and line of each
  entity; the ids are left out.  Each file is an index into the record's
  ``files`` array, its distinct files in order of first appearance.  The
  lines are delta-coded, each the difference from the previous line (the
  first from 0).
* ``parent`` holds one int per entity: the source of its ``CONTAINS``
  relation, an earlier entity, or 0 for none.  It is the record's whole
  containment, a forest by construction.
* An entity whose fqn starts with its parent's is coded: its fqn array
  holds only the rest, such as ``.count`` or ``$1``, and the decoder
  rebuilds the fqns in one pass in row order.  ``full`` lists, by row
  index from 0, every other entity with a parent; it is left out when
  empty.
* ``relations`` holds, for each other relation in order, an index into
  ``pairs``: two arrays, the kinds and targets of the record's distinct
  (kind, target) pairs in order of first appearance.  An int and a string
  are equal keys only when they are the same JSON, unlike 1, 1.0, True
  and "1", so equal pairs are merged.  The sources are in ``deltas``,
  each the difference from the previous source (the first from 0).
* Each kind column holds ordinals into ``ENTITY_KIND_TABLE`` or
  ``RELATION_KIND_TABLE``.

So ``decode_columns`` returns exactly the ``ProjectFacts`` the encoder
was given, as JSON types them, each column a list and each kind its enum
member.  It reads this one layout: it requires every field but ``full``,
refuses any field the layout does not name, checks the type of each
field it reads (a target an int or a string), that each index is an int
inside its table, each id an entity and each parent 0 or an earlier row,
and that no pair is a parent.
So its facts are in extraction's form without ``check_form``, and the
commands measure them as they are; no entity or relation row is built.
Version 4 and older archives are refused, not converted.

The metrics table is a CSV of the ``METRIC_COLUMNS``, read back as
:class:`~javascale.metrics.MetricColumns`.  A canonical table is one as
``export_metrics_table`` writes it, in ASCII: the header, ``\\n`` line ends
and cells of digits.  It is parsed in bulk and checked column by column.
Any other table takes the row path, one checked ``ProjectMetrics`` per
row, which accepts what ``int()`` accepts and names the first bad row.
"""

from __future__ import annotations

import json
import os
import zlib
from functools import partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, le, sub
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ArchiveIntegrityError,
    DataError,
    DuplicateProjectError,
    UnsupportedVersionError,
)
from .facts import (
    LATE_PARENT, EntityKind, ProjectFacts, RelationKind, all_ints, check_form, entity_ids, only,
)
from .metrics import CAPS, METRIC_COLUMNS, SUM_RULES, MetricColumns, ProjectMetrics, metric_columns

ARCHIVE_VERSION = 5
_MAGIC = "JSCALE-FACTS"
_MAX_DIGITS = 20  # of a record's length prefix

# what each kind ordinal of a record stands for, written out
# rather than taken from the enums' order, so that a new or reordered
# member cannot re-map stored records; a new kind goes at the end
ENTITY_KIND_TABLE = (
    "PACKAGE", "CLASS", "INTERFACE", "ENUM", "ANNOTATION", "FIELD", "CONSTRUCTOR", "METHOD",
)
RELATION_KIND_TABLE = (
    "CONTAINS", "HOLDS", "WRITES", "READS", "CALLS", "INSTANTIATES", "EXTENDS", "IMPLEMENTS",
    "CASTS", "INSTANCEOF", "USES",
)
# a kind's ordinal (an enum member hashes and compares equal to its
# value), and an ordinal's member: a dict lookup refuses a negative
# ordinal, which a tuple's would wrap
_ENTITY_ORDINALS = {kind: n for n, kind in enumerate(ENTITY_KIND_TABLE)}
_RELATION_ORDINALS = {kind: n for n, kind in enumerate(RELATION_KIND_TABLE)}
_ENTITY_KIND_OF = dict(enumerate(map(EntityKind, ENTITY_KIND_TABLE)))
_RELATION_KIND_OF = dict(enumerate(map(RelationKind, RELATION_KIND_TABLE)))


class _FactsArchiveRow(NamedTuple):
    projects: list[ProjectFacts]


class FactsArchive(_FactsArchiveRow):
    """A named tuple whose construction checks that the project ids are unique."""

    __slots__ = ()

    def __new__(cls, projects: list[ProjectFacts] | None = None):
        projects = [] if projects is None else projects
        DuplicateProjectError.check([p.project_id for p in projects], "duplicate project ids")
        return tuple.__new__(cls, (projects,))


# a record's scalar fields and their types
_SCALARS = {"project_id": str, "sloc": int, "parse_warning_count": int, "warnings": list}


def _scalars(fields) -> dict:
    """The scalar fields of ``fields``, each of its type, the counts not
    negative, the warnings strings; a missing field or one that breaks
    these rules raises."""
    scalars = {name: fields[name] for name in _SCALARS}
    for (name, value), kind in zip(scalars.items(), _SCALARS.values()):
        if type(value) is not kind:  # a bool or a float is not an int
            raise ValueError(f"{name} is {type(value).__name__}, not {kind.__name__}")
        if kind is int and value < 0:
            raise ValueError(f"{name} must be non-negative")
    only((str,), scalars["warnings"], "warnings")
    return scalars


def _same_length(columns: list, name: str) -> list:
    # map() would stop at the shortest column, silently dropping rows
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"{name} columns differ in length")
    return columns


def _coded_fqns(fqns: Sequence[str], parent: list[int]) -> tuple[list, list[int]]:
    """Each fqn as a record stores it, and the rows with a parent whose fqn
    is stored in full: a row whose fqn starts with its parent's stores the rest."""
    stored, full = list(fqns), []
    for row, source in enumerate(parent):
        if source:
            if fqns[row].startswith(fqns[source - 1]):
                stored[row] = fqns[row][len(fqns[source - 1]) :]
            else:
                full.append(row)
    return stored, full


def _table(column: Iterable) -> tuple[list, list[int]]:
    """The distinct values of ``column`` in order of first appearance, and
    the index of each of its values into them."""
    index: dict = {}
    indexes = [index.setdefault(value, len(index)) for value in column]
    return list(index), indexes


def _deltas(values: Sequence[int]) -> list[int]:
    """Each value less the one before it, the first less 0."""
    return list(map(sub, values, chain((0,), values)))


def _ordinals(kinds: Sequence, ordinals: dict, name: str) -> list[int]:
    try:
        return list(map(ordinals.__getitem__, kinds))
    except (KeyError, TypeError):  # an unknown or unhashable kind
        raise ValueError(f"{name} holds a kind its table does not name") from None


def encode_columns(facts: ProjectFacts) -> bytes:
    """The record payload of ``facts`` in extraction's form: scalar fields
    of the types ``decode_columns`` requires, counts not negative, ids and
    relations as ``facts.check_form`` requires, non-empty string fqns,
    kinds the tables name, string files and int lines.  Any other facts
    raise a ValueError that names the first field breaking the form, in
    this order: scalars, column lengths, ``check_form``, the other columns."""
    record = _scalars(facts._asdict())
    _, fqns, kinds, files, lines = _same_length(facts.entity_columns, "entities")
    sources, kinds_of_relations, targets = _same_length(facts.relation_columns, "relations")
    parent = check_form(facts)
    if not all(only((str,), fqns, "the fqn column")):
        raise ValueError("entity fqn must be non-empty")
    kinds = _ordinals(kinds, _ENTITY_ORDINALS, "the entity kind column")
    files, file_index = _table(only((str,), files, "the file column"))
    lines = _deltas(only((int,), lines, "the line column"))
    run = len(parent) - parent.count(0)
    kinds_of_relations = _ordinals(
        kinds_of_relations[run:], _RELATION_ORDINALS, "the relation kind column"
    )
    # an int or a string key is equal to another only when its JSON is the
    # same, unlike 1, 1.0, True and "1", so equal pairs can be merged
    pairs, relations = _table(zip(kinds_of_relations, targets[run:]))
    stored, full = _coded_fqns(fqns, parent)
    record.update(
        entities=[stored, kinds, file_index, lines],
        files=files,
        parent=parent,
        pairs=[[kind for kind, _ in pairs], [target for _, target in pairs]],
        relations=relations,
        deltas=_deltas(sources[run:]),
    )
    if full:
        record["full"] = full
    text = json.dumps(record, separators=(",", ":"), sort_keys=True, ensure_ascii=False)
    return zlib.compress(text.encode("utf-8"))


# the fields of a record: each is required but full, left out when empty
_FIELDS = {*_SCALARS, "entities", "files", "parent", "full", "pairs", "relations", "deltas"}


def _fqns(stored: list, parent: list[int], full) -> list:
    """The fqns a record's fqn array stands for, rebuilt in one pass in row
    order: a coded row's is its parent's fqn and what it stores."""
    "".join(stored)  # a TypeError names the first fqn that is not a string
    if type(full) is not list or not all_ints(full):
        raise ValueError("full is not a list of ints")
    if full and (min(full) < 0 or max(full) >= len(stored)):
        raise ValueError("full holds a row index out of range")
    coded = list(parent)
    for row in full:
        coded[row] = 0
    for row, source in enumerate(coded):
        if source:  # the parent's row, and so its fqn, comes first
            stored[row] = stored[source - 1] + stored[row]
    return stored


def _kinds(column: list, table: dict, name: str) -> list:
    """The kinds, as members, of a column of ordinals, each a key of
    ``table``; any other column raises.  Members, unlike equal strings, are
    found by identity in the sets of kinds ``measure`` looks them up in."""
    try:
        return list(map(table.__getitem__, only((int,), column, name)))
    except KeyError:
        raise ValueError("a kind ordinal is out of range") from None


def _indexed(index: list, name: str, *tables: list) -> list[list]:
    """The entries of each table that ``index`` names, each index an int in
    ``[0, len(table))``; any other index raises.  A dict lookup refuses a
    negative index, which a list's would wrap."""
    if not all_ints(index):
        raise ValueError(f"{name} holds an index that is not an int")
    try:
        return [list(map(dict(enumerate(table)).__getitem__, index)) for table in tables]
    except KeyError:
        raise ValueError(f"{name} holds an index out of range") from None


def _list(value, name: str) -> list:
    # a string would be read one character at a time
    if type(value) is not list:
        raise ValueError(f"{name} is {type(value).__name__}, not list")
    return value


def _relation_columns(data: dict, n: int) -> tuple[list, list]:
    """The kind, as a member, and the target of each relation a record of
    ``n`` entities stores apart from its ``parent`` column."""
    index, (kinds, targets) = data["relations"], data["pairs"]
    _same_length(
        [_list(kinds, "the pair kind column"), _list(targets, "the pair target column")], "pairs"
    )
    # each pair's kind is looked up once, however many relations hold it
    kinds = _kinds(kinds, _RELATION_KIND_OF, "the pair kind column")
    if RelationKind.CONTAINS in kinds:
        raise ValueError("a pair holds the CONTAINS kind, which only parent stores")
    only((int, str), targets, "the pair target column")
    entity_ids([t for t in targets if type(t) is int], n, "a pair target")
    return _indexed(index, "relations", kinds, targets)


def _decoded(data: dict) -> ProjectFacts:
    """The facts a version 5 record's JSON stands for; a missing field, a
    field the layout does not name or one that breaks it raises."""
    scalars = _scalars(data)
    unnamed = sorted(data.keys() - _FIELDS)
    if unnamed:
        raise ValueError(f"a record holds a field the layout does not name: {unnamed[0]!r}")
    stored, kinds, file_index, lines = data["entities"]
    _same_length([stored, kinds, file_index, lines], "entities")
    kinds = _kinds(kinds, _ENTITY_KIND_OF, "the entity kind column")
    files = only((str,), _list(data["files"], "files"), "files")
    [files] = _indexed(file_index, "the file column", files)
    lines = list(accumulate(only((int,), lines, "the line column")))
    parent = data["parent"]
    if len(parent) != len(stored):
        raise ValueError("parent and entities differ in length")
    only((int,), parent, "parent")
    if min(parent, default=0) < 0 or not all(map(le, parent, range(len(parent)))):
        row = next(row for row, source in enumerate(parent) if not 0 <= source <= row)
        raise ValueError(LATE_PARENT.format(parent[row], row + 1))
    fqns = _fqns(stored, parent, data.get("full", []))
    if not all(fqns):
        raise ValueError("entity fqn must be non-empty")
    sources = list(accumulate(only((int,), data["deltas"], "deltas")))
    entity_ids(sources, len(stored), "a relation source")
    kinds_of_relations, targets = _same_length(
        [sources, *_relation_columns(data, len(stored))], "relations"
    )[1:]
    ids = list(range(1, len(stored) + 1))
    run = len(parent) - parent.count(0)
    return ProjectFacts(
        **scalars,
        entity_columns=[ids, fqns, kinds, files, lines],
        relation_columns=[
            [*filter(None, parent), *sources],
            [RelationKind.CONTAINS] * run + kinds_of_relations,
            [*compress(ids, parent), *targets],
        ],
    )


def decode_columns(payload: bytes, path: str | Path, lineno: int) -> ProjectFacts:
    """The facts of the record payload framed at line ``lineno`` of
    ``path``, their tables as columns; a record outside the layout is
    refused."""
    try:
        return _decoded(json.loads(zlib.decompress(payload).decode("utf-8")))
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise ArchiveIntegrityError(f"{path}: bad record at line {lineno}: {exc!r}") from exc


def write_records(payloads: Iterable[bytes], count: int, path: str | Path) -> None:
    """Write an archive of ``count`` encoded project records, each one as
    ``payloads`` yields it; until the last is written the file reads as
    truncated."""
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {ARCHIVE_VERSION}\n{count}\n".encode())
        for payload in payloads:
            fh.write(b"%d %b\n" % (len(payload), payload))


def write_facts(archive: FactsArchive, path: str | Path) -> None:
    """Write an archive; two writes of equal content are byte-identical."""
    payloads = map(encode_columns, archive.projects)
    write_records(payloads, len(archive.projects), path)


def scan_records(path: str | Path) -> Iterator[tuple[int, bytes, int]]:
    """Yield each record's payload offset, payload and line number, checking
    the archive's framing, not the payloads: header, count, lengths, the end."""
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.startswith(_MAGIC.encode() + b" "):
            raise ArchiveIntegrityError(f"{path}: not a facts archive")
        try:
            version = int(header[len(_MAGIC) + 1 :])
        except ValueError as exc:
            raise ArchiveIntegrityError(f"{path}: bad version line") from exc
        if version != ARCHIVE_VERSION:
            raise UnsupportedVersionError(
                f"{path}: archive version {version}, reader supports {ARCHIVE_VERSION}"
            )
        try:
            count = int(fh.readline())
        except ValueError as exc:
            raise ArchiveIntegrityError(f"{path}: missing project count") from exc
        if count < 0:
            raise ArchiveIntegrityError(f"{path}: missing project count")
        end = os.fstat(fh.fileno()).st_size
        for lineno in range(3, count + 3):
            offset = fh.tell()
            # a payload may hold any byte, so the record is framed by its length alone
            head = fh.read(_MAX_DIGITS + 1)
            if not head:
                raise ArchiveIntegrityError(f"{path}: truncated at record {lineno - 2}")
            size_text, space, _ = head.partition(b" ")
            if not space or not size_text.isdigit():
                raise ArchiveIntegrityError(f"{path}: bad record at line {lineno}")
            start, size = offset + len(size_text) + 1, int(size_text)
            fh.seek(start)
            # a size past the end is not read; a missing last newline is a missing next record
            payload = fh.read(size) if size <= end - start else b""
            if len(payload) != size or fh.read(1) not in (b"\n", b""):
                raise ArchiveIntegrityError(f"{path}: record length mismatch at line {lineno}")
            yield start, payload, lineno
        if fh.read(1):
            raise ArchiveIntegrityError(f"{path}: data after record {count}")


def read_facts(path: str | Path) -> FactsArchive:
    """The projects of an archive, each record read and checked before the
    next is read; the first fault in file order raises."""
    records = scan_records(path)
    return FactsArchive([decode_columns(payload, path, line) for _, payload, line in records])


# ---------------------------------------------------------------------------
# Metrics table
# ---------------------------------------------------------------------------


def export_metrics_table(metrics: list[ProjectMetrics], path: str | Path) -> None:
    """Write the per-project metrics CSV, rows sorted by project id.  An id
    with a comma or a line break would not read back, and is a DataError."""
    if not metrics:
        raise ValueError("metrics list must be non-empty")
    ids = [m.project_id for m in metrics]
    DuplicateProjectError.check(ids, "duplicate project ids in export")
    unwritable = sorted(i for i in ids if "," in i or "".join(i.splitlines()) != i)
    if unwritable:
        raise DataError(f"project ids with a comma or a line break: {unwritable}")
    rows = [METRIC_COLUMNS, *sorted(metrics, key=lambda m: m.project_id)]
    Path(path).write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")


# the characters other than "\n" at which str.splitlines ends an ASCII line
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e"
_HEADER_LINE = ",".join(METRIC_COLUMNS) + "\n"
_COUNTS = len(METRIC_COLUMNS) - 1
_DIGITS_AND_COMMAS = dict.fromkeys(b"0123456789,")  # as str.translate deletes them


def _canonical_columns(text: str) -> MetricColumns | None:
    """The columns of a canonical table, one as ``export_metrics_table``
    writes it, or None for any other text.

    A canonical table is ASCII, starts with the header line and ends each
    line with ``\\n`` alone, and each of its rows is an id and 16 cells of
    ASCII digits without leading zeros that meet the row invariants.  The
    numeric cells are parsed by one ``json.loads``.  The duplicate-id check
    is left to the caller.
    """
    if not (text.isascii() and text.startswith(_HEADER_LINE) and text.endswith("\n")):
        return None
    if any(map(text.__contains__, _OTHER_LINE_ENDS)):
        return None
    lines = text[len(_HEADER_LINE) : -1].split("\n")
    ids, _, cells = zip(*map(str.partition, lines, repeat(",")))
    if not all(map((_COUNTS - 1).__eq__, map(str.count, cells, repeat(",")))):
        return None
    # each form of the cells is dropped once the next is made: a smaller peak
    numeric = ",".join(cells)
    del lines, cells
    if numeric.translate(_DIGITS_AND_COMMAS):
        return None
    try:
        values = json.loads(f"[{numeric}]")  # refuses empty cells and leading zeros
    except ValueError:  # also a number past int()'s digit limit
        return None
    del numeric
    counts = [values[i::_COUNTS] for i in range(_COUNTS)]
    del values
    table = MetricColumns(list(ids), *counts)
    # the row rules of ProjectMetrics; cells of digits are non-negative
    for column, parts, _ in SUM_RULES:
        if getattr(table, column) != list(reduce(partial(map, add), map(table.column, parts))):
            return None
    capped = all(all(map(le, getattr(table, c), getattr(table, cap))) for c, cap in CAPS.items())
    return table if capped else None


def _checked_rows(text: str, path: str | Path) -> list[ProjectMetrics]:
    """The rows of any table text, each built and checked on its own; the
    first fault raises."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ArchiveIntegrityError(f"{path}: empty metrics table")
    header = lines[0].split(",")
    if header != METRIC_COLUMNS:
        raise ArchiveIntegrityError(f"{path}: unexpected metrics table header")
    out: list[ProjectMetrics] = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(METRIC_COLUMNS):
            raise ArchiveIntegrityError(f"{path}: bad row {ln!r}")
        try:
            out.append(ProjectMetrics(cells[0], *map(int, cells[1:])))
        except ValueError as exc:
            raise ArchiveIntegrityError(f"{path}: bad row {ln!r}: {exc}") from exc
    return out


def read_metrics_table(path: str | Path) -> MetricColumns:
    """The metrics table at ``path`` as columns, in file order.

    A canonical table is parsed in bulk and checked column-wise; any other
    text takes the row path, which builds and checks one ``ProjectMetrics``
    per row and so gives the same columns or the first bad row's error.
    """
    try:
        # line ends are kept as written: a CRLF table is not canonical
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ArchiveIntegrityError(f"{path}: not UTF-8 text: {exc}") from exc
    table = _canonical_columns(text)
    if table is None:
        table = metric_columns(_checked_rows(text, path))
    DuplicateProjectError.check(table.project_id, f"{path}: duplicate project ids")
    return table
