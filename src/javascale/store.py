"""Persistence for facts archives and the per-project metrics table.

The archive is a header line with the format version, a project-count
line, then one record per project: its length, a space, its payload and a
newline, so that truncation is detectable.  A payload is the zlib stream
(RFC 1950; its Adler-32 trailer checks it) of canonical JSON.  Entity ids
are local to their project, so each record is encoded on its own and
records can be written as they are made.  No database engine; readers
rebuild in-memory indexes.

A version 3 record leaves out what extraction makes implicit:

* ``entities`` holds four arrays, the fqn, kind, file and line of each
  entity.  Their ids are 1..n in row order unless an ``ids`` array is
  present, which holds them as they are.
* ``parent`` holds one int per entity: the source of its ``CONTAINS``
  relation, or 0 for none.  These are the leading ``CONTAINS`` relations,
  written by extraction before any other, whose targets are entities in
  increasing row order and whose sources are non-zero ints.
* ``relations`` holds two arrays, the kind and target of each other
  relation, in order; a later or out-of-order ``CONTAINS`` is one of them.
  Their sources are in ``deltas``, each the difference from the previous
  source (the first from 0), when all are ints; otherwise a plain
  ``sources`` array holds them.

So ``decode_columns`` returns, for any facts, exactly the columns the
encoder was given, as JSON types them.

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
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, le, sub
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    ArchiveIntegrityError,
    DataError,
    DuplicateProjectError,
    UnsupportedVersionError,
)
from .facts import (
    EntityKind,
    FactColumns,
    FactRelation,
    ProjectFacts,
    RelationKind,
    SourceEntity,
)
from .metrics import CAPS, METRIC_COLUMNS, SUM_RULES, MetricColumns, ProjectMetrics, metric_columns

ARCHIVE_VERSION = 3
_MAGIC = "JSCALE-FACTS"
_MAX_DIGITS = 20  # of a record's length prefix


@dataclass
class FactsArchive:
    projects: list[ProjectFacts] = field(default_factory=list)

    def __post_init__(self) -> None:
        DuplicateProjectError.check(
            [p.project_id for p in self.projects], "duplicate project ids"
        )


def _ints(values) -> bool:
    # bool and float compare equal to ints but are written as other JSON
    return {int}.issuperset(map(type, values))


def _parent_run(ids: Sequence, implicit: bool, relations: Sequence[Sequence]) -> list[int]:
    """The source of each entity's ``CONTAINS`` relation in the leading run
    of them whose sources are non-zero ints and whose targets are int ids
    of entities in increasing row order, else 0."""
    parent = [0] * len(ids)
    last = -1
    for source, kind, target in zip(*relations):
        if kind != "CONTAINS" or type(source) is not int or not source or type(target) is not int:
            break
        try:
            at = target - 1 if implicit else ids.index(target, last + 1)
        except ValueError:
            break
        if not last < at < len(ids) or type(ids[at]) is not int:
            break
        parent[at] = source
        last = at
    return parent


def _project_payload(columns: FactColumns) -> bytes:
    ids, fqns, kinds, files, lines = columns.entities
    sources, kinds_of_relations, targets = columns.relations
    implicit = _ints(ids) and list(ids) == list(range(1, len(ids) + 1))
    parent = _parent_run(ids, implicit, columns.relations)
    run = len(parent) - parent.count(0)
    record = {
        "project_id": columns.project_id,
        "sloc": columns.sloc,
        "parse_warning_count": columns.parse_warning_count,
        "warnings": columns.warnings,
        # the kinds are str enums, so they encode as their values
        "entities": [fqns, kinds, files, lines],
        "parent": parent,
        "relations": [kinds_of_relations[run:], targets[run:]],
    }
    if not implicit:
        record["ids"] = ids
    sources = sources[run:]
    if _ints(sources):
        record["deltas"] = list(map(sub, sources, chain((0,), sources)))
    else:
        record["sources"] = sources
    text = json.dumps(record, separators=(",", ":"), sort_keys=True, ensure_ascii=False)
    return zlib.compress(text.encode("utf-8"))


# a dict lookup costs a fraction of an enum call; an unknown kind is a KeyError
_ENTITY_KINDS = {k.value: k for k in EntityKind}
_RELATION_KINDS = {k.value: k for k in RelationKind}


def _same_length(columns: list, name: str) -> list:
    # map() would stop at the shortest column, silently dropping rows
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"{name} columns differ in length")
    return columns


def _rows(c: FactColumns) -> tuple[list[SourceEntity], list[FactRelation]]:
    """The rows of the columns, kinds as members; the first row that cannot
    be built, for an empty fqn or an unknown kind, raises."""
    ids, fqns, kinds, files, lines = c.entities
    sources, kinds_of_relations, targets = c.relations
    kinds = map(_ENTITY_KINDS.__getitem__, kinds)
    kinds_of_relations = map(_RELATION_KINDS.__getitem__, kinds_of_relations)
    return (
        list(map(SourceEntity, ids, fqns, kinds, files, lines)),
        list(map(FactRelation, sources, kinds_of_relations, targets)),
    )


def _decoded(data: dict) -> FactColumns:
    """The columns a version 3 record's JSON stands for; a field that breaks
    the layout raises."""
    fqns, kinds, files, lines = data["entities"]
    ids = data["ids"] if "ids" in data else list(range(1, len(fqns) + 1))
    _same_length([ids, fqns, kinds, files, lines], "entities")
    parent = data["parent"]
    if len(parent) != len(fqns):
        raise ValueError("parent and entities differ in length")
    if not _ints(parent):
        raise ValueError("parent holds a value that is not an int")
    if ("deltas" in data) == ("sources" in data):
        raise ValueError("a record holds both or neither of deltas and sources")
    if "deltas" in data:
        if not _ints(data["deltas"]):
            raise ValueError("deltas holds a value that is not an int")
        sources = list(accumulate(data["deltas"]))
    else:
        sources = data["sources"]
    kinds_of_relations, targets = _same_length([sources, *data["relations"]], "relations")[1:]
    run = len(parent) - parent.count(0)
    return FactColumns(
        project_id=data["project_id"],
        sloc=data["sloc"],
        parse_warning_count=data.get("parse_warning_count", 0),
        warnings=list(data.get("warnings", [])),
        entities=[ids, fqns, kinds, files, lines],
        relations=[
            [*filter(None, parent), *sources],
            ["CONTAINS"] * run + kinds_of_relations,
            [*compress(ids, parent), *targets],
        ],
    )


def decode_columns(payload: bytes, path: str | Path, lineno: int) -> FactColumns:
    """The columns of the record payload framed at line ``lineno`` of
    ``path``; a record whose rows could not be built is refused."""
    try:
        columns = _decoded(json.loads(zlib.decompress(payload).decode("utf-8")))
        _, fqns, kinds, _, _ = columns.entities
        try:
            buildable = (
                all(fqns)
                and _ENTITY_KINDS.keys() >= set(kinds)
                and _RELATION_KINDS.keys() >= set(columns.relations[1])
            )
        except TypeError:  # an unhashable kind
            buildable = False
        if not buildable:
            _rows(columns)  # raises what the first bad row raises
        return columns
    except (KeyError, TypeError, ValueError, zlib.error) as exc:
        raise ArchiveIntegrityError(f"{path}: bad record at line {lineno}: {exc!r}") from exc


def decode_record(payload: bytes, path: str | Path, lineno: int) -> ProjectFacts:
    """The project of the record payload framed at line ``lineno`` of ``path``."""
    c = decode_columns(payload, path, lineno)
    entities, relations = _rows(c)
    return ProjectFacts(
        c.project_id, entities, relations, c.sloc, c.warnings, c.parse_warning_count
    )


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
    payloads = map(_project_payload, map(ProjectFacts.columns, archive.projects))
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


def read_records(path: str | Path) -> Iterator[ProjectFacts]:
    """Yield each project of an archive as its record is read and checked;
    what follows the last record is checked when the iterator is exhausted."""
    for _, payload, lineno in scan_records(path):
        yield decode_record(payload, path, lineno)


def read_facts(path: str | Path) -> FactsArchive:
    return FactsArchive(projects=list(read_records(path)))


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
