"""Persistence for facts archives and the per-project metrics table.

The archive is a line-oriented, length-prefixed record file: a header line
with the format version, a project-count line, then one record per project
whose payload length is stated up front so truncation is detectable.
Entity ids are local to their project, so each record is encoded on its
own and records can be written as they are made.  No database engine;
readers rebuild in-memory indexes from the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    ArchiveIntegrityError,
    DuplicateProjectError,
    UnsupportedVersionError,
)
from .facts import EntityKind, FactRelation, ProjectFacts, RelationKind, SourceEntity
from .metrics import METRIC_COLUMNS, ProjectMetrics

ARCHIVE_VERSION = 1
_MAGIC = "JSCALE-FACTS"


@dataclass
class FactsArchive:
    projects: list[ProjectFacts] = field(default_factory=list)

    def __post_init__(self) -> None:
        DuplicateProjectError.check(
            [p.project_id for p in self.projects], "duplicate project ids"
        )


def _project_payload(p: ProjectFacts) -> str:
    return json.dumps(
        {
            "project_id": p.project_id,
            "sloc": p.sloc,
            "parse_warning_count": p.parse_warning_count,
            "warnings": p.warnings,
            "entities": [
                [eid, fqn, kind.value, file, line] for eid, fqn, kind, file, line in p.entities
            ],
            "relations": [[source, kind.value, target] for source, kind, target in p.relations],
        },
        separators=(",", ":"),
        sort_keys=True,
        ensure_ascii=False,
    )


# a dict lookup costs a fraction of an enum call; an unknown kind is a KeyError
_ENTITY_KINDS = {k.value: k for k in EntityKind}
_RELATION_KINDS = {k.value: k for k in RelationKind}


def decode_record(payload: bytes, path: str | Path, lineno: int) -> ProjectFacts:
    """The project of the record payload framed at line ``lineno`` of ``path``."""
    try:
        data = json.loads(payload.decode("utf-8"))
        return ProjectFacts(
            project_id=data["project_id"],
            sloc=data["sloc"],
            parse_warning_count=data.get("parse_warning_count", 0),
            warnings=list(data.get("warnings", [])),
            entities=[
                SourceEntity(eid, fqn, _ENTITY_KINDS[kind], file, line)
                for eid, fqn, kind, file, line in data["entities"]
            ],
            relations=[FactRelation(s, _RELATION_KINDS[k], t) for s, k, t in data["relations"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveIntegrityError(f"{path}: bad record at line {lineno}: {exc!r}") from exc


def write_records(payloads: Iterable[str], count: int, path: str | Path) -> None:
    """Write an archive of ``count`` encoded project records, each one as
    ``payloads`` yields it; until the last is written the file reads as
    truncated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_MAGIC} {ARCHIVE_VERSION}\n{count}\n")
        for payload in payloads:
            fh.write(f"{len(payload.encode('utf-8'))} {payload}\n")


def write_facts(archive: FactsArchive, path: str | Path) -> None:
    """Write an archive; two writes of equal content are byte-identical."""
    payloads = map(_project_payload, archive.projects)
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
        for lineno in range(3, count + 3):
            offset = fh.tell()
            line = fh.readline()
            if not line:
                raise ArchiveIntegrityError(f"{path}: truncated at record {lineno - 2}")
            try:
                size_text, payload = line.rstrip(b"\n").split(b" ", 1)
                size = int(size_text)
            except ValueError as exc:
                raise ArchiveIntegrityError(f"{path}: bad record at line {lineno}") from exc
            if len(payload) != size:
                raise ArchiveIntegrityError(f"{path}: record length mismatch at line {lineno}")
            yield offset + len(size_text) + 1, payload, lineno
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
    """Write the per-project metrics CSV, rows sorted by project id."""
    if not metrics:
        raise ValueError("metrics list must be non-empty")
    DuplicateProjectError.check(
        [m.project_id for m in metrics], "duplicate project ids in export"
    )
    rows = [METRIC_COLUMNS, *sorted(metrics, key=lambda m: m.project_id)]
    Path(path).write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")


def read_metrics_table(path: str | Path) -> list[ProjectMetrics]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ArchiveIntegrityError(f"{path}: not UTF-8 text: {exc}") from exc
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
    DuplicateProjectError.check([m.project_id for m in out], f"{path}: duplicate project ids")
    return out
