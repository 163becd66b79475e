"""Entity/relation fact model for extracted Java projects.

A project is reduced to a flat list of :class:`SourceEntity` rows (packages,
types, members) and :class:`FactRelation` edges between them.  Relation
targets are entity ids when the target is declared inside the project and
dotted name strings otherwise; names that could not be resolved to any
package stay as plain (undotted) strings.  :class:`FactColumns` holds the
same facts with each table transposed, one sequence per row field, as the
archive's ``decode_columns`` returns them and as ``metrics.measure`` reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence, Union


class EntityKind(str, Enum):
    PACKAGE = "PACKAGE"
    CLASS = "CLASS"
    INTERFACE = "INTERFACE"
    ENUM = "ENUM"
    ANNOTATION = "ANNOTATION"
    FIELD = "FIELD"
    CONSTRUCTOR = "CONSTRUCTOR"
    METHOD = "METHOD"


class RelationKind(str, Enum):
    CONTAINS = "CONTAINS"
    HOLDS = "HOLDS"
    WRITES = "WRITES"
    READS = "READS"
    CALLS = "CALLS"
    INSTANTIATES = "INSTANTIATES"
    EXTENDS = "EXTENDS"
    IMPLEMENTS = "IMPLEMENTS"
    CASTS = "CASTS"
    INSTANCEOF = "INSTANCEOF"
    USES = "USES"


TYPE_KINDS = frozenset(
    {EntityKind.CLASS, EntityKind.INTERFACE, EntityKind.ENUM, EntityKind.ANNOTATION}
)

# Kinds whose members live directly in a type body.
MEMBER_KINDS = frozenset(
    {EntityKind.FIELD, EntityKind.CONSTRUCTOR, EntityKind.METHOD}
)

RelationTarget = Union[int, str]


class _SourceEntityRow(NamedTuple):
    entity_id: int
    fqn: str
    kind: EntityKind
    file: str  # relative path, "" for package entities
    line: int  # 1-based, 0 for package entities


class SourceEntity(_SourceEntityRow):
    """An immutable named tuple whose construction checks the fqn."""

    __slots__ = ()

    def __new__(cls, entity_id: int, fqn: str, kind: EntityKind, file: str, line: int):
        if not fqn:
            raise ValueError("entity fqn must be non-empty")
        return tuple.__new__(cls, (entity_id, fqn, kind, file, line))


class FactRelation(NamedTuple):
    source: int
    kind: RelationKind
    target: RelationTarget


class FactColumns(NamedTuple):
    """A project's facts with each table transposed: ``entities`` holds the
    ``SourceEntity`` fields' columns, ``relations`` the ``FactRelation``
    fields', each in row order.  A kind is an enum member or its value,
    which compares and hashes equal to it."""

    project_id: str
    sloc: int
    parse_warning_count: int
    warnings: list[str]
    entities: Sequence[Sequence]  # entity_id, fqn, kind, file, line
    relations: Sequence[Sequence]  # source, kind, target


@dataclass
class ProjectFacts:
    project_id: str
    entities: list[SourceEntity] = field(default_factory=list)
    relations: list[FactRelation] = field(default_factory=list)
    sloc: int = 0
    warnings: list[str] = field(default_factory=list)
    parse_warning_count: int = 0

    def columns(self) -> FactColumns:
        """The facts transposed, one tuple per row field; no row is checked."""
        return FactColumns(
            self.project_id,
            self.sloc,
            self.parse_warning_count,
            self.warnings,
            list(zip(*self.entities)) or [()] * len(SourceEntity._fields),
            list(zip(*self.relations)) or [()] * len(FactRelation._fields),
        )

    def validate(self) -> None:
        """Check the structural invariants; raise ValueError on violation."""
        ids = [e.entity_id for e in self.entities]
        if len(ids) != len(set(ids)):
            raise ValueError("entity ids are not unique")
        known = set(ids)
        parents: dict[int, int] = {}
        for rel in self.relations:
            if rel.source not in known:
                raise ValueError(f"relation source {rel.source} not in entity set")
            if rel.kind is RelationKind.CONTAINS:
                if not isinstance(rel.target, int) or rel.target not in known:
                    raise ValueError("CONTAINS target must be a project entity")
                if rel.target in parents:
                    raise ValueError(f"entity {rel.target} has two CONTAINS parents")
                parents[rel.target] = rel.source
        for ent in self.entities:
            if ent.kind in TYPE_KINDS or ent.kind in MEMBER_KINDS:
                if ent.entity_id not in parents:
                    raise ValueError(f"{ent.fqn} has no CONTAINS parent")
        # CONTAINS edges must form a forest; as only packages lack a parent,
        # every tree is rooted at one.
        for ent in self.entities:
            seen = set()
            cur = ent.entity_id
            while cur in parents:
                if cur in seen:
                    raise ValueError("CONTAINS cycle detected")
                seen.add(cur)
                cur = parents[cur]
        if self.sloc < 0:
            raise ValueError("sloc must be non-negative")
