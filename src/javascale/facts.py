"""Entity/relation fact model for extracted Java projects.

A project is reduced to a flat list of :class:`SourceEntity` rows (packages,
types, members) and :class:`FactRelation` edges between them.  Relation
targets are entity ids when the target is declared inside the project and
dotted name strings otherwise; names that could not be resolved to any
package stay as plain (undotted) strings.  :class:`FactColumns` holds the
same facts with each table transposed, one sequence per row field, as
``metrics.measure`` reads them.  The archive stores only facts in the form
extraction makes them, with ids 1..n in row order, each ``CONTAINS``
parent before its child and each target an int or a string (see
``store.encode_columns``); its ``decode_columns`` returns them as columns.
Every reader refuses a parent after its child, so containment is a forest.
"""

from __future__ import annotations

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
# what every reader says of a CONTAINS parent that does not come before its child
LATE_PARENT = "the CONTAINS parent {} of entity {} is not an earlier entity"


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


class ProjectFacts:
    """One project's facts; a list not passed in starts empty and is its own."""

    __slots__ = ("project_id", "entities", "relations", "sloc", "warnings", "parse_warning_count")

    def __init__(
        self,
        project_id: str,
        entities: list[SourceEntity] | None = None,
        relations: list[FactRelation] | None = None,
        sloc: int = 0,
        warnings: list[str] | None = None,
        parse_warning_count: int = 0,
    ) -> None:
        self.project_id, self.sloc, self.parse_warning_count = project_id, sloc, parse_warning_count
        self.entities = [] if entities is None else entities
        self.relations = [] if relations is None else relations
        self.warnings = [] if warnings is None else warnings

    def __eq__(self, other: object) -> bool:
        return type(other) is ProjectFacts and self.columns() == other.columns()

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
        contained: set[int] = set()
        for rel in self.relations:
            if rel.source not in known:
                raise ValueError(f"relation source {rel.source} not in entity set")
            if rel.kind is RelationKind.CONTAINS:
                if not isinstance(rel.target, int) or rel.target not in known:
                    raise ValueError("CONTAINS target must be a project entity")
                if rel.target in contained:
                    raise ValueError(f"entity {rel.target} has two CONTAINS parents")
                if not rel.source < rel.target:  # so containment is a forest
                    raise ValueError(LATE_PARENT.format(rel.source, rel.target))
                contained.add(rel.target)
        for ent in self.entities:
            if ent.kind in TYPE_KINDS or ent.kind in MEMBER_KINDS:
                if ent.entity_id not in contained:
                    raise ValueError(f"{ent.fqn} has no CONTAINS parent")
        if self.sloc < 0:
            raise ValueError("sloc must be non-negative")
