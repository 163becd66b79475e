"""Entity/relation fact model for extracted Java projects.

A project is reduced to a flat list of :class:`SourceEntity` rows (packages,
types, members) and :class:`FactRelation` edges between them.  Relation
targets are entity ids when the target is declared inside the project and
dotted name strings otherwise; names that could not be resolved to any
package stay as plain (undotted) strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union


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


@dataclass(frozen=True)
class SourceEntity:
    entity_id: int
    fqn: str
    kind: EntityKind
    file: str  # relative path, "" for package entities
    line: int  # 1-based, 0 for package entities

    def __post_init__(self) -> None:
        if not self.fqn:
            raise ValueError("entity fqn must be non-empty")


@dataclass(frozen=True)
class FactRelation:
    source: int
    kind: RelationKind
    target: RelationTarget


@dataclass
class ProjectFacts:
    project_id: str
    entities: list[SourceEntity] = field(default_factory=list)
    relations: list[FactRelation] = field(default_factory=list)
    sloc: int = 0
    warnings: list[str] = field(default_factory=list)
    parse_warning_count: int = 0

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
