"""Entity/relation fact model for extracted Java projects.

A project's facts are a :class:`ProjectFacts`: its scalar fields and two
tables held as columns, ``entity_columns`` (packages, types, members) and
``relation_columns`` (edges between them), one list per field of a
:class:`SourceEntity` or :class:`FactRelation` row.  Extraction appends to
the columns, the archive's decoder makes them, and ``check_form``,
``metrics.measure`` and ``store.encode_columns`` read them; the
``entities`` and ``relations`` properties build the rows on demand, for
callers that read facts a row at a time.  Relation targets are entity ids
when the target is declared inside the project and dotted name strings
otherwise; names that could not be resolved to any package stay as plain
(undotted) strings.  Extraction makes facts in one form: ids 1..n in row
order, each relation source and int target an entity, each target an int
or a string, and each ``CONTAINS`` relation first, from an earlier entity,
so containment is a forest.  :func:`check_form` checks it for
``store.encode_columns`` and ``metrics.compute_metrics``; the archive's
decoder checks its stored ``parent`` column, and ``measure`` reads facts
already in the form, running :func:`containment` alone.
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

RelationTarget = Union[int, str]
# what every check says of a CONTAINS parent that does not come before its child
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


class ProjectFacts(NamedTuple):
    """One project's facts, each table as columns in row order:
    ``entity_columns`` holds one list per ``SourceEntity`` field,
    ``relation_columns`` one per ``FactRelation`` field.  A kind is an enum
    member or its value, which compares and hashes equal to it.  Every
    producer gives each column as a list of its own, so facts read back
    from an archive equal the facts written."""

    project_id: str
    sloc: int
    parse_warning_count: int
    warnings: list[str]
    entity_columns: list[list]  # entity_id, fqn, kind, file, line
    relation_columns: list[list]  # source, kind, target

    @property
    def entities(self) -> list[SourceEntity]:
        """The entity rows, built at each read; building one checks its fqn."""
        return list(map(SourceEntity, *self.entity_columns))

    @property
    def relations(self) -> list[FactRelation]:
        """The relation rows, built at each read."""
        return list(map(FactRelation, *self.relation_columns))


def all_ints(values) -> bool:
    # bool and float compare equal to ints but are written as other JSON
    return {int}.issuperset(map(type, values))


_TYPE_NAMES = {int: "an int", str: "a string"}


def only(types: tuple, values, name: str):
    """``values``, each of one of ``types``; any other value raises."""
    if not set(map(type, values)).issubset(types):
        kinds = " or ".join(map(_TYPE_NAMES.__getitem__, types))
        raise ValueError(f"{name} holds a value that is not {kinds}")
    return values


def entity_ids(ids: Sequence[int], n: int, name: str) -> None:
    """Raise unless each of ``ids`` is an entity of a record of ``n``."""
    if ids and (min(ids) < 1 or max(ids) > n):
        raise ValueError(f"{name} is not an entity of the record")


def containment(facts: ProjectFacts) -> list[int]:
    """Each entity's ``CONTAINS`` parent, else 0, from the leading
    ``CONTAINS`` relations; one out of extraction's order raises."""
    n = len(facts.entity_columns[0])
    parent = [0] * n
    last = 0
    for source, kind, target in zip(*facts.relation_columns):
        if kind != "CONTAINS":
            break
        if type(target) is not int or not last < target <= n:
            raise ValueError(f"CONTAINS target {target!r} is not an entity after {last}")
        if not 0 < source < target:
            raise ValueError(LATE_PARENT.format(source, target))
        parent[target - 1] = source
        last = target
    return parent


def check_form(facts: ProjectFacts) -> list[int]:
    """The ``containment`` of facts in extraction's form: ids 1..n, int
    sources, a leading ``CONTAINS`` run and no ``CONTAINS`` after it,
    sources and int targets that are entities, other targets strings.
    The first rule broken, in that order, raises a ValueError naming it."""
    ids = facts.entity_columns[0]
    sources, kinds, targets = facts.relation_columns
    if not all_ints(ids) or list(ids) != list(range(1, len(ids) + 1)):
        raise ValueError("the id column is not 1..n")
    only((int,), sources, "the source column")
    parent = containment(facts)
    entity_ids(sources, len(ids), "a relation source")
    run = len(parent) - parent.count(0)
    if "CONTAINS" in kinds[run:]:
        raise ValueError("a CONTAINS relation follows a relation of another kind")
    only((int, str), targets, "the target column")
    entity_ids([t for t in targets if type(t) is int], len(ids), "a relation target")
    return parent
