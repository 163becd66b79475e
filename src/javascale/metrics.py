"""Per-project metric record computed from extracted facts.

Counting conventions:

* ``classes`` includes enums, ``interfaces`` includes annotation types,
  mirroring how the JVM treats them.
* ``methods`` counts only methods declared in classes, not interfaces.
* ``calls`` counts call sites; constructor invocations (INSTANTIATES)
  are not included.
* ``dui`` counts classes with an explicit extends of anything other than
  ``java.lang.Object`` or at least one implements clause.
* ``used_*`` are distinct used modules, split by provenance into
  internal (declared in the project), JDK (``DEFAULT_JDK_PREFIXES``) and
  external.  Call/instantiation targets whose owner type never resolves,
  and package-less names the project does not declare, are tallied
  separately as unresolved and do not enter the provenance split.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .errors import UnknownMetricError
from .facts import TYPE_KINDS, EntityKind, ProjectFacts, RelationKind

METRIC_COLUMNS = [
    "project_id",
    "sloc",
    "classes",
    "interfaces",
    "modules",
    "methods",
    "constructors",
    "calls",
    "instanceof_count",
    "casts",
    "dui",
    "if_count",
    "used_total",
    "used_internal",
    "used_jdk",
    "used_external",
    "efferent_coupling",
]

METRIC_NAMES = frozenset(METRIC_COLUMNS[1:])

DEFAULT_JDK_PREFIXES: tuple[str, ...] = ("java.", "javax.")

_CLASS_KINDS = frozenset({EntityKind.CLASS, EntityKind.ENUM})
_INTERFACE_KINDS = frozenset({EntityKind.INTERFACE, EntityKind.ANNOTATION})

_TYPE_USE_KINDS = frozenset(
    {
        RelationKind.HOLDS,
        RelationKind.CALLS,
        RelationKind.INSTANTIATES,
        RelationKind.EXTENDS,
        RelationKind.IMPLEMENTS,
        RelationKind.CASTS,
        RelationKind.INSTANCEOF,
        RelationKind.USES,
    }
)

# a row's 16 counts in column order, read in one call
_counts = attrgetter(*METRIC_COLUMNS[1:])


@dataclass(frozen=True)
class ProjectMetrics:
    project_id: str
    sloc: int = 0
    classes: int = 0
    interfaces: int = 0
    modules: int = 0
    methods: int = 0
    constructors: int = 0
    calls: int = 0
    instanceof_count: int = 0
    casts: int = 0
    dui: int = 0
    if_count: int = 0
    used_total: int = 0
    used_internal: int = 0
    used_jdk: int = 0
    used_external: int = 0
    efferent_coupling: int = 0

    def __post_init__(self) -> None:
        counts = _counts(self)
        if min(counts) < 0:
            name = next(n for n, v in zip(METRIC_COLUMNS[1:], counts) if v < 0)
            raise ValueError(f"{name} must be non-negative")
        if self.modules != self.classes + self.interfaces:
            raise ValueError("modules must equal classes + interfaces")
        if self.used_total != self.used_internal + self.used_jdk + self.used_external:
            raise ValueError("used_total must be the sum of the provenance counts")
        if self.efferent_coupling != self.used_jdk + self.used_external:
            raise ValueError("efferent_coupling must equal used_jdk + used_external")
        if self.dui > self.classes or self.if_count > self.classes:
            raise ValueError("dui and if_count cannot exceed the class count")


def metric_getter(name: str) -> Callable[[ProjectMetrics], int]:
    """The accessor of metric ``name``, checked once instead of per row."""
    if name not in METRIC_NAMES:
        raise UnknownMetricError(f"unknown metric {name!r}")
    return attrgetter(name)


@dataclass(frozen=True)
class UsedModules:
    internal: int
    jdk: int
    external: int
    total: int
    unresolved: int  # distinct names with no resolvable owner type


def _containment(facts: ProjectFacts) -> tuple[dict[int, int], dict[int, EntityKind]]:
    """Each entity's CONTAINS parent, and each entity's kind."""
    parent = {
        r.target: r.source
        for r in facts.relations
        if r.kind is RelationKind.CONTAINS and isinstance(r.target, int)
    }
    return parent, {e.entity_id: e.kind for e in facts.entities}


def _containing_type(
    entity_id: int, parent: dict[int, int], kinds: dict[int, EntityKind]
) -> int | None:
    cur: int | None = entity_id
    while cur is not None:
        if kinds.get(cur) in TYPE_KINDS:
            return cur
        cur = parent.get(cur)
    return None


def _target_type_fqn(
    rel_kind: RelationKind,
    target: int | str,
    parent: dict[int, int],
    kinds: dict[int, EntityKind],
    fqns: dict[int, str],
    declared: set[str],
) -> str | None:
    """Owner type of a relation target, or None when it cannot be known."""
    if isinstance(target, int):
        owner = _containing_type(target, parent, kinds)
        return fqns[owner] if owner is not None else None
    s = target
    if rel_kind in (RelationKind.CALLS, RelationKind.INSTANTIATES):
        if s.endswith(".<init>"):
            s = s[: -len(".<init>")]
            return s or None
        if "." not in s:
            return None  # bare unresolved call
        s = s.rsplit(".", 1)[0]  # drop the member name
        if s in declared:
            return s
        segs = s.split(".")
        for k in range(len(segs), 0, -1):
            cand = ".".join(segs[:k])
            if cand in declared:
                return cand
            if segs[k - 1][:1].isupper():
                return cand
        return None
    return s


def used_modules_by_provenance(
    facts: ProjectFacts,
    jdk_prefixes: tuple[str, ...] | list[str] = DEFAULT_JDK_PREFIXES,
) -> UsedModules:
    """Distinct modules used by the project, split by provenance.

    A module used many times counts once.  Targets whose owner type cannot
    be resolved (no import, no declaration) are reported in ``unresolved``
    and excluded from the three provenance buckets.
    """
    declared = facts.declared_type_fqns()
    parent, kinds = _containment(facts)
    fqns = {e.entity_id: e.fqn for e in facts.entities}
    prefixes = tuple(jdk_prefixes)
    internal: set[str] = set()
    jdk: set[str] = set()
    external: set[str] = set()
    unresolved: set[str] = set()
    for rel in facts.relations:
        if rel.kind not in _TYPE_USE_KINDS:
            continue
        fqn = _target_type_fqn(rel.kind, rel.target, parent, kinds, fqns, declared)
        if fqn is None:
            if isinstance(rel.target, str):
                unresolved.add(rel.target)
            continue
        if fqn in declared:
            internal.add(fqn)
        elif "." not in fqn:
            unresolved.add(fqn)
        elif fqn.startswith(prefixes):
            jdk.add(fqn)
        else:
            external.add(fqn)
    return UsedModules(
        internal=len(internal),
        jdk=len(jdk),
        external=len(external),
        total=len(internal) + len(jdk) + len(external),
        unresolved=len(unresolved),
    )


def count_dui(facts: ProjectFacts) -> int:
    """Classes defined using inheritance: explicit extends of a type other
    than java.lang.Object, or at least one implements."""
    class_ids = {e.entity_id for e in facts.entities if e.kind in _CLASS_KINDS}
    fqns = {e.entity_id: e.fqn for e in facts.entities}
    dui: set[int] = set()
    for rel in facts.relations:
        if rel.source not in class_ids:
            continue
        if rel.kind is RelationKind.EXTENDS:
            target_fqn = (
                fqns.get(rel.target) if isinstance(rel.target, int) else rel.target
            )
            if target_fqn not in ("java.lang.Object", "Object"):
                dui.add(rel.source)
        elif rel.kind is RelationKind.IMPLEMENTS:
            dui.add(rel.source)
    return len(dui)


def count_inherited_from(facts: ProjectFacts) -> int:
    """Classes that some other declaration in the project extends."""
    class_ids = {e.entity_id for e in facts.entities if e.kind in _CLASS_KINDS}
    inherited: set[int] = set()
    for rel in facts.relations:
        if rel.kind is RelationKind.EXTENDS and isinstance(rel.target, int):
            if rel.target in class_ids:
                inherited.add(rel.target)
    return len(inherited)


def compute_metrics(
    facts: ProjectFacts, used: UsedModules | None = None
) -> ProjectMetrics:
    """Compute the full per-project metric record. Pure and deterministic.

    ``used`` is the project's ``used_modules_by_provenance`` result, for a
    caller that needs it too; by default it is computed with the default
    JDK prefixes.
    """
    if used is None:
        used = used_modules_by_provenance(facts)
    classes = sum(1 for e in facts.entities if e.kind in _CLASS_KINDS)
    interfaces = sum(1 for e in facts.entities if e.kind in _INTERFACE_KINDS)
    parent, kinds = _containment(facts)
    methods = sum(
        1
        for e in facts.entities
        if e.kind is EntityKind.METHOD and kinds.get(parent.get(e.entity_id)) in _CLASS_KINDS
    )
    constructors = sum(1 for e in facts.entities if e.kind is EntityKind.CONSTRUCTOR)
    calls = sum(1 for r in facts.relations if r.kind is RelationKind.CALLS)
    instanceof_count = sum(
        1 for r in facts.relations if r.kind is RelationKind.INSTANCEOF
    )
    casts = sum(1 for r in facts.relations if r.kind is RelationKind.CASTS)
    return ProjectMetrics(
        project_id=facts.project_id,
        sloc=facts.sloc,
        classes=classes,
        interfaces=interfaces,
        modules=classes + interfaces,
        methods=methods,
        constructors=constructors,
        calls=calls,
        instanceof_count=instanceof_count,
        casts=casts,
        dui=count_dui(facts),
        if_count=count_inherited_from(facts),
        used_total=used.total,
        used_internal=used.internal,
        used_jdk=used.jdk,
        used_external=used.external,
        efferent_coupling=used.jdk + used.external,
    )
