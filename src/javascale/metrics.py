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

:func:`measure` takes every count from one walk over a project's facts
and returns the unresolved count beside the row; the ``metrics`` command
sums it over the projects and prints the unresolved fraction.
"""

from __future__ import annotations

from collections import Counter
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


def _call_owner(name: str, declared: set[str]) -> str | None:
    """Owner type of a CALLS or INSTANTIATES target name, or None when it
    cannot be known."""
    if name.endswith(".<init>"):
        return name[: -len(".<init>")] or None
    if "." not in name:
        return None  # bare unresolved call
    segs = name.split(".")[:-1]  # drop the member name
    for k in range(len(segs), 0, -1):
        cand = ".".join(segs[:k])
        if cand in declared or segs[k - 1][:1].isupper():
            return cand
    return None


def measure(
    facts: ProjectFacts, jdk_prefixes: tuple[str, ...] = DEFAULT_JDK_PREFIXES
) -> tuple[ProjectMetrics, int]:
    """A project's metrics row and its count of distinct unresolved names.

    Pure and deterministic.  The entities are read once and the relations
    twice: first for the CONTAINS parents, since the relations come in any
    order, then for every count, set and used module.  A module used many
    times counts once.
    """
    kinds: dict[int, EntityKind] = {}
    fqns: dict[int, str] = {}
    per_kind: Counter[EntityKind] = Counter()
    declared: set[str] = set()
    method_ids: list[int] = []
    for e in facts.entities:
        kinds[e.entity_id] = e.kind
        fqns[e.entity_id] = e.fqn
        per_kind[e.kind] += 1
        if e.kind in TYPE_KINDS:
            declared.add(e.fqn)
        elif e.kind is EntityKind.METHOD:
            method_ids.append(e.entity_id)
    parent = {
        r.target: r.source
        for r in facts.relations
        if r.kind is RelationKind.CONTAINS and isinstance(r.target, int)
    }
    owners: dict[int, str | None] = {}

    def owner_type(entity_id: int) -> str | None:
        """The innermost type that is or contains the entity, looked up once."""
        if entity_id not in owners:
            cur: int | None = entity_id
            while cur is not None and kinds.get(cur) not in TYPE_KINDS:
                cur = parent.get(cur)
            owners[entity_id] = None if cur is None else fqns[cur]
        return owners[entity_id]

    per_rel: Counter[RelationKind] = Counter()
    dui: set[int] = set()  # classes with a non-Object extends or an implements
    inherited: set[int] = set()  # classes some declaration extends
    used: set[str] = set()
    unresolved: set[str] = set()
    for r in facts.relations:
        kind, target = r.kind, r.target
        per_rel[kind] += 1
        if kind not in _TYPE_USE_KINDS:
            continue
        if kind is RelationKind.EXTENDS:
            if kinds.get(target) in _CLASS_KINDS:
                inherited.add(target)
            name = fqns.get(target) if isinstance(target, int) else target
            if kinds.get(r.source) in _CLASS_KINDS and name not in ("java.lang.Object", "Object"):
                dui.add(r.source)
        elif kind is RelationKind.IMPLEMENTS and kinds.get(r.source) in _CLASS_KINDS:
            dui.add(r.source)
        if isinstance(target, int):
            fqn = owner_type(target)
        elif kind is RelationKind.CALLS or kind is RelationKind.INSTANTIATES:
            fqn = _call_owner(target, declared)
            if fqn is None:
                unresolved.add(target)
        else:
            fqn = target
        if fqn is not None:
            used.add(fqn)
    internal = jdk = external = 0
    for fqn in used:
        if fqn in declared:
            internal += 1
        elif "." not in fqn:
            unresolved.add(fqn)
        elif fqn.startswith(jdk_prefixes):
            jdk += 1
        else:
            external += 1
    classes = per_kind[EntityKind.CLASS] + per_kind[EntityKind.ENUM]
    interfaces = per_kind[EntityKind.INTERFACE] + per_kind[EntityKind.ANNOTATION]
    row = ProjectMetrics(
        project_id=facts.project_id,
        sloc=facts.sloc,
        classes=classes,
        interfaces=interfaces,
        modules=classes + interfaces,
        methods=sum(kinds.get(parent.get(m)) in _CLASS_KINDS for m in method_ids),
        constructors=per_kind[EntityKind.CONSTRUCTOR],
        calls=per_rel[RelationKind.CALLS],
        instanceof_count=per_rel[RelationKind.INSTANCEOF],
        casts=per_rel[RelationKind.CASTS],
        dui=len(dui),
        if_count=len(inherited),
        used_total=internal + jdk + external,
        used_internal=internal,
        used_jdk=jdk,
        used_external=external,
        efferent_coupling=jdk + external,
    )
    return row, len(unresolved)


# kept for bench/worker.py's traced run, which wraps this name as its
# metrics.provenance span: the span times every measure call
used_modules_by_provenance = measure


def compute_metrics(facts: ProjectFacts) -> ProjectMetrics:
    """The project's metrics row, with the default JDK prefixes."""
    return measure(facts)[0]
