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

:func:`measure` reads a project's facts as columns
(:class:`~javascale.facts.FactColumns`), the form the archive decodes to: the
``metrics`` command passes each record's columns without building a row
object, and a ``ProjectFacts`` is transposed once.  Kinds are counted per
column, and each distinct relation target is resolved once.  The
unresolved count comes back beside the row; the ``metrics`` command sums
it over the projects and prints the unresolved fraction.

A :class:`ProjectMetrics` row is what extraction and the archive path
make, one per project.  The statistics stages read a whole table as
:class:`MetricColumns`, one list per column: ``read_metrics_table`` returns
that form, and a pipeline transposes its rows once with
:func:`metric_columns`.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import compress

from .errors import UnknownMetricError
from .facts import TYPE_KINDS, EntityKind, FactColumns, ProjectFacts, RelationKind

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


# The row rules, for the row check, ProjectMetrics.derive, the table reader and
# synth: each derived column is the sum of its parts, each capped one <= its cap.
SUM_RULES = (
    ("modules", ("classes", "interfaces"), "modules must equal classes + interfaces"),
    ("used_total", ("used_internal", "used_jdk", "used_external"),
     "used_total must be the sum of the provenance counts"),
    ("efferent_coupling", ("used_jdk", "used_external"),
     "efferent_coupling must equal used_jdk + used_external"),
)
CAPS = {"dui": "classes", "if_count": "classes"}

DEFAULT_JDK_PREFIXES: tuple[str, ...] = ("java.", "javax.")

_CLASS_KINDS = frozenset({EntityKind.CLASS, EntityKind.ENUM})
_METHOD_KINDS = frozenset({EntityKind.METHOD})
_CONTAINS_KINDS = frozenset({RelationKind.CONTAINS})
_INHERIT_KINDS = frozenset({RelationKind.EXTENDS, RelationKind.IMPLEMENTS})
_CALL_KINDS = frozenset({RelationKind.CALLS, RelationKind.INSTANTIATES})

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


class ProjectMetrics(
    namedtuple("_ProjectMetricsRow", METRIC_COLUMNS, defaults=(0,) * (len(METRIC_COLUMNS) - 1))
):
    """One project's metrics row: an immutable named tuple of the
    ``METRIC_COLUMNS``, the 16 counts defaulting to 0.

    Construction checks the row's invariants, and so does unpickling, by
    which rows leave worker processes.  ``_make`` and ``_replace`` build a
    row without calling ``__new__`` and so skip the checks; nothing in
    ``src/`` calls them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        counts = self[1:]
        if min(counts) < 0:
            name = next(n for n, v in zip(METRIC_COLUMNS[1:], counts) if v < 0)
            raise ValueError(f"{name} must be non-negative")
        for column, parts, message in SUM_RULES:
            if getattr(self, column) != sum(getattr(self, part) for part in parts):
                raise ValueError(message)
        if any(getattr(self, column) > getattr(self, cap) for column, cap in CAPS.items()):
            raise ValueError("dui and if_count cannot exceed the class count")
        return self

    @classmethod
    def derive(cls, project_id: str, **counts: int) -> ProjectMetrics:
        """The row of ``counts`` with each derived column the sum of its parts."""
        for column, parts, _ in SUM_RULES:
            counts[column] = sum(counts.get(part, 0) for part in parts)
        return cls(project_id, **counts)


class MetricColumns(namedtuple("_MetricColumns", METRIC_COLUMNS)):
    """A metrics table as columns: ``project_id``, then one ``list[int]``
    per count, in ``METRIC_COLUMNS`` order; row ``i`` of the table is item
    ``i`` of every column."""

    __slots__ = ()

    def column(self, name: str) -> list[int]:
        """The column of metric ``name``, checked once instead of per row."""
        if not (isinstance(name, str) and name in METRIC_NAMES):  # a JSON list is unhashable
            raise UnknownMetricError(f"unknown metric {name!r}")
        return getattr(self, name)


def metric_columns(rows: list[ProjectMetrics]) -> MetricColumns:
    """The columns of ``rows``, in row order."""
    columns = zip(*rows) if rows else [()] * len(METRIC_COLUMNS)
    return MetricColumns._make(map(list, columns))


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
    facts: ProjectFacts | FactColumns, jdk_prefixes: tuple[str, ...] = DEFAULT_JDK_PREFIXES
) -> tuple[ProjectMetrics, int]:
    """A project's metrics row and its count of distinct unresolved names.

    Pure and deterministic.  Reads the facts as columns, transposing a
    ``ProjectFacts`` once.  The kind columns are counted; only the CONTAINS
    rows are walked for the parents and only the EXTENDS and IMPLEMENTS
    rows for ``dui`` and ``if_count``; each distinct (kind, target) pair of
    a type use is resolved once, in file order, to at most one used module.
    A CONTAINS cycle is a ValueError naming its entities; a type use whose
    target is neither a name nor an entity id of the record is one naming
    the target.
    """
    if isinstance(facts, ProjectFacts):
        facts = facts.columns()
    ids, fqns_of_ids, entity_kinds, _, _ = facts.entities
    sources, relation_kinds, targets = facts.relations
    # an id given twice keeps its last row, as a dict built row by row would
    kinds = dict(zip(ids, entity_kinds))
    fqns = dict(zip(ids, fqns_of_ids))
    per_kind = Counter(entity_kinds)
    declared = set(compress(fqns_of_ids, map(TYPE_KINDS.__contains__, entity_kinds)))
    method_ids = compress(ids, map(_METHOD_KINDS.__contains__, entity_kinds))
    parent = {
        target: source
        for target, source in compress(
            zip(targets, sources), map(_CONTAINS_KINDS.__contains__, relation_kinds)
        )
        if isinstance(target, int)
    }
    owners: dict[int, str | None] = {}

    def owner_type(entity_id: int) -> str | None:
        """The innermost type that is or contains the entity, looked up once."""
        if entity_id not in owners:
            cur: int | None = entity_id
            steps = 0
            while cur is not None and kinds.get(cur) not in TYPE_KINDS:
                if steps > len(parent):  # a parent taken twice: cur is on a cycle
                    cycle = [cur]
                    while parent[cycle[-1]] != cur:
                        cycle.append(parent[cycle[-1]])
                    raise ValueError(f"CONTAINS cycle through entities {sorted(cycle)}")
                cur = parent.get(cur)
                steps += 1
            owners[entity_id] = None if cur is None else fqns[cur]
        return owners[entity_id]

    dui: set[int] = set()  # classes with a non-Object extends or an implements
    inherited: set[int] = set()  # classes some declaration extends
    for source, kind, target in compress(
        zip(sources, relation_kinds, targets), map(_INHERIT_KINDS.__contains__, relation_kinds)
    ):
        if kind == RelationKind.EXTENDS:
            if kinds.get(target) in _CLASS_KINDS:
                inherited.add(target)
            name = fqns.get(target) if isinstance(target, int) else target
            if kinds.get(source) in _CLASS_KINDS and name not in ("java.lang.Object", "Object"):
                dui.add(source)
        elif kinds.get(source) in _CLASS_KINDS:
            dui.add(source)
    used: set[str] = set()
    unresolved: set[str] = set()
    type_uses = compress(
        zip(relation_kinds, targets), map(_TYPE_USE_KINDS.__contains__, relation_kinds)
    )
    for kind, target in dict.fromkeys(type_uses):  # in file order, for the cycle named
        if type(target) is int and target in kinds:  # not a bool or a float equal to an id
            fqn = owner_type(target)
        elif not isinstance(target, str):
            raise ValueError(
                f"{RelationKind(kind).value} target {target!r} is not an entity of the record"
            )
        elif kind in _CALL_KINDS:
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
    per_rel = Counter(relation_kinds)
    row = ProjectMetrics.derive(
        facts.project_id,
        sloc=facts.sloc,
        classes=per_kind[EntityKind.CLASS] + per_kind[EntityKind.ENUM],
        interfaces=per_kind[EntityKind.INTERFACE] + per_kind[EntityKind.ANNOTATION],
        methods=sum(kinds.get(parent.get(m)) in _CLASS_KINDS for m in method_ids),
        constructors=per_kind[EntityKind.CONSTRUCTOR],
        calls=per_rel[RelationKind.CALLS],
        instanceof_count=per_rel[RelationKind.INSTANCEOF],
        casts=per_rel[RelationKind.CASTS],
        dui=len(dui),
        if_count=len(inherited),
        used_internal=internal,
        used_jdk=jdk,
        used_external=external,
    )
    return row, len(unresolved)


# kept for bench/worker.py's traced run, which wraps this name as its
# metrics.provenance span: the span times every measure call, on archive
# columns and on ProjectFacts alike
used_modules_by_provenance = measure


def compute_metrics(facts: ProjectFacts) -> ProjectMetrics:
    """The project's metrics row, with the default JDK prefixes."""
    return measure(facts)[0]
