import pickle
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javascale.extractor import extract_project
from javascale.facts import TYPE_KINDS, EntityKind, FactRelation, RelationKind, SourceEntity
from javascale.metrics import (
    METRIC_COLUMNS,
    ProjectMetrics,
    compute_metrics,
    measure,
    metric_columns,
)
from javascale.errors import UnknownMetricError
from javascale.normalize import decorrelation_report, normalize_corpus
from javascale.pipeline import GridCell, _series
from javascale.stats import Bin, bin_by, bin_ratios

from conftest import assert_in_extractions_form, facts_from_rows


def project_from(tmp_path, files):
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return extract_project(tmp_path, tmp_path.name)


@pytest.fixture(scope="module")
def by_id(fixture_corpus):
    return {pm.project_id: pm for pm in fixture_corpus}


class TestComputeMetrics:
    def test_foonumber(self, foonumber_facts):
        pm = compute_metrics(foonumber_facts)
        assert pm.classes == 1
        assert pm.interfaces == 0
        assert pm.modules == 1
        assert pm.methods == 2
        assert pm.constructors == 1
        assert pm.dui == 0
        assert pm.if_count == 0
        assert pm.sloc == 11

    def test_empty_project(self):
        pm = compute_metrics(facts_from_rows("nothing"))
        for name in (
            "sloc classes interfaces modules methods constructors calls "
            "instanceof_count casts dui if_count used_total used_internal "
            "used_jdk used_external efferent_coupling".split()
        ):
            assert getattr(pm, name) == 0

    def test_shapes_fixture(self, by_id):
        pm = by_id["p02_shapes"]
        assert pm.classes == 3
        assert pm.dui == 2  # the two concrete shapes extend the base
        assert pm.if_count == 1  # only the base is extended

    def test_inheritance_chain(self, by_id):
        pm = by_id["p05_chain"]
        assert pm.if_count == 2  # both non-leaf links are inherited from

    def test_methods_exclude_interface_declarations(self, by_id):
        pm = by_id["p04_registry"]
        # Handler.handle is an interface method; Registry + Level methods count
        assert pm.methods == 3

    def test_record_invariants_on_fixture_corpus(self, fixture_corpus):
        for pm in fixture_corpus:
            assert pm.modules == pm.classes + pm.interfaces
            assert pm.used_total == pm.used_internal + pm.used_jdk + pm.used_external
            assert pm.efferent_coupling == pm.used_jdk + pm.used_external
            assert pm.dui <= pm.classes
            assert pm.if_count <= pm.classes


class TestDui:
    def test_plain_class_contributes_zero(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A { }"})
        assert compute_metrics(facts).dui == 0

    def test_implements_only_counts_by_default(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "class A implements Runnable { public void run() {} }"}
        )
        assert compute_metrics(facts).dui == 1

    def test_extends_object_does_not_count(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A extends Object { }"})
        assert compute_metrics(facts).dui == 0

    def test_extends_counts(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "class A {}", "B.java": "class B extends A {}"}
        )
        assert compute_metrics(facts).dui == 1


class TestInheritedFrom:
    def test_no_inheritance(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A {}", "B.java": "class B {}"})
        assert compute_metrics(facts).if_count == 0

    def test_chain(self, tmp_path):
        facts = project_from(
            tmp_path,
            {
                "A.java": "class A {}",
                "B.java": "class B extends A {}",
                "C.java": "class C extends B {}",
            },
        )
        assert compute_metrics(facts).if_count == 2

    def test_external_parent_not_counted(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "import x.Base; class A extends Base {}"}
        )
        assert compute_metrics(facts).if_count == 0


class TestUsedModules:
    def test_internal(self, tmp_path):
        facts = project_from(
            tmp_path,
            {"a/A.java": "package a; class A {}", "a/B.java": "package a; class B { A a; }"},
        )
        pm, _ = measure(facts)
        assert (pm.used_internal, pm.used_jdk, pm.used_external) == (1, 0, 0)

    def test_jdk(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A { Integer n; }"})
        pm, _ = measure(facts)
        assert (pm.used_internal, pm.used_jdk, pm.used_external) == (0, 1, 0)

    def test_external(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "import org.apache.commons.X; class A { X x; }"}
        )
        pm, _ = measure(facts)
        assert (pm.used_internal, pm.used_jdk, pm.used_external) == (0, 0, 1)

    def test_custom_prefixes(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "import sun.misc.Unsafe; class A { Unsafe u; }"}
        )
        assert compute_metrics(facts).used_external == 1
        pm, _ = measure(facts, ("java.", "sun."))
        assert (pm.used_jdk, pm.used_external) == (1, 0)

    def test_foonumber_provenance(self, foonumber_facts):
        pm, _ = measure(foonumber_facts)
        assert pm.used_internal == 1  # the class itself, via self-instantiation
        assert pm.used_jdk >= 2  # Integer and System at least
        assert pm.used_external == 0
        assert pm.used_total == pm.used_internal + pm.used_jdk + pm.used_external

    def test_empty(self):
        pm, _ = measure(facts_from_rows("none"))
        assert (pm.used_internal, pm.used_jdk, pm.used_external, pm.used_total) == (0, 0, 0, 0)

    def test_distinctness(self, tmp_path):
        body = "\n".join(
            f"    ext.Thing f{i} = new ext.Thing();" for i in range(10)
        )
        facts = project_from(
            tmp_path,
            {"A.java": f"import ext.Thing;\nclass A {{\n  void go() {{\n{body}\n  }}\n}}"},
        )
        pm, _ = measure(facts)
        assert pm.used_external == 1

    def test_unresolved_not_in_provenance_split(self, tmp_path):
        facts = project_from(
            tmp_path,
            {"A.java": "class A { void go() { Mystery.call(); helper(); } }"},
        )
        pm, unresolved = measure(facts)
        assert pm.used_external == 0
        assert unresolved >= 1


_TYPE_KINDS = sorted(TYPE_KINDS)
_MEMBER_KINDS = [EntityKind.FIELD, EntityKind.CONSTRUCTOR, EntityKind.METHOD]
_USE_KINDS = [k for k in RelationKind if k is not RelationKind.CONTAINS]
# names as the extractor leaves them: resolved, member, constructor, bare
_NAMES = st.sampled_from(
    [
        "java.lang.Object",
        "Object",
        "java.util.List",
        "sun.misc.Unsafe",
        "ext.Thing",
        "ext.Thing.<init>",
        "ext.Thing.go",
        "p.E1.go",
        "a.b.c",
        "Mystery.call",
        "helper",
    ]
)


@st.composite
def small_projects(draw):
    """A valid project of a package, up to a dozen types and members, and
    relations of every kind to project entities and to names."""
    entities = [SourceEntity(1, "p", EntityKind.PACKAGE, "", 0)]
    relations = []
    for eid in range(2, draw(st.integers(1, 12)) + 2):
        owner = draw(st.sampled_from([e for e in entities if e.kind is not EntityKind.FIELD]))
        if owner.kind is EntityKind.PACKAGE:
            kind = draw(st.sampled_from(_TYPE_KINDS))
        else:
            kind = draw(st.sampled_from(_TYPE_KINDS + _MEMBER_KINDS))
        entities.append(SourceEntity(eid, f"{owner.fqn}.E{eid}", kind, "A.java", eid))
        relations.append(FactRelation(owner.entity_id, RelationKind.CONTAINS, eid))
    ids = st.integers(1, len(entities))
    uses = st.builds(FactRelation, ids, st.sampled_from(_USE_KINDS), st.one_of(ids, _NAMES))
    relations += draw(st.lists(uses, max_size=20))
    facts = facts_from_rows("generated", entities, relations, sloc=draw(st.integers(0, 99)))
    assert_in_extractions_form(facts)
    return facts


class TestMeasure:
    # within extraction's form only the relations after the CONTAINS run
    # may come in any order
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_order_of_other_relations_does_not_matter(self, fixture_projects, data):
        for facts in [*fixture_projects, data.draw(small_projects())]:
            run = sum(r.kind == RelationKind.CONTAINS for r in facts.relations)
            others = data.draw(st.permutations(facts.relations[run:]))
            shuffled = facts_from_rows(
                facts.project_id, facts.entities, facts.relations[:run] + others, facts.sloc
            )
            for prefixes in [("java.", "javax."), ("java.", "sun.")]:
                assert measure(shuffled, prefixes) == measure(facts, prefixes)

    # compute_metrics checks a caller's facts before measuring them: a
    # CONTAINS parent after its child, so any cycle, is refused
    @pytest.mark.parametrize(
        "relations, used, message",
        [
            ([(2, 3), (3, 2)], 3, "CONTAINS target 2 is not an entity after 3"),
            ([(3, 3)], 3, "the CONTAINS parent 3 of entity 3 is not an earlier entity"),
            # 1 in 3, which is on the cycle
            ([(3, 1), (2, 3), (3, 2)], 1,
             "the CONTAINS parent 3 of entity 1 is not an earlier entity"),
        ],
        ids=["two", "self", "tail"],
    )
    def test_a_parent_after_its_child_is_named(self, relations, used, message):
        facts = facts_from_rows(
            "cyc",
            [
                SourceEntity(1, "p", EntityKind.PACKAGE, "", 0),
                SourceEntity(2, "p.f", EntityKind.FIELD, "A.java", 1),
                SourceEntity(3, "p.m", EntityKind.METHOD, "A.java", 2),
            ],
            [FactRelation(s, RelationKind.CONTAINS, t) for s, t in relations]
            + [FactRelation(1, RelationKind.USES, used)],
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            compute_metrics(facts)

    @pytest.mark.parametrize("kind", [RelationKind.CALLS, RelationKind.USES])
    def test_a_type_use_of_no_entity_is_named(self, kind):
        facts = facts_from_rows(
            "dangling", [SourceEntity(1, "p", EntityKind.PACKAGE, "", 0)],
            [FactRelation(1, kind, 9)],
        )
        with pytest.raises(ValueError, match="^a relation target is not an entity of the record$"):
            compute_metrics(facts)

    def test_walk_up_to_a_package_is_no_cycle(self):
        # one CONTAINS edge, but two steps up from the field: to p, then to nothing
        facts = facts_from_rows(
            "flat",
            [
                SourceEntity(1, "p", EntityKind.PACKAGE, "", 0),
                SourceEntity(2, "p.f", EntityKind.FIELD, "A.java", 1),
            ],
            [FactRelation(1, RelationKind.CONTAINS, 2), FactRelation(1, RelationKind.USES, 2)],
        )
        row, unresolved = measure(facts)
        assert (row.used_total, unresolved) == (0, 0)


# one row per ProjectMetrics invariant, with its message
_BAD_ROWS = [
    pytest.param(
        {"calls": -1, "efferent_coupling": -2}, "calls must be non-negative", id="negative"
    ),
    pytest.param({"classes": 1}, r"modules must equal classes \+ interfaces", id="modules"),
    pytest.param(
        {"used_total": 1}, "used_total must be the sum of the provenance counts", id="used_total"
    ),
    pytest.param(
        {"used_total": 1, "used_jdk": 1},
        r"efferent_coupling must equal used_jdk \+ used_external",
        id="efferent",
    ),
    pytest.param({"dui": 1}, "dui and if_count cannot exceed the class count", id="dui"),
    pytest.param({"if_count": 1}, "dui and if_count cannot exceed the class count", id="if_count"),
]


class TestRowContract:
    @pytest.mark.parametrize("fields, message", _BAD_ROWS)
    def test_invariant_on_construction(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProjectMetrics(project_id="p", **fields)

    # rows leave worker processes pickled; unpickling runs the same checks
    @pytest.mark.parametrize("fields, message", _BAD_ROWS)
    def test_invariant_on_unpickling(self, fields, message):
        values = dict.fromkeys(METRIC_COLUMNS[1:], 0) | fields
        bad = ProjectMetrics._make(["p", *values.values()])  # skips the checks
        data = pickle.dumps(bad)
        with pytest.raises(ValueError, match=f"^{message}$"):
            pickle.loads(data)

    def test_pickle_round_trip(self, by_id):
        for pm in by_id.values():
            back = pickle.loads(pickle.dumps(pm))
            assert back == pm and type(back) is ProjectMetrics

    def test_keyword_construction_with_defaults(self):
        pm = ProjectMetrics(project_id="p", classes=2, interfaces=1, modules=3, sloc=9)
        assert pm == ProjectMetrics("p", 9, 2, 1, 3, *[0] * 12)
        assert pm._fields == tuple(METRIC_COLUMNS)
        assert pm[1:] == (9, 2, 1, 3) + (0,) * 12

    def test_derive_sums_each_derived_column(self):
        counts = dict(classes=2, interfaces=1, used_internal=1, used_jdk=2, used_external=4, dui=2)
        pm = ProjectMetrics.derive("p", **counts, modules=9)
        assert pm == ProjectMetrics("p", 0, 2, 1, 3, 0, 0, 0, 0, 0, 2, 0, 7, 1, 2, 4, 6)
        with pytest.raises(ValueError, match="^dui and if_count cannot exceed the class count$"):
            ProjectMetrics.derive("p", dui=1)

    def test_missing_project_id(self):
        with pytest.raises(TypeError):
            ProjectMetrics(sloc=1)

    def test_rows_are_immutable(self):
        pm = ProjectMetrics(project_id="p")
        with pytest.raises(AttributeError):
            pm.classes = 3
        with pytest.raises(AttributeError):
            pm.extra = 1
        entity = SourceEntity(1, "p", EntityKind.PACKAGE, "", 0)
        with pytest.raises(AttributeError):
            entity.fqn = "q"
        with pytest.raises(AttributeError):
            FactRelation(1, RelationKind.USES, "x").target = "y"

    def test_entity_fqn_must_be_non_empty(self):
        with pytest.raises(ValueError, match="^entity fqn must be non-empty$"):
            SourceEntity(1, "", EntityKind.PACKAGE, "", 0)
        with pytest.raises(ValueError, match="^entity fqn must be non-empty$"):
            SourceEntity(entity_id=1, fqn="", kind=EntityKind.PACKAGE, file="", line=0)
        good = SourceEntity(entity_id=2, fqn="p.C", kind=EntityKind.CLASS, file="C.java", line=3)
        assert good == (2, "p.C", EntityKind.CLASS, "C.java", 3)
        assert pickle.loads(pickle.dumps(good)) == good
        bad = pickle.dumps(good._replace(fqn=""))  # _replace skips the check
        with pytest.raises(ValueError, match="^entity fqn must be non-empty$"):
            pickle.loads(bad)


class TestMonotonicity:
    FILES = {
        "a/One.java": "package a; public class One { void f() { f(); } }",
        "a/Two.java": """
            package a;
            import java.util.List;
            public class Two extends One {
                List<String> names;
                Two(List<String> names) { this.names = names; }
            }
        """,
        "a/Three.java": """
            package a;
            public class Three {
                int n;
                void g(Object o) {
                    if (o instanceof String) { n = ((String) o).length(); }
                    new Two(null).toString();
                }
            }
        """,
    }

    def test_adding_files_never_decreases_counts(self, tmp_path):
        names = sorted(self.FILES)
        previous = None
        for k in range(1, len(names) + 1):
            root = tmp_path / f"step{k}"
            for rel in names[:k]:
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(textwrap.dedent(self.FILES[rel]))
            pm = compute_metrics(extract_project(root, "p"))
            if previous is not None:
                for field in (
                    "sloc classes interfaces modules methods constructors calls "
                    "instanceof_count casts dui if_count used_total used_internal "
                    "used_jdk used_external efferent_coupling".split()
                ):
                    assert getattr(pm, field) >= getattr(previous, field), field
            previous = pm


class TestMetricColumns:
    def test_lookup(self):
        table = metric_columns([ProjectMetrics(project_id="p", sloc=7)])
        assert table.column("sloc") == [7]

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError, match=r"^unknown metric 'bogus'$"):
            metric_columns([]).column("bogus")

    def test_transposes_rows_in_order(self, fixture_corpus):
        table = metric_columns(fixture_corpus)
        assert table._fields == tuple(METRIC_COLUMNS)
        assert list(map(ProjectMetrics, *table)) == fixture_corpus

    def test_empty_table_has_every_column(self):
        assert metric_columns([]) == tuple([] for _ in METRIC_COLUMNS)

    # each consumer resolves its metrics before it reads a row
    @pytest.mark.parametrize(
        "consume",
        [
            lambda: bin_by(metric_columns([]), "bogus", (5,)),
            lambda: bin_ratios(Bin("b1", 0, 1, metric_columns([]), []), "bogus", "classes"),
            lambda: normalize_corpus(metric_columns([]), "methods", "bogus", 1.0),
            lambda: decorrelation_report(metric_columns([]), "bogus", "classes", 1.0),
            lambda: _series(metric_columns([]), GridCell("m", "bogus", "classes")),
        ],
        ids=["bin_by", "bin_ratios", "normalize_corpus", "decorrelation_report", "series"],
    )
    def test_unknown_metric_on_empty_corpus(self, consume):
        with pytest.raises(UnknownMetricError, match=r"^unknown metric 'bogus'$"):
            consume()

