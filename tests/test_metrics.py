import textwrap

import pytest

from javascale.extractor import extract_project
from javascale.facts import ProjectFacts
from javascale.metrics import (
    ProjectMetrics,
    compute_metrics,
    count_dui,
    count_inherited_from,
    metric_getter,
    used_modules_by_provenance,
)
from javascale.errors import UnknownMetricError
from javascale.normalize import decorrelation_report, normalize_corpus
from javascale.pipeline import GridCell, _series
from javascale.stats import Bin, bin_by, log_ratios


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
        pm = compute_metrics(ProjectFacts(project_id="nothing"))
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
        assert count_dui(facts) == 0

    def test_implements_only_counts_by_default(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "class A implements Runnable { public void run() {} }"}
        )
        assert count_dui(facts) == 1

    def test_extends_object_does_not_count(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A extends Object { }"})
        assert count_dui(facts) == 0

    def test_extends_counts(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "class A {}", "B.java": "class B extends A {}"}
        )
        assert count_dui(facts) == 1


class TestInheritedFrom:
    def test_no_inheritance(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A {}", "B.java": "class B {}"})
        assert count_inherited_from(facts) == 0

    def test_chain(self, tmp_path):
        facts = project_from(
            tmp_path,
            {
                "A.java": "class A {}",
                "B.java": "class B extends A {}",
                "C.java": "class C extends B {}",
            },
        )
        assert count_inherited_from(facts) == 2

    def test_external_parent_not_counted(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "import x.Base; class A extends Base {}"}
        )
        assert count_inherited_from(facts) == 0


class TestUsedModules:
    def test_internal(self, tmp_path):
        facts = project_from(
            tmp_path,
            {"a/A.java": "package a; class A {}", "a/B.java": "package a; class B { A a; }"},
        )
        used = used_modules_by_provenance(facts)
        assert (used.internal, used.jdk, used.external) == (1, 0, 0)

    def test_jdk(self, tmp_path):
        facts = project_from(tmp_path, {"A.java": "class A { Integer n; }"})
        used = used_modules_by_provenance(facts)
        assert (used.internal, used.jdk, used.external) == (0, 1, 0)

    def test_external(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "import org.apache.commons.X; class A { X x; }"}
        )
        used = used_modules_by_provenance(facts)
        assert (used.internal, used.jdk, used.external) == (0, 0, 1)

    def test_custom_prefixes(self, tmp_path):
        facts = project_from(
            tmp_path, {"A.java": "import sun.misc.Unsafe; class A { Unsafe u; }"}
        )
        assert used_modules_by_provenance(facts).external == 1
        used = used_modules_by_provenance(facts, ("java.", "sun."))
        assert (used.jdk, used.external) == (1, 0)
        pm = compute_metrics(facts, used)
        assert (pm.used_jdk, pm.used_external) == (1, 0)

    def test_foonumber_provenance(self, foonumber_facts):
        used = used_modules_by_provenance(foonumber_facts)
        assert used.internal == 1  # the class itself, via self-instantiation
        assert used.jdk >= 2  # Integer and System at least
        assert used.external == 0
        assert used.total == used.internal + used.jdk + used.external

    def test_empty(self):
        used = used_modules_by_provenance(ProjectFacts(project_id="none"))
        assert (used.internal, used.jdk, used.external, used.total) == (0, 0, 0, 0)

    def test_distinctness(self, tmp_path):
        body = "\n".join(
            f"    ext.Thing f{i} = new ext.Thing();" for i in range(10)
        )
        facts = project_from(
            tmp_path,
            {"A.java": f"import ext.Thing;\nclass A {{\n  void go() {{\n{body}\n  }}\n}}"},
        )
        used = used_modules_by_provenance(facts)
        assert used.external == 1

    def test_unresolved_not_in_provenance_split(self, tmp_path):
        facts = project_from(
            tmp_path,
            {"A.java": "class A { void go() { Mystery.call(); helper(); } }"},
        )
        used = used_modules_by_provenance(facts)
        assert used.external == 0
        assert used.unresolved >= 1


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


class TestMetricGetter:
    def test_lookup(self):
        pm = ProjectMetrics(project_id="p", sloc=7)
        assert metric_getter("sloc")(pm) == 7

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError, match=r"^unknown metric 'bogus'$"):
            metric_getter("bogus")

    # each consumer resolves its metrics before it reads a row
    @pytest.mark.parametrize(
        "consume",
        [
            lambda: bin_by([], "bogus", (5,)),
            lambda: log_ratios(Bin("b1", 0, 1, []), "bogus", "classes"),
            lambda: normalize_corpus([], "methods", "bogus", 1.0),
            lambda: decorrelation_report([], "bogus", "classes", 1.0),
            lambda: _series([], GridCell("m", "bogus", "classes")),
        ],
        ids=["bin_by", "log_ratios", "normalize_corpus", "decorrelation_report", "series"],
    )
    def test_unknown_metric_on_empty_corpus(self, consume):
        with pytest.raises(UnknownMetricError, match=r"^unknown metric 'bogus'$"):
            consume()

    def test_first_negative_count_is_named(self):
        with pytest.raises(ValueError, match=r"^calls must be non-negative$"):
            ProjectMetrics(project_id="p", calls=-1, efferent_coupling=-2)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            ProjectMetrics(project_id="p", classes=1, modules=3)
