import textwrap

import pytest

from javascale.extractor import extract_corpus, extract_project
from javascale.errors import DuplicateProjectError, EmptyCorpusError
from javascale.facts import EntityKind, RelationKind

from conftest import CORPUS_DIR


def write_project(tmp_path, files: dict[str, str]):
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return tmp_path


def rel_texts(facts):
    """(source fqn, kind, target fqn-or-text) triples for assertions."""
    fqn = {e.entity_id: e.fqn for e in facts.entities}
    out = []
    for r in facts.relations:
        target = fqn[r.target] if isinstance(r.target, int) else r.target
        out.append((fqn[r.source], r.kind, target))
    return out


class TestFooNumber:
    def test_exactly_six_entities(self, foonumber_facts):
        rows = [(e.entity_id, e.fqn, e.kind) for e in foonumber_facts.entities]
        assert rows == [
            (1, "foo", EntityKind.PACKAGE),
            (2, "foo.FooNumber", EntityKind.CLASS),
            (3, "foo.FooNumber.x", EntityKind.FIELD),
            (4, "foo.FooNumber.<init>", EntityKind.CONSTRUCTOR),
            (5, "foo.FooNumber.print", EntityKind.METHOD),
            (6, "foo.FooNumber.main", EntityKind.METHOD),
        ]

    def test_all_eleven_listed_relations(self, foonumber_facts):
        rels = rel_texts(foonumber_facts)
        expected = [
            ("foo", RelationKind.CONTAINS, "foo.FooNumber"),
            ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.x"),
            ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.<init>"),
            ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.print"),
            ("foo.FooNumber", RelationKind.CONTAINS, "foo.FooNumber.main"),
            ("foo.FooNumber.x", RelationKind.HOLDS, "java.lang.Integer"),
            ("foo.FooNumber.<init>", RelationKind.WRITES, "foo.FooNumber.x"),
            ("foo.FooNumber.print", RelationKind.READS, "foo.FooNumber.x"),
            ("foo.FooNumber.main", RelationKind.INSTANTIATES, "foo.FooNumber.<init>"),
            ("foo.FooNumber.main", RelationKind.CALLS, "foo.FooNumber.print"),
        ]
        for triple in expected:
            assert triple in rels
        println = [
            r for r in rels
            if r[0] == "foo.FooNumber.print" and r[1] is RelationKind.CALLS
        ]
        assert len(println) == 1 and println[0][2].endswith("println")

    def test_sloc(self, foonumber_facts):
        assert foonumber_facts.sloc == 11

    def test_structural_invariants(self, foonumber_facts):
        foonumber_facts.validate()


class TestExtraction:
    def test_empty_directory(self, tmp_path):
        facts = extract_project(tmp_path, "empty")
        assert facts.entities == []
        assert facts.relations == []
        assert facts.sloc == 0

    def test_determinism(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/One.java": "package a; public class One { void go() { go(); } }",
                "a/Two.java": "package a; class Two extends One {}",
            },
        )
        first = extract_project(tmp_path, "p")
        second = extract_project(tmp_path, "p")
        assert first.entities == second.entities
        assert first.relations == second.relations

    def test_every_type_has_one_contains_parent(self, fixture_projects):
        for facts in fixture_projects:
            facts.validate()

    def test_no_implicit_constructors(self, tmp_path):
        write_project(tmp_path, {"N.java": "class N { void f() {} }"})
        facts = extract_project(tmp_path, "p")
        assert not [e for e in facts.entities if e.kind is EntityKind.CONSTRUCTOR]

    def test_sloc_additivity(self, tmp_path):
        from javascale.javalex import count_sloc

        files = {
            "a/One.java": "package a;\nclass One {\n}\n",
            "a/Two.java": "package a;\n\nclass Two {\n  int x;\n}\n",
        }
        write_project(tmp_path, files)
        facts = extract_project(tmp_path, "p")
        assert facts.sloc == sum(count_sloc(textwrap.dedent(b)) for b in files.values())

    def test_parse_warning_on_garbage_declaration(self, tmp_path):
        write_project(
            tmp_path,
            {"Bad.java": "package b; class Bad { ??? nonsense(; void ok() {} }"},
        )
        facts = extract_project(tmp_path, "p")
        assert facts.parse_warning_count >= 1
        # the project still yields its parsable declarations
        assert any(e.fqn == "b.Bad" for e in facts.entities)

    def test_anonymous_class_gets_synthetic_name(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/O.java": """
                package a;
                class O {
                    Runnable r() {
                        return new Runnable() { public void run() {} };
                    }
                }
                """
            },
        )
        facts = extract_project(tmp_path, "p")
        fqns = {e.fqn for e in facts.entities}
        assert "a.O$1" in fqns
        assert "a.O$1.run" in fqns

    def test_nested_enum_annotation_kinds(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/K.java": """
                package a;
                @interface Marker {}
                enum Color { RED, GREEN }
                interface Api { void call(); }
                class Impl implements Api { public void call() {} }
                """
            },
        )
        facts = extract_project(tmp_path, "p")
        kinds = {e.fqn: e.kind for e in facts.entities}
        assert kinds["a.Marker"] is EntityKind.ANNOTATION
        assert kinds["a.Color"] is EntityKind.ENUM
        assert kinds["a.Api"] is EntityKind.INTERFACE
        assert kinds["a.Impl"] is EntityKind.CLASS

    def test_default_package(self, tmp_path):
        write_project(tmp_path, {"Top.java": "class Top {}"})
        facts = extract_project(tmp_path, "p")
        pkgs = [e for e in facts.entities if e.kind is EntityKind.PACKAGE]
        assert len(pkgs) == 1
        assert any(e.fqn == "Top" for e in facts.entities)
        facts.validate()

    def test_extends_unresolved_kept_as_written(self, tmp_path):
        write_project(
            tmp_path,
            {"a/S.java": "package a; import lib.Base; class S extends Base {}"},
        )
        facts = extract_project(tmp_path, "p")
        rels = rel_texts(facts)
        assert ("a.S", RelationKind.EXTENDS, "lib.Base") in rels

    def test_nested_generic_args_are_separate_uses(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/G.java": """
                package a;
                import java.util.List;
                import java.util.Map;
                class G { Map<String, List<Integer>> table; }
                """
            },
        )
        rels = rel_texts(extract_project(tmp_path, "p"))
        uses = {t for s, k, t in rels if k is RelationKind.USES}
        assert {"java.lang.String", "java.util.List", "java.lang.Integer"} <= uses

    def test_type_variables_do_not_leak_as_uses(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/G.java": """
                package a;
                class Box<T extends Comparable<T>> {
                    T held;
                    <R> R map(R seed) { T copy = held; return seed; }
                }
                """
            },
        )
        rels = rel_texts(extract_project(tmp_path, "p"))
        targets = {t for _, _, t in rels}
        assert "T" not in targets and "R" not in targets
        assert "java.lang.Comparable" in targets

    def test_method_references(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/M.java": """
                package a;
                class M {
                    String tag() { return "m"; }
                    void wire() {
                        Runnable a = this::run0;
                        Runnable b = M::new;
                    }
                    void run0() {}
                }
                """
            },
        )
        rels = rel_texts(extract_project(tmp_path, "p"))
        assert ("a.M.wire", RelationKind.CALLS, "a.M.run0") in rels
        assert any(
            k is RelationKind.INSTANTIATES and t == "a.M.<init>"
            for _, k, t in rels
        )

    def test_multicatch_types_recorded(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/C.java": """
                package a;
                class C {
                    void go() {
                        try { int x = 1; }
                        catch (RuntimeException | Error e) { return; }
                    }
                }
                """
            },
        )
        rels = rel_texts(extract_project(tmp_path, "p"))
        uses = {t for s, k, t in rels if k is RelationKind.USES}
        assert {"java.lang.RuntimeException", "java.lang.Error"} <= uses

    def test_inherited_member_lookup_through_internal_super(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/Base.java": "package a; class Base { int n; int size() { return n; } }",
                "a/Sub.java": """
                package a;
                class Sub extends Base {
                    void bump() { n = size() + 1; }
                }
                """,
            },
        )
        rels = rel_texts(extract_project(tmp_path, "p"))
        assert ("a.Sub.bump", RelationKind.WRITES, "a.Base.n") in rels
        assert ("a.Sub.bump", RelationKind.CALLS, "a.Base.size") in rels

    def test_import_resolution_beats_java_lang(self, tmp_path):
        write_project(
            tmp_path,
            {
                "a/T.java": """
                package a;
                import other.Thread;
                class T { Thread worker; }
                """
            },
        )
        facts = extract_project(tmp_path, "p")
        rels = rel_texts(facts)
        assert ("a.T.worker", RelationKind.HOLDS, "other.Thread") in rels

    def test_record_compact_constructor(self, tmp_path):
        write_project(
            tmp_path,
            {
                "R.java": """
                public record R(int a) {
                    public R { if (a < 0) throw new IllegalArgumentException(); }
                }
                """
            },
        )
        facts = extract_project(tmp_path, "p")
        ctors = [e.fqn for e in facts.entities if e.kind is EntityKind.CONSTRUCTOR]
        assert ctors == ["R.<init>"]
        assert (
            "R.<init>",
            RelationKind.INSTANTIATES,
            "java.lang.IllegalArgumentException.<init>",
        ) in rel_texts(facts)
        assert facts.parse_warning_count == 0
        assert facts.warnings == []


class TestCorpusManifest:
    def test_extract_corpus_sorted_with_global_ids(self):
        projects = extract_corpus(CORPUS_DIR / "manifest.txt")
        ids = [p.project_id for p in projects]
        assert ids == sorted(ids)
        seen = set()
        for facts in projects:
            for e in facts.entities:
                assert e.entity_id not in seen
                seen.add(e.entity_id)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("\n# comment only\n")
        with pytest.raises(EmptyCorpusError):
            extract_corpus(manifest)

    def test_duplicate_project_ids(self, tmp_path):
        (tmp_path / "x" / "p").mkdir(parents=True)
        (tmp_path / "y" / "p").mkdir(parents=True)
        manifest = tmp_path / "m.txt"
        manifest.write_text("x/p\ny/p\n")
        with pytest.raises(DuplicateProjectError):
            extract_corpus(manifest)
