import gc
import json
import random
import re
import shutil
import subprocess
import tempfile
import textwrap
import tracemalloc
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javascale import extractor
from javascale.extractor import DEFAULT_PACKAGE, extract_corpus, extract_project
from javascale.errors import DataError, DuplicateProjectError, EmptyCorpusError
from javascale.facts import EntityKind, FactRelation, ProjectFacts, RelationKind, SourceEntity
from javascale.store import (
    RELATION_KIND_TABLE,
    FactsArchive,
    decode_columns,
    encode_columns,
    scan_records,
    write_facts,
)

import javalex_reference as reference
from conftest import (
    CORPUS_DIR,
    archive_digest,
    assert_in_extractions_form,
    assert_measured_alike,
    columns_digest,
)
from facts_diff import MUTATED_SEEDS, columns_json


def _entity(entity_id: int, fqn: str, kind: EntityKind) -> SourceEntity:
    return SourceEntity(entity_id, fqn, kind, "", 0)


_PKG, _CLS, _MTH = (
    _entity(1, "p", EntityKind.PACKAGE),
    _entity(2, "p.C", EntityKind.CLASS),
    _entity(3, "p.C.m", EntityKind.METHOD),
)
_TREE = [FactRelation(1, RelationKind.CONTAINS, 2), FactRelation(2, RelationKind.CONTAINS, 3)]
_NOT_AFTER = "CONTAINS target {} is not an entity after {}"

# one hand-built project per way out of extraction's form; the archive's
# encoder refuses all but the parentless member and the negative sloc
BROKEN_FACTS = [
    pytest.param([_PKG, _CLS, _entity(2, "p.C.m", EntityKind.METHOD)], _TREE, 0,
                 (ValueError, "the id column is not 1..n"), id="ids-not-unique"),
    pytest.param([_PKG, _CLS, _MTH], _TREE + [FactRelation(9, RelationKind.CALLS, "x")], 0,
                 (ValueError, "a relation source is not an entity of the record"),
                 id="source-not-an-entity"),
    pytest.param([_PKG, _CLS, _MTH], _TREE + [FactRelation(1, RelationKind.CONTAINS, "p.D")], 0,
                 (ValueError, _NOT_AFTER.format("'p.D'", 3)), id="contains-a-name"),
    pytest.param([_PKG, _CLS, _MTH], _TREE + [FactRelation(1, RelationKind.CONTAINS, 3)], 0,
                 (ValueError, _NOT_AFTER.format(3, 3)), id="two-parents"),
    pytest.param([_PKG, _CLS, _MTH], _TREE[:1], 0,
                 (AssertionError, "p.C.m has no CONTAINS parent"), id="no-parent"),
    pytest.param([_PKG, _CLS, _MTH],
                 [FactRelation(2, RelationKind.CONTAINS, 3), FactRelation(3, RelationKind.CONTAINS, 2)],
                 0, (ValueError, _NOT_AFTER.format(2, 3)), id="contains-cycle"),
    pytest.param([_PKG, _CLS, _MTH], _TREE, -1,
                 (AssertionError, "sloc must be non-negative, got -1"), id="negative-sloc"),
]


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
        assert_in_extractions_form(foonumber_facts)


@pytest.mark.parametrize("entities, relations, sloc, fault", BROKEN_FACTS)
def test_broken_facts_are_out_of_extractions_form(entities, relations, sloc, fault):
    assert_in_extractions_form(ProjectFacts("p", [_PKG, _CLS, _MTH], _TREE))
    error, message = fault
    # pytest's rewritten assert adds its explanation after a newline
    with pytest.raises(error, match=f"^{re.escape(message)}(\n|$)"):
        assert_in_extractions_form(ProjectFacts("p", entities, relations, sloc=sloc))


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
            assert_in_extractions_form(facts)

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

    def test_parse_failure_keeps_the_file_sloc(self, tmp_path, monkeypatch, capfd):
        files = {
            "a/Bad.java": "package a;\n\n// broken\nclass Bad {\n  int x;\n}\n",
            "a/Good.java": "package a;\nclass Good {\n}\n",
        }
        write_project(tmp_path, files)
        real = extractor._Parser.parse_file

        def parse_file(parser):
            if parser.syntax.path == "a/Bad.java":
                raise RuntimeError("boom")
            real(parser)

        monkeypatch.setattr(extractor._Parser, "parse_file", parse_file)
        facts = extract_project(tmp_path, "p")
        assert facts.sloc == sum(map(reference.count_sloc, files.values())) == 7
        assert facts.warnings == ["skipped-file a/Bad.java: parse failure boom"]
        assert facts.parse_warning_count == 1
        assert [e.fqn for e in facts.entities] == ["a", "a.Good"]
        assert capfd.readouterr() == ("", "project=p file=a/Bad.java parse failure: boom\n")

    def test_unreadable_file_is_skipped_with_a_warning(self, tmp_path, monkeypatch, capfd):
        write_project(tmp_path, {"a/Bad.java": "class Bad {}", "a/Good.java": "class Good {}"})
        real = Path.read_bytes
        exc = PermissionError(13, "Permission denied")

        def read_bytes(path):
            if path.name == "Bad.java":
                raise exc
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        facts = extract_project(tmp_path, "p")
        assert facts.warnings == [f"skipped-file a/Bad.java: {exc}"]
        assert facts.parse_warning_count == 0
        assert [e.fqn for e in facts.entities] == ["(default)", "Good"]
        assert capfd.readouterr() == ("", f"project=p file=a/Bad.java skipped: {exc}\n")

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
        assert_in_extractions_form(facts)

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
        # the header's components are the compact constructor's parameters,
        # as in the explicit canonical form: a use of one reads no field, a
        # static field declared before the constructor is not a parameter,
        # and Java's closing field assignments are left out
        body = "if (a < 0) throw new IllegalArgumentException(); count++;"
        facts = {}
        for form, ctor in [("compact", "R"), ("explicit", "R(int a)")]:
            source = f"public record R(int a) {{ static int count; public {ctor} {{ {body} }} }}"
            facts[form] = extract_project(write_project(tmp_path / form, {"R.java": source}), "p")
        compact = facts["compact"]
        ctors = [e.fqn for e in compact.entities if e.kind is EntityKind.CONSTRUCTOR]
        assert ctors == ["R.<init>"]
        assert [t for t in rel_texts(compact) if t[0] == "R.<init>"] == [
            ("R.<init>", RelationKind.USES, "java.lang.Integer"),
            ("R.<init>", RelationKind.INSTANTIATES, "java.lang.IllegalArgumentException.<init>"),
            ("R.<init>", RelationKind.WRITES, "R.count"),
        ]
        assert compact == facts["explicit"]
        assert compact.parse_warning_count == 0
        assert compact.warnings == []

    def test_record_header_takes_only_implements(self, tmp_path):
        # a record cannot extend; a stray `extends` is skipped, not a supertype
        write_project(
            tmp_path,
            {"R.java": "record R(int a) extends Base implements Runnable { public void run() {} }"},
        )
        facts = extract_project(tmp_path, "p")
        supers = [
            (kind, target)
            for source, kind, target in rel_texts(facts)
            if source == "R" and kind is not RelationKind.CONTAINS
        ]
        assert supers == [(RelationKind.IMPLEMENTS, "java.lang.Runnable")]
        assert [e.fqn for e in facts.entities if e.kind is EntityKind.FIELD] == ["R.a"]

    def test_local_record_is_a_type(self, tmp_path):
        # like a local class, not statements of the method that declares it
        write_project(
            tmp_path,
            {
                "A.java": """
                class A {
                    int go() {
                        record Pt(int x, int y) {
                            int sum() { return x + y; }
                        }
                        return new Pt(1, 2).sum();
                    }
                }
                """
            },
        )
        facts = extract_project(tmp_path, "p")
        fqns = {kind: [e.fqn for e in facts.entities if e.kind is kind] for kind in EntityKind}
        assert fqns[EntityKind.CLASS] == ["A", "A$Pt"]
        assert fqns[EntityKind.METHOD] == ["A.go", "A$Pt.sum"]
        assert fqns[EntityKind.FIELD] == ["A$Pt.x", "A$Pt.y"]
        calls = [t for _, kind, t in rel_texts(facts) if kind is RelationKind.CALLS]
        assert calls == ["Pt.sum"]
        assert facts.warnings == []


class TestCorpusManifest:
    def test_extract_corpus_sorted_with_project_local_ids(self):
        projects = extract_corpus(CORPUS_DIR / "manifest.txt")
        ids = [p.project_id for p in projects]
        assert ids == sorted(ids)
        assert sum(1 for facts in projects if facts.entities) > 1
        for facts in projects:
            entity_ids = [e.entity_id for e in facts.entities]
            assert entity_ids == list(range(1, len(entity_ids) + 1)), facts.project_id

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("\n# comment only\n")
        with pytest.raises(EmptyCorpusError):
            extract_corpus(manifest)

    def test_missing_project_directory(self, tmp_path):
        (tmp_path / "here").mkdir()
        manifest = tmp_path / "m.txt"
        manifest.write_text("here\ngone\n/nonexistent/projX\n")
        with pytest.raises(
            DataError,
            match=r"lists missing project directories: \['.*/gone', '/nonexistent/projX'\]$",
        ):
            extract_corpus(manifest)

    def test_duplicate_project_ids(self, tmp_path):
        (tmp_path / "x" / "p").mkdir(parents=True)
        (tmp_path / "y" / "p").mkdir(parents=True)
        manifest = tmp_path / "m.txt"
        manifest.write_text("x/p\ny/p\n")
        with pytest.raises(
            DuplicateProjectError, match=r"^duplicate project ids in manifest: \['p'\]$"
        ):
            extract_corpus(manifest)


# A project using the constructs the fixtures and the benchmark corpus leave
# out: this(...)/super(...)/super.m() calls, method references, enum-constant
# bodies, a local class, casts and instanceof bindings, an enum constant with
# both an anonymous class in its arguments and a class body (the argument's
# class is Tone$1, the body Tone$2), and a generic record with `implements`.
# The expected list is the extractor's output as it stands, misses included
# (the local class is resolved to the bare name 'Local'); it pins behaviour,
# it does not bless it.
EDGE_FILES = {
    "e/Shape.java": """\
package e;

import java.util.ArrayList;
import java.util.List;

public abstract class Shape implements Comparable<Shape> {
    protected int sides;
    private static int made;

    Shape(int sides) {
        this.sides = sides;
        made++;
    }

    Shape() {
        this(0);
    }

    abstract double area();

    public int compareTo(Shape other) {
        return Double.compare(area(), other.area());
    }

    static List<Shape> sorted(List<Shape> in) {
        List<Shape> out = new ArrayList<>(in);
        out.sort(Shape::compareTo);
        return out;
    }
}
""",
    "e/Square.java": """\
package e;

class Square extends Shape {
    private final double side;

    Square(double side) {
        super(4);
        this.side = side;
    }

    double area() {
        return side * side;
    }

    public int compareTo(Shape other) {
        if (other instanceof Square sq) {
            return Double.compare(side, sq.side);
        }
        Runnable t = super::hashCode;
        return super.compareTo(other);
    }

    Object widen(Object o) {
        Square s = (Square) o;
        long n = (long) sides;
        return s;
    }
}
""",
    "e/Op.java": """\
package e;

import java.util.function.IntBinaryOperator;

enum Op implements IntBinaryOperator {
    ADD {
        public int applyAsInt(int a, int b) { return a + b; }
    },
    NEG("neg") {
        public int applyAsInt(int a, int b) { return -a; }
    };

    private final String label;

    Op() { this("op"); }

    Op(String label) { this.label = label; }

    String label() { return label; }
}
""",
    "e/Runner.java": """\
package e;

import java.util.function.Supplier;

class Runner {
    Supplier<Square> maker = () -> new Square(2.0);

    void run() {
        class Local {
            int twice(int x) { return x * 2; }
        }
        Local l = new Local();
        l.twice(3);
        Runnable r = new Runnable() {
            public void run() { helper(); }
        };
        Supplier<Runner> s = Runner::new;
        Runnable q = this::helper;
        Object o = (Object) maker.get();
        if (o instanceof Shape shape) {
            shape.area();
        }
    }

    void helper() {}

    public String toString() {
        return super.toString();
    }
}
""",
    "e/Tone.java": """\
package e;

enum Tone {
    SUB(new Object() {}) {
        int depth() { return 1; }
    },
    FLAT(null);

    Tone(Object tag) {}

    int depth() { return 0; }
}
""",
    "e/Tuple.java": """\
package e;

import java.util.List;
import java.util.Map;

record Tuple<K extends Comparable<K>>(Map<K, List<String>> pairs, K first)
        implements Comparable<Tuple<K>> {
    public int compareTo(Tuple<K> o) {
        return first.compareTo(o.first);
    }
}
""",
}

EDGE_RELATIONS = """
e CONTAINS e.Op
e.Op CONTAINS e.Op.label
e.Op CONTAINS e.Op.<init>
e.Op CONTAINS e.Op.<init>
e.Op CONTAINS e.Op.label
e.Op CONTAINS e.Op.ADD
e.Op CONTAINS e.Op$1
e.Op$1 CONTAINS e.Op$1.applyAsInt
e.Op CONTAINS e.Op.NEG
e.Op CONTAINS e.Op$2
e.Op$2 CONTAINS e.Op$2.applyAsInt
e CONTAINS e.Runner
e.Runner CONTAINS e.Runner.maker
e.Runner CONTAINS e.Runner.run
e.Runner CONTAINS e.Runner$Local
e.Runner$Local CONTAINS e.Runner$Local.twice
e.Runner CONTAINS e.Runner$2
e.Runner$2 CONTAINS e.Runner$2.run
e.Runner CONTAINS e.Runner.helper
e.Runner CONTAINS e.Runner.toString
e CONTAINS e.Shape
e.Shape CONTAINS e.Shape.sides
e.Shape CONTAINS e.Shape.made
e.Shape CONTAINS e.Shape.<init>
e.Shape CONTAINS e.Shape.<init>
e.Shape CONTAINS e.Shape.area
e.Shape CONTAINS e.Shape.compareTo
e.Shape CONTAINS e.Shape.sorted
e CONTAINS e.Square
e.Square CONTAINS e.Square.side
e.Square CONTAINS e.Square.<init>
e.Square CONTAINS e.Square.area
e.Square CONTAINS e.Square.compareTo
e.Square CONTAINS e.Square.widen
e CONTAINS e.Tone
e.Tone CONTAINS e.Tone.<init>
e.Tone CONTAINS e.Tone.depth
e.Tone CONTAINS e.Tone.SUB
e.Tone CONTAINS e.Tone$1
e.Tone CONTAINS e.Tone$2
e.Tone$2 CONTAINS e.Tone$2.depth
e.Tone CONTAINS e.Tone.FLAT
e CONTAINS e.Tuple
e.Tuple CONTAINS e.Tuple.pairs
e.Tuple CONTAINS e.Tuple.first
e.Tuple CONTAINS e.Tuple.compareTo
e.Op IMPLEMENTS 'java.util.function.IntBinaryOperator'
e.Op.label HOLDS 'java.lang.String'
e.Op.<init> CALLS e.Op.<init>
e.Op.<init> USES 'java.lang.String'
e.Op.<init> WRITES e.Op.label
e.Op.label USES 'java.lang.String'
e.Op.label READS e.Op.label
e.Op.ADD HOLDS e.Op
e.Op.NEG HOLDS e.Op
e.Op$1 EXTENDS e.Op
e.Op$1.applyAsInt USES 'java.lang.Integer'
e.Op$1.applyAsInt USES 'java.lang.Integer'
e.Op$1.applyAsInt USES 'java.lang.Integer'
e.Op$2 EXTENDS e.Op
e.Op$2.applyAsInt USES 'java.lang.Integer'
e.Op$2.applyAsInt USES 'java.lang.Integer'
e.Op$2.applyAsInt USES 'java.lang.Integer'
e.Runner.maker HOLDS 'java.util.function.Supplier'
e.Runner.maker USES e.Square
e.Runner.maker INSTANTIATES e.Square.<init>
e.Runner.run USES 'Local'
e.Runner.run INSTANTIATES 'Local.<init>'
e.Runner.run CALLS 'l.twice'
e.Runner.run USES 'java.lang.Runnable'
e.Runner.run INSTANTIATES 'e.Runner$2.<init>'
e.Runner.run USES 'java.util.function.Supplier'
e.Runner.run USES e.Runner
e.Runner.run INSTANTIATES 'e.Runner.<init>'
e.Runner.run USES 'java.lang.Runnable'
e.Runner.run CALLS e.Runner.helper
e.Runner.run USES 'java.lang.Object'
e.Runner.run CASTS 'java.lang.Object'
e.Runner.run CALLS 'java.util.function.Supplier.get'
e.Runner.run INSTANCEOF e.Shape
e.Runner.run CALLS e.Shape.area
e.Runner.toString USES 'java.lang.String'
e.Runner.toString CALLS 'toString'
e.Runner$Local.twice USES 'java.lang.Integer'
e.Runner$Local.twice USES 'java.lang.Integer'
e.Runner$2 IMPLEMENTS 'java.lang.Runnable'
e.Runner$2.run CALLS e.Runner.helper
e.Shape IMPLEMENTS 'java.lang.Comparable'
e.Shape USES e.Shape
e.Shape.sides HOLDS 'java.lang.Integer'
e.Shape.made HOLDS 'java.lang.Integer'
e.Shape.<init> USES 'java.lang.Integer'
e.Shape.<init> WRITES e.Shape.sides
e.Shape.<init> WRITES e.Shape.made
e.Shape.<init> CALLS e.Shape.<init>
e.Shape.area USES 'java.lang.Double'
e.Shape.compareTo USES 'java.lang.Integer'
e.Shape.compareTo USES e.Shape
e.Shape.compareTo CALLS 'java.lang.Double.compare'
e.Shape.compareTo CALLS e.Shape.area
e.Shape.compareTo CALLS e.Shape.area
e.Shape.sorted USES 'java.util.List'
e.Shape.sorted USES e.Shape
e.Shape.sorted USES 'java.util.List'
e.Shape.sorted USES e.Shape
e.Shape.sorted USES 'java.util.List'
e.Shape.sorted USES e.Shape
e.Shape.sorted INSTANTIATES 'java.util.ArrayList.<init>'
e.Shape.sorted CALLS 'java.util.List.sort'
e.Shape.sorted CALLS e.Shape.compareTo
e.Square EXTENDS e.Shape
e.Square.side HOLDS 'java.lang.Double'
e.Square.<init> USES 'java.lang.Double'
e.Square.<init> CALLS e.Shape.<init>
e.Square.<init> WRITES e.Square.side
e.Square.area USES 'java.lang.Double'
e.Square.area READS e.Square.side
e.Square.area READS e.Square.side
e.Square.compareTo USES 'java.lang.Integer'
e.Square.compareTo USES e.Shape
e.Square.compareTo INSTANCEOF e.Square
e.Square.compareTo CALLS 'java.lang.Double.compare'
e.Square.compareTo READS e.Square.side
e.Square.compareTo USES 'java.lang.Runnable'
e.Square.compareTo CALLS 'e.Shape.hashCode'
e.Square.compareTo CALLS e.Shape.compareTo
e.Square.widen USES 'java.lang.Object'
e.Square.widen USES 'java.lang.Object'
e.Square.widen USES e.Square
e.Square.widen CASTS e.Square
e.Square.widen USES 'java.lang.Long'
e.Square.widen CASTS 'java.lang.Long'
e.Square.widen READS e.Shape.sides
e.Tone.<init> USES 'java.lang.Object'
e.Tone.depth USES 'java.lang.Integer'
e.Tone.SUB HOLDS e.Tone
e.Tone INSTANTIATES 'e.Tone$1.<init>'
e.Tone.FLAT HOLDS e.Tone
e.Tone$1 EXTENDS 'java.lang.Object'
e.Tone$2 EXTENDS e.Tone
e.Tone$2.depth USES 'java.lang.Integer'
e.Tuple USES 'java.lang.Comparable'
e.Tuple IMPLEMENTS 'java.lang.Comparable'
e.Tuple USES e.Tuple
e.Tuple.pairs HOLDS 'java.util.Map'
e.Tuple.pairs USES 'java.util.List'
e.Tuple.pairs USES 'java.lang.String'
e.Tuple.compareTo USES 'java.lang.Integer'
e.Tuple.compareTo USES e.Tuple
e.Tuple.compareTo CALLS 'first.compareTo'
"""


def rel_lines(facts):
    """``source KIND target`` per relation; a string target is quoted, so an
    entity target and a name that merely equals its fqn are told apart."""
    fqn = {e.entity_id: e.fqn for e in facts.entities}
    return [
        f"{fqn[r.source]} {r.kind.name} "
        + (fqn[r.target] if isinstance(r.target, int) else repr(r.target))
        for r in facts.relations
    ]


class TestRelationCharacterization:
    def test_edge_project_relations_in_order(self, tmp_path):
        facts = extract_project(write_project(tmp_path, EDGE_FILES), "edge")
        assert facts.warnings == []
        assert rel_lines(facts) == EDGE_RELATIONS.split("\n")[1:-1]

    def test_default_package_type_use_is_one_rule(self, tmp_path):
        # A named package cannot see the default package (JLS 7.5), so a
        # field type and a local variable type both stay the name as written.
        write_project(
            tmp_path,
            {
                "Foo.java": "class Foo {}",
                "p/Holder.java": """
                package p;
                class Holder {
                    Foo held;
                    void go() { Foo local = null; }
                }
                """,
            },
        )
        lines = rel_lines(extract_project(tmp_path, "p"))
        assert "p.Holder.held HOLDS 'Foo'" in lines
        assert "p.Holder.go USES 'Foo'" in lines

    def test_keyword_after_double_colon_names_no_member(self, tmp_path):
        # Only an identifier or `new` may follow `::`.  The mutated corpora
        # hold `Shape:: enum compareTo`; a keyword is no member name, and the
        # `enum` there starts a local type.
        write_project(
            tmp_path,
            {
                "e/Shape.java": """
                package e;
                import java.util.List;
                class Shape extends Base {
                    void go(List<Shape> out) {
                        out.sort(Shape:: enum compareTo);
                    }
                    void mine() {
                        Runnable r = this:: switch;
                        Runnable s = super:: for;
                        Runnable t = Shape:: new;
                        Runnable u = super:: hashCode;
                    }
                }
                """
            },
        )
        lines = rel_lines(extract_project(tmp_path, "e"))
        assert [line for line in lines if line.startswith(("e.Shape.go ", "e.Shape.mine "))] == [
            "e.Shape.go USES 'java.util.List'",
            "e.Shape.go USES e.Shape",
            "e.Shape.go CALLS 'java.util.List.sort'",
            "e.Shape.go USES e.Shape",
            "e.Shape.mine USES 'java.lang.Runnable'",
            "e.Shape.mine USES 'java.lang.Runnable'",
            "e.Shape.mine USES 'java.lang.Runnable'",
            "e.Shape.mine INSTANTIATES 'e.Shape.<init>'",
            "e.Shape.mine USES 'java.lang.Runnable'",
            "e.Shape.mine CALLS 'Base.hashCode'",
        ]

    def test_single_wildcard_guess_only_for_capitalised_names(self, tmp_path):
        write_project(
            tmp_path,
            {
                "w/W.java": """
                package w;
                import java.util.*;
                class W {
                    java.io.File held;
                    void go(Integer old) {
                        boolean none = old == null;
                        Runnable r = () -> names().forEach(s -> s.trim());
                        java.io.File f = null;
                        Deque<String> queue = null;
                    }
                    List<String> names() { return null; }
                }
                """
            },
        )
        lines = rel_lines(extract_project(tmp_path, "p"))
        assert not [line for line in lines if "java.util.null" in line]
        assert "w.W.go CALLS 's.trim'" in lines
        assert "w.W.held HOLDS 'java.io.File'" in lines
        assert "w.W.go USES 'java.io.File'" in lines
        # the guess still names a capitalised type from the one wildcard
        assert "w.W.go USES 'java.util.Deque'" in lines


# One file with the declaration syntax no other test parses: static imports,
# an annotation type with member defaults, sealed/permits/non-sealed,
# generic arguments after a qualified segment, `int a = 1, b;`, varargs,
# and annotations on a type, on methods and on a parameter, one qualified
# and two with arguments.  The expected facts are the extractor's output as
# it stands, misses included (a statically imported `max` stays a bare
# name); they pin behaviour, they do not bless it.
DECLARATIONS_SOURCE = """\
package a.b;

import static java.lang.Math.max;
import static java.util.Collections.*;

import java.util.List;

@interface Marker {
    String value() default "m";
    int level() default 1;
}

sealed interface Shape permits Circle, Box {}

final class Circle implements Shape {}

non-sealed class Box implements Shape {}

class Outer<K> {
    class Inner<V> {
        K key;
        V value;
    }
}

@a.b.Marker(level = 2)
public class Scale {
    int a = 1, b;
    Outer<String>.Inner<Integer> pair;

    @SuppressWarnings("x")
    int sum(@Marker int... xs) {
        int total = 0;
        for (int x : xs) {
            total = max(total, x);
        }
        return total;
    }

    @Override
    public String toString() {
        List<String> none = emptyList();
        return none.toString();
    }
}
"""
DECLARATIONS_ENTITIES = [
    ("a.b", "PACKAGE", 0),
    ("a.b.Marker", "ANNOTATION", 8),
    ("a.b.Marker.value", "METHOD", 9),
    ("a.b.Marker.level", "METHOD", 10),
    ("a.b.Shape", "INTERFACE", 13),
    ("a.b.Circle", "CLASS", 15),
    ("a.b.Box", "CLASS", 17),
    ("a.b.Outer", "CLASS", 19),
    ("a.b.Outer.Inner", "CLASS", 20),
    ("a.b.Outer.Inner.key", "FIELD", 21),
    ("a.b.Outer.Inner.value", "FIELD", 22),
    ("a.b.Scale", "CLASS", 27),
    ("a.b.Scale.a", "FIELD", 28),
    ("a.b.Scale.b", "FIELD", 28),
    ("a.b.Scale.pair", "FIELD", 29),
    ("a.b.Scale.sum", "METHOD", 32),
    ("a.b.Scale.toString", "METHOD", 41),
]
DECLARATIONS_RELATIONS = """
a.b CONTAINS a.b.Marker
a.b.Marker CONTAINS a.b.Marker.value
a.b.Marker CONTAINS a.b.Marker.level
a.b CONTAINS a.b.Shape
a.b CONTAINS a.b.Circle
a.b CONTAINS a.b.Box
a.b CONTAINS a.b.Outer
a.b.Outer CONTAINS a.b.Outer.Inner
a.b.Outer.Inner CONTAINS a.b.Outer.Inner.key
a.b.Outer.Inner CONTAINS a.b.Outer.Inner.value
a.b CONTAINS a.b.Scale
a.b.Scale CONTAINS a.b.Scale.a
a.b.Scale CONTAINS a.b.Scale.b
a.b.Scale CONTAINS a.b.Scale.pair
a.b.Scale CONTAINS a.b.Scale.sum
a.b.Scale CONTAINS a.b.Scale.toString
a.b.Marker.value USES 'java.lang.String'
a.b.Marker.level USES 'java.lang.Integer'
a.b.Circle IMPLEMENTS a.b.Shape
a.b.Box IMPLEMENTS a.b.Shape
a.b.Scale.a HOLDS 'java.lang.Integer'
a.b.Scale.b HOLDS 'java.lang.Integer'
a.b.Scale.pair HOLDS a.b.Outer.Inner
a.b.Scale.pair USES 'java.lang.String'
a.b.Scale.pair USES 'java.lang.Integer'
a.b.Scale.sum USES 'java.lang.Integer'
a.b.Scale.sum USES 'java.lang.Integer'
a.b.Scale.sum USES 'java.lang.Integer'
a.b.Scale.sum USES 'java.lang.Integer'
a.b.Scale.sum CALLS 'max'
a.b.Scale.toString USES 'java.lang.String'
a.b.Scale.toString USES 'java.util.List'
a.b.Scale.toString USES 'java.lang.String'
a.b.Scale.toString CALLS 'emptyList'
a.b.Scale.toString CALLS 'java.util.List.toString'
"""


class TestDeclarationCharacterization:
    def test_entities_and_relations(self, tmp_path):
        write_project(tmp_path, {"a/b/Scale.java": DECLARATIONS_SOURCE})
        facts = extract_project(tmp_path, "decl")
        assert facts.warnings == []
        assert [(e.fqn, e.kind.name, e.line) for e in facts.entities] == DECLARATIONS_ENTITIES
        assert rel_lines(facts) == DECLARATIONS_RELATIONS.split("\n")[1:-1]

    def test_source_compiles_as_java_17(self, tmp_path):
        compile_java_17(tmp_path, {"a/b/Scale.java": DECLARATIONS_SOURCE})


def compile_java_17(tmp_path, files: dict[str, str]) -> None:
    """Compile ``files`` with ``javac --release 17``; skip without a JDK 17."""
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("no javac on PATH")
    sources = sorted(write_project(tmp_path / "src", files).rglob("*.java"))
    proc = subprocess.run(
        [javac, "--release", "17", "-d", str(tmp_path / "out"), *map(str, sources)],
        capture_output=True,
        text=True,
    )
    if "release version 17 not supported" in proc.stderr:
        pytest.skip("javac is older than JDK 17")
    assert proc.returncode == 0, proc.stderr


# Two files with the constructs no other test parses: initializer blocks,
# array creation with a size and with an initializer, prefix ++/-- on a
# field, reads and writes of `Type.field`, a bounded method type parameter,
# an anonymous class of a project interface, a sibling member type named
# simply, a type from a wildcard import and a fully qualified one, `final`
# and C-style array parameters and fields, an annotated enum constant,
# `return this;`, and two constructors reached by `this(3)` and `Cov::new`.
# The expected facts are the extractor's output as it stands; they pin
# behaviour, they do not bless it.
CONSTRUCTS_FILES = {
    "c/Cov.java": """\
package c;

import d.*;

public class Cov {
    static int count;
    int grid[];
    int n;
    d.Api held;

    static {
        count = 1;
    }

    {
        n = 0;
    }

    Cov(int n) {
        this.n = n;
    }

    Cov() {
        this(3);
    }

    Cov bump() {
        ++count;
        if (--n < 0) return this;
        n = count;
        return this;
    }

    <U extends Number> int size(final String args[], U u) {
        int[] a = new int[4];
        String[] s = new String[] {"x"};
        Cov.count = a.length;
        return Cov.count + s.length;
    }

    Api api() {
        return new Api() {
            public void call() {}
        };
    }

    java.util.function.Supplier<Cov> maker() {
        return Cov::new;
    }

    static class Inner {
        Helper helper;
    }

    static class Helper {}

    enum Mode {
        @Deprecated OLD,
        NEW
    }
}
""",
    "d/Api.java": """\
package d;

public interface Api {
    void call();
}
""",
}
CONSTRUCTS_ENTITIES = [
    ("c", "PACKAGE", 0),
    ("c.Cov", "CLASS", 5),
    ("c.Cov.count", "FIELD", 6),
    ("c.Cov.grid", "FIELD", 7),
    ("c.Cov.n", "FIELD", 8),
    ("c.Cov.held", "FIELD", 9),
    ("c.Cov.<init>", "CONSTRUCTOR", 19),
    ("c.Cov.<init>", "CONSTRUCTOR", 23),
    ("c.Cov.bump", "METHOD", 27),
    ("c.Cov.size", "METHOD", 34),
    ("c.Cov.api", "METHOD", 41),
    ("c.Cov$1", "CLASS", 42),
    ("c.Cov$1.call", "METHOD", 43),
    ("c.Cov.maker", "METHOD", 47),
    ("c.Cov.Inner", "CLASS", 51),
    ("c.Cov.Inner.helper", "FIELD", 52),
    ("c.Cov.Helper", "CLASS", 55),
    ("c.Cov.Mode", "ENUM", 57),
    ("c.Cov.Mode.OLD", "FIELD", 58),
    ("c.Cov.Mode.NEW", "FIELD", 59),
    ("d", "PACKAGE", 0),
    ("d.Api", "INTERFACE", 3),
    ("d.Api.call", "METHOD", 4),
]
CONSTRUCTS_RELATIONS = """
c CONTAINS c.Cov
c.Cov CONTAINS c.Cov.count
c.Cov CONTAINS c.Cov.grid
c.Cov CONTAINS c.Cov.n
c.Cov CONTAINS c.Cov.held
c.Cov CONTAINS c.Cov.<init>
c.Cov CONTAINS c.Cov.<init>
c.Cov CONTAINS c.Cov.bump
c.Cov CONTAINS c.Cov.size
c.Cov CONTAINS c.Cov.api
c.Cov CONTAINS c.Cov$1
c.Cov$1 CONTAINS c.Cov$1.call
c.Cov CONTAINS c.Cov.maker
c.Cov CONTAINS c.Cov.Inner
c.Cov.Inner CONTAINS c.Cov.Inner.helper
c.Cov CONTAINS c.Cov.Helper
c.Cov CONTAINS c.Cov.Mode
c.Cov.Mode CONTAINS c.Cov.Mode.OLD
c.Cov.Mode CONTAINS c.Cov.Mode.NEW
d CONTAINS d.Api
d.Api CONTAINS d.Api.call
c.Cov.count HOLDS 'java.lang.Integer'
c.Cov.grid HOLDS 'java.lang.Integer'
c.Cov.n HOLDS 'java.lang.Integer'
c.Cov.held HOLDS d.Api
c.Cov WRITES c.Cov.count
c.Cov WRITES c.Cov.n
c.Cov.<init> USES 'java.lang.Integer'
c.Cov.<init> WRITES c.Cov.n
c.Cov.<init> CALLS c.Cov.<init>
c.Cov.bump USES c.Cov
c.Cov.bump WRITES c.Cov.count
c.Cov.bump WRITES c.Cov.n
c.Cov.bump WRITES c.Cov.n
c.Cov.bump READS c.Cov.count
c.Cov.size USES 'java.lang.Number'
c.Cov.size USES 'java.lang.Integer'
c.Cov.size USES 'java.lang.String'
c.Cov.size USES 'java.lang.Integer'
c.Cov.size USES 'java.lang.Integer'
c.Cov.size USES 'java.lang.String'
c.Cov.size USES 'java.lang.String'
c.Cov.size WRITES c.Cov.count
c.Cov.size READS c.Cov.count
c.Cov.api USES d.Api
c.Cov.api INSTANTIATES 'c.Cov$1.<init>'
c.Cov.maker USES 'java.util.function.Supplier'
c.Cov.maker USES c.Cov
c.Cov.maker INSTANTIATES c.Cov.<init>
c.Cov$1 IMPLEMENTS d.Api
c.Cov.Inner.helper HOLDS c.Cov.Helper
c.Cov.Mode.OLD HOLDS c.Cov.Mode
c.Cov.Mode.NEW HOLDS c.Cov.Mode
"""


class TestConstructCharacterization:
    def test_entities_and_relations(self, tmp_path):
        facts = extract_project(write_project(tmp_path, CONSTRUCTS_FILES), "constructs")
        assert facts.warnings == []
        assert [(e.fqn, e.kind.name, e.line) for e in facts.entities] == CONSTRUCTS_ENTITIES
        assert rel_lines(facts) == CONSTRUCTS_RELATIONS.split("\n")[1:-1]
        # both constructors are c.Cov.<init>: `this(3)` in the second and
        # `Cov::new` target the first declared, on line 19
        line = {e.entity_id: e.line for e in facts.entities}
        ctors = {e.entity_id for e in facts.entities if e.kind is EntityKind.CONSTRUCTOR}
        ctor_edges = [
            (line[r.source], r.kind.name, line[r.target])
            for r in facts.relations
            if r.target in ctors and r.kind is not RelationKind.CONTAINS
        ]
        assert ctor_edges == [(23, "CALLS", 19), (47, "INSTANTIATES", 19)]

    def test_sources_compile_as_java_17(self, tmp_path):
        compile_java_17(tmp_path, CONSTRUCTS_FILES)


# Bodies with every kind of span the relation pass jumps over: a local
# class, record and enum, each followed by a local variable of its type (an
# annotated local class leaves its annotation as the token before the
# variable, so no declaration is seen); anonymous classes in constructor
# arguments, before a chained call, in a field initializer and in an enum
# constant's arguments.  Two malformed files: a local `enum` inside
# constructor arguments runs to the arguments' end, and local records whose
# first token a `new` or an `instanceof` reads as a type name, which must
# not lead the walk into their bodies.  The expected facts are the
# extractor's output as it stands, misses included (a local type's name
# stays unresolved); they pin behaviour, they do not bless it.
SPANS_FILES = {
    "s/Spans.java": """\
package s;

class A {
    A(Object o) {}
    void go() {}
}

class B {
    void run() {}
}

class T {
    void m() {}
}

interface Api {
    int size();
}

enum Mode {
    ON(new Api() {
        public int size() { return 1; }
    }),
    OFF(null);

    Mode(Api api) {}
}

class Spans {
    Api held = new Api() {
        public int size() { return 2; }
    };

    void locals() {
        class Local {
            int twice(int x) { return x * 2; }
        }
        Local local = new Local();
        record Pair(int a, int b) {}
        Pair pair = new Pair(1, 2);
        enum Color { RED, GREEN }
        Color color = Color.RED;
        @Deprecated
        class Old {}
        Old old = null;
        local.twice(pair.a());
    }

    void anons() {
        new A(new B() {
            void run() {}
        }).go();
        new T() {
            void m() {}
        }.m();
    }
}
""",
    "foo/FooNumber.java": """\
package foo;

public class FooNumber {
  private int x;
  FooNumber(int _x) { x = _x; }
  private void print() {
    Sublic static void main(String[] args) {
    new FooNumber(Integer.parseInt(arg enum s[0])).prin}
}
""",
    "g/G.java": """\
package g;

class G {
    void f() {
        Object o = new record R(int x) { void g() { helper(); } };
        Object p = o instanceof G record Q(int y) { void h() { helper(); } };
    }

    void helper() {}
}
""",
}
SPANS_ENTITIES = [
    ('foo', 'PACKAGE', 0),
    ('foo.FooNumber', 'CLASS', 3),
    ('foo.FooNumber.x', 'FIELD', 4),
    ('foo.FooNumber.<init>', 'CONSTRUCTOR', 5),
    ('foo.FooNumber.print', 'METHOD', 6),
    ('foo.FooNumber$s', 'ENUM', 8),
    ('g', 'PACKAGE', 0),
    ('g.G', 'CLASS', 3),
    ('g.G.f', 'METHOD', 4),
    ('g.G$R', 'CLASS', 5),
    ('g.G$R.x', 'FIELD', 5),
    ('g.G$R.g', 'METHOD', 5),
    ('g.G$Q', 'CLASS', 6),
    ('g.G$Q.y', 'FIELD', 6),
    ('g.G$Q.h', 'METHOD', 6),
    ('g.G.helper', 'METHOD', 9),
    ('s', 'PACKAGE', 0),
    ('s.A', 'CLASS', 3),
    ('s.A.<init>', 'CONSTRUCTOR', 4),
    ('s.A.go', 'METHOD', 5),
    ('s.B', 'CLASS', 8),
    ('s.B.run', 'METHOD', 9),
    ('s.T', 'CLASS', 12),
    ('s.T.m', 'METHOD', 13),
    ('s.Api', 'INTERFACE', 16),
    ('s.Api.size', 'METHOD', 17),
    ('s.Mode', 'ENUM', 20),
    ('s.Mode.<init>', 'CONSTRUCTOR', 26),
    ('s.Mode.ON', 'FIELD', 21),
    ('s.Mode$1', 'CLASS', 21),
    ('s.Mode$1.size', 'METHOD', 22),
    ('s.Mode.OFF', 'FIELD', 24),
    ('s.Spans', 'CLASS', 29),
    ('s.Spans.held', 'FIELD', 30),
    ('s.Spans$1', 'CLASS', 30),
    ('s.Spans$1.size', 'METHOD', 31),
    ('s.Spans.locals', 'METHOD', 34),
    ('s.Spans$Local', 'CLASS', 35),
    ('s.Spans$Local.twice', 'METHOD', 36),
    ('s.Spans$Pair', 'CLASS', 39),
    ('s.Spans$Pair.a', 'FIELD', 39),
    ('s.Spans$Pair.b', 'FIELD', 39),
    ('s.Spans$Color', 'ENUM', 41),
    ('s.Spans$Color.RED', 'FIELD', 41),
    ('s.Spans$Color.GREEN', 'FIELD', 41),
    ('s.Spans$Old', 'CLASS', 44),
    ('s.Spans.anons', 'METHOD', 49),
    ('s.Spans$6', 'CLASS', 50),
    ('s.Spans$6.run', 'METHOD', 51),
    ('s.Spans$7', 'CLASS', 53),
    ('s.Spans$7.m', 'METHOD', 54),
]
SPANS_RELATIONS = """
foo CONTAINS foo.FooNumber
foo.FooNumber CONTAINS foo.FooNumber.x
foo.FooNumber CONTAINS foo.FooNumber.<init>
foo.FooNumber CONTAINS foo.FooNumber.print
foo.FooNumber CONTAINS foo.FooNumber$s
g CONTAINS g.G
g.G CONTAINS g.G.f
g.G CONTAINS g.G$R
g.G$R CONTAINS g.G$R.x
g.G$R CONTAINS g.G$R.g
g.G CONTAINS g.G$Q
g.G$Q CONTAINS g.G$Q.y
g.G$Q CONTAINS g.G$Q.h
g.G CONTAINS g.G.helper
s CONTAINS s.A
s.A CONTAINS s.A.<init>
s.A CONTAINS s.A.go
s CONTAINS s.B
s.B CONTAINS s.B.run
s CONTAINS s.T
s.T CONTAINS s.T.m
s CONTAINS s.Api
s.Api CONTAINS s.Api.size
s CONTAINS s.Mode
s.Mode CONTAINS s.Mode.<init>
s.Mode CONTAINS s.Mode.ON
s.Mode CONTAINS s.Mode$1
s.Mode$1 CONTAINS s.Mode$1.size
s.Mode CONTAINS s.Mode.OFF
s CONTAINS s.Spans
s.Spans CONTAINS s.Spans.held
s.Spans CONTAINS s.Spans$1
s.Spans$1 CONTAINS s.Spans$1.size
s.Spans CONTAINS s.Spans.locals
s.Spans CONTAINS s.Spans$Local
s.Spans$Local CONTAINS s.Spans$Local.twice
s.Spans CONTAINS s.Spans$Pair
s.Spans$Pair CONTAINS s.Spans$Pair.a
s.Spans$Pair CONTAINS s.Spans$Pair.b
s.Spans CONTAINS s.Spans$Color
s.Spans$Color CONTAINS s.Spans$Color.RED
s.Spans$Color CONTAINS s.Spans$Color.GREEN
s.Spans CONTAINS s.Spans$Old
s.Spans CONTAINS s.Spans.anons
s.Spans CONTAINS s.Spans$6
s.Spans$6 CONTAINS s.Spans$6.run
s.Spans CONTAINS s.Spans$7
s.Spans$7 CONTAINS s.Spans$7.m
foo.FooNumber.x HOLDS 'java.lang.Integer'
foo.FooNumber.<init> USES 'java.lang.Integer'
foo.FooNumber.<init> WRITES foo.FooNumber.x
foo.FooNumber.print CALLS 'main'
foo.FooNumber.print USES 'java.lang.String'
foo.FooNumber.print INSTANTIATES foo.FooNumber.<init>
foo.FooNumber.print CALLS 'java.lang.Integer.parseInt'
g.G.f USES 'java.lang.Object'
g.G.f USES 'java.lang.Object'
g.G.f INSTANCEOF g.G
g.G$R.x HOLDS 'java.lang.Integer'
g.G$R.g CALLS g.G.helper
g.G$Q.y HOLDS 'java.lang.Integer'
g.G$Q.h CALLS g.G.helper
s.A.<init> USES 'java.lang.Object'
s.Api.size USES 'java.lang.Integer'
s.Mode.<init> USES s.Api
s.Mode.ON HOLDS s.Mode
s.Mode INSTANTIATES 's.Mode$1.<init>'
s.Mode.OFF HOLDS s.Mode
s.Mode$1 IMPLEMENTS s.Api
s.Mode$1.size USES 'java.lang.Integer'
s.Spans.held HOLDS s.Api
s.Spans.held INSTANTIATES 's.Spans$1.<init>'
s.Spans.locals USES 'Local'
s.Spans.locals INSTANTIATES 'Local.<init>'
s.Spans.locals USES 'Pair'
s.Spans.locals INSTANTIATES 'Pair.<init>'
s.Spans.locals USES 'Color'
s.Spans.locals USES 'java.lang.Deprecated'
s.Spans.locals CALLS 'local.twice'
s.Spans.locals CALLS 'pair.a'
s.Spans.anons INSTANTIATES s.A.<init>
s.Spans.anons CALLS s.A.go
s.Spans.anons INSTANTIATES 's.Spans$6.<init>'
s.Spans.anons INSTANTIATES 's.Spans$7.<init>'
s.Spans.anons CALLS 'm'
s.Spans$1 IMPLEMENTS s.Api
s.Spans$1.size USES 'java.lang.Integer'
s.Spans$Local.twice USES 'java.lang.Integer'
s.Spans$Local.twice USES 'java.lang.Integer'
s.Spans$Pair.a HOLDS 'java.lang.Integer'
s.Spans$Pair.b HOLDS 'java.lang.Integer'
s.Spans$Color.RED HOLDS s.Spans$Color
s.Spans$Color.GREEN HOLDS s.Spans$Color
s.Spans$6 EXTENDS s.B
s.Spans$7 EXTENDS s.T
"""


class TestSpanCharacterization:
    def test_entities_and_relations(self, tmp_path):
        facts = extract_project(write_project(tmp_path, SPANS_FILES), "spans")
        assert facts.warnings == ["parse-warnings foo/FooNumber.java: 1 declaration(s) skipped"]
        assert [(e.fqn, e.kind.name, e.line) for e in facts.entities] == SPANS_ENTITIES
        assert rel_lines(facts) == SPANS_RELATIONS.split("\n")[1:-1]

    def test_well_formed_source_compiles_as_java_17(self, tmp_path):
        compile_java_17(tmp_path, {"s/Spans.java": SPANS_FILES["s/Spans.java"]})

    def test_anonymous_class_in_arguments_after_another_is_its_own(self, tmp_path):
        # the second anonymous class, inside constructor arguments, is Host$2
        write_project(
            tmp_path,
            {
                "q/Host.java": """
                package q;
                class Host {
                    void start() {
                        Runnable first = new Runnable() {
                            public void run() {}
                        };
                        Thread t = new Thread(new Runnable() {
                            public void run() {}
                        });
                    }
                }
                """
            },
        )
        lines = rel_lines(extract_project(tmp_path, "host"))
        assert [line for line in lines if "INSTANTIATES" in line] == [
            "q.Host.start INSTANTIATES 'q.Host$1.<init>'",
            "q.Host.start INSTANTIATES 'java.lang.Thread.<init>'",
            "q.Host.start INSTANTIATES 'q.Host$2.<init>'",
        ]

    def test_brackets_are_matched_once_per_file(self, tmp_path, monkeypatch):
        calls = []

        def counting(toks):
            calls.append(len(toks))
            return partners(toks)

        partners = extractor._partners
        monkeypatch.setattr(extractor, "_partners", counting)
        extract_project(write_project(tmp_path, SPANS_FILES), "spans")
        assert len(calls) == len(SPANS_FILES)


_SOURCES = (
    [p.read_text() for p in sorted(CORPUS_DIR.rglob("*.java"))]
    + list(EDGE_FILES.values())
    + list(CONSTRUCTS_FILES.values())
)
_PIECES = ["{", "}", "(", ")", "<", ">", "[", "]", ";", ",", "@", "=", " new ",
           " class ", " enum ", " record ", " extends "]
# (cut | dup | insert, position, destination, length, inserted piece)
_EDIT = st.tuples(
    st.sampled_from(["cut", "dup", "insert"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(1, 80),
    st.sampled_from(_PIECES),
)
_FILE = st.tuples(
    st.integers(0, len(_SOURCES) - 1), st.lists(_EDIT, min_size=1, max_size=6)
)


def _mutate(text: str, edits) -> str:
    for op, at, to, size, piece in edits:
        a = at % (len(text) + 1)
        if op == "cut":
            text = text[:a] + text[a + size :]
        elif op == "dup":
            b = to % (len(text) + 1)
            text = text[:b] + text[a : a + size] + text[b:]
        else:
            text = text[:a] + piece + text[a:]
    return text


class TestMutatedSources:
    @given(st.lists(_FILE, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_mutated_java_never_breaks_extraction(self, files):
        # The extractor catches any exception from the parser and records it
        # as a "parse failure" warning; on mutated Java there must be none.
        with tempfile.TemporaryDirectory() as root:
            write_project(
                Path(root),
                {
                    f"p{k}/F{k}.java": _mutate(_SOURCES[index], edits)
                    for k, (index, edits) in enumerate(files)
                },
            )
            facts = extract_project(root, "fuzz")
        assert not [w for w in facts.warnings if "parse failure" in w]
        assert_in_extractions_form(facts)


# sha256 of the decompressed record payloads of the archive of
# MUTATED_PROJECTS projects mutated from _SOURCES by a seeded generator; a
# deliberate change to the extractor's facts or to the archive format
# changes it, and CHANGES.md records the old and new values.  The columns
# digest (columns_digest) is of the facts alone: a change to the archive
# format leaves it as it is
MUTATED_SHA256 = "80b6434032fdb0b4091db25d08af9b8aa2219a8214136a6f8b7906eab5957341"
MUTATED_COLUMNS_SHA256 = "96c82fa3929bdd7da534f61636f0a926d5ed8018f7498588afa426da8c6760ad"
MUTATED_PROJECTS = 400


def mutated_projects(seed: int, count: int):
    """``count`` projects of 1-3 files, each a source with 1-6 ``_mutate``
    edits drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(count):
        files = {}
        for k in range(rng.randint(1, 3)):
            edits = [
                (rng.choice(["cut", "dup", "insert"]), rng.randint(0, 10**6),
                 rng.randint(0, 10**6), rng.randint(1, 80), rng.choice(_PIECES))
                for _ in range(rng.randint(1, 6))
            ]
            files[f"p{k}/F{k}.java"] = _mutate(rng.choice(_SOURCES), edits)
        yield files


def test_mutated_sources_match_golden_digest(tmp_path):
    projects = [
        extract_project(write_project(tmp_path / f"m{n:03d}", files), f"m{n:03d}")
        for n, files in enumerate(mutated_projects(20260, MUTATED_PROJECTS))
    ]
    write_facts(FactsArchive(projects=projects), tmp_path / "facts.bin")
    assert archive_digest(tmp_path / "facts.bin") == MUTATED_SHA256
    assert columns_digest(tmp_path / "facts.bin") == MUTATED_COLUMNS_SHA256
    assert_compact(tmp_path / "facts.bin")
    assert_measured_alike(tmp_path / "facts.bin", projects)


# sha256 over the decompressed record payloads of the facts of the
# benchmark corpora that bench/gen.py makes for BENCH_SEEDS; changes as
# MUTATED_SHA256 does; the columns digest beside it changes as
# MUTATED_COLUMNS_SHA256 does
BENCH_FACTS_SHA256 = "d52a29bf0d3d0ed0c82025b772a1c7059183ce3117c4a0f4d47b4aceedab3656"
BENCH_COLUMNS_SHA256 = "2c029aa06cece25ba20e2a1a40987e53ae67af1958fb66b10fa8808b06d750c7"
BENCH_SEEDS = (1, 7, 11)


@pytest.fixture(scope="module")
def bench_corpora(tmp_path_factory):
    """The root of the benchmark corpus bench/gen.py makes for each seed."""
    base = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        import gen

        for seed in BENCH_SEEDS:
            gen.write_corpus(gen.generate_corpus(seed), base / f"seed{seed}")
    return {seed: base / f"seed{seed}" for seed in BENCH_SEEDS}


@pytest.fixture(scope="module")
def bench_archives(bench_corpora, tmp_path_factory):
    """The facts archive of each benchmark corpus, in BENCH_SEEDS order."""
    base = tmp_path_factory.mktemp("archives")
    for seed in BENCH_SEEDS:
        projects = extract_corpus(bench_corpora[seed] / "manifest.txt")
        write_facts(FactsArchive(projects=projects), base / f"facts{seed}.bin")
    return [base / f"facts{seed}.bin" for seed in BENCH_SEEDS]


def test_benchmark_corpora_match_golden_digest(bench_archives):
    assert archive_digest(*bench_archives) == BENCH_FACTS_SHA256
    assert columns_digest(*bench_archives) == BENCH_COLUMNS_SHA256


def assert_compact(archive: Path) -> int:
    """Check that each record of ``archive`` holds every CONTAINS relation
    in ``parent`` and codes each fqn under a parent after the parent's;
    return the record count.  Only a type of the default package, whose fqn
    does not start with the package's name, is stored whole."""
    records = 0
    contains = RELATION_KIND_TABLE.index("CONTAINS")
    for _, payload, _ in scan_records(archive):
        data = json.loads(zlib.decompress(payload))
        fqns, parent = data["entities"][0], data["parent"]
        assert {fqns[parent[row] - 1] for row in data.get("full", [])} <= {DEFAULT_PACKAGE}
        assert contains not in data["pairs"][0]
        records += 1
    return records


def test_extracted_records_take_the_compact_form(fixture_projects, bench_archives, tmp_path):
    # a CONTAINS relation left out of parent, or an fqn stored whole, would
    # still decode to the same facts, and only the archive's size would show it
    write_facts(FactsArchive(projects=fixture_projects), tmp_path / "facts.bin")
    assert assert_compact(tmp_path / "facts.bin") == len(fixture_projects) == 10
    assert [assert_compact(archive) for archive in bench_archives] == [14, 14, 14]


def assert_in_the_writers_form(projects) -> None:
    """Check that the writer takes each project's facts, as extraction made
    them, and that its record decodes to exactly those columns."""
    for facts in projects:
        columns = facts.columns()
        decoded = decode_columns(encode_columns(columns), "x", 3)
        assert columns_json(decoded) == columns_json(columns)


def test_fixture_facts_are_in_the_writers_form(fixture_projects):
    assert_in_the_writers_form(fixture_projects)


# the sets of mutated projects that tests/facts_diff.py compares
@pytest.mark.parametrize("seed, count", MUTATED_SEEDS)
def test_mutated_facts_are_in_the_writers_form(tmp_path, seed, count):
    assert_in_the_writers_form(
        extract_project(write_project(tmp_path / f"m{n:04d}", files), f"m{n:04d}")
        for n, files in enumerate(mutated_projects(seed, count))
    )


class TestTokenTable:
    def test_file_syntax_holds_parallel_arrays(self):
        syntax = extractor.parse_java_file(
            "A.java", "class A {\n  void m(int n) { m(n); }\n  String s = \"ok\";\n}\n"
        )
        n = len(syntax.texts)
        assert type(syntax.kinds) is str and len(syntax.kinds) == n
        for table in (syntax.lines, syntax.partner):
            assert type(table) is array and table.typecode == "i" and len(table) == n
        # `(` and `{` point at their partners; every other token at the end
        assert {i: j for i, j in enumerate(syntax.partner) if j != n} == {
            2: 21, 5: 8, 9: 15, 11: 13,
        }

    def test_largest_benchmark_project_holds_at_most_40_bytes_per_token(self, bench_corpora):
        # p013 is the largest project of the seed-1 corpus.  What its parsed
        # files hold is what freeing them returns, so growth of the
        # process's table of interned strings is not counted.
        root = bench_corpora[1] / "p013"
        sources = [path.read_text(encoding="utf-8") for path in sorted(root.rglob("*.java"))]
        gc.collect()
        tracemalloc.start()
        try:
            syntaxes = [extractor.parse_java_file(str(k), text) for k, text in enumerate(sources)]
            tokens = sum(len(syntax.texts) for syntax in syntaxes)
            gc.collect()
            holding = tracemalloc.get_traced_memory()[0]
            del syntaxes
            gc.collect()
            held = holding - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tokens > 50_000
        assert held <= 40 * tokens, f"{held / tokens:.1f} B per token"
