import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import zlib
from itertools import starmap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import javascale

from javascale.cli import main
from javascale.errors import (
    ArchiveIntegrityError,
    DataError,
    DuplicateProjectError,
    UnsupportedVersionError,
)
from javascale.facts import (
    EntityKind,
    FactColumns,
    FactRelation,
    ProjectFacts,
    RelationKind,
    SourceEntity,
)
from javascale.metrics import METRIC_COLUMNS, ProjectMetrics, compute_metrics, metric_columns
from javascale import store
from javascale.store import (
    FactsArchive,
    _project_payload,
    export_metrics_table,
    read_facts,
    read_metrics_table,
    read_records,
    write_facts,
)

import metrics_table_reference as reference
from conftest import assert_measured_alike

# the characters at which str.splitlines ends a line
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# a version 3 record: entities hold one array per field but the id, which
# is 1..n; parent the source of each entity's CONTAINS relation, or 0;
# relations the kind and target of every other relation, and deltas their
# sources, delta-coded
_PAYLOAD = {
    "project_id": "p", "sloc": 1, "entities": [["p"], ["PACKAGE"], [""], [0]], "parent": [0],
    "deltas": [],
}


def _archive(count: str, *payloads: bytes, version: int = 3) -> bytes:
    """An archive of records whose length prefixes are right for ``payloads``."""
    records = b"".join(b"%d %b\n" % (len(p), p) for p in payloads)
    return f"JSCALE-FACTS {version}\n{count}\n".encode() + records


def _z(text: str) -> bytes:
    return zlib.compress(text.encode())


def _record(**changes) -> bytes:
    return _z(json.dumps({"relations": [[], []], **_PAYLOAD, **changes}))


def _relation(kind, target) -> dict:
    """The fields of a record's one relation, from entity 1."""
    return {"relations": [[kind], [target]], "deltas": [1]}


# a record as version 1 wrote it: plain JSON, one array per row
_V1_RECORD = '{"entities":[[1,"p","PACKAGE","",0]],"project_id":"p","relations":[],"sloc":1}'
# as version 2 wrote it, zlib-compressed: one array per field, ids included
_V2_RECORD = _z(
    '{"entities":[[1],["p"],["PACKAGE"],[""],[0]],"project_id":"p","relations":[[],[],[]],'
    '"sloc":1}'
)


# each text, read as a facts archive, breaks one rule of the reader
BAD_ARCHIVES = [
    pytest.param("JSCALE-FACTS one\n0\n", "bad version line", id="version"),
    pytest.param(
        f"JSCALE-FACTS 1\n1\n{len(_V1_RECORD)} {_V1_RECORD}\n",
        "archive version 1, reader supports 3$",
        id="v1",
    ),
    pytest.param(
        _archive("1", _V2_RECORD, version=2), "archive version 2, reader supports 3$", id="v2"
    ),
    pytest.param("JSCALE-FACTS 3", "missing project count", id="no-count"),
    pytest.param("JSCALE-FACTS 3\nmany\n", "missing project count", id="bad-count"),
    pytest.param(_archive("2", _record())[:-1], "truncated at record 2", id="truncated"),
    pytest.param(_archive("2", _record()), "truncated at record 2", id="cut-after-record"),
    pytest.param(_archive("1", _record()) + b"garbage\n", "data after record 1", id="trailing"),
    pytest.param(
        b"JSCALE-FACTS 3\n1\nlong " + _record() + b"\n", "bad record at line 3$", id="prefix"
    ),
    pytest.param("JSCALE-FACTS 3\n1\n99 {}\n", "record length mismatch at line 3", id="length"),
    pytest.param(  # not read, so nothing of that size is allocated
        f"JSCALE-FACTS 3\n1\n{'9' * 20} {{}}\n", "record length mismatch at line 3", id="huge"
    ),
    pytest.param(f"JSCALE-FACTS 3\n1\n{'1' * 21} {{}}\n", "bad record at line 3$", id="digits"),
    pytest.param(_archive("1", _z("{not json")), "bad record at line 3: .*Expecting", id="json"),
    pytest.param(
        _archive("1", _record(entities=[["p"], ["KLASS"], [""], [0]])),
        "bad record at line 3: .*KLASS",
        id="kind",
    ),
    pytest.param(
        _archive("1", _z(json.dumps(_PAYLOAD))), "bad record at line 3: .*relations", id="key"
    ),
    pytest.param(
        _archive("1", zlib.compress(b'"\xff"')),
        "bad record at line 3: UnicodeDecodeError",
        id="non-utf8",
    ),
    pytest.param(
        _archive("1", b"{}"), "bad record at line 3: error.*incorrect header check", id="not-zlib"
    ),
    pytest.param(  # the Adler-32 trailer's last byte changed
        _archive("1", _record()[:-1] + bytes([_record()[-1] ^ 1])),
        "bad record at line 3: error.*incorrect data check",
        id="checksum",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p", "q"], ["PACKAGE"], [""], [0]])),
        r"bad record at line 3: ValueError\('entities columns differ in length'\)",
        id="entity-columns",
    ),
    pytest.param(
        _archive("1", _record(ids=[1, 2])),
        r"bad record at line 3: ValueError\('entities columns differ in length'\)",
        id="ids-length",
    ),
    pytest.param(
        _archive("1", _record(relations=[["USES"], []], deltas=[1])),
        r"bad record at line 3: ValueError\('relations columns differ in length'\)",
        id="relation-columns",
    ),
    pytest.param(
        _archive("1", _record(**_relation("USES", 1), sources=[1])),
        r"bad record at line 3: ValueError\('a record holds both or neither of deltas and "
        r"sources'\)",
        id="deltas-and-sources",
    ),
    pytest.param(
        _archive("1", _z(json.dumps(
            {"relations": [[], []], **{k: v for k, v in _PAYLOAD.items() if k != "deltas"}}
        ))),
        r"bad record at line 3: ValueError\('a record holds both or neither of deltas and "
        r"sources'\)",
        id="no-sources",
    ),
    pytest.param(
        _archive("1", _z(json.dumps({**_PAYLOAD, "deltas": None}))),
        r"bad record at line 3: TypeError\(\"'NoneType' object is not iterable\"\)$",
        id="null-deltas",
    ),
    pytest.param(
        _archive("1", _record(parent=[0, 0])),
        r"bad record at line 3: ValueError\('parent and entities differ in length'\)",
        id="parent-length",
    ),
    pytest.param(
        _archive("1", _record(parent=[1.0])),
        r"bad record at line 3: ValueError\('parent holds a value that is not an int'\)",
        id="parent-float",
    ),
    pytest.param(
        _archive("1", _record(parent=[[1]])),
        r"bad record at line 3: ValueError\('parent holds a value that is not an int'\)",
        id="parent-list",
    ),
    pytest.param(
        _archive("1", _record(parent=[True])),
        r"bad record at line 3: ValueError\('parent holds a value that is not an int'\)",
        id="parent-bool",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "deltas": [1.5]})),
        r"bad record at line 3: ValueError\('deltas holds a value that is not an int'\)",
        id="delta-float",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "deltas": ["1"]})),
        r"bad record at line 3: ValueError\('deltas holds a value that is not an int'\)",
        id="delta-str",
    ),
    pytest.param(
        _archive("1", _record(warnings=5)),
        r"bad record at line 3: TypeError\(\"'int' object is not iterable\"\)$",
        id="warnings",
    ),
]

_HEADER = ",".join(METRIC_COLUMNS)
_ZEROS = ",0" * (len(METRIC_COLUMNS) - 1)
# each text, read as a metrics table, breaks one rule of the reader
BAD_TABLES = [
    pytest.param("", "empty metrics table", id="empty"),
    pytest.param("nope,nope\n1,2\n", "unexpected metrics table header", id="header"),
    pytest.param(f"{_HEADER}\nz,0\n", "bad row 'z,0'", id="cells"),
    pytest.param(f"{_HEADER}\nz{_ZEROS[:-1]}x\n", "bad row .*invalid literal", id="int"),
    pytest.param(  # classes 1, modules 0
        f"{_HEADER}\nz,0,1{_ZEROS[4:]}\n",
        r"bad row .*modules must equal classes \+ interfaces",
        id="invariant",
    ),
    pytest.param(b"project_id\xff\n", "not UTF-8 text", id="non-utf8"),
    pytest.param(  # calls -1
        f"{_HEADER}\nz{_ZEROS[:12]},-1{_ZEROS[14:]}\n",
        "bad row .*calls must be non-negative",
        id="negative",
    ),
    pytest.param(
        f"{_HEADER}\nz{_ZEROS}\ny{_ZEROS}\nz{_ZEROS}\n",
        r"duplicate project ids: \['z'\]$",
        id="duplicate",
    ),
]


# archives with a fault after two or more framed records, so that the
# metrics command measures the records before it in forked workers
_BIG_BAD_KIND = _record(
    project_id="big",
    entities=[["p"] * 500, ["PACKAGE"] * 499 + ["KLASS"], [""] * 500, [0] * 500],
    parent=[0] * 500,
)
MULTI_FAULT_ARCHIVES = [
    pytest.param(
        _archive("3", _z("{not json"), _record()),
        "bad record at line 3: .*Expecting",
        id="json-then-truncated",
    ),
    pytest.param(
        _archive("3", _record(), _record(project_id="q")) + b"99 {}\n",
        "record length mismatch at line 5",
        id="good-then-length",
    ),
    pytest.param(
        _archive("2", _record(), _record(project_id="q")) + b"garbage\n",
        "data after record 2",
        id="good-then-trailing",
    ),
    # the later bad record is the longest, so a forked child runs it first
    pytest.param(
        _archive("4", _record(), _z("{not json"), _BIG_BAD_KIND, _record(project_id="q")),
        "bad record at line 4: .*Expecting",
        id="json-then-longer-bad-kind",
    ),
]


def _write(path, text: str | bytes) -> None:
    path.write_bytes(text.encode() if isinstance(text, str) else text)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.usefixtures("two_cpus")
@pytest.mark.parametrize("text, message", BAD_ARCHIVES)
def test_bad_archive_is_integrity_error(tmp_path, capsys, text, message):
    path = tmp_path / "facts.bin"
    _write(path, text)
    # another version is an UnsupportedVersionError, every other fault an integrity error
    with pytest.raises(
        (UnsupportedVersionError, ArchiveIntegrityError),
        match=f"^{re.escape(str(path))}: {message}",
    ) as err:
        read_facts(path)
    assert isinstance(err.value, UnsupportedVersionError) == message.startswith("archive version")
    assert main(["metrics", str(path), "-o", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"data error: {err.value}\n"
    # cut-after-record and trailing hold a valid record first
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("text, message", MULTI_FAULT_ARCHIVES)
def test_metrics_reports_the_readers_first_fault(
    tmp_path, capsys, monkeypatch, text, message, cpus
):
    path = tmp_path / "facts.bin"
    _write(path, text)
    with pytest.raises(ArchiveIntegrityError, match=f"^{re.escape(str(path))}: {message}") as read:
        list(read_records(path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert main(["metrics", str(path), "-o", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"data error: {read.value}\n"
    assert not (tmp_path / "m.csv").exists()


# p.f is contained in p.m and p.m in p.f
_CYCLE_RECORD = _record(
    project_id="cyc",
    entities=[["p", "p.f", "p.m"], ["PACKAGE", "FIELD", "METHOD"], ["", "A.java", "A.java"],
              [0, 1, 2]],
    parent=[0, 3, 2],
    **_relation("USES", 3),
)


# run in a process group of its own, so that a command looping on the
# cycle fails the test on a timeout, forked workers and all, instead of
# stalling the suite
@pytest.mark.parametrize("cpus", [1, 2])
def test_contains_cycle_is_integrity_error(tmp_path, cpus):
    path = tmp_path / "facts.bin"
    _write(path, _archive("2", _record(), _CYCLE_RECORD))
    code = (
        "import os, sys; os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
        "from javascale.cli import main; sys.exit(main(sys.argv[2:]))"
    )
    src = Path(javascale.__file__).resolve().parents[1]
    argv = ["metrics", str(path), "-o", str(tmp_path / "m.csv")]
    proc = subprocess.Popen(
        [sys.executable, "-c", code, str(cpus), *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the metrics command ran for 60 s on a CONTAINS cycle")
    assert proc.returncode == 2
    assert err == (
        f"data error: {path}: bad record at line 4: CONTAINS cycle through entities [2, 3]\n"
    )
    assert not (tmp_path / "m.csv").exists()


# decode_record checks a record's shape but not its field types; measuring
# the record is what finds a wrong one, in a worker or in-process
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "record, message",
    [
        pytest.param(
            _record(sloc="x"),
            "'<' not supported between instances of 'int' and 'str'",
            id="sloc",
        ),
        pytest.param(
            _record(**_relation("USES", [1])), "unhashable type: 'list'", id="target"
        ),
        pytest.param(
            _record(**_relation("CALLS", None)),
            "CALLS target None is not an entity of the record",
            id="null-call",
        ),
        pytest.param(
            _record(**_relation("USES", None)),
            "USES target None is not an entity of the record",
            id="null-use",
        ),
        pytest.param(
            _record(**_relation("USES", 9)),
            "USES target 9 is not an entity of the record",
            id="dangling",
        ),
        pytest.param(
            _record(**_relation("INSTANTIATES", 1.5)),
            "INSTANTIATES target 1.5 is not an entity of the record",
            id="float",
        ),
        pytest.param(
            _record(**_relation("USES", True)),
            "USES target True is not an entity of the record",
            id="bool",
        ),
    ],
)
def test_wrongly_typed_field_is_integrity_error(
    tmp_path, capsys, monkeypatch, record, message, cpus
):
    path = tmp_path / "facts.bin"
    _write(path, _archive("2", _record(project_id="q"), record))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert main(["metrics", str(path), "-o", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"data error: {path}: bad record at line 4: {message}\n"
    assert not (tmp_path / "m.csv").exists()


def test_negative_sloc_record_is_integrity_error(tmp_path, capsys):
    path = tmp_path / "facts.bin"
    _write(path, _archive("1", _record(sloc=-1)))
    assert main(["metrics", str(path), "-o", str(tmp_path / "m.csv")]) == 2
    message = f"data error: {path}: bad record at line 3: sloc must be non-negative\n"
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("text, message", BAD_TABLES)
def test_bad_metrics_table_is_integrity_error(tmp_path, capsys, text, message):
    path = tmp_path / "m.csv"
    _write(path, text)
    # a repeated id is a DuplicateProjectError, every other fault an integrity error
    with pytest.raises(
        (DuplicateProjectError, ArchiveIntegrityError), match=f"^{re.escape(str(path))}: {message}"
    ) as err:
        read_metrics_table(path)
    assert isinstance(err.value, DuplicateProjectError) == message.startswith("duplicate")
    assert main(["fit", str(path), "--y", "methods", "--x", "classes"]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {path}: ")


class TestArchiveRoundTrip:
    def test_foonumber_round_trip(self, foonumber_facts, tmp_path):
        # its compressed record holds both framing bytes, so a reader that
        # split the record at either would cut it short
        payload = _project_payload(foonumber_facts.columns())
        assert b"\n" in payload and b" " in payload
        path = tmp_path / "facts.bin"
        write_facts(FactsArchive(projects=[foonumber_facts, ProjectFacts(project_id="q")]), path)
        assert read_facts(path).projects == [foonumber_facts, ProjectFacts(project_id="q")]

    def test_records_are_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "facts.bin"
        path.write_bytes(_archive("2", _record()) + b"99 {}\n")
        records = read_records(path)
        assert next(records).project_id == "p"
        with pytest.raises(ArchiveIntegrityError, match="record length mismatch at line 4$"):
            next(records)

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "facts.bin"
        write_facts(FactsArchive(), path)
        assert read_facts(path).projects == []

    def test_ten_project_writes_are_byte_identical(self, fixture_projects, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        write_facts(FactsArchive(projects=fixture_projects), a)
        write_facts(FactsArchive(projects=fixture_projects), b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "facts.bin"
        write_facts(FactsArchive(projects=[ProjectFacts(project_id="p")]), path)
        data = path.read_bytes().replace(b"JSCALE-FACTS 3\n", b"JSCALE-FACTS 99\n", 1)
        path.write_bytes(data)
        with pytest.raises(UnsupportedVersionError, match="archive version 99, reader supports 3$"):
            read_facts(path)

    def test_truncated_file(self, foonumber_facts, tmp_path):
        path = tmp_path / "facts.bin"
        write_facts(FactsArchive(projects=[foonumber_facts]), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArchiveIntegrityError):
            read_facts(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_text("hello world\n")
        with pytest.raises(ArchiveIntegrityError):
            read_facts(path)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateProjectError, match=r"^duplicate project ids: \['p'\]$"):
            FactsArchive(
                projects=[ProjectFacts(project_id="p"), ProjectFacts(project_id="p")]
            )


def _canonical(columns: FactColumns) -> str:
    """The columns as JSON types them: what decoding a version 2 record,
    which held them as they are, gave back."""
    return json.dumps(columns._asdict(), sort_keys=True)


_C, _U = RelationKind.CONTAINS, RelationKind.USES


def _facts(relations, ids=(1, 2, 3)) -> ProjectFacts:
    """A package, a class in it and a method in that, under ``ids``."""
    kinds = [EntityKind.PACKAGE, EntityKind.CLASS, EntityKind.METHOD]
    rows = zip(ids, ["p", "p.A", "p.A.m"], kinds, ["", "A.java", "A.java"], [0, 1, 2])
    return ProjectFacts("p", list(starmap(SourceEntity, rows)),
                        list(starmap(FactRelation, relations)), sloc=3)


_TREE = [(1, _C, 2), (2, _C, 3)]
# facts, then whether the record holds ids, whether it holds plain sources
# and how many CONTAINS relations parent leaves to relations
RECORD_FORMS = [
    pytest.param(_facts([*_TREE, (3, _U, "x"), (3, RelationKind.CALLS, 3)]), False, False, 0,
                 id="compact"),
    pytest.param(_facts([(5, _C, 7), (7, _C, 9), (9, _U, 7)], ids=(5, 7, 9)), True, False, 0,
                 id="ids-not-1-to-n"),
    pytest.param(_facts(_TREE, ids=(True, 2.0, 3)), True, False, 2, id="ids-not-ints"),
    pytest.param(_facts([(2, _C, 3), (1, _C, 2)]), False, False, 1, id="contains-out-of-order"),
    pytest.param(_facts([(1, _C, 2), (1, _C, 2), (2, _C, 3)]), False, False, 2,
                 id="contains-repeated"),
    pytest.param(_facts([(1, _C, "p.A"), (2, _C, 3)]), False, False, 2, id="contains-name"),
    pytest.param(_facts([(1, _C, 2), (2, _U, "x"), (2, _C, 3)]), False, False, 1,
                 id="contains-after-body"),
    pytest.param(_facts([(0, _C, 2), (2, _C, 3)]), False, False, 2, id="contains-from-0"),
    pytest.param(_facts([*_TREE, ("p.A", _U, 3)]), False, True, 0, id="string-source"),
    pytest.param(_facts([*_TREE, (True, _U, 3)]), False, True, 0, id="bool-source"),
    pytest.param(ProjectFacts("e"), False, False, 0, id="empty"),
]


@pytest.mark.parametrize("facts, ids, plain, contains", RECORD_FORMS)
def test_facts_outside_the_compact_form_round_trip(tmp_path, facts, ids, plain, contains):
    payload = _project_payload(facts.columns())
    data = json.loads(zlib.decompress(payload))
    assert ("ids" in data, "sources" in data, "deltas" in data) == (ids, plain, not plain)
    assert data["relations"][0].count("CONTAINS") == contains
    assert _canonical(store.decode_columns(payload, "x", 3)) == _canonical(facts.columns())
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_facts(FactsArchive(projects=[facts]), a)
    archive = read_facts(a)
    assert archive.projects == [facts]
    write_facts(archive, b)
    assert a.read_bytes() == b.read_bytes()


_TEXT = st.text(max_size=12)  # any code point but a lone surrogate
_PROJECTS = st.builds(
    ProjectFacts,
    project_id=_TEXT,
    entities=st.lists(
        st.builds(
            SourceEntity, st.integers(), _TEXT.filter(bool), st.sampled_from(EntityKind),
            _TEXT, st.integers(min_value=0),
        ),
        max_size=6,
    ),
    relations=st.lists(
        st.builds(
            FactRelation, st.integers(), st.sampled_from(RelationKind),
            st.one_of(st.integers(), _TEXT),
        ),
        max_size=6,
    ),
    sloc=st.integers(min_value=0),
    warnings=st.lists(_TEXT, max_size=3),
    parse_warning_count=st.integers(min_value=0),
)


@given(st.lists(_PROJECTS, max_size=3, unique_by=lambda p: p.project_id))
@settings(max_examples=200, deadline=None)
def test_any_facts_survive_write_and_read(projects):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.bin"), Path(tmp, "b.bin")
        write_facts(FactsArchive(projects=projects), a)
        write_facts(FactsArchive(projects=projects), b)
        assert a.read_bytes() == b.read_bytes()
        loaded = read_facts(a)
        assert_measured_alike(a, projects)
        write_facts(loaded, b)
        assert a.read_bytes() == b.read_bytes()
    assert loaded.projects == projects  # 1 and "1" are different targets


# ids, sources and targets that are ints near 1..n, or values that compare
# equal to them but are written as other JSON
_NEAR_INT = st.one_of(st.integers(-1, 7), st.booleans(), st.sampled_from([1.0, 2.0, -0.0]), _TEXT)


@st.composite
def _near_compact_facts(draw) -> ProjectFacts:
    """Facts whose ids are often 1..n and whose relations often open with
    a run of CONTAINS relations, as extraction writes them."""
    n = draw(st.integers(0, 6))
    ids = draw(st.one_of(st.just(range(1, n + 1)), st.lists(_NEAR_INT, min_size=n, max_size=n)))
    entities = [SourceEntity(i, "e", EntityKind.CLASS, "", 0) for i in ids]
    relation = st.builds(
        FactRelation,
        st.one_of(st.integers(-1, 7), _NEAR_INT),
        st.sampled_from([_C, _C, _C, _U, RelationKind.CALLS]),
        st.one_of(st.integers(0, 7), _NEAR_INT),
    )
    return ProjectFacts("p", entities, draw(st.lists(relation, max_size=10)))


@given(_near_compact_facts())
@settings(max_examples=500, deadline=None)
def test_decoding_gives_the_columns_as_version_2_stored_them(facts):
    columns = facts.columns()
    payload = _project_payload(columns)
    decoded = store.decode_columns(payload, "x", 3)
    assert _canonical(decoded) == _canonical(columns)
    assert _project_payload(decoded) == payload


class TestMetricsTable:
    def test_zero_row(self, tmp_path):
        path = tmp_path / "m.csv"
        export_metrics_table([ProjectMetrics(project_id="z")], path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(METRIC_COLUMNS)
        assert lines[1] == "z" + ",0" * (len(METRIC_COLUMNS) - 1)

    def test_foonumber_row(self, foonumber_facts, tmp_path):
        path = tmp_path / "m.csv"
        export_metrics_table([compute_metrics(foonumber_facts)], path)
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["classes"] == "1"
        assert cells["interfaces"] == "0"
        assert cells["methods"] == "2"
        assert cells["constructors"] == "1"

    def test_rows_sorted_by_project_id(self, tmp_path):
        metrics = [ProjectMetrics(project_id=pid) for pid in ("zeta", "alpha", "mid")]
        path = tmp_path / "m.csv"
        export_metrics_table(metrics, path)
        ids = [ln.split(",")[0] for ln in path.read_text().splitlines()[1:]]
        assert ids == sorted(ids)

    def test_duplicate_project_id_refused(self, tmp_path):
        metrics = [ProjectMetrics(project_id="p"), ProjectMetrics(project_id="p")]
        with pytest.raises(
            DuplicateProjectError, match=r"^duplicate project ids in export: \['p'\]$"
        ):
            export_metrics_table(metrics, tmp_path / "m.csv")

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_metrics_table([], tmp_path / "m.csv")

    @pytest.mark.parametrize("char", [",", *LINE_BREAKS], ids=ascii)
    def test_id_that_would_not_read_back_refused(self, tmp_path, char):
        path = tmp_path / "m.csv"
        metrics = [ProjectMetrics(project_id=f"b{char}c"), ProjectMetrics(project_id="a")]
        with pytest.raises(DataError) as caught:
            export_metrics_table(metrics, path)
        assert str(caught.value) == f"project ids with a comma or a line break: {[f'b{char}c']}"
        assert not path.exists()

    def test_non_ascii_id_with_a_space_round_trips(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [ProjectMetrics(project_id="ü b", sloc=3), ProjectMetrics(project_id="")]
        export_metrics_table(rows, path)
        assert read_metrics_table(path) == metric_columns(sorted(rows))

    def test_read_round_trip(self, fixture_corpus, tmp_path):
        path = tmp_path / "m.csv"
        export_metrics_table(fixture_corpus, path)
        loaded = read_metrics_table(path)
        assert loaded == metric_columns(sorted(fixture_corpus, key=lambda pm: pm.project_id))

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ArchiveIntegrityError):
            read_metrics_table(path)


# ---------------------------------------------------------------------------
# The column reader against the frozen row reader
# ---------------------------------------------------------------------------


def _read_both(path: Path) -> list:
    """What each metrics-table reader gives: its columns, or the type and
    message of what it raised."""
    results = []
    for read in (read_metrics_table, lambda p: metric_columns(reference.read_metrics_table(p))):
        try:
            results.append(read(path))
        except Exception as exc:  # any difference, whatever it is, fails the test
            results.append((type(exc), str(exc)))
    return results


# two rows that meet every invariant; the cells after the id are counts
_A = "a,10,3,1,4,20,2,30,1,2,1,1,6,2,3,1,4"
_B = "b,100,30,10,40,200,20,300,10,20,10,10,60,20,30,10,40"
_GOOD = f"{_HEADER}\n{_A}\n{_B}\n"


def _cell(row: str, index: int, text: str) -> str:
    """``row`` with its cell ``index`` (0 is the id) replaced by ``text``."""
    cells = row.split(",")
    cells[index] = text
    return ",".join(cells)


# valid tables that export_metrics_table does not write, then faults that a
# total cell count alone would miss
OTHER_TABLES = [
    pytest.param(_GOOD, id="canonical"),
    pytest.param(f"{_HEADER}\n", id="header-only"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 1, '007')}\n", id="leading-zeros"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 1, '+10')}\n", id="plus"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 1, ' 10')}\n", id="space"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 1, '10 ')}\n", id="trailing-space"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 1, '1_0')}\n", id="underscore"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 1, chr(0xFF11) + chr(0xFF10))}\n", id="fullwidth-digits"),
    pytest.param(_GOOD.replace("\n", "\r\n"), id="crlf"),
    pytest.param(_GOOD.replace("\n", "\r"), id="cr"),
    pytest.param(f"{_HEADER}\n\n{_A}\n", id="blank-line"),
    pytest.param(f"{_HEADER}\n{_A}\n \t\n{_B}\n", id="whitespace-line"),
    pytest.param(_GOOD[:-1], id="no-final-newline"),
    pytest.param(chr(0xFEFF) + _GOOD, id="byte-order-mark"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, 'é')}\n", id="non-ascii-id"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, 'a b')}\n", id="id-with-space"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, '')}\n", id="empty-id"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, 'a' + chr(0x85) + 'b')}\n", id="id-with-nel"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, 'a' + chr(0x2028) + 'b')}\n", id="id-with-u2028"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, 'a' + chr(0xA0) + 'b')}\n", id="id-with-nbsp"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 0, 'a' + chr(0x0C) + 'b')}\n", id="id-with-form-feed"),
    pytest.param(f"{_HEADER}\n{_A[:-2]}\n{_B},40,40\n", id="16-cells-then-18"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 5, '20.0')}\n", id="float"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 5, '-1')}\n", id="negative"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 5, '2e1')}\n", id="exponent"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 5, '')}\n", id="empty-cell"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 5, '9' * 5000)}\n", id="past-int-digit-limit"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 4, '5')}\n", id="modules"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 12, '7')}\n", id="used_total"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 16, '5')}\n", id="efferent_coupling"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 10, '4')}\n", id="dui"),
    pytest.param(f"{_HEADER}\n{_cell(_A, 11, '4')}\n", id="if_count"),
    pytest.param(f"{_HEADER}\n{_A}\n{_B}\n{_A}\n", id="duplicate"),
]


@pytest.mark.parametrize(
    "text", [*(pytest.param(p.values[0], id=f"bad-{p.id}") for p in BAD_TABLES), *OTHER_TABLES]
)
def test_column_reader_agrees_with_row_reader(tmp_path, text):
    path = tmp_path / "m.csv"
    _write(path, text)
    new, old = _read_both(path)
    assert new == old


def test_canonical_table_is_parsed_in_bulk(fixture_corpus, tmp_path):
    path = tmp_path / "m.csv"
    export_metrics_table(fixture_corpus, path)
    text = path.read_text(encoding="utf-8")
    expected = metric_columns(reference.read_metrics_table(path))
    assert store._canonical_columns(text) == expected
    assert store._canonical_columns(text.replace("\n", "\r\n")) is None


@st.composite
def _metric_rows(draw) -> list[ProjectMetrics]:
    """Rows that meet every invariant, under distinct ids that the table
    can hold: no comma and no line break."""
    ids = draw(
        st.lists(
            st.text(
                st.characters(
                    blacklist_characters="," + LINE_BREAKS, blacklist_categories=["Cs"]
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1, max_size=6, unique=True,
        )
    )
    count = st.integers(0, 10**6)
    rows = []
    for pid in ids:
        classes, interfaces, internal, jdk, external = (draw(count) for _ in range(5))
        rows.append(
            ProjectMetrics(
                pid, draw(count), classes, interfaces, classes + interfaces, draw(count),
                draw(count), draw(count), draw(count), draw(count),
                draw(st.integers(0, classes)), draw(st.integers(0, classes)),
                internal + jdk + external, internal, jdk, external, jdk + external,
            )
        )
    return rows


def _edit_cell(change):
    """An edit of one cell of one row, both chosen by ``k``."""

    def edit(text: str, k: int) -> str:
        lines = text.split("\n")
        row = 1 + k % max(len(lines) - 2, 1)
        cells = lines[row].split(",")
        if len(cells) > 1:
            index = 1 + k // 7 % (len(cells) - 1)
            cells[index] = change(cells[index])
            lines[row] = ",".join(cells)
        return "\n".join(lines)

    return edit


def _move_cell(text: str, k: int) -> str:
    """The last cell of one row moved to the end of another."""
    lines = text.split("\n")
    a, b = 1 + k % max(len(lines) - 2, 1), 1 + k // 5 % max(len(lines) - 2, 1)
    head, _, tail = lines[a].rpartition(",")
    lines[a] = head
    lines[b] += "," + tail
    return "\n".join(lines)


def _insert_line(line: str):
    def edit(text: str, k: int) -> str:
        lines = text.split("\n")
        lines.insert(1 + k % (len(lines) - 1), line)
        return "\n".join(lines)

    return edit


def _edit_id(change):
    def edit(text: str, k: int) -> str:
        lines = text.split("\n")
        row = 1 + k % max(len(lines) - 2, 1)
        lines[row] = change(lines[row], lines[1 + k // 3 % max(len(lines) - 2, 1)])
        return "\n".join(lines)

    return edit


TABLE_EDITS = {
    "none": lambda text, k: text,
    "leading zero": _edit_cell(lambda c: "0" + c),
    "plus": _edit_cell(lambda c: "+" + c),
    "space": _edit_cell(lambda c: " " + c),
    "float": _edit_cell(lambda c: c + ".0"),
    "negative": _edit_cell(lambda c: "-" + c),
    "plus one": _edit_cell(lambda c: str(int(c) + 1) if c.isdigit() else c),
    "empty cell": _edit_cell(lambda c: ""),
    "moved cell": _move_cell,
    "crlf": lambda text, k: text.replace("\n", "\r\n"),
    "blank line": _insert_line(""),
    "whitespace line": _insert_line(" \t"),
    "no final newline": lambda text, k: text[:-1],
    "non-ascii id": _edit_id(lambda row, other: "é" + row),
    "nel in id": _edit_id(lambda row, other: chr(0x85) + row),
    "duplicate id": _edit_id(
        lambda row, other: other.partition(",")[0] + "," + row.partition(",")[2]
    ),
}


@given(_metric_rows(), st.sampled_from(sorted(TABLE_EDITS)), st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_readers_agree_on_edited_exports(rows, edit, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.csv")
        export_metrics_table(rows, path)
        _write(path, TABLE_EDITS[edit](path.read_text(encoding="utf-8"), k))
        new, old = _read_both(path)
    assert new == old
