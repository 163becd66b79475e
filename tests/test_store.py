import json
import os
import re
import tempfile
import zlib
from itertools import starmap, takewhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javascale.cli import main
from javascale.errors import (
    ArchiveIntegrityError,
    DataError,
    DuplicateProjectError,
    UnsupportedVersionError,
)
from javascale.facts import EntityKind, FactRelation, ProjectFacts, RelationKind, SourceEntity
from javascale.metrics import METRIC_COLUMNS, ProjectMetrics, compute_metrics, metric_columns
from javascale import store
from javascale.store import (
    FactsArchive,
    encode_columns,
    export_metrics_table,
    read_facts,
    read_metrics_table,
    write_facts,
)

import metrics_table_reference as reference
from conftest import assert_measured_alike, facts_from_rows

# the characters at which str.splitlines ends a line
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# a version 5 record: the scalar fields; entities hold one array per field
# but the id, which is 1..n, kinds as ordinals into the store's tables,
# files as indexes into files and lines delta-coded; parent the source of
# each entity's CONTAINS relation, or 0; relations an index into pairs, the
# distinct (kind, target) pairs, for every other relation, and deltas their
# sources, delta-coded
_PAYLOAD = {
    "project_id": "p", "sloc": 1, "parse_warning_count": 0, "warnings": [],
    "entities": [["p"], [0], [0], [0]], "files": [""], "parent": [0], "deltas": [],
}


def _archive(count: str, *payloads: bytes, version: int = 5) -> bytes:
    """An archive of records whose length prefixes are right for ``payloads``."""
    records = b"".join(b"%d %b\n" % (len(p), p) for p in payloads)
    return f"JSCALE-FACTS {version}\n{count}\n".encode() + records


def _z(text: str) -> bytes:
    return zlib.compress(text.encode())


def _record(drop=(), **changes) -> bytes:
    """A record of ``_PAYLOAD`` with no relations, ``changes`` made and the
    fields named in ``drop`` left out."""
    fields = {"relations": [], "pairs": [[], []], **_PAYLOAD, **changes}
    return _z(json.dumps({k: v for k, v in fields.items() if k not in drop}))


def _relation(kind, target) -> dict:
    """The fields of a record's one relation, from entity 1; a kind named in
    the store's table is written as its ordinal."""
    if kind in store.RELATION_KIND_TABLE:
        kind = store.RELATION_KIND_TABLE.index(kind)
    return {"relations": [0], "pairs": [[kind], [target]], "deltas": [1]}


# a record as version 1 wrote it: plain JSON, one array per row
_V1_RECORD = '{"entities":[[1,"p","PACKAGE","",0]],"project_id":"p","relations":[],"sloc":1}'
# as version 2 wrote it, zlib-compressed: one array per field, ids included
_V2_RECORD = _z(
    '{"entities":[[1],["p"],["PACKAGE"],[""],[0]],"project_id":"p","relations":[[],[],[]],'
    '"sloc":1}'
)
# as version 3 wrote it: kinds as names, no fqn coded under its parent's
_V3_RECORD = _z(
    '{"deltas":[],"entities":[["p"],["PACKAGE"],[""],[0]],"parent":[0],"project_id":"p",'
    '"relations":[[],[]],"sloc":1}'
)
# as version 4 wrote it: kinds as ordinals, files and lines as they are, a
# kind and a target column for the relations
_V4_RECORD = _z(
    '{"deltas":[],"entities":[["p"],[0],[""],[0]],"parent":[0],"project_id":"p",'
    '"relations":[[],[]],"sloc":1}'
)


# each text, read as a facts archive, breaks one rule of the reader
BAD_ARCHIVES = [
    pytest.param("JSCALE-FACTS one\n0\n", "bad version line", id="version"),
    pytest.param(
        f"JSCALE-FACTS 1\n1\n{len(_V1_RECORD)} {_V1_RECORD}\n",
        "archive version 1, reader supports 5$",
        id="v1",
    ),
    pytest.param(
        _archive("1", _V2_RECORD, version=2), "archive version 2, reader supports 5$", id="v2"
    ),
    pytest.param(
        _archive("1", _V3_RECORD, version=3), "archive version 3, reader supports 5$", id="v3"
    ),
    pytest.param(
        _archive("1", _V4_RECORD, version=4), "archive version 4, reader supports 5$", id="v4"
    ),
    pytest.param("JSCALE-FACTS 5", "missing project count", id="no-count"),
    pytest.param("JSCALE-FACTS 5\nmany\n", "missing project count", id="bad-count"),
    pytest.param("JSCALE-FACTS 5\n-1\n", "missing project count", id="negative-count"),
    pytest.param(_archive("2", _record())[:-1], "truncated at record 2", id="truncated"),
    pytest.param(_archive("2", _record()), "truncated at record 2", id="cut-after-record"),
    pytest.param(_archive("1", _record()) + b"garbage\n", "data after record 1", id="trailing"),
    pytest.param(
        b"JSCALE-FACTS 5\n1\nlong " + _record() + b"\n", "bad record at line 3$", id="prefix"
    ),
    pytest.param("JSCALE-FACTS 5\n1\n99 {}\n", "record length mismatch at line 3", id="length"),
    pytest.param(  # not read, so nothing of that size is allocated
        f"JSCALE-FACTS 5\n1\n{'9' * 20} {{}}\n", "record length mismatch at line 3", id="huge"
    ),
    pytest.param(f"JSCALE-FACTS 5\n1\n{'1' * 21} {{}}\n", "bad record at line 3$", id="digits"),
    pytest.param(_archive("1", _z("{not json")), "bad record at line 3: .*Expecting", id="json"),
    pytest.param(
        _archive("1", _record(entities=[["p"], ["KLASS"], [0], [0]])),
        r"bad record at line 3: ValueError\('the entity kind column holds a value that is not an "
        r"int'\)$",
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
        _archive("1", _record(entities=[["p", "q"], [0], [0], [0]])),
        r"bad record at line 3: ValueError\('entities columns differ in length'\)",
        id="entity-columns",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "deltas": []})),
        r"bad record at line 3: ValueError\('relations columns differ in length'\)",
        id="relation-columns",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "relations": [0, 0]})),
        r"bad record at line 3: ValueError\('relations columns differ in length'\)",
        id="pair-index-length",
    ),
    pytest.param(
        _archive("1", _record(relations=[0], pairs=[[10], []], deltas=[1])),
        r"bad record at line 3: ValueError\('pairs columns differ in length'\)",
        id="pairs-columns",
    ),
    # the record holds each field of the layout, full apart, and no other:
    # ids or sources, which older encoders wrote for other facts, would
    # otherwise be ignored and the record read under the wrong ids
    pytest.param(
        _archive("1", _record(ids=[1])),
        r"bad record at line 3: ValueError\(\"a record holds a field the layout does not name: "
        r"'ids'\"\)$",
        id="ids",
    ),
    pytest.param(
        _archive("1", _record(**_relation("USES", 1), sources=[1])),
        r"bad record at line 3: ValueError\(\"a record holds a field the layout does not name: "
        r"'sources'\"\)$",
        id="sources",
    ),
    pytest.param(
        _archive("1", _record(drop=("deltas",))),
        r"bad record at line 3: KeyError\('deltas'\)$",
        id="no-deltas",
    ),
    pytest.param(
        _archive("1", _record(drop=("warnings",))),
        r"bad record at line 3: KeyError\('warnings'\)$",
        id="no-warnings",
    ),
    pytest.param(
        _archive("1", _record(drop=("parse_warning_count",))),
        r"bad record at line 3: KeyError\('parse_warning_count'\)$",
        id="no-parse-warning-count",
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
        r"bad record at line 3: ValueError\('warnings is int, not list'\)$",
        id="warnings",
    ),
    # a count is not negative, as no extraction makes one
    pytest.param(
        _archive("1", _record(sloc=-1)),
        r"bad record at line 3: ValueError\('sloc must be non-negative'\)$",
        id="sloc-negative",
    ),
    pytest.param(
        _archive("1", _record(parse_warning_count=-2)),
        r"bad record at line 3: ValueError\('parse_warning_count must be non-negative'\)$",
        id="parse-warnings-negative",
    ),
    # kind ordinals: plain indexing would wrap a negative one, and a bool, a
    # float or a name is not an ordinal
    pytest.param(
        _archive("1", _record(entities=[["p"], [-1], [0], [0]])),
        r"bad record at line 3: ValueError\('a kind ordinal is out of range'\)$",
        id="ordinal-negative",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [len(store.ENTITY_KIND_TABLE)], [0], [0]])),
        r"bad record at line 3: ValueError\('a kind ordinal is out of range'\)$",
        id="ordinal-past-table",
    ),
    pytest.param(
        _archive("1", _record(**_relation(len(store.RELATION_KIND_TABLE), 1))),
        r"bad record at line 3: ValueError\('a kind ordinal is out of range'\)$",
        id="relation-ordinal-past-table",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [False], [0], [0]])),
        r"bad record at line 3: ValueError\('the entity kind column holds a value that is not an "
        r"int'\)$",
        id="ordinal-bool",
    ),
    pytest.param(
        _archive("1", _record(**_relation(10.0, 1))),
        r"bad record at line 3: ValueError\('the pair kind column holds a value that is not an "
        r"int'\)$",
        id="ordinal-float",
    ),
    pytest.param(
        _archive("1", _record(relations=[0, 1], pairs=[[10, "USES"], [1, 2]], deltas=[1, 0])),
        r"bad record at line 3: ValueError\('the pair kind column holds a value that is not an "
        r"int'\)$",
        id="ordinals-and-names",
    ),
    # full lists row indexes of entities whose fqn is stored whole
    pytest.param(
        _archive("1", _record(full=5)),
        r"bad record at line 3: ValueError\('full is not a list of ints'\)$",
        id="full-int",
    ),
    pytest.param(
        _archive("1", _record(full=[0.0])),
        r"bad record at line 3: ValueError\('full is not a list of ints'\)$",
        id="full-float",
    ),
    pytest.param(
        _archive("1", _record(full=[1])),
        r"bad record at line 3: ValueError\('full holds a row index out of range'\)$",
        id="full-past-rows",
    ),
    pytest.param(
        _archive("1", _record(full=[-1])),
        r"bad record at line 3: ValueError\('full holds a row index out of range'\)$",
        id="full-negative",
    ),
    # every row's parent, coded or in full, is 0 or an earlier row: before
    # it, not after, not the row itself and not past the rows
    pytest.param(
        _archive("1", _record(entities=[[".A", "p"], [1, 0], [0, 1], [1, -1]],
                              files=["A.java", ""], parent=[2, 0])),
        r"bad record at line 3: ValueError\('the CONTAINS parent 2 of entity 1 is not an "
        r"earlier entity'\)$",
        id="coded-before-parent",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p", ".A"], [0, 1], [0, 1], [0, 1]],
                              files=["", "A.java"], parent=[0, 2])),
        r"bad record at line 3: ValueError\('the CONTAINS parent 2 of entity 2 is not an "
        r"earlier entity'\)$",
        id="coded-under-itself",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p", ".A", "q.B"], [0, 1, 1], [0, 1, 1], [0, 1, 1]],
                              files=["", "A.java"], parent=[0, 1, 77], full=[2])),
        r"bad record at line 3: ValueError\('the CONTAINS parent 77 of entity 3 is not an "
        r"earlier entity'\)$",
        id="full-under-later-row",
    ),
    pytest.param(
        _archive("1", _record(parent=[-1])),
        r"bad record at line 3: ValueError\('the CONTAINS parent -1 of entity 1 is not an "
        r"earlier entity'\)$",
        id="parent-negative",
    ),
    pytest.param(
        _archive("1", _record(entities=[[""], [0], [0], [0]])),
        r"bad record at line 3: ValueError\('entity fqn must be non-empty'\)$",
        id="fqn-empty",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p", 7], [0, 1], [0, 1], [0, 1]],
                              files=["", "A.java"], parent=[0, 1])),
        r"bad record at line 3: TypeError\('sequence item 1: expected str instance, int found'\)$",
        id="fqn-int",
    ),
    # files are indexes into the record's table of them, each a string, and
    # lines are delta-coded ints
    pytest.param(
        _archive("1", _record(files=[5])),
        r"bad record at line 3: ValueError\('files holds a value that is not a string'\)$",
        id="file-int",
    ),
    pytest.param(
        _archive("1", _record(files="A.java")),
        r"bad record at line 3: ValueError\('files is str, not list'\)$",
        id="files-str",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [0], [-1], [0]])),
        r"bad record at line 3: ValueError\('the file column holds an index out of range'\)$",
        id="file-index-negative",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [0], [1], [0]])),
        r"bad record at line 3: ValueError\('the file column holds an index out of range'\)$",
        id="file-index-past-table",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [0], [""], [0]])),
        r"bad record at line 3: ValueError\('the file column holds an index that is not an int'\)$",
        id="file-index-str",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [0], [0], ["x"]])),
        r"bad record at line 3: ValueError\('the line column holds a value that is not an int'\)$",
        id="line-str",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [0], [0], [True]])),
        r"bad record at line 3: ValueError\('the line column holds a value that is not an int'\)$",
        id="line-bool",
    ),
    pytest.param(
        _archive("1", _record(entities=[["p"], [0], [0], [1.0]])),
        r"bad record at line 3: ValueError\('the line column holds a value that is not an int'\)$",
        id="line-float",
    ),
    # each relation is an index into the record's pair table
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "relations": [-1]})),
        r"bad record at line 3: ValueError\('relations holds an index out of range'\)$",
        id="pair-index-negative",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "relations": [1]})),
        r"bad record at line 3: ValueError\('relations holds an index out of range'\)$",
        id="pair-index-past-table",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "relations": [0.0]})),
        r"bad record at line 3: ValueError\('relations holds an index that is not an int'\)$",
        id="pair-index-float",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "relations": [False]})),
        r"bad record at line 3: ValueError\('relations holds an index that is not an int'\)$",
        id="pair-index-bool",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", 1), "relations": ["0"]})),
        r"bad record at line 3: ValueError\('relations holds an index that is not an int'\)$",
        id="pair-index-str",
    ),
    # a string of the right length is not a column of the pair table
    pytest.param(
        _archive("1", _record(relations=[0], pairs=[[10], "1"], deltas=[1])),
        r"bad record at line 3: ValueError\('the pair target column is str, not list'\)$",
        id="pairs-target-str",
    ),
    pytest.param(
        _archive("1", _record(relations=[0], pairs=["A", [1]], deltas=[1])),
        r"bad record at line 3: ValueError\('the pair kind column is str, not list'\)$",
        id="pairs-kind-str",
    ),
    # a target is an entity id or a name
    pytest.param(
        _archive("1", _record(**_relation("USES", 1.5))),
        r"bad record at line 3: ValueError\('the pair target column holds a value that is not an "
        r"int or a string'\)$",
        id="pair-target-float",
    ),
    pytest.param(
        _archive("1", _record(**_relation("USES", [1]))),
        r"bad record at line 3: ValueError\('the pair target column holds a value that is not an "
        r"int or a string'\)$",
        id="pair-target-list",
    ),
    # an int target or a source is an entity of the record
    pytest.param(
        _archive("1", _record(**_relation("READS", 99))),
        r"bad record at line 3: ValueError\('a pair target is not an entity of the record'\)$",
        id="pair-target-past-entities",
    ),
    pytest.param(
        _archive("1", _record(**_relation("USES", 0))),
        r"bad record at line 3: ValueError\('a pair target is not an entity of the record'\)$",
        id="pair-target-0",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", "x"), "deltas": [99]})),
        r"bad record at line 3: ValueError\('a relation source is not an entity of the "
        r"record'\)$",
        id="source-past-entities",
    ),
    pytest.param(
        _archive("1", _record(**{**_relation("USES", "x"), "deltas": [0]})),
        r"bad record at line 3: ValueError\('a relation source is not an entity of the "
        r"record'\)$",
        id="source-0",
    ),
    # containment is the parent column alone
    pytest.param(
        _archive("1", _record(**_relation("CONTAINS", 1))),
        r"bad record at line 3: ValueError\('a pair holds the CONTAINS kind, which only parent "
        r"stores'\)$",
        id="pair-contains",
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
    entities=[["p"] * 500, ["PACKAGE"] * 499 + ["KLASS"], [0] * 500, [0] * 500],
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
        read_facts(path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert main(["metrics", str(path), "-o", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"data error: {read.value}\n"
    assert not (tmp_path / "m.csv").exists()


_NOT_A_PAIR_TARGET = (
    "ValueError('the pair target column holds a value that is not an int or a string')"
)


# decoding checks the type of each field, that each parent comes before its
# child and that each id is an entity of the record, and finds its fault in
# a worker or in-process
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "record, message",
    [
        pytest.param(_record(sloc="x"), "ValueError('sloc is str, not int')", id="sloc"),
        pytest.param(_record(sloc=True), "ValueError('sloc is bool, not int')", id="sloc-bool"),
        pytest.param(
            _record(sloc=1.5), "ValueError('sloc is float, not int')", id="sloc-float"
        ),
        pytest.param(
            _record(project_id=5), "ValueError('project_id is int, not str')", id="project-id"
        ),
        pytest.param(
            _record(warnings="abc"), "ValueError('warnings is str, not list')", id="warnings"
        ),
        pytest.param(
            _record(warnings=[5]),
            "ValueError('warnings holds a value that is not a string')",
            id="warning",
        ),
        pytest.param(
            _record(parse_warning_count="x"),
            "ValueError('parse_warning_count is str, not int')",
            id="parse-warning-count",
        ),
        pytest.param(_record(**_relation("USES", [1])), _NOT_A_PAIR_TARGET, id="target"),
        pytest.param(_record(**_relation("USES", None)), _NOT_A_PAIR_TARGET, id="null"),
        pytest.param(_record(**_relation("INSTANTIATES", 1.5)), _NOT_A_PAIR_TARGET, id="float"),
        pytest.param(_record(**_relation("USES", True)), _NOT_A_PAIR_TARGET, id="bool"),
        pytest.param(
            _record(**_relation("CALLS", 9)),
            "ValueError('a pair target is not an entity of the record')",
            id="dangling-call",
        ),
        pytest.param(
            _record(**_relation("USES", 9)),
            "ValueError('a pair target is not an entity of the record')",
            id="dangling",
        ),
        pytest.param(
            _record(**{**_relation("USES", "x"), "deltas": [99]}),
            "ValueError('a relation source is not an entity of the record')",
            id="dangling-source",
        ),
        # p.f is contained in p.m and p.m in p.f; neither fqn starts with
        # its parent's, so both are stored whole
        pytest.param(
            _record(
                project_id="cyc",
                entities=[["p", "p.f", "p.m"], [0, 5, 7], [0, 1, 1], [0, 1, 1]],
                files=["", "A.java"],
                parent=[0, 3, 2],
                full=[1, 2],
                **_relation("USES", 3),
            ),
            "ValueError('the CONTAINS parent 3 of entity 2 is not an earlier entity')",
            id="cycle",
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
    # the decoder refuses it before the row rules could
    message = f"data error: {path}: bad record at line 3: ValueError('sloc must be non-negative')\n"
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
        payload = encode_columns(foonumber_facts)
        assert b"\n" in payload and b" " in payload
        path = tmp_path / "facts.bin"
        write_facts(FactsArchive(projects=[foonumber_facts, facts_from_rows("q")]), path)
        assert read_facts(path).projects == [foonumber_facts, facts_from_rows("q")]

    def test_records_are_read_one_at_a_time(self, tmp_path):
        path = tmp_path / "facts.bin"
        path.write_bytes(_archive("2", _record()) + b"99 {}\n")
        records = store.scan_records(path)
        _, payload, lineno = next(records)
        assert store.decode_columns(payload, path, lineno).project_id == "p"
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
        write_facts(FactsArchive(projects=[facts_from_rows("p")]), path)
        data = path.read_bytes().replace(b"JSCALE-FACTS 5\n", b"JSCALE-FACTS 99\n", 1)
        path.write_bytes(data)
        with pytest.raises(UnsupportedVersionError, match="archive version 99, reader supports 5$"):
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
            FactsArchive(projects=[facts_from_rows("p"), facts_from_rows("p")])


def _canonical(facts: ProjectFacts) -> str:
    """The facts as JSON types them."""
    return json.dumps(facts._asdict(), sort_keys=True)


_C, _U = RelationKind.CONTAINS, RelationKind.USES


def _facts(relations, ids=(1, 2, 3), fqns=("p", "p.A", "p.A.m")) -> ProjectFacts:
    """A package, a class in it and a method in that, under ``ids``."""
    kinds = [EntityKind.PACKAGE, EntityKind.CLASS, EntityKind.METHOD]
    rows = zip(ids, fqns, kinds, ["", "A.java", "A.java"], [0, 1, 2])
    return facts_from_rows("p", list(starmap(SourceEntity, rows)), relations, sloc=3)


_TREE = [(1, _C, 2), (2, _C, 3)]
# facts in extraction's form, then the rows with a parent whose fqn is
# stored whole
RECORD_FORMS = [
    pytest.param(_facts([*_TREE, (3, _U, "x"), (3, RelationKind.CALLS, 3)]), [], id="compact"),
    pytest.param(_facts([(1, _C, 3), (3, _U, 2)]), [], id="a-row-without-parent"),
    pytest.param(_facts(_TREE, fqns=("p", "q.A", "p.A$1")), [1, 2], id="fqn-not-under-parent"),
    pytest.param(_facts([(1, _C, 2), (1, _C, 3)], fqns=("p", "p", "p$")), [],
                 id="fqn-equal-to-parent"),
    pytest.param(facts_from_rows("e"), [], id="empty"),
]
# the fields of every record; full is left out when empty
_LAYOUT = {
    "project_id", "sloc", "parse_warning_count", "warnings", "entities", "files", "parent",
    "pairs", "relations", "deltas",
}


@pytest.mark.parametrize("facts, full", RECORD_FORMS)
def test_facts_in_extractions_form_round_trip(tmp_path, facts, full):
    payload = encode_columns(facts)
    data = json.loads(zlib.decompress(payload))
    assert data.keys() - {"full"} == _LAYOUT
    assert store.RELATION_KIND_TABLE.index("CONTAINS") not in data["pairs"][0]
    assert data.get("full") == (full or None)  # left out when empty
    assert _canonical(store.decode_columns(payload, "x", 3)) == _canonical(facts)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_facts(FactsArchive(projects=[facts]), a)
    archive = read_facts(a)
    assert archive.projects == [facts]
    write_facts(archive, b)
    assert a.read_bytes() == b.read_bytes()


def _method(**change) -> ProjectFacts:
    """``_facts(_TREE)`` with ``change`` made to its method's row."""
    facts = _facts(_TREE)
    rows = facts.entities
    rows[2] = rows[2]._replace(**change)
    return facts_from_rows(facts.project_id, rows, facts.relations, facts.sloc)


_NOT_A_SOURCE = "the source column holds a value that is not an int"
_NOT_A_TARGET = "the target column holds a value that is not an int or a string"
_NO_SOURCE = "a relation source is not an entity of the record"
_NO_TARGET = "a relation target is not an entity of the record"


def _late(parent: int, child: int) -> str:
    return f"the CONTAINS parent {parent} of entity {child} is not an earlier entity"


# facts whose ids or relations break extraction's form, and the ValueError
# that facts.check_form raises for the writer and for compute_metrics alike
BROKEN_STRUCTURE = [
    # every CONTAINS relation comes first, its targets increasing, each
    # from an entity before its target
    pytest.param(_facts([(2, _C, 3), (1, _C, 2)]), "CONTAINS target 2 is not an entity after 3",
                 id="contains-out-of-order"),
    pytest.param(_facts([(1, _C, 2), (1, _C, 2), (2, _C, 3)]),
                 "CONTAINS target 2 is not an entity after 2", id="contains-repeated"),
    pytest.param(_facts([*_TREE, (1, _C, 3)]), "CONTAINS target 3 is not an entity after 3",
                 id="contains-second-parent"),
    pytest.param(_facts([(1, _C, "p.A"), (2, _C, 3)]),
                 "CONTAINS target 'p.A' is not an entity after 0", id="contains-name"),
    pytest.param(_facts([(1, _C, 2), (2, _C, 4)]), "CONTAINS target 4 is not an entity after 2",
                 id="contains-past-entities"),
    pytest.param(_facts([(1, _C, 2), (2, _U, "x"), (2, _C, 3)]),
                 "a CONTAINS relation follows a relation of another kind",
                 id="contains-after-body"),
    pytest.param(_facts([(0, _C, 2), (2, _C, 3)]), _late(0, 2), id="contains-from-0"),
    pytest.param(_facts([(-1, _C, 2), (2, _C, 3)]), _late(-1, 2), id="contains-from-negative"),
    pytest.param(_facts([(2, _C, 1), (1, _C, 3)], fqns=("p.A", "p", "p.A.m")), _late(2, 1),
                 id="parent-after-child"),
    pytest.param(_facts([(1, _C, 2), (3, _C, 3)]), _late(3, 3), id="parent-is-child"),
    # each source, and each int target, is an entity of the record
    pytest.param(_facts([*_TREE, (4, _U, "x")]), _NO_SOURCE, id="source-past-entities"),
    pytest.param(_facts([*_TREE, (0, _U, "x")]), _NO_SOURCE, id="source-0"),
    pytest.param(_facts([*_TREE, (3, _U, 4)]), _NO_TARGET, id="target-past-entities"),
    pytest.param(_facts([*_TREE, (3, _U, 0)]), _NO_TARGET, id="zero-target"),
    pytest.param(_facts([(5, _C, 7), (7, _C, 9), (9, _U, 7)], ids=(5, 7, 9)),
                 "the id column is not 1..n", id="ids-not-1-to-n"),
    pytest.param(_facts([(1, _C, 2), (2, _C, 4)], ids=(1, 2, 4)), "the id column is not 1..n",
                 id="ids-with-a-gap"),
    pytest.param(_facts(_TREE, ids=(1, 2, 2)), "the id column is not 1..n", id="ids-repeated"),
    pytest.param(_facts(_TREE, ids=(True, 2.0, 3)), "the id column is not 1..n", id="ids-not-ints"),
    pytest.param(_facts([*_TREE, ("p.A", _U, 3)]), _NOT_A_SOURCE, id="string-source"),
    pytest.param(_facts([*_TREE, (True, _U, 3)]), _NOT_A_SOURCE, id="bool-source"),
    # 1, 1.0, True and "1" (and 0.0 and -0.0) are equal keys but different JSON
    pytest.param(_facts([*_TREE, (3, _U, 1.0)]), _NOT_A_TARGET, id="float-target"),
    pytest.param(_facts([*_TREE, (3, _U, True)]), _NOT_A_TARGET, id="bool-target"),
    pytest.param(_facts([*_TREE, (3, _U, -0.0)]), _NOT_A_TARGET, id="negative-zero-target"),
    pytest.param(_facts([*_TREE, (3, _U, None)]), _NOT_A_TARGET, id="null-target"),
]

# facts outside extraction's form, and the ValueError the writer raises
REFUSED_FORMS = [
    *BROKEN_STRUCTURE,
    pytest.param(_method(kind="KLASS"),
                 "the entity kind column holds a kind its table does not name", id="entity-kind"),
    pytest.param(_facts([*_TREE, (3, "READS_ALOUD", 1)]),
                 "the relation kind column holds a kind its table does not name",
                 id="relation-kind"),
    pytest.param(_method(fqn=7), "the fqn column holds a value that is not a string", id="fqn-int"),
    pytest.param(_method(file=5), "the file column holds a value that is not a string",
                 id="file-int"),
    pytest.param(_method(file=["A.java"]), "the file column holds a value that is not a string",
                 id="file-list"),
    pytest.param(_method(line="2"), "the line column holds a value that is not an int",
                 id="line-str"),
    pytest.param(_method(line=True), "the line column holds a value that is not an int",
                 id="line-bool"),
    pytest.param(facts_from_rows("p", sloc="3"), "sloc is str, not int", id="sloc-str"),
    pytest.param(facts_from_rows("p", sloc=-1), "sloc must be non-negative", id="sloc-negative"),
    pytest.param(facts_from_rows("p", parse_warning_count=-2),
                 "parse_warning_count must be non-negative", id="parse-warnings-negative"),
    pytest.param(facts_from_rows("p", warnings=[5]),
                 "warnings holds a value that is not a string", id="warning-int"),
]


@pytest.mark.parametrize("facts, message", REFUSED_FORMS)
def test_facts_outside_extractions_form_are_refused(tmp_path, facts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        encode_columns(facts)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_facts(FactsArchive(projects=[facts]), tmp_path / "facts.bin")


@pytest.mark.parametrize("facts, message", BROKEN_STRUCTURE)
def test_compute_metrics_refuses_a_broken_structure_as_the_writer_does(facts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compute_metrics(facts)


def test_an_empty_fqn_is_refused():
    # SourceEntity refuses an empty fqn, so only columns can hold one
    facts = _facts(_TREE)
    ids, _, *rest = facts.entity_columns
    with pytest.raises(ValueError, match="^entity fqn must be non-empty$"):
        encode_columns(facts._replace(entity_columns=[ids, ["p", "", "p.A.m"], *rest]))


def test_a_coded_fqn_stores_what_follows_its_parents(foonumber_facts):
    data = json.loads(zlib.decompress(encode_columns(foonumber_facts)))
    fqns = [e.fqn for e in foonumber_facts.entities]
    stored = data["entities"][0]
    assert "full" not in data and stored[0] == fqns[0] == "foo"
    assert stored[1:] == [fqn[len(fqns[p - 1]):] for fqn, p in zip(fqns[1:], data["parent"][1:])]
    assert all(s[0] in ".$" for s in stored[1:])
    kinds = [store.ENTITY_KIND_TABLE.index(e.kind) for e in foonumber_facts.entities]
    assert data["entities"][1] == kinds


def test_a_pair_table_lists_each_distinct_pair_once():
    calls = RelationKind.CALLS
    facts = _facts([*_TREE, (3, _U, "x"), (3, calls, 3), (2, _U, "x"), (3, _U, 1), (2, calls, 3)])
    data = json.loads(zlib.decompress(encode_columns(facts)))
    assert data == {
        "project_id": "p", "sloc": 3, "parse_warning_count": 0, "warnings": [],
        "entities": [["p", ".A", ".m"], [0, 1, 7], [0, 1, 1], [0, 1, 1]],
        "files": ["", "A.java"],
        "parent": [0, 1, 2],
        # USES "x", CALLS 3 and USES 1, in order of first appearance
        "pairs": [[10, 4, 10], ["x", 3, 1]],
        "relations": [0, 1, 0, 2, 1],
        "deltas": [3, 0, -1, 1, -1],
    }


def test_equal_targets_of_different_json_stay_apart(tmp_path):
    # 1 and "1" are two keys of a dict, so two pairs
    facts = _facts([*_TREE, *((3, _U, target) for target in [1, "1", 2, 1])])
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_facts(FactsArchive(projects=[facts]), a)
    archive = read_facts(a)
    assert [repr(r.target) for r in archive.projects[0].relations[2:]] == ["1", "'1'", "2", "1"]
    write_facts(archive, b)
    assert a.read_bytes() == b.read_bytes()
    ((_, payload, _),) = store.scan_records(a)
    data = json.loads(zlib.decompress(payload))
    assert data["pairs"] == [[10, 10, 10], [1, "1", 2]] and data["relations"] == [0, 1, 2, 0]


def test_kind_tables_name_each_kind_once():
    # the ordinals of stored records: reordering a table, or an enum, must
    # not change what a stored ordinal means, and a new kind goes at the end
    assert store.ENTITY_KIND_TABLE == (
        "PACKAGE", "CLASS", "INTERFACE", "ENUM", "ANNOTATION", "FIELD", "CONSTRUCTOR", "METHOD",
    )
    assert store.RELATION_KIND_TABLE == (
        "CONTAINS", "HOLDS", "WRITES", "READS", "CALLS", "INSTANTIATES", "EXTENDS", "IMPLEMENTS",
        "CASTS", "INSTANCEOF", "USES",
    )
    for table, kinds in [(store.ENTITY_KIND_TABLE, EntityKind),
                         (store.RELATION_KIND_TABLE, RelationKind)]:
        assert sorted(table) == sorted(kind.value for kind in kinds)


_TEXT = st.text(max_size=12)  # any code point but a lone surrogate
_OTHER_KINDS = [kind for kind in RelationKind if kind is not _C]


@st.composite
def _relations_in_form(draw, n: int, targets=_TEXT) -> list[FactRelation]:
    """Relations of ``n`` entities in extraction's form: a CONTAINS relation
    to some of them in row order, each from an earlier entity, then others
    whose sources are entities and whose targets are entities or
    ``targets``."""
    contained = [
        FactRelation(draw(st.integers(1, child - 1)), _C, child)
        for child in range(2, n + 1)
        if draw(st.booleans())
    ]
    if not n:
        return contained
    entity = st.integers(1, n)
    other = st.builds(FactRelation, entity, st.sampled_from(_OTHER_KINDS),
                      st.one_of(entity, targets))
    return contained + draw(st.lists(other, max_size=6))


@st.composite
def _compact_facts(draw) -> ProjectFacts:
    """Facts in extraction's form, whatever their fqns, files, lines,
    sources and targets."""
    n = draw(st.integers(0, 6))
    entities = [
        SourceEntity(
            i, draw(_TEXT.filter(bool)), draw(st.sampled_from(EntityKind)), draw(_TEXT),
            draw(st.integers()),
        )
        for i in range(1, n + 1)
    ]
    return facts_from_rows(
        draw(_TEXT), entities, draw(_relations_in_form(n)),
        draw(st.integers(min_value=0)), draw(st.lists(_TEXT, max_size=3)),
        draw(st.integers(min_value=0)),
    )


@given(st.lists(_compact_facts(), max_size=3, unique_by=lambda p: p.project_id))
@settings(max_examples=200, deadline=None)
def test_compact_facts_survive_write_and_read(projects):
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
    """Facts whose ids are often 1..n, whose relations are often in
    extraction's form, opening with CONTAINS relations each from an earlier
    entity, and whose fqns often start with another's."""
    n = draw(st.integers(0, 6))
    ids = draw(st.one_of(st.just(range(1, n + 1)), st.lists(_NEAR_INT, min_size=n, max_size=n)))
    fqn = st.sampled_from(["e", "e.f", "e.f$1", "e.g", "h"])
    entities = [SourceEntity(i, draw(fqn), draw(st.sampled_from(EntityKind)), "", 0) for i in ids]
    relation = st.builds(
        FactRelation,
        st.one_of(st.integers(-1, 7), _NEAR_INT),
        st.sampled_from([_C, _C, _C, _U, RelationKind.CALLS]),
        st.one_of(st.integers(0, 7), _NEAR_INT),
    )
    relations = st.one_of(
        _relations_in_form(n, _NEAR_INT), st.lists(relation, max_size=10)
    )
    return facts_from_rows("p", entities, draw(relations))


def _typed(kinds: set, values) -> bool:
    return kinds.issuperset(map(type, values))


def _in_extractions_form(facts: ProjectFacts) -> bool:
    """Whether the ids are 1..n, the sources entities, the targets entities
    or strings, and the CONTAINS relations first, each to an entity after
    the last and from one before it."""
    ids, (sources, kinds, targets) = facts.entity_columns[0], facts.relation_columns
    n = len(ids)
    if not (_typed({int}, ids) and list(ids) == list(range(1, n + 1))):
        return False
    if not (_typed({int}, sources) and _typed({int, str}, targets)):
        return False
    run = len(list(takewhile(_C.__eq__, kinds)))
    children = targets[:run]
    return (
        _C not in kinds[run:]
        and _typed({int}, children)
        and list(children) == sorted(set(children))
        and all(0 < source < child <= n for source, child in zip(sources, children))
        and all(1 <= source <= n for source in sources)
        and all(1 <= target <= n for target in targets if type(target) is int)
    )


@given(_near_compact_facts())
@settings(max_examples=500, deadline=None)
def test_near_compact_facts_are_refused_or_decode_to_the_columns_given(facts):
    if not _in_extractions_form(facts):
        with pytest.raises(ValueError):
            encode_columns(facts)
        return
    payload = encode_columns(facts)
    decoded = store.decode_columns(payload, "x", 3)
    assert _canonical(decoded) == _canonical(facts)
    assert encode_columns(decoded) == payload


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
