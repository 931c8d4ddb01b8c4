import json

import pytest

from lincat.documents import parse, parse_obj, serialize
from lincat.errors import SchemaError, UnresolvedReference
from lincat.groupoids import SpanMap, identity_span, one_object_groupoid, terminal_groupoid
from lincat.groups import cyclic_group, symmetric_group
from lincat.suites import (
    fig1_span,
    groupoidification_map,
    mixed_groupoid,
    standard_groups,
)

DATA = "src/lincat/data"


def test_minimal_group_document():
    doc = parse_obj(
        {
            "format_version": "1",
            "kind": "group",
            "definitions": {"groups": [{"name": "triv", "mult": [[0]]}]},
            "payload": "triv",
        }
    )
    assert doc.payload.order == 1


def test_s3_fixture_file():
    doc = parse(f"{DATA}/s3.json")
    assert doc.kind == "group"
    assert doc.payload == symmetric_group(3)


def test_permutation_generators_expand():
    doc = parse_obj(
        {
            "format_version": "1",
            "kind": "group",
            "definitions": {
                "groups": [
                    {"name": "S3", "permutation_generators": [[1, 0, 2], [1, 2, 0]]}
                ]
            },
            "payload": "S3",
        }
    )
    assert doc.payload == symmetric_group(3)


def test_permutation_generator_cap():
    with pytest.raises(Exception):
        parse_obj(
            {
                "format_version": "1",
                "kind": "group",
                "definitions": {
                    "groups": [
                        {
                            "name": "big",
                            "permutation_generators": [list(range(1, 10)) + [0]],
                        }
                    ]
                },
                "payload": "big",
            },
            max_group_order=5,
        )


def test_unresolved_reference():
    with pytest.raises(UnresolvedReference):
        parse_obj(
            {
                "format_version": "1",
                "kind": "span",
                "definitions": {
                    "spans": [
                        {"name": "s", "apex": "missing", "left": "f", "right": "g"}
                    ]
                },
                "payload": "s",
            }
        )


def test_schema_error_reports_path():
    with pytest.raises(SchemaError):
        parse_obj(
            {
                "format_version": "1",
                "kind": "group",
                "definitions": {"groups": [{"mult": [[0]]}]},
                "payload": "x",
            }
        )


def test_unknown_kind():
    with pytest.raises(SchemaError):
        parse_obj({"format_version": "1", "kind": "nope", "definitions": {}, "payload": "x"})


@pytest.mark.parametrize(
    "value",
    [
        symmetric_group(3),
        mixed_groupoid(),
        fig1_span(),
        groupoidification_map(one_object_groupoid(cyclic_group(2))),
        SpanMap.identity(identity_span(terminal_groupoid())),
    ],
    ids=["group", "groupoid", "span", "spanmap", "identity-spanmap"],
)
def test_round_trip(value):
    data = serialize(value)
    doc = parse_obj(json.loads(data))
    assert doc.payload == value


def test_serialize_deterministic():
    a = serialize(fig1_span())
    b = serialize(fig1_span())
    assert a == b


def test_fixture_files_parse_and_match_builders():
    groups = standard_groups()
    for fname, gname in [
        ("trivial", "1"),
        ("z2", "Z2"),
        ("z3", "Z3"),
        ("z4", "Z4"),
        ("s3", "S3"),
    ]:
        doc = parse(f"{DATA}/{fname}.json")
        assert doc.payload == groups[gname]
    fig = parse(f"{DATA}/fig1_span.json")
    assert fig.payload == fig1_span()
    suite = parse(f"{DATA}/suite_small.json")
    assert suite.kind == "suite"
    assert len(suite.payload["spans"]) == 2
