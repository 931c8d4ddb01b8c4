import json

import jsonschema
import pytest

import lincat.groups
from lincat.documents import KINDS, document_schema, parse, parse_obj, serialize
from lincat.errors import (
    AxiomViolation,
    IndexOutOfRange,
    InputTooLarge,
    SchemaError,
    UnresolvedReference,
)
from lincat.groupoids import SpanMap, identity_span, one_object_groupoid, terminal_groupoid
from lincat.groups import cyclic_group, symmetric_group, trivial_group
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


def test_permutation_generator_cap(monkeypatch):
    monkeypatch.setattr(lincat.groups, "MAX_GROUP_ORDER", 5)
    with pytest.raises(InputTooLarge):
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
            }
        )


def test_permutation_generators_default_degree():
    # the default degree is the longest generator's length, so the empty
    # permutation generates the trivial group
    doc = parse_obj(
        {
            "format_version": "1",
            "kind": "group",
            "definitions": {"groups": [{"name": "e", "permutation_generators": [[]]}]},
            "payload": "e",
        }
    )
    assert doc.payload == trivial_group()


def test_ragged_table_is_not_square():
    with pytest.raises(AxiomViolation, match="not square"):
        parse_obj(
            {
                "format_version": "1",
                "kind": "group",
                "definitions": {"groups": [{"name": "g", "mult": [[0, 1], [1]]}]},
                "payload": "g",
            }
        )


def test_functor_object_map_shorter_than_hom_maps():
    with pytest.raises(IndexOutOfRange):
        parse_obj(
            {
                "format_version": "1",
                "kind": "functor",
                "definitions": {
                    "groups": [{"name": "1", "mult": [[0]]}],
                    "groupoids": [
                        {"name": "pt", "objects": [{"name": "p", "group": "1"}]}
                    ],
                    "functors": [
                        {
                            "name": "f",
                            "source": "pt",
                            "target": "pt",
                            "object_map": [],
                            "hom_maps": [[0]],
                        }
                    ],
                },
                "payload": "f",
            }
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
    with pytest.raises(SchemaError) as err:
        parse_obj(
            {
                "format_version": "1",
                "kind": "group",
                "definitions": {"groups": [{"mult": [[0]]}]},
                "payload": "x",
            }
        )
    assert err.value.path == ["definitions", "groups", 0]


def test_non_associative_document_table_is_rejected():
    # a Latin square with identity 0 (an order-5 loop): only the
    # associativity proof can reject it
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3]]
    with pytest.raises(AxiomViolation) as err:
        parse_obj(
            {
                "format_version": "1",
                "kind": "group",
                "definitions": {"groups": [{"name": "L5", "mult": loop}]},
                "payload": "L5",
            }
        )
    assert (err.value.kind, err.value.witness) == ("associativity", (1, 1, 2))


def test_unknown_kind():
    with pytest.raises(SchemaError):
        parse_obj({"format_version": "1", "kind": "nope", "definitions": {}, "payload": "x"})


@pytest.mark.parametrize("kind", KINDS)
def test_document_schema_passes_the_metaschema(kind):
    jsonschema.Draft202012Validator.check_schema(document_schema(kind))


@pytest.mark.parametrize(
    "data",
    [
        # a definition without its name
        {
            "format_version": "1",
            "kind": "group",
            "definitions": {"groups": [{"mult": [[0]]}]},
            "payload": "x",
        },
        # a wrong version and an unknown key
        {
            "format_version": "2",
            "kind": "span",
            "definitions": {},
            "payload": "x",
            "extra": 1,
        },
        # a malformed definitions block and an empty payload name
        {
            "format_version": "1",
            "kind": "suite",
            "definitions": {"spans": 3, "groups": [{"name": "", "mult": [["a"]]}]},
            "payload": {"spans": [""]},
        },
    ],
    ids=["group", "span", "suite"],
)
def test_schema_error_matches_jsonschema_validate(data):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(data, document_schema(data["kind"]))
    with pytest.raises(SchemaError) as got:
        parse_obj(data)
    expected = SchemaError(want.value.message, path=list(want.value.absolute_path))
    assert str(got.value) == str(expected)
    assert got.value.path == expected.path


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
