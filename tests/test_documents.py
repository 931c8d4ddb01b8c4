import copy
import hashlib
import json
import pathlib

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincat.groups
from lincat.documents import (
    _KEYWORDS,
    _TYPES,
    KINDS,
    _schema_error,
    document_schema,
    parse,
    parse_obj,
    serialize,
)
from lincat.errors import (
    AxiomViolation,
    IndexOutOfRange,
    InputTooLarge,
    SchemaError,
    UnresolvedReference,
)
from lincat.groupoids import (
    SpanMap,
    compose_spans,
    identity_span,
    one_object_groupoid,
    terminal_groupoid,
)
from lincat.groups import cyclic_group, direct_product, symmetric_group, trivial_group
from lincat.suites import (
    fig1_span,
    groupoidification_map,
    mixed_groupoid,
    random_suite,
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


def _jsonschema_paths(schema, value):
    """The path of every error jsonschema finds in ``value``."""
    return [list(e.absolute_path)
            for e in jsonschema.Draft202012Validator(schema).iter_errors(value)]


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
    # a path of jsonschema's errors, so jsonschema rejects the document too
    with pytest.raises(SchemaError) as got:
        parse_obj(data)
    assert got.value.path in _jsonschema_paths(document_schema(data["kind"]), data)


def _suite_doc(**changes):
    return {"format_version": "1", "kind": "suite", "definitions": {}, "payload": {},
            **changes}


@pytest.mark.parametrize(
    "data, message",
    [
        (_suite_doc(definitions=[]), "[] is not of type 'object' (at definitions)"),
        (_suite_doc(format_version=1), "'1' was expected (at format_version)"),
        (_suite_doc(payload={"spans": [""]}), "'' should be non-empty (at payload/spans/0)"),
        (
            _suite_doc(definitions={"groups": [{"name": "G", "degree": -1.0}]}),
            "-1.0 is less than the minimum of 0 (at definitions/groups/0/degree)",
        ),
        (
            _suite_doc(definitions={"spans": [{"name": "s", "left": "f", "right": "f"}]}),
            "'apex' is a required property (at definitions/spans/0)",
        ),
        (
            _suite_doc(extra=1),
            "Additional properties are not allowed ('extra' was unexpected)",
        ),
        (
            _suite_doc(payload={"spans": [], "x": [], "b": []}),
            "Additional properties are not allowed ('b', 'x' were unexpected) (at payload)",
        ),
    ],
    ids=["type", "const", "minLength", "minimum", "required", "additionalProperties",
         "additionalProperties-two"],
)
def test_schema_error_words_each_keyword(data, message):
    # one error per document, worded as jsonschema words it
    with pytest.raises(SchemaError) as err:
        parse_obj(data)
    assert str(err.value) == message
    [want] = jsonschema.Draft202012Validator(document_schema("suite")).iter_errors(data)
    assert str(SchemaError(want.message, path=want.absolute_path)) == message


ROUND_TRIP = {
    "group": symmetric_group(3),
    "groupoid": mixed_groupoid(),
    "span": fig1_span(),
    "spanmap": groupoidification_map(one_object_groupoid(cyclic_group(2))),
    "identity-spanmap": SpanMap.identity(identity_span(terminal_groupoid())),
}


@pytest.mark.parametrize("value", list(ROUND_TRIP.values()), ids=list(ROUND_TRIP))
def test_round_trip(value):
    data = serialize(value)
    doc = parse_obj(json.loads(data))
    assert doc.payload == value


def test_a_recorded_product_round_trips_to_its_plain_twin():
    # a document records no factors: the product parses back as its table
    # alone, which is another value with the same document
    g = direct_product(symmetric_group(3), cyclic_group(2))
    back = parse_obj(json.loads(serialize(g))).payload
    assert back.factors is None and back.fingerprint == g.fingerprint
    assert back != g and serialize(back) == serialize(g)


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


def _group_doc(spec):
    return {
        "format_version": "1",
        "kind": "group",
        "definitions": {"groups": [dict(name="G", **spec)]},
        "payload": "G",
    }


def _swap_functor_doc(object_map):
    # the functor of a two-object discrete groupoid that swaps its objects
    return {
        "format_version": "1",
        "kind": "functor",
        "definitions": {
            "groups": [{"name": "1", "mult": [[0]]}],
            "groupoids": [
                {
                    "name": "P",
                    "objects": [{"name": "a", "group": "1"}, {"name": "b", "group": "1"}],
                }
            ],
            "functors": [
                {
                    "name": "F",
                    "source": "P",
                    "target": "P",
                    "object_map": object_map,
                    "hom_maps": [[0], [0]],
                }
            ],
        },
        "payload": "F",
    }


@pytest.mark.parametrize(
    "floats, ints",
    [
        (
            _group_doc({"permutation_generators": [[1.0, 0, 2]]}),
            _group_doc({"permutation_generators": [[1, 0, 2]]}),
        ),
        (
            _group_doc({"permutation_generators": [[1, 0]], "degree": 2.0}),
            _group_doc({"permutation_generators": [[1, 0]], "degree": 2}),
        ),
        (_swap_functor_doc([1.0, 0]), _swap_functor_doc([1, 0])),
    ],
    ids=["permutation_generators", "degree", "object_map"],
)
def test_integral_floats_parse_like_integers(floats, ints):
    # JSON Schema accepts 1.0 as an integer, and the resolver converts the
    # fields that index
    assert parse_obj(floats).payload == parse_obj(ints).payload


def test_duplicate_definition_name():
    doc = _group_doc({"mult": [[0]]})
    doc["definitions"]["groups"].append({"name": "G", "mult": [[0, 1], [1, 0]]})
    with pytest.raises(SchemaError, match="duplicate group name 'G'") as err:
        parse_obj(doc)
    assert err.value.path == ["definitions", "groups", 1, "name"]


@pytest.mark.parametrize(
    "spec",
    [{"mult": [[0]], "permutation_generators": [[1, 0]]}, {}, {"mult": [[0]], "degree": 1}],
    ids=["both", "neither", "degree-with-mult"],
)
def test_group_definition_needs_mult_or_generators(spec):
    # checked for every definition, also one that nothing uses
    doc = _group_doc({"mult": [[0]]})
    doc["definitions"]["groups"].append({"name": "H", **spec})
    with pytest.raises(SchemaError, match="group 'H' needs 'mult' or") as err:
        parse_obj(doc)
    assert err.value.path == ["definitions", "groups", 1]


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@pytest.mark.parametrize("kind", KINDS)
def test_conforms_reads_every_schema_keyword(kind):
    # the schema check ignores a keyword outside _KEYWORDS, a type outside
    # _TYPES and an additionalProperties schema, so a schema that gains one
    # fails here first
    subschemas = list(_subschemas(document_schema(kind)))
    assert {k for sub in subschemas for k in sub} <= _KEYWORDS
    assert {sub["type"] for sub in subschemas if "type" in sub} <= set(_TYPES)
    assert {sub.get("additionalProperties", False) for sub in subschemas} == {False}


FIXTURES = {p.name: json.loads(p.read_text()) for p in sorted(pathlib.Path(DATA).glob("*.json"))}
SERIALIZED = {k: json.loads(serialize(v)) for k, v in ROUND_TRIP.items()}


@pytest.mark.parametrize("data", [*FIXTURES.values(), *SERIALIZED.values()],
                         ids=[*FIXTURES, *SERIALIZED])
def test_conforms_accepts_the_fixtures_and_serialized_values(data):
    assert _schema_error(document_schema(data["kind"]), data) is None


# permutation generators and a degree, which no fixture or serialized value has
PERMUTATION_GROUP = _group_doc({"permutation_generators": [[1, 2, 0], [1, 0, 2]], "degree": 3})


@pytest.mark.parametrize(
    "schema, value",
    [
        (document_schema("group"), _group_doc({"permutation_generators": [], "degree": -1})),
        (document_schema("group"), {**_group_doc({"mult": [[0]]}), "payload": ""}),
        ({"type": "string"}, 1.0),
        ({"type": "integer"}, True),
        ({"minimum": 0}, -1.0),
        ({"type": "array"}, (1,)),
        ({"const": "1"}, 1),
        ({"type": "integer", "minimum": 2}, 1),
        ({"type": "object", "additionalProperties": False}, {"x": 1}),
        ({"type": "object", "required": ["name"]}, {"names": "G"}),
        ({"type": "array", "items": {"type": "integer"}}, [0, 2.5]),
        ({"type": "integer"}, float("nan")),
        ({"type": "integer"}, float("inf")),
    ],
)
def test_conforms_declines_invalid_and_undecided_values(schema, value):
    # each keyword the schemas use rejects a value, where jsonschema does
    error = _schema_error(schema, value)
    assert error is not None
    assert list(error[0]) in _jsonschema_paths(schema, value)


_SWAPS = [1.0, True, "", None, [], {}, 10**20, -1, -(10**20), 0, "G", "1",
          2.5, False, 1e20, -1.0, float("nan"), float("inf")]


def _nodes(value, parent=None, key=None):
    """Every (parent, key, node) of a JSON value, the root with parent None."""
    yield parent, key, value
    if isinstance(value, (dict, list)):
        for k, sub in list(value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _nodes(sub, value, k)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([*FIXTURES.values(), *SERIALIZED.values(), PERMUTATION_GROUP]), st.data())
def test_conforms_agrees_with_jsonschema_on_mutants(base, data):
    # the schema check and jsonschema accept the same documents, and each
    # rejection's path is one of jsonschema's error paths
    def swap():
        return copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))

    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        parent, key, node = data.draw(st.sampled_from(list(_nodes(doc))))
        op = data.draw(st.sampled_from(["delete", "add", "swap"]))
        if op == "delete" and node and isinstance(node, (dict, list)):
            del node[data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                               else range(len(node))))]
        elif op == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(["extra", "name", "degree", "mult", "spans"]))] = swap()
        elif op == "add" and isinstance(node, list):
            node.append(swap())
        elif parent is not None:
            parent[key] = swap()
    schema = document_schema(base["kind"])
    error, paths = _schema_error(schema, doc), _jsonschema_paths(schema, doc)
    assert (error is None) == (paths == [])
    if error is not None:
        assert list(error[0]) in paths


# serialize of every span, span map and composable pair's composite of
# random_suite(0..19), recorded before the collector keyed its groupoids and
# functors by their value keys
RANDOM_SUITES_SERIALIZED_DIGEST = (
    "4b86903edcfa5efed9f96a6df401a678416c1b945730e032e0d3a1404ccf69a5"
)


def test_serialized_random_suites_are_unchanged():
    digest = hashlib.sha256()
    for seed in range(20):
        suite = random_suite(seed)
        for value in [*suite.spans, *suite.spanmaps]:
            digest.update(serialize(value))
        for x in suite.spans:
            for xp in suite.spans:
                if x.target == xp.source:
                    digest.update(serialize(compose_spans(x, xp)))
    assert digest.hexdigest() == RANDOM_SUITES_SERIALIZED_DIGEST
