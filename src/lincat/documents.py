"""JSON documents for groups, groupoids, functors, spans, span maps, suites.

A document carries a ``definitions`` block of named entities plus the name of
its payload.  Rationals serialize as {"num", "den"}, complex numbers as
[re, im] pairs, matrices row-major.  Group documents give either the full
multiplication table or ``permutation_generators`` (one-line permutations),
which are expanded by closure at parse time (with a size cap).

``document_schema(kind)`` is the one schema of each kind, and
``_schema_error`` is its one validator: it reads the few keywords those
schemas use, as JSON Schema defines them, and words every rejection with the
path of the first failing value.  Validating a document needs only the
standard library; the test suite checks the validator against jsonschema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IndexOutOfRange, SchemaError, UnresolvedReference
from .groupoids import Groupoid, GroupoidFunctor, Span, SpanMap
from .groups import FinGroup, GroupHom, group_from_permutations, validate_group

FORMAT_VERSION = "1"
KINDS = ("group", "groupoid", "functor", "span", "spanmap", "suite")

_INT_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}
_NAME = {"type": "string", "minLength": 1}


def _record(properties, required=None):
    """The schema of an object with no keys but ``properties``, all of them
    required unless ``required`` lists some."""
    return {
        "type": "object",
        "required": list(properties) if required is None else required,
        "additionalProperties": False,
        "properties": properties,
    }


_DEFINITIONS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "groups": {
            "type": "array",
            "items": _record(
                {
                    "name": _NAME,
                    "mult": _INT_MATRIX,
                    "permutation_generators": _INT_MATRIX,
                    "degree": {"type": "integer", "minimum": 0},
                },
                required=["name"],
            ),
        },
        "groupoids": {
            "type": "array",
            "items": _record(
                {
                    "name": _NAME,
                    "objects": {
                        "type": "array",
                        "items": _record({"name": _NAME, "group": _NAME}),
                    },
                }
            ),
        },
        "functors": {
            "type": "array",
            "items": _record(
                {
                    "name": _NAME,
                    "source": _NAME,
                    "target": _NAME,
                    "object_map": {"type": "array", "items": {"type": "integer"}},
                    "hom_maps": _INT_MATRIX,
                }
            ),
        },
        "spans": {
            "type": "array",
            "items": _record(dict.fromkeys(["name", "apex", "left", "right"], _NAME)),
        },
        "spanmaps": {
            "type": "array",
            "items": _record(
                dict.fromkeys(["name", "top", "bottom", "apex", "up", "down"], _NAME)
            ),
        },
    },
}

_SUITE_PAYLOAD = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "groupoids": {"type": "array", "items": _NAME},
        "spans": {"type": "array", "items": _NAME},
        "spanmaps": {"type": "array", "items": _NAME},
    },
}


def document_schema(kind):
    if kind not in KINDS:
        raise SchemaError(f"unknown document kind {kind!r}")
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "title": f"lincat {kind} document",
        "type": "object",
        "required": ["format_version", "kind", "definitions", "payload"],
        "additionalProperties": False,
        "properties": {
            "format_version": {"const": FORMAT_VERSION},
            "kind": {"const": kind},
            "definitions": _DEFINITIONS_SCHEMA,
            "payload": _SUITE_PAYLOAD if kind == "suite" else _NAME,
        },
    }


# the JSON types of the schemas, as JSON Schema defines them: 1.0 is an
# integer and True is not
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: type(v) is int or isinstance(v, float) and v.is_integer(),
}
# every keyword that ``_schema_error`` decides; ``$schema`` and ``title`` are
# annotations
_KEYWORDS = frozenset(
    {"$schema", "title", "type", "properties", "required", "additionalProperties",
     "items", "const", "minLength", "minimum"}
)


def _schema_error(schema, value, path=()):
    """``(path, message)`` of the first value that fails ``schema``, or None.
    A node's keywords are checked in the order below, then its properties in
    schema order and its items in index order; the messages are jsonschema's."""
    t = schema.get("type")
    if t is not None and not _TYPES[t](value):
        return path, f"{value!r} is not of type {t!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if isinstance(value, str) and len(value) < schema.get("minLength", 0):
        return path, f"{value!r} should be non-empty"
    if "minimum" in schema and type(value) in (int, float) and value < schema["minimum"]:
        return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
    if isinstance(value, dict):
        for k in schema.get("required", ()):
            if k not in value:
                return path, f"{k!r} is a required property"
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            extra = sorted((k for k in value if k not in props), key=str)
            if extra:
                return path, "Additional properties are not allowed ({} {} unexpected)".format(
                    ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
                )
        for k, sub in props.items():
            if k in value and (error := _schema_error(sub, value[k], (*path, k))):
                return error
    if isinstance(value, list) and "items" in schema:
        for i, v in enumerate(value):
            if error := _schema_error(schema["items"], v, (*path, i)):
                return error
    return None


@dataclass
class Document:
    kind: str
    payload: object
    format_version: str = FORMAT_VERSION
    name: str = "main"


# the definitions sections, with the noun their errors use
_SECTIONS = {
    "groups": "group",
    "groupoids": "groupoid",
    "functors": "functor",
    "spans": "span",
    "spanmaps": "span map",
}
# the keys beside its name that a group definition may have
_GROUP_KEYS = ({"mult"}, {"permutation_generators"}, {"permutation_generators", "degree"})


class _Resolver:
    """Builds named definitions on demand, each once.  Runs on a document the
    schema has accepted, so integer fields may still hold integral floats
    such as ``1.0``; those that index or count are converted with ``int``."""

    def __init__(self, defs):
        self.specs = {}
        for section, noun in _SECTIONS.items():
            specs = self.specs[section] = {}
            for i, spec in enumerate(defs.get(section, [])):
                if spec["name"] in specs:
                    raise SchemaError(
                        f"duplicate {noun} name {spec['name']!r}",
                        path=["definitions", section, i, "name"],
                    )
                if section == "groups" and spec.keys() - {"name"} not in _GROUP_KEYS:
                    raise SchemaError(
                        f"group {spec['name']!r} needs 'mult' or 'permutation_generators', "
                        "and 'degree' only beside the generators",
                        path=["definitions", section, i],
                    )
                specs[spec["name"]] = spec
        self.built = {}

    def get(self, section, name):
        """The value that definitions ``section`` names ``name``."""
        if (section, name) not in self.built:
            spec = self.specs[section].get(name)
            if spec is None:
                raise UnresolvedReference(f"{_SECTIONS[section]} {name!r} is not defined")
            self.built[section, name] = self._BUILDERS[section](self, name, spec)
        return self.built[section, name]

    def _group(self, name, spec):
        if "mult" in spec:
            return validate_group(spec["mult"], name=name)
        gens = [[int(i) for i in p] for p in spec["permutation_generators"]]
        degree = int(spec.get("degree", max((len(p) for p in gens), default=1)))
        return group_from_permutations(gens, degree, name=name)

    def _groupoid(self, name, spec):
        return Groupoid(
            [(o["name"], self.get("groups", o["group"])) for o in spec["objects"]], name=name
        )

    def _functor(self, name, spec):
        src = self.get("groupoids", spec["source"])
        tgt = self.get("groupoids", spec["target"])
        omap = [int(i) for i in spec["object_map"]]
        if len(omap) != len(spec["hom_maps"]):
            raise IndexOutOfRange(
                f"functor {name!r} has {len(omap)} object images but "
                f"{len(spec['hom_maps'])} hom maps"
            )
        homs = [
            GroupHom(src.aut(i), tgt.aut(omap[i]), np.array(table))
            for i, table in enumerate(spec["hom_maps"])
        ]
        return GroupoidFunctor(src, tgt, omap, homs)

    def _span(self, name, spec):
        return Span(
            self.get("groupoids", spec["apex"]),
            self.get("functors", spec["left"]),
            self.get("functors", spec["right"]),
        )

    def _spanmap(self, name, spec):
        return SpanMap(
            self.get("spans", spec["top"]),
            self.get("spans", spec["bottom"]),
            self.get("groupoids", spec["apex"]),
            self.get("functors", spec["up"]),
            self.get("functors", spec["down"]),
        )

    _BUILDERS = {
        "groups": _group,
        "groupoids": _groupoid,
        "functors": _functor,
        "spans": _span,
        "spanmaps": _spanmap,
    }


# the definitions section of each kind's payload; a suite's payload lists
# names from the sections of ``_SUITE_PAYLOAD``
_KIND_SECTIONS = {kind: kind + "s" for kind in KINDS if kind != "suite"}


def parse_obj(data) -> Document:
    """Validate a raw document object and resolve its payload.  A document
    that fails its schema raises SchemaError with the path of the first
    failing value."""
    if not isinstance(data, dict):
        raise SchemaError("a document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown or missing document kind {kind!r}")
    error = _schema_error(document_schema(kind), data)
    if error is not None:
        raise SchemaError(error[1], path=error[0])
    resolver = _Resolver(data.get("definitions", {}))
    payload_name = data["payload"]
    if kind == "suite":
        payload = {
            section: [resolver.get(section, n) for n in payload_name.get(section, [])]
            for section in _SUITE_PAYLOAD["properties"]
        }
    else:
        payload = resolver.get(_KIND_SECTIONS[kind], payload_name)
    name = payload_name if isinstance(payload_name, str) else "main"
    return Document(kind, payload, data["format_version"], name)


def parse(path) -> Document:
    """Read and resolve a document file."""
    with open(path, "rb") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON, undecodable bytes or a number with
            # too many digits; RecursionError: nesting too deep to decode
            raise SchemaError(f"not valid JSON: {exc}") from None
    return parse_obj(data)


class _Collector:
    """Accumulates named definitions while walking a value's dependencies."""

    def __init__(self):
        self.defs = {k: [] for k in _SECTIONS}
        self._names = {k: {} for k in self.defs}

    def _intern(self, section, key, build, prefer=None):
        known = self._names[section]
        if key in known:
            return known[key]
        base = prefer or f"{section[:-1]}{len(known)}"
        name = base
        counter = 1
        taken = {d["name"] for d in self.defs[section]}
        while name in taken:
            counter += 1
            name = f"{base}#{counter}"
        entry = build(name)
        self.defs[section].append(entry)
        known[key] = name
        return name

    def group(self, g: FinGroup):
        # a document records no factors, so one table is one definition
        return self._intern(
            "groups",
            g.fingerprint,
            lambda name: {"name": name, "mult": g.mult.tolist()},
            prefer=g.name,
        )

    def groupoid(self, gpd: Groupoid):
        return self._intern(
            "groupoids",
            ("gpd", gpd.key),
            lambda name: {
                "name": name,
                "objects": [
                    {"name": n, "group": self.group(gg)} for n, gg in gpd.objects
                ],
            },
            prefer=gpd.name,
        )

    def functor(self, f: GroupoidFunctor, prefer=None):
        return self._intern(
            "functors",
            ("fun", f.key),
            lambda name: {
                "name": name,
                "source": self.groupoid(f.source),
                "target": self.groupoid(f.target),
                "object_map": f.object_map.tolist(),
                "hom_maps": [h.map.tolist() for h in f.hom_maps],
            },
            prefer=prefer,
        )

    def span(self, s: Span, prefer=None):
        return self._intern(
            "spans",
            ("span", s.key),
            lambda name: {
                "name": name,
                "apex": self.groupoid(s.apex),
                "left": self.functor(s.left),
                "right": self.functor(s.right),
            },
            prefer=prefer,
        )

    def spanmap(self, sm: SpanMap, prefer=None):
        return self._intern(
            "spanmaps",
            ("spanmap", sm.key),
            lambda name: {
                "name": name,
                "top": self.span(sm.top),
                "bottom": self.span(sm.bottom),
                "apex": self.groupoid(sm.apex),
                "up": self.functor(sm.up),
                "down": self.functor(sm.down),
            },
            prefer=prefer,
        )


def to_document_obj(value, name="main"):
    """Raw document object for a FinGroup, Groupoid, GroupoidFunctor, Span or
    SpanMap (or a Document wrapping one of those, or a suite dict)."""
    if isinstance(value, Document):
        return to_document_obj(value.payload, name=value.name)
    col = _Collector()
    if isinstance(value, FinGroup):
        kind, payload = "group", col.group(value)
    elif isinstance(value, Groupoid):
        kind, payload = "groupoid", col.groupoid(value)
    elif isinstance(value, GroupoidFunctor):
        kind, payload = "functor", col.functor(value, prefer=name)
    elif isinstance(value, Span):
        kind, payload = "span", col.span(value, prefer=name)
    elif isinstance(value, SpanMap):
        kind, payload = "spanmap", col.spanmap(value, prefer=name)
    elif isinstance(value, dict):
        kind = "suite"
        payload = {
            "groupoids": [col.groupoid(g) for g in value.get("groupoids", [])],
            "spans": [col.span(s) for s in value.get("spans", [])],
            "spanmaps": [col.spanmap(m) for m in value.get("spanmaps", [])],
        }
    else:
        raise SchemaError(f"cannot serialize value of type {type(value).__name__}")
    defs = {k: v for k, v in col.defs.items() if v}
    return {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "definitions": defs,
        "payload": payload,
    }


def serialize(value, name="main") -> bytes:
    """Canonical bytes of a value's document; parse(serialize(v)) == v."""
    obj = to_document_obj(value, name=name)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


# -- canonical JSON helpers used by the CLI ---------------------------------


def rational_obj(q: Fraction):
    return {"num": q.numerator, "den": q.denominator}


def complex_obj(z):
    z = complex(z)
    return [z.real, z.imag]


def complex_matrix_obj(m):
    m = np.asarray(m, dtype=complex)
    return [[complex_obj(z) for z in row] for row in m]


def rational_matrix_obj(rows):
    return [[rational_obj(q) for q in row] for row in rows]


def dump_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
