"""JSON documents for groups, groupoids, functors, spans, span maps, suites.

A document carries a ``definitions`` block of named entities plus the name of
its payload.  Rationals serialize as {"num", "den"}, complex numbers as
[re, im] pairs, matrices row-major.  Group documents may give the full
multiplication table or ``permutation_generators`` (one-line permutations),
which are expanded by closure at parse time (with a size cap).

``document_schema(kind)`` is the one schema of each kind.  A document is
first checked by ``_conforms``, which reads the few keywords those schemas
use and accepts only documents that satisfy them; any other document goes to
jsonschema, which decides it and words every rejection.  So a valid document
never imports jsonschema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .errors import IndexOutOfRange, SchemaError, UnresolvedReference
from .groupoids import Groupoid, GroupoidFunctor, Span, SpanMap
from .groups import FinGroup, GroupHom, group_from_permutations, validate_group

FORMAT_VERSION = "1"
KINDS = ("group", "groupoid", "functor", "span", "spanmap", "suite")

_INT_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}
_NAME = {"type": "string", "minLength": 1}

_DEFINITIONS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "groups": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "additionalProperties": False,
                "properties": {
                    "name": _NAME,
                    "mult": _INT_MATRIX,
                    "permutation_generators": _INT_MATRIX,
                    "degree": {"type": "integer", "minimum": 0},
                },
            },
        },
        "groupoids": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "objects"],
                "additionalProperties": False,
                "properties": {
                    "name": _NAME,
                    "objects": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["name", "group"],
                            "additionalProperties": False,
                            "properties": {"name": _NAME, "group": _NAME},
                        },
                    },
                },
            },
        },
        "functors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "source", "target", "object_map", "hom_maps"],
                "additionalProperties": False,
                "properties": {
                    "name": _NAME,
                    "source": _NAME,
                    "target": _NAME,
                    "object_map": {"type": "array", "items": {"type": "integer"}},
                    "hom_maps": _INT_MATRIX,
                },
            },
        },
        "spans": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "apex", "left", "right"],
                "additionalProperties": False,
                "properties": {
                    "name": _NAME,
                    "apex": _NAME,
                    "left": _NAME,
                    "right": _NAME,
                },
            },
        },
        "spanmaps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "top", "bottom", "apex", "up", "down"],
                "additionalProperties": False,
                "properties": {
                    "name": _NAME,
                    "top": _NAME,
                    "bottom": _NAME,
                    "apex": _NAME,
                    "up": _NAME,
                    "down": _NAME,
                },
            },
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


# the JSON types of the schemas; ``type(v) is int`` leaves out bool, which
# jsonschema does too, and integral floats, which it accepts as integers
_TYPES = {"object": dict, "array": list, "string": str, "integer": int}
# every keyword that ``_conforms`` decides; ``$schema`` and ``title`` are
# annotations
_KEYWORDS = frozenset(
    {"$schema", "title", "type", "properties", "required", "additionalProperties",
     "items", "const", "minLength", "minimum"}
)


def _conforms(schema, value) -> bool:
    """True only if ``value`` satisfies ``schema``; False when it does not or
    when this check cannot tell (a keyword outside ``_KEYWORDS``, a bool, a
    float, a container other than dict or list).  False means "ask
    jsonschema": this check never words a rejection."""
    if not schema.keys() <= _KEYWORDS:
        return False
    t = type(value)
    if t not in (dict, list, str, int):
        return False
    if "type" in schema and _TYPES.get(schema["type"]) is not t:
        return False
    if "const" in schema and not (type(schema["const"]) is str and value == schema["const"]):
        return False
    if t is str:
        return len(value) >= schema.get("minLength", 0)
    if t is int:
        return "minimum" not in schema or value >= schema["minimum"]
    if t is dict:
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        if not (extra is True or (extra is False and value.keys() <= props.keys())):
            return False
        return all(k in value for k in schema.get("required", ())) and all(
            _conforms(sub, value[k]) for k, sub in props.items() if k in value
        )
    items = schema.get("items")
    if items is None:
        return True
    return all(_conforms(items, v) for v in value)


@cache
def _validator(kind):
    """The Draft 2020-12 validator of ``document_schema(kind)``, built once per
    kind.  The schemas are constants, so they are checked against the
    metaschema by the test suite rather than on every parse.  jsonschema is
    imported here, for the first document that ``_conforms`` does not accept,
    so that importing lincat or parsing a valid document does not pay for it."""
    import jsonschema

    return jsonschema.Draft202012Validator(document_schema(kind))


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
                specs[spec["name"]] = spec
        self.groups = {}
        self.groupoids = {}
        self.functors = {}
        self.spans = {}
        self.spanmaps = {}

    def _spec(self, section, name):
        spec = self.specs[section].get(name)
        if spec is None:
            raise UnresolvedReference(f"{_SECTIONS[section]} {name!r} is not defined")
        return spec

    def group(self, name):
        if name in self.groups:
            return self.groups[name]
        spec = self._spec("groups", name)
        if "mult" in spec:
            g = validate_group(spec["mult"], name=name)
        elif "permutation_generators" in spec:
            gens = [[int(i) for i in p] for p in spec["permutation_generators"]]
            degree = int(spec.get("degree", max((len(p) for p in gens), default=1)))
            g = group_from_permutations(gens, degree, name=name)
        else:
            raise SchemaError(
                f"group {name!r} needs 'mult' or 'permutation_generators'"
            )
        self.groups[name] = g
        return g

    def groupoid(self, name):
        if name in self.groupoids:
            return self.groupoids[name]
        spec = self._spec("groupoids", name)
        objs = [(o["name"], self.group(o["group"])) for o in spec["objects"]]
        gpd = Groupoid(objs, name=name)
        self.groupoids[name] = gpd
        return gpd

    def functor(self, name):
        if name in self.functors:
            return self.functors[name]
        spec = self._spec("functors", name)
        src = self.groupoid(spec["source"])
        tgt = self.groupoid(spec["target"])
        omap = [int(i) for i in spec["object_map"]]
        if len(omap) != len(spec["hom_maps"]):
            raise IndexOutOfRange(
                f"functor {name!r} has {len(omap)} object images but "
                f"{len(spec['hom_maps'])} hom maps"
            )
        homs = []
        for i, table in enumerate(spec["hom_maps"]):
            homs.append(GroupHom(src.aut(i), tgt.aut(omap[i]), np.array(table)))
        fun = GroupoidFunctor(src, tgt, omap, homs)
        self.functors[name] = fun
        return fun

    def span(self, name):
        if name in self.spans:
            return self.spans[name]
        spec = self._spec("spans", name)
        s = Span(
            self.groupoid(spec["apex"]),
            self.functor(spec["left"]),
            self.functor(spec["right"]),
        )
        self.spans[name] = s
        return s

    def spanmap(self, name):
        if name in self.spanmaps:
            return self.spanmaps[name]
        spec = self._spec("spanmaps", name)
        sm = SpanMap(
            self.span(spec["top"]),
            self.span(spec["bottom"]),
            self.groupoid(spec["apex"]),
            self.functor(spec["up"]),
            self.functor(spec["down"]),
        )
        self.spanmaps[name] = sm
        return sm


def parse_obj(data) -> Document:
    """Validate a raw document object and resolve its payload.  A document
    that ``_conforms`` does not accept is validated by jsonschema, so every
    schema error is jsonschema's message and path."""
    if not isinstance(data, dict):
        raise SchemaError("a document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"unknown or missing document kind {kind!r}")
    if not _conforms(document_schema(kind), data):
        validator = _validator(kind)
        from jsonschema.exceptions import best_match

        # the error jsonschema.validate would raise: the best match among all
        error = best_match(validator.iter_errors(data))
        if error is not None:
            raise SchemaError(error.message, path=list(error.absolute_path))
    resolver = _Resolver(data.get("definitions", {}))
    payload_name = data["payload"]
    if kind == "group":
        payload = resolver.group(payload_name)
    elif kind == "groupoid":
        payload = resolver.groupoid(payload_name)
    elif kind == "functor":
        payload = resolver.functor(payload_name)
    elif kind == "span":
        payload = resolver.span(payload_name)
    elif kind == "spanmap":
        payload = resolver.spanmap(payload_name)
    else:
        payload = {
            "groupoids": [resolver.groupoid(n) for n in payload_name.get("groupoids", [])],
            "spans": [resolver.span(n) for n in payload_name.get("spans", [])],
            "spanmaps": [resolver.spanmap(n) for n in payload_name.get("spanmaps", [])],
        }
    name = payload_name if isinstance(payload_name, str) else "main"
    return Document(kind, payload, data["format_version"], name)


def parse(path) -> Document:
    """Read and resolve a document file."""
    with open(path, "rb") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    return parse_obj(data)


class _Collector:
    """Accumulates named definitions while walking a value's dependencies."""

    def __init__(self):
        self.defs = {k: [] for k in _SECTIONS}
        self._names = {k: {} for k in self.defs}

    def _intern(self, section, obj, key, build, prefer=None):
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
        return self._intern(
            "groups",
            g,
            g.fingerprint,
            lambda name: {"name": name, "mult": g.mult.tolist()},
            prefer=g.name,
        )

    def groupoid(self, gpd: Groupoid):
        return self._intern(
            "groupoids",
            gpd,
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
            f,
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
        key = ("span", self.functor(s.left), self.functor(s.right))
        return self._intern(
            "spans",
            s,
            key,
            lambda name: {
                "name": name,
                "apex": self.groupoid(s.apex),
                "left": self.functor(s.left),
                "right": self.functor(s.right),
            },
            prefer=prefer,
        )

    def spanmap(self, sm: SpanMap, prefer=None):
        key = (
            "spanmap",
            self.span(sm.top),
            self.span(sm.bottom),
            self.functor(sm.up),
            self.functor(sm.down),
        )
        return self._intern(
            "spanmaps",
            sm,
            key,
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
