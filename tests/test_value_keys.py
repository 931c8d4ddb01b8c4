"""Value keys of homs, groupoids, functors, spans and span maps against
their element-wise definitions: ``==`` must decide exactly the element-wise
equality, equal values must hash equal, and a product recorded by
``direct_product`` must differ from the same table built without its
factors, since its irreps do."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincat import random_suite
from lincat.groupoids import Groupoid, GroupoidFunctor, Span, SpanMap
from lincat.groups import (
    FinGroup,
    GroupHom,
    all_homs,
    cyclic_group,
    direct_product,
    symmetric_group,
    trivial_group,
)

_V4 = direct_product(cyclic_group(2), cyclic_group(2))
# the recorded product's plain-table twin, without factors
_TWIN = FinGroup(_V4.mult, name="V4")
_POOL = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4), _V4,
         _TWIN, symmetric_group(3)]


@functools.cache
def _homs(i, j):
    return all_homs(_POOL[i], _POOL[j])


@functools.cache
def _suite_legs(seed):
    suite = random_suite(seed)
    return [f for x in suite.spans for f in (x.left, x.right)]


def _same_group(g, h):
    """Equal tables, and equal factors or none on both sides."""
    if not (g.mult.shape == h.mult.shape and np.array_equal(g.mult, h.mult)):
        return False
    if g.factors is None or h.factors is None:
        return g.factors is h.factors
    return all(map(_same_group, g.factors, h.factors))


def _same_hom(a, b):
    return (_same_group(a.source, b.source) and _same_group(a.target, b.target)
            and np.array_equal(a.map, b.map))


def _same_groupoid(x, y):
    return (len(x) == len(y)
            and all(n == m and _same_group(g, h)
                    for (n, g), (m, h) in zip(x.objects, y.objects)))


def _same_functor(f, g):
    return (_same_groupoid(f.source, g.source) and _same_groupoid(f.target, g.target)
            and np.array_equal(f.object_map, g.object_map)
            and all(_same_hom(a, b) for a, b in zip(f.hom_maps, g.hom_maps)))


def _check(a, b, same):
    assert (a == b) == same(a, b)
    assert (a != b) == (not same(a, b))
    if a == b:
        assert hash(a) == hash(b)


def _rebuilt_hom(h, twin):
    """An equal hom held by new objects, on ``_TWIN`` in place of ``_V4``
    when ``twin`` is set."""
    def swap(g):
        return _TWIN if twin and g == _V4 else g

    return GroupHom(swap(h.source), swap(h.target), h.map.copy())


@st.composite
def pool_homs(draw):
    """A hom between two pool groups, possibly rebuilt on new objects."""
    n = len(_POOL)
    homs = _homs(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    h = draw(st.sampled_from(homs))
    return _rebuilt_hom(h, draw(st.booleans())) if draw(st.booleans()) else h


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(pool_homs(), pool_homs())
def test_hom_equality_is_the_elementwise_definition(a, b):
    _check(a, b, _same_hom)
    _check(a, _rebuilt_hom(a, True), _same_hom)


def test_a_group_key_without_its_factors_fails_the_property(monkeypatch):
    monkeypatch.setattr(FinGroup, "key", property(lambda g: g.fingerprint))
    # homs keep their keys: drop the pool's, built before the mutant
    _homs.cache_clear()
    try:
        with pytest.raises(AssertionError):
            test_hom_equality_is_the_elementwise_definition()
    finally:
        _homs.cache_clear()


def test_recorded_product_differs_from_its_plain_twin():
    assert _V4.factors is not None and _TWIN.factors is None
    assert _V4 != _TWIN and _V4.fingerprint == _TWIN.fingerprint
    again = direct_product(cyclic_group(2), cyclic_group(2))
    assert _V4 == again and hash(_V4) == hash(again)
    for h in _homs(4, 6):
        assert h != GroupHom(_TWIN, h.target, h.map)
        rebuilt = GroupHom(again, h.target, h.map.copy())
        assert h == rebuilt and hash(h) == hash(rebuilt)
    x, y = Groupoid([("a", _V4)]), Groupoid([("a", _TWIN)])
    assert x != y
    assert x == Groupoid([("a", again)]) and hash(x) == hash(Groupoid([("a", again)]))
    f = GroupoidFunctor.identity(x)
    g = GroupoidFunctor(y, y, [0], [GroupHom(_TWIN, _TWIN, np.arange(4))])
    assert f != g


def _rebuilt_functor(f, homs=None, rename=None):
    """An equal functor held by new groupoid, hom and array objects; or,
    with ``homs``, the functor with those homs, and with ``rename``, with
    that source object renamed."""
    objects = [(f"{n}'" if i == rename else n, g)
               for i, (n, g) in enumerate(f.source.objects)]
    src = Groupoid(objects, name="copy")
    tgt = Groupoid(list(f.target.objects))
    homs = homs or [GroupHom(h.source, h.target, h.map.copy()) for h in f.hom_maps]
    return GroupoidFunctor(src, tgt, f.object_map.copy(), homs)


@st.composite
def suite_legs(draw):
    """A leg of a span of one of the random suites 0..19; possibly rebuilt,
    with one hom replaced by another between the same groups, or with one
    source object renamed."""
    f = draw(st.sampled_from(_suite_legs(draw(st.integers(0, 19)))))
    i = draw(st.integers(0, len(f.source) - 1))
    change = draw(st.sampled_from(["none", "rebuild", "hom", "name"]))
    if change == "rebuild":
        return _rebuilt_functor(f)
    if change == "hom":
        homs = list(f.hom_maps)
        homs[i] = draw(st.sampled_from(all_homs(homs[i].source, homs[i].target)))
        return _rebuilt_functor(f, homs=homs)
    if change == "name":
        return _rebuilt_functor(f, rename=i)
    return f


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(suite_legs(), suite_legs())
def test_functor_and_apex_equality_is_the_elementwise_definition(f, g):
    _check(f, g, _same_functor)
    _check(f.source, g.source, _same_groupoid)
    _check(f.target, g.source, _same_groupoid)
    _check(f, _rebuilt_functor(f), _same_functor)
    for i in range(min(len(f.source), len(g.source))):
        _check(f.hom(i), g.hom(i), _same_hom)
    for i in range(len(f.source)):
        _check(f, _rebuilt_functor(f, rename=i), _same_functor)
        _check(f.source, _rebuilt_functor(f, rename=i).source, _same_groupoid)


@functools.cache
def _suite_values(seed):
    """The spans (with the maps' top and bottom spans) and the span maps of
    random suite ``seed``."""
    suite = random_suite(seed)
    spans = list(suite.spans) + [x for y in suite.spanmaps for x in (y.top, y.bottom)]
    return spans, list(suite.spanmaps)


def _same_span(x, y):
    return _same_functor(x.left, y.left) and _same_functor(x.right, y.right)


def _same_spanmap(a, b):
    return (_same_span(a.top, b.top) and _same_span(a.bottom, b.bottom)
            and _same_functor(a.up, b.up) and _same_functor(a.down, b.down))


def _rebuilt_span(x, rename=None):
    """An equal span held by new objects, without ``comma`` or ``factors``;
    with ``rename``, with that apex object renamed."""
    left, right = (_rebuilt_functor(f, rename=rename) for f in (x.left, x.right))
    return Span(left.source, left, right)


@st.composite
def suite_spans(draw):
    """A span of one of the random suites 0..19 and a variant of it: the
    span itself, rebuilt, with one apex object renamed, or with one hom of
    one leg replaced by another between the same groups."""
    x = draw(st.sampled_from(_suite_values(draw(st.integers(0, 19)))[0]))
    i = draw(st.integers(0, len(x.apex) - 1))
    change = draw(st.sampled_from(["none", "rebuild", "name", "left", "right"]))
    if change == "rebuild":
        return x, _rebuilt_span(x)
    if change == "name":
        return x, _rebuilt_span(x, rename=i)
    if change in ("left", "right"):
        leg = getattr(x, change)
        homs = list(leg.hom_maps)
        homs[i] = draw(st.sampled_from(all_homs(homs[i].source, homs[i].target)))
        legs = {"left": x.left, "right": x.right, change: _rebuilt_functor(leg, homs=homs)}
        return x, Span(legs[change].source, legs["left"], legs["right"])
    return x, x


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(suite_spans(), suite_spans())
def test_span_equality_is_the_elementwise_definition(xs, ys):
    (x, xv), (y, yv) = xs, ys
    _check(x, xv, _same_span)
    _check(xv, yv, _same_span)
    _check(x, _rebuilt_span(x), _same_span)
    for i in range(len(x.apex)):
        _check(x, _rebuilt_span(x, rename=i), _same_span)


def test_a_span_key_without_its_right_leg_fails_the_property(monkeypatch):
    monkeypatch.setattr(Span, "key", property(lambda x: x.left.key))
    with pytest.raises(AssertionError):
        test_span_equality_is_the_elementwise_definition()


def _rebuilt_spanmap(y, rename=None):
    """An equal span map held by new objects, its spans rebuilt; with
    ``rename``, with that apex object renamed."""
    top, bottom = _rebuilt_span(y.top), _rebuilt_span(y.bottom)

    def leg(f, span):
        g = _rebuilt_functor(f, rename=rename)
        return GroupoidFunctor(g.source, span.apex, g.object_map, g.hom_maps)

    up, down = leg(y.up, top), leg(y.down, bottom)
    return SpanMap(top, bottom, up.source, up, down)


@st.composite
def suite_spanmaps(draw):
    """A span map of one of the random suites 0..19 and a variant of it: the
    map itself, rebuilt, with one apex object renamed, or upside down."""
    y = draw(st.sampled_from(_suite_values(draw(st.integers(0, 19)))[1]))
    change = draw(st.sampled_from(["none", "rebuild", "name", "flip"]))
    if change == "rebuild":
        return y, _rebuilt_spanmap(y)
    if change == "name":
        return y, _rebuilt_spanmap(y, rename=draw(st.integers(0, len(y.apex) - 1)))
    if change == "flip":
        return y, SpanMap(y.bottom, y.top, y.apex, y.down, y.up)
    return y, y


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(suite_spanmaps(), suite_spanmaps())
def test_spanmap_equality_is_the_elementwise_definition(ys, zs):
    (a, av), (b, bv) = ys, zs
    _check(a, av, _same_spanmap)
    _check(av, bv, _same_spanmap)
    _check(a, _rebuilt_spanmap(a), _same_spanmap)
    for i in range(len(a.apex)):
        _check(a, _rebuilt_spanmap(a, rename=i), _same_spanmap)
