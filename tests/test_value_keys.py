"""Value keys of homs, groupoids and functors against their element-wise
definitions: ``==`` must decide exactly the element-wise equality, equal
values must hash equal, and a product recorded by ``direct_product`` must
equal the same table built without its factors."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lincat import random_suite
from lincat.groupoids import Groupoid, GroupoidFunctor
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
    return g.mult.shape == h.mult.shape and np.array_equal(g.mult, h.mult)


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


def test_recorded_product_equals_its_plain_twin():
    assert _V4.factors is not None and _TWIN.factors is None
    for h in _homs(4, 6):
        plain = GroupHom(_TWIN, h.target, h.map)
        assert h == plain and hash(h) == hash(plain)
    x, y = Groupoid([("a", _V4)]), Groupoid([("a", _TWIN)])
    assert x == y and hash(x) == hash(y)
    f = GroupoidFunctor.identity(x)
    g = GroupoidFunctor(y, y, [0], [GroupHom(_TWIN, _TWIN, np.arange(4))])
    assert f == g and hash(f) == hash(g)


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
