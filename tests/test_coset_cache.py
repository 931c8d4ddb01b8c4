"""The store of invariants that every group of one value shares
(``FinGroup.store``), where ``double_cosets``, ``coset_data``, the conjugacy
classes and ``irreps`` keep their results: each is computed once per value
in a verification run, a warm store gives the same comma categories and
induced models as a cold one, equal hom pairs share their fibred-product
groups, the kept arrays are read-only, a store dies with the last group of
its value, and every comma category and composite of the random suites is
the one the uncached construction built."""

import collections
import gc
import hashlib
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincat.groupoids
import lincat.groups
import lincat.rep
from lincat.errors import GroupMismatch, StrictnessViolation
from lincat.groupoids import (
    GroupoidFunctor,
    comma_category,
    compose_spans,
    horizontal_compose_spanmaps,
    identity_span,
    one_object_groupoid,
    vertical_compose_spanmaps,
)
from lincat.groups import (
    FinGroup,
    GroupHom,
    coset_data,
    double_cosets,
    subgroup_embedding,
    symmetric_group,
)
from lincat.linearization import verify_functoriality
from lincat.rep import induce_rep, irreps, trivial_rep
from lincat.suites import default_suite, random_suite

from fresh import cold, python, relabelled


def composites(suite):
    spans = list(suite.spans)
    return [compose_spans(x, xp) for x in spans for xp in spans if x.target == xp.source]


def comma_record(cat):
    """Everything a comma category holds, as plain values."""
    return (
        [(c.a_idx, c.b_idx, c.c_idx, c.rep, c.fib.name, c.fib.mult.tolist())
         for c in cat.classes],
        cat.groupoid.names,
        [(p.object_map.tolist(), [h.map.tolist() for h in p.hom_maps])
         for p in (cat.proj_left, cat.proj_right)],
        [(key, cc.tolist(), w, ids) for key, (cc, w, ids) in cat.pair_data.items()],
    )


def induction_record(ind):
    """The coset data, invariant basis and matrices of an induced model, as
    bytes, so that equal records are equal bit for bit."""
    return [np.asarray(a).tobytes() for a in (
        ind.coset_reps, ind.coset_index, ind.lift, ind.invariant_basis, ind.matrices)]


def suite_groups(suite):
    gpds = list(suite.groupoids) + [s.apex for s in suite.spans]
    return [g for gpd in gpds for _, g in gpd.objects]


def store_entries(suite):
    """The stores of the suite's groups, as (key, id of the kept entry) pairs."""
    return [[(key, id(v)) for key, v in g.store.items()] for g in suite_groups(suite)]


def suite_records(suite):
    """The comma category of every composite of the suite's spans, and the
    induced models of every irrep along the legs of their first six apex
    objects, as plain values and bytes."""
    out = []
    for x in composites(suite):
        out.append(comma_record(x.comma))
        for i in range(min(len(x.apex), 6)):
            for f in (x.left.hom(i), x.right.hom(i)):
                out.extend(induction_record(induce_rep(f, v)) for v in irreps(f.source))
    return out


# the records of a random suite in a fresh interpreter, where no group value
# is held, so every store starts cold; prints them pickled
_COLD_RECORDS = """
import pickle, sys
from lincat.suites import random_suite
from test_coset_cache import suite_records
print(pickle.dumps(suite_records(random_suite(int(sys.argv[1]), n_spans=4, n_maps=0))).hex())
"""


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_warm_cache_gives_what_a_cold_one_gives(seed):
    warm = random_suite(seed, n_spans=4, n_maps=0)
    suite_records(warm)  # fills the stores of warm's groups
    kept = store_entries(warm)
    got = suite_records(warm)
    # the second pass computed nothing: it read every entry the first kept
    assert store_entries(warm) == kept
    assert any(kept) or not got
    assert got == pickle.loads(bytes.fromhex(python("-c", _COLD_RECORDS, str(seed))))


def test_equal_hom_pairs_share_fib_groups_and_cached_arrays_are_read_only():
    s3 = symmetric_group(3)
    z2, incl = subgroup_embedding(s3, [0, 2], name="Z2")
    twin = GroupHom(z2, s3, incl.map.copy())  # the same hom value, another object
    bz2, bs3 = one_object_groupoid(z2), one_object_groupoid(s3)
    first = comma_category(GroupoidFunctor(bz2, bs3, [0], [incl]),
                           GroupoidFunctor(bz2, bs3, [0], [incl]))
    second = comma_category(GroupoidFunctor(bz2, bs3, [0], [twin]),
                            GroupoidFunctor(bz2, bs3, [0], [twin]))
    assert [c.rep for c in first.classes] == [0, 1]
    assert all(a.fib is b.fib for a, b in zip(first.classes, second.classes))
    cosets = double_cosets(incl, incl)
    ind = induce_rep(incl, trivial_rep(z2))
    for arr in (first.proj_left.hom(0).map, second.proj_right.hom(1).map,
                cosets.coset_class, cosets.classes[0].hs, coset_data(incl).lift,
                coset_data(incl, right=True).reps, coset_data(incl).kernel,
                ind.coset_reps, ind.coset_index, ind.lift):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the pair data is each category's own: its ids are offset, its witness
    # list is a copy
    assert first.pair_data[(0, 0)][0] is not cosets.coset_class
    assert first.pair_data[(0, 0)][1] is not second.pair_data[(0, 0)][1]
    with pytest.raises(GroupMismatch):
        double_cosets(incl, GroupHom(z2, z2, [0, 1]))


def test_coset_cache_is_freed_with_its_group():
    # S3 relabelled: a value no fixture holds
    c = cold(lambda: relabelled(symmetric_group(3)))
    z3 = [a for a in range(c.order) if c.mult[c.mult[a, a], a] == 0]
    sub, incl = subgroup_embedding(c, z3)
    cosets = double_cosets(incl, incl)
    ind = induce_rep(incl, trivial_rep(sub))
    assert {key[0] for key in c.store} == {"double", "left"}
    refs = [weakref.ref(x) for x in
            (c, c.store, cosets.classes[0].fib, cosets.classes[1].fib)]
    del c, sub, incl, cosets, ind
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_a_store_lives_while_a_group_of_its_value_does():
    make = lambda: relabelled(symmetric_group(3))  # noqa: E731
    g = cold(make)
    twin = make()
    assert twin is not g and twin.store is g.store
    # the irreps hold g, so the store holds a group of its own value
    kept = irreps(g)
    sub, incl = subgroup_embedding(g, [0, 1])
    key = ("double", incl.key, incl.key)
    double_cosets(incl, incl)
    store = weakref.ref(g.store)
    del g, kept, sub, incl
    gc.collect()
    assert store() is twin.store and key in twin.store
    assert irreps(twin) is twin.store[("irreps", 1729)]
    del twin
    gc.collect()
    assert store() is None


def test_equal_tables_under_other_names_share_their_invariants(s3):
    a, b = FinGroup(s3.mult, name="A"), FinGroup(s3.mult, name="B")
    assert a.store is b.store is s3.store
    assert a.classes is b.classes is s3.classes
    assert (a.name, b.name, s3.name) == ("A", "B", "S3")


@pytest.mark.parametrize(
    "make",
    [default_suite, lambda: random_suite(5, n_spans=4, n_maps=3)],
    ids=["default", "random-5"],
)
def test_each_invariant_is_computed_once_per_value_in_a_run(make, monkeypatch):
    config = make()
    built = collections.Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            built[name, key(*args)] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(lincat.groups, "conjugacy_classes", lambda g: g.key)
    count(lincat.groups, "_coset_data", lambda f, right: (f.key, right))
    count(lincat.groups, "_double_cosets", lambda fh, gh: (fh.key, gh.key))
    count(lincat.rep, "_irreps_by_splitting", lambda g, seed: (g.key, seed))
    count(lincat.rep, "_irreps_of_product", lambda g, seed: (g.key, seed))
    assert verify_functoriality(config).ok
    assert not collections.Counter(name for (name, _), n in built.items() if n > 1)


# the digest of every comma category, vertical and horizontal composite below,
# recorded from the construction that built each class afresh on every call
RANDOM_SUITES_DIGEST = "bf49fafa95092ef405ef0880368eacd1cd16505d11db991c877440ba4d6e13b1"


def test_comma_categories_of_random_suites_are_unchanged(monkeypatch):
    built = []
    real = lincat.groupoids.comma_category

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lincat.groupoids, "comma_category", recorded)
    digest = hashlib.sha256()

    def feed(*parts):
        for p in parts:
            if isinstance(p, np.ndarray):
                digest.update(str(p.dtype).encode() + str(p.shape).encode() + p.tobytes())
            else:
                digest.update(repr(p).encode())

    def feed_functor(f):
        feed(f.object_map, len(f.hom_maps))
        for h in f.hom_maps:
            feed(h.map, h.source.mult, h.target.mult)

    def feed_composite(make, a, b):
        try:
            y = make(a, b)
        except StrictnessViolation as exc:
            feed("skip", str(exc))
        else:
            feed(y.apex.names)
            feed_functor(y.up)
            feed_functor(y.down)

    count = 0
    for seed in range(20):
        suite = random_suite(seed)
        spans, maps = list(suite.spans), list(suite.spanmaps)
        for i, x in enumerate(spans):
            feed("unitor", seed, i)
            compose_spans(identity_span(x.source), x)
            compose_spans(x, identity_span(x.target))
            for j, xp in enumerate(spans):
                if x.target == xp.source:
                    feed("compose", seed, i, j)
                    compose_spans(x, xp)
        for i, y in enumerate(maps):
            for j, yp in enumerate(maps):
                if y.bottom == yp.top:
                    feed("vertical", seed, i, j)
                    feed_composite(vertical_compose_spanmaps, y, yp)
                if y.top.target == yp.top.source:
                    feed("horizontal", seed, i, j)
                    feed_composite(horizontal_compose_spanmaps, y, yp)
        for cat in built:
            feed(cat.groupoid.names)
            for cls in cat.classes:
                feed(cls.a_idx, cls.b_idx, cls.c_idx, cls.rep, cls.fib.name, cls.fib.mult)
            feed_functor(cat.proj_left)
            feed_functor(cat.proj_right)
            for key, (cc, w, ids) in cat.pair_data.items():
                feed(key, cc, w, ids)
        count += len(built)
        built.clear()
    assert count == 919
    assert digest.hexdigest() == RANDOM_SUITES_DIGEST
