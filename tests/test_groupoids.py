import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincat.errors import (
    SpanMismatch,
    StrictnessViolation,
    TargetMismatch,
)
from lincat.groupoids import (
    Groupoid,
    GroupoidFunctor,
    Span,
    SpanMap,
    comma_category,
    compose_spans,
    discrete_groupoid,
    groupoid_cardinality,
    horizontal_compose_spanmaps,
    identity_span,
    one_object_groupoid,
    reverse_span,
    terminal_groupoid,
    vertical_compose_spanmaps,
)
from lincat.groups import (
    GroupHom,
    _check_table,
    all_homs,
    cyclic_group,
    direct_product,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    trivial_hom,
)
from lincat.linearization import degroupoidify_2cell
from lincat.suites import (
    fig1_span,
    groupoidification_map,
    mixed_groupoid,
    span_over_points,
)


def all_subgroups(g):
    """Oracle: every subgroup of a small group by subset closure check."""
    elements = range(g.order)
    subs = []
    for r in range(1, g.order + 1):
        for combo in itertools.combinations(elements, r):
            s = set(combo)
            if 0 not in s:
                continue
            closed = all(g.mul(a, b) in s for a in s for b in s)
            if closed and all(g.inv[a] in s for a in s):
                subs.append(sorted(s))
    return subs


def double_coset_oracle(g, left_elems, right_elems):
    """Oracle: orbits of Aut(c) under m -> u*m*v for u in H', v in K'."""
    remaining = set(range(g.order))
    orbits = []
    while remaining:
        m = min(remaining)
        orbit = {g.mul(g.mul(u, m), v) for u in left_elems for v in right_elems}
        orbits.append(sorted(orbit))
        remaining -= orbit
    return orbits


# --- cardinality ------------------------------------------------------------


def test_cardinality_empty():
    assert groupoid_cardinality(Groupoid([])) == Fraction(0, 1)


def test_cardinality_bz2():
    g = one_object_groupoid(cyclic_group(2))
    assert groupoid_cardinality(g) == Fraction(1, 2)


def test_cardinality_mixed_exact():
    # oracle: exact rational sum 1 + 1/2 + 1/6
    expect = Fraction(1, 1) + Fraction(1, 2) + Fraction(1, 6)
    assert expect == Fraction(5, 3)
    assert groupoid_cardinality(mixed_groupoid()) == Fraction(5, 3)


def test_cardinality_additive_over_disjoint_union():
    from lincat.groupoids import disjoint_union

    a = one_object_groupoid(cyclic_group(3), "a")
    b = discrete_groupoid(["p", "q"])
    u = disjoint_union(a, b)
    assert groupoid_cardinality(u) == groupoid_cardinality(a) + groupoid_cardinality(b)


# --- weak pullbacks ---------------------------------------------------------


def test_pullback_of_identities_on_point():
    one = terminal_groupoid()
    f = GroupoidFunctor.identity(one)
    pb = comma_category(f, f).groupoid
    assert len(pb) == 1
    assert pb.aut(0).order == 1


def test_pullback_bz2_in_bs3_double_cosets(s3):
    sub, incl = subgroup_embedding(s3, [0, 2], name="Z2")
    bz2 = one_object_groupoid(sub)
    bs3 = one_object_groupoid(s3)
    f = GroupoidFunctor(bz2, bs3, [0], [incl])
    pb = comma_category(f, f).groupoid
    # oracle: double cosets of <(12)> in S3
    orbits = double_coset_oracle(s3, [0, 2], [0, 2])
    assert sorted(len(o) for o in orbits) == [2, 4]
    assert len(pb) == len(orbits) == 2
    assert sorted(pb.aut(i).order for i in range(len(pb))) == [1, 2]
    assert groupoid_cardinality(pb) == Fraction(3, 2)
    # orbit-stabilizer: 3/2 == 6 / (2*2)
    assert Fraction(3, 2) == Fraction(s3.order, 2 * 2)


def test_pullback_disjoint_images():
    two = discrete_groupoid(["a", "b"])
    one_pt = discrete_groupoid(["p"])
    t = trivial_group()
    f = GroupoidFunctor(one_pt, two, [0], [trivial_hom(t, t)])
    g = GroupoidFunctor(one_pt, two, [1], [trivial_hom(t, t)])
    pb = comma_category(f, g).groupoid
    assert len(pb) == 0
    assert groupoid_cardinality(pb) == Fraction(0, 1)


def test_pullback_cardinality_all_subgroup_pairs_of_s3(s3):
    """|pullback of BH -> BG <- BK| == |G| / (|H| |K|) for injective legs."""
    bs3 = one_object_groupoid(s3)
    subgroups = all_subgroups(s3)
    assert len(subgroups) == 6  # 1, three Z2s, Z3, S3
    for helems in subgroups:
        for kelems in subgroups:
            hsub, hincl = subgroup_embedding(s3, helems)
            ksub, kincl = subgroup_embedding(s3, kelems)
            f = GroupoidFunctor(one_object_groupoid(hsub), bs3, [0], [hincl])
            g = GroupoidFunctor(one_object_groupoid(ksub), bs3, [0], [kincl])
            pb = comma_category(f, g).groupoid
            assert groupoid_cardinality(pb) == Fraction(
                s3.order, len(helems) * len(kelems)
            )


def test_pullback_target_mismatch():
    one = terminal_groupoid()
    bz2 = one_object_groupoid(cyclic_group(2))
    f = GroupoidFunctor.identity(one)
    g = GroupoidFunctor.identity(bz2)
    with pytest.raises(TargetMismatch):
        comma_category(f, g)


def test_pullback_projections_are_functors(z2_in_s3, s3):
    bz2 = one_object_groupoid(z2_in_s3.source)
    bs3 = one_object_groupoid(s3)
    f = GroupoidFunctor(bz2, bs3, [0], [z2_in_s3])
    cat = comma_category(f, f)
    # fibred product at the identity coset is the diagonal copy of Z2
    cls = cat.classes[0]
    assert cls.rep == 0
    assert cat.proj_left.hom(0).map.tolist() == [0, 1]
    assert cat.proj_right.hom(0).map.tolist() == [0, 1]
    # witnesses cover all of Aut(c)
    assert all(w is not None for w in cat.pair_data[(0, 0)][1])


# --- span composition -------------------------------------------------------


def fiber_product_oracle(x: Span, xp: Span):
    """Oracle for trivial-aut spans: pairs of apex objects agreeing over the
    shared foot."""
    pairs = []
    for i in range(len(x.apex)):
        for j in range(len(xp.apex)):
            if x.right(i) == xp.left(j):
                pairs.append((i, j))
    return pairs


def iso_class_data(x: Span):
    """Multiset fingerprint of a span: (left object, right object, aut order)
    per apex object, sorted, to compare composites up to isomorphism."""
    return sorted(
        (x.left(i), x.right(i), x.apex.aut(i).order) for i in range(len(x.apex))
    )


def test_compose_with_identity_keeps_iso_class_data():
    fig1 = fig1_span()
    left_unit = compose_spans(identity_span(fig1.source), fig1)
    right_unit = compose_spans(fig1, identity_span(fig1.target))
    assert iso_class_data(left_unit) == iso_class_data(fig1)
    assert iso_class_data(right_unit) == iso_class_data(fig1)
    bz2span = span_over_points(one_object_groupoid(cyclic_group(2)))
    unit = compose_spans(identity_span(bz2span.source), bz2span)
    assert iso_class_data(unit) == iso_class_data(bz2span)


def test_compose_fig1_with_reverse_counts():
    fig1 = fig1_span()
    rev = reverse_span(fig1)
    fwd = compose_spans(fig1, rev)  # pairs agreeing over the two-point foot
    assert len(fwd.apex) == len(fiber_product_oracle(fig1, rev)) == 8
    back = compose_spans(rev, fig1)  # pairs agreeing over the three-point foot
    assert len(back.apex) == len(fiber_product_oracle(rev, fig1)) == 6
    assert all(back.apex.aut(i).order == 1 for i in range(len(back.apex)))


def test_compose_bz2_over_point():
    one = terminal_groupoid()
    bz2 = one_object_groupoid(cyclic_group(2))
    x = Span(bz2, GroupoidFunctor.identity(bz2), GroupoidFunctor.to_terminal(bz2, one))
    xp = Span(bz2, GroupoidFunctor.to_terminal(bz2, one), GroupoidFunctor.identity(bz2))
    comp = compose_spans(x, xp)
    # oracle: one double coset over the trivial group, fibred product Z2 x Z2
    assert len(comp.apex) == 1
    assert comp.apex.aut(0).order == 4


def test_compose_associativity_iso_class_data():
    fig1 = fig1_span()
    rev = reverse_span(fig1)
    a, b, c = fig1, rev, fig1
    left = compose_spans(compose_spans(a, b), c)
    right = compose_spans(a, compose_spans(b, c))
    assert iso_class_data(left) == iso_class_data(right)


def test_compose_target_mismatch():
    fig1 = fig1_span()
    with pytest.raises(TargetMismatch):
        compose_spans(fig1, fig1)


def test_reverse_involution():
    fig1 = fig1_span()
    assert reverse_span(reverse_span(fig1)) == fig1


def test_identity_span_empty():
    s = identity_span(Groupoid([]))
    assert len(s.apex) == 0


# --- span maps --------------------------------------------------------------


def test_spanmap_strictness_enforced():
    bz2 = one_object_groupoid(cyclic_group(2))
    one = terminal_groupoid()
    x1 = span_over_points(bz2)
    x2 = span_over_points(one)
    up = GroupoidFunctor.identity(bz2)
    down = GroupoidFunctor.to_terminal(bz2, one)
    sm = SpanMap(x1, x2, bz2, up, down)  # strict: everything lands in 1
    assert sm.up == up
    # mismatched feet raise
    with pytest.raises(SpanMismatch):
        SpanMap(x1, fig1_span(), bz2, up, down)


def essential_preimage_cardinality(sm, x1, x2):
    """Sum of 1/#Aut(y) over the apex objects y over (x1, x2), read off the
    2-cell's rational matrix."""
    return degroupoidify_2cell(sm)[x2][x1] / sm.top.apex.aut(x1).order


def test_essential_preimage_cardinality_cases():
    bz2 = one_object_groupoid(cyclic_group(2))
    gm = groupoidification_map(bz2)
    assert essential_preimage_cardinality(gm, 0, 0) == Fraction(1, 2)
    mixed = mixed_groupoid()
    gmx = groupoidification_map(mixed)
    assert essential_preimage_cardinality(gmx, 0, 0) == Fraction(5, 3)
    # empty preimage over a non-hit pair
    fig1 = fig1_span()
    ident = SpanMap.identity(fig1)
    assert essential_preimage_cardinality(ident, 0, 1) == Fraction(0, 1)


def z2_z3_preimage_sum():
    a = Groupoid([("u", cyclic_group(2)), ("v", cyclic_group(3))])
    one = terminal_groupoid()
    return groupoidification_map(a)


def test_essential_preimage_two_groups():
    gm = z2_z3_preimage_sum()
    assert essential_preimage_cardinality(gm, 0, 0) == Fraction(5, 6)


def test_vertical_compose_with_identity():
    bz2 = one_object_groupoid(cyclic_group(2))
    gm = groupoidification_map(bz2)
    comp = vertical_compose_spanmaps(gm, SpanMap.identity(gm.bottom))
    assert iso_class_data_spanmap(comp) == iso_class_data_spanmap(gm)


def iso_class_data_spanmap(sm):
    return sorted(
        (sm.up(i), sm.down(i), sm.apex.aut(i).order) for i in range(len(sm.apex))
    )


def test_vertical_compose_trivial_groups_is_fiber_product():
    fig1 = fig1_span()
    a = SpanMap.identity(fig1)
    comp = vertical_compose_spanmaps(a, a)
    # oracle: pairs of apex objects with equal images in the middle apex
    pairs = [
        (i, j)
        for i in range(len(fig1.apex))
        for j in range(len(fig1.apex))
        if i == j  # identity legs: down(i) = i must equal up(j) = j
    ]
    assert len(comp.apex) == len(pairs) == 4


def test_vertical_compose_mismatch():
    bz2 = one_object_groupoid(cyclic_group(2))
    gm = groupoidification_map(bz2)
    fig_map = SpanMap.identity(fig1_span())
    with pytest.raises(SpanMismatch):
        vertical_compose_spanmaps(gm, fig_map)


def test_vertical_compose_groupoidification_pair():
    bz2 = one_object_groupoid(cyclic_group(2))
    comp = vertical_compose_spanmaps(
        groupoidification_map(bz2), groupoidification_map(bz2)
    )
    assert len(comp.apex) == 1
    assert comp.apex.aut(0).order == 4


def test_vertical_strictness_violation_detected(s3, z3_in_s3):
    # conjugation by a transposition inverts 3-cycles, so the composite of the
    # Z3 endo-map with itself cannot commute strictly at the transposition coset
    bs3 = one_object_groupoid(s3)
    bz3 = one_object_groupoid(z3_in_s3.source)
    f = GroupoidFunctor(bz3, bs3, [0], [z3_in_s3])
    ident = identity_span(bs3)
    sm = SpanMap(ident, ident, bz3, f, f)
    with pytest.raises(StrictnessViolation):
        vertical_compose_spanmaps(sm, sm)


def test_horizontal_compose_identity_data():
    bz2 = one_object_groupoid(cyclic_group(2))
    gm = groupoidification_map(bz2)
    gm2 = groupoidification_map(one_object_groupoid(cyclic_group(3)))
    comp = horizontal_compose_spanmaps(gm, gm2)
    assert len(comp.apex) == 1
    assert comp.apex.aut(0).order == 6
    with pytest.raises(SpanMismatch):
        horizontal_compose_spanmaps(gm, SpanMap.identity(fig1_span()))


def test_horizontal_compose_trivial_groups():
    fig1 = fig1_span()
    a = SpanMap.identity(fig1)
    rev = SpanMap.identity(reverse_span(fig1))
    comp = horizontal_compose_spanmaps(a, rev)
    # apex is the fiber product of the two apexes over the middle
    assert len(comp.apex) == 8
    assert all(comp.apex.aut(i).order == 1 for i in range(len(comp.apex)))


def test_compose_associativity_nontrivial_auts(s3):
    one = terminal_groupoid()
    bz2sub, incl = subgroup_embedding(s3, [0, 2], name="Z2")
    bz2 = one_object_groupoid(bz2sub)
    bs3 = one_object_groupoid(s3)
    to_bs3 = GroupoidFunctor(bz2, bs3, [0], [incl])
    a = Span(bz2, GroupoidFunctor.to_terminal(bz2, one), to_bs3)
    b = Span(bz2, to_bs3, to_bs3)
    c = Span(bz2, to_bs3, GroupoidFunctor.to_terminal(bz2, one))
    left = compose_spans(compose_spans(a, b), c)
    right = compose_spans(a, compose_spans(b, c))
    assert iso_class_data(left) == iso_class_data(right)


# --- comma categories against the loop construction --------------------------


def comma_oracle(f, g, admissible=None):
    """Oracle: the comma category by plain loops.  Double cosets by set
    comprehension, fibred products by scanning all of H x K, lex-first
    witnesses by a row-major double loop, and representatives by scanning
    the sorted double coset with ``admissible``.  Returns the classes as
    (a, b, c, rep, pairs, fib table) tuples and the pair data."""
    classes, pair_data = [], {}
    for a in range(len(f.source)):
        for b in range(len(g.source)):
            if f(a) != g(b):
                continue
            c_idx = f(a)
            c = f.target.aut(c_idx)
            fh, gh = f.hom(a), g.hom(b)
            hgrp, kgrp = fh.source, gh.source

            def fibred(m):
                return [(h, k) for h in range(hgrp.order) for k in range(kgrp.order)
                        if c.mul(fh(h), m) == c.mul(m, gh(k))]

            coset_class = [-1] * c.order
            witness = [None] * c.order
            class_ids = []
            for m0 in range(c.order):
                if coset_class[m0] >= 0:
                    continue
                coset = sorted({c.mul(c.mul(u, m0), v)
                                for u in fh.image() for v in gh.image()})
                rep = coset[0]
                if admissible is not None:
                    rep = next((m for m in coset if admissible(
                        c_idx,
                        np.array([fh(h) for h, _ in fibred(m)], dtype=np.int64),
                        np.array([gh(k) for _, k in fibred(m)], dtype=np.int64),
                    )), None)
                    if rep is None:
                        raise StrictnessViolation(
                            f"no admissible representative in the double coset of "
                            f"{m0} over objects ({a}, {b})"
                        )
                pairs = fibred(rep)
                index = {p: i for i, p in enumerate(pairs)}
                table = [[index[(hgrp.mul(p[0], q[0]), kgrp.mul(p[1], q[1]))]
                          for q in pairs] for p in pairs]
                cid = len(classes)
                classes.append((a, b, c_idx, rep, pairs, table))
                class_ids.append(cid)
                for h in range(hgrp.order):
                    for k in range(kgrp.order):
                        mm = c.mul(c.mul(fh(h), rep), c.inv[gh(k)])
                        if witness[mm] is None:
                            coset_class[mm] = cid
                            witness[mm] = (h, k)
            pair_data[(a, b)] = (coset_class, witness, class_ids)
    return classes, pair_data


def _class_pairs(cat, cid):
    """The fibred-product pairs (h, k) of class ``cid``, read off the
    projection homs."""
    return list(zip(cat.proj_left.hom(cid).map.tolist(),
                    cat.proj_right.hom(cid).map.tolist()))


def assert_matches_oracle(cat, f, g, admissible=None):
    classes, pair_data = comma_oracle(f, g, admissible)
    assert [(c.a_idx, c.b_idx, c.c_idx, c.rep, _class_pairs(cat, cid),
             c.fib.mult.tolist()) for cid, c in enumerate(cat.classes)] == classes
    assert {key: (cc.tolist(), w, ids) for key, (cc, w, ids) in cat.pair_data.items()} \
        == pair_data
    for cid, (a, b, _, _, pairs, _) in enumerate(classes):
        assert (cat.proj_left(cid), cat.proj_right(cid)) == (a, b)
        assert cat.proj_left.hom(cid).map.tolist() == [h for h, _ in pairs]
        assert cat.proj_right.hom(cid).map.tolist() == [k for _, k in pairs]


def test_comma_categories_of_verification_match_loop_oracle(monkeypatch):
    import lincat.groupoids
    from lincat.linearization import verify_functoriality
    from lincat.suites import default_suite, random_suite

    calls = []
    real = lincat.groupoids.comma_category

    def recorded(f, g, admissible=None):
        try:
            cat = real(f, g, admissible=admissible)
        except StrictnessViolation as exc:
            calls.append((f, g, admissible, exc))
            raise
        calls.append((f, g, admissible, cat))
        return cat

    monkeypatch.setattr(lincat.groupoids, "comma_category", recorded)
    for suite in (default_suite(), random_suite(1)):
        verify_functoriality(suite)
    assert any(adm is not None for _, _, adm, _ in calls)
    assert any(isinstance(out, StrictnessViolation) for *_, out in calls)
    for f, g, admissible, out in calls:
        if isinstance(out, StrictnessViolation):
            with pytest.raises(StrictnessViolation) as err:
                comma_oracle(f, g, admissible)
            assert str(err.value) == str(out)
        else:
            assert_matches_oracle(out, f, g, admissible)


def _assert_hom_law(h):
    m = h.map
    assert m.dtype == np.int64 and m.shape == (h.source.order,)
    assert np.array_equal(m[h.source.mult], h.target.mult[m[:, None], m])


def test_derived_tables_and_homs_pass_the_full_proofs(monkeypatch):
    # fibred products check only closure, and their projections and every
    # GroupHom.then composite skip the hom law; here each one gets the full
    # proof that the hot path leaves out
    import lincat.groupoids
    from lincat.linearization import verify_functoriality
    from lincat.suites import default_suite, random_suite

    cats, composites = [], []
    real_comma, real_then = lincat.groupoids.comma_category, GroupHom.then

    def recorded_comma(f, g, admissible=None):
        cats.append(real_comma(f, g, admissible=admissible))
        return cats[-1]

    def recorded_then(self, other):
        composites.append(real_then(self, other))
        return composites[-1]

    monkeypatch.setattr(lincat.groupoids, "comma_category", recorded_comma)
    monkeypatch.setattr(GroupHom, "then", recorded_then)
    # a run builds each composite of two given spans once: six suites give
    # more than 300 comma categories
    for suite in (default_suite(), *(random_suite(s, n_spans=4, n_maps=3)
                                     for s in (0, 5, 10, 12, 23))):
        verify_functoriality(suite)
    classes = 0
    for cat in cats:
        for cls in cat.classes:
            fib = cls.fib
            _check_table(fib.mult)
            assert fib.mult.dtype == fib.inv.dtype == np.int64
            assert (fib.mult[np.arange(fib.order), fib.inv] == 0).all()
            classes += 1
        for h in cat.proj_left.hom_maps + cat.proj_right.hom_maps:
            _assert_hom_law(h)
    for h in composites:
        _assert_hom_law(h)
    assert len(cats) > 300 and classes > 1000 and len(composites) > 3000


def test_derived_functors_pass_the_checked_constructor(monkeypatch):
    # composites, comma projections and horizontal legs skip the functor
    # checks; here each one is rebuilt through GroupoidFunctor(...)
    from lincat.linearization import verify_functoriality
    from lincat.suites import default_suite, random_suite

    derived = []
    real = GroupoidFunctor._derived.__func__

    def recorded(cls, *args):
        derived.append(real(cls, *args))
        return derived[-1]

    monkeypatch.setattr(GroupoidFunctor, "_derived", classmethod(recorded))
    for suite in (default_suite(), random_suite(1),
                  random_suite(5, n_spans=4, n_maps=3)):
        verify_functoriality(suite)
    for f in derived:
        g = GroupoidFunctor(f.source, f.target, f.object_map, f.hom_maps)
        assert g == f and f.object_map.dtype == np.int64
    assert len(derived) > 1000


# --- horizontal composites against the loop witness search ------------------


def horizontal_legs_reference(y, yp):
    """Reference: the up and down legs of the horizontal composite of y and
    yp by plain loops, as (object map, hom tables) pairs.  For each apex
    object, every witness h0 = wh*dh, k0 = wk*dk of its mediator is tried in
    the order of its class's pairs (dh, dk); a witness is kept if conjugating
    each pair (u(h), v(k)) by it lands in the class.  The first (top, bottom)
    pair of kept witnesses, top outermost, on which both feet agree wins."""
    cat = comma_category(y.up.then(y.top.right), yp.up.then(yp.top.left))
    top = compose_spans(y.top, yp.top)
    bot = compose_spans(y.bottom, yp.bottom)

    def options(comp, leg, leg_p, zi):
        cls_z = cat.classes[zi]
        ta, tb = leg(cls_z.a_idx), leg_p(cls_z.b_idx)
        uh, vh = leg.hom(cls_z.a_idx), leg_p.hom(cls_z.b_idx)
        coset, witness, _ = comp.comma.pair_data[(ta, tb)]
        cid = int(coset[cls_z.rep])
        auta = comp.comma.proj_left.target.aut(ta)
        autb = comp.comma.proj_right.target.aut(tb)
        wh, wk = witness[cls_z.rep]
        pairs, z_pairs = _class_pairs(comp.comma, cid), _class_pairs(cat, zi)
        pair_index = {p: i for i, p in enumerate(pairs)}
        tables = []
        for dh, dk in pairs:
            h0, k0 = auta.mul(wh, dh), autb.mul(wk, dk)
            table = []
            for h, k in z_pairs:
                hh = auta.mul(auta.inv[h0], auta.mul(uh(h), h0))
                kk = autb.mul(autb.inv[k0], autb.mul(vh(k), k0))
                if (hh, kk) not in pair_index:
                    break
                table.append(pair_index[(hh, kk)])
            else:
                tables.append(table)
        return cid, tables

    def feet_agree(tcid, t_table, bcid, b_table):
        for tf, bf in ((top.left, bot.left), (top.right, bot.right)):
            if tf(tcid) != bf(bcid):
                return False
            if any(tf.hom(tcid)(t) != bf.hom(bcid)(b) for t, b in zip(t_table, b_table)):
                return False
        return True

    up, down = ([], []), ([], [])
    for zi in range(len(cat.groupoid)):
        tcid, t_options = options(top, y.up, yp.up, zi)
        bcid, b_options = options(bot, y.down, yp.down, zi)
        choice = next(((t, b) for t in t_options for b in b_options
                       if feet_agree(tcid, t, bcid, b)), None)
        if choice is None:
            raise StrictnessViolation(
                f"horizontal composite cannot be strictified at apex object {zi}"
            )
        for leg, cid, table in ((up, tcid, choice[0]), (down, bcid, choice[1])):
            leg[0].append(cid)
            leg[1].append(table)
    return up, down


def test_horizontal_legs_match_loop_reference():
    from lincat.suites import default_suite, random_suite

    checked = 0
    for suite in (default_suite(), random_suite(1), random_suite(2),
                  random_suite(5, n_spans=4, n_maps=3)):
        maps = suite.spanmaps
        for y, yp in itertools.product(maps, repeat=2):
            if y.top.target != yp.top.source:
                continue
            try:
                comp = horizontal_compose_spanmaps(y, yp)
            except StrictnessViolation as exc:
                with pytest.raises(StrictnessViolation) as err:
                    horizontal_legs_reference(y, yp)
                assert str(err.value) == str(exc)
                continue
            up, down = horizontal_legs_reference(y, yp)
            for leg, (omap, tables) in ((comp.up, up), (comp.down, down)):
                assert leg.object_map.tolist() == omap
                assert [h.map.tolist() for h in leg.hom_maps] == tables
            checked += 1
    assert checked == 78


def test_witness_rows_all_land_in_the_class(monkeypatch):
    # _witness_tables keeps every candidate row without a membership test:
    # each witness of m carries z's pairs into m's class, because
    # tau = y.up;y.top.right = y.down;y.bottom.right.  Recompute the test.
    import lincat.groupoids
    from lincat.suites import default_suite, random_suite

    real = lincat.groupoids._witness_tables
    rows = []

    def checked(cat, a, b, m, u, v):
        cid, pos = real(cat, a, b, m, u, v)
        coset_class, witness, _ = cat.pair_data[(a, b)]
        auta = cat.proj_left.target.aut(a)
        autb = cat.proj_right.target.aut(b)
        pairs = _class_pairs(cat, cid)
        index = {p: i for i, p in enumerate(pairs)}
        wh, wk = witness[m]
        want = []
        for dh, dk in pairs:
            h0, k0 = auta.mult[wh, dh], autb.mult[wk, dk]
            carried = zip(auta.mult[auta.mult[auta.inv[h0], u], h0].tolist(),
                          autb.mult[autb.mult[autb.inv[k0], v], k0].tolist())
            want.append([index.get(p, -1) for p in carried])
        assert int(coset_class[m]) == cid
        assert pos.tolist() == want
        rows.append(len(want))
        return cid, pos

    monkeypatch.setattr(lincat.groupoids, "_witness_tables", checked)
    suites = [default_suite(), random_suite(1), random_suite(2),
              random_suite(5, n_spans=4, n_maps=3)]
    suites += [random_suite(seed) for seed in range(50)]
    for suite in suites:
        for y, yp in itertools.product(suite.spanmaps, repeat=2):
            if y.top.target == yp.top.source:
                try:
                    horizontal_compose_spanmaps(y, yp)
                except StrictnessViolation:
                    pass
    assert len(rows) > 10000 and sum(rows) > 20000


def test_horizontal_strictness_violation_matches_loop_reference():
    # the left factor maps Z3 into S3, whose right leg is the sign; over the
    # odd mediator every witness is odd and inverts Z3 on the top composite's
    # left foot, which the bottom composite leaves alone
    s3, z2 = symmetric_group(3), cyclic_group(2)
    sign = next(h for h in all_homs(s3, z2) if h.map.any())
    z3, incl = subgroup_embedding(s3, [0, 3, 4], name="Z3")
    bs3, bz2, bz3 = (one_object_groupoid(g) for g in (s3, z2, z3))
    pt = terminal_groupoid()
    top = Span(bs3, GroupoidFunctor.identity(bs3), GroupoidFunctor(bs3, bz2, [0], [sign]))
    up = GroupoidFunctor(bz3, bs3, [0], [incl])
    bottom = Span(bz3, up.then(top.left), up.then(top.right))
    y = SpanMap(top, bottom, bz3, up, GroupoidFunctor.identity(bz3))
    yp = SpanMap.identity(Span(pt, GroupoidFunctor(pt, bz2, [0], [trivial_hom(pt.aut(0), z2)]),
                               GroupoidFunctor.identity(pt)))
    with pytest.raises(StrictnessViolation) as err:
        horizontal_compose_spanmaps(y, yp)
    with pytest.raises(StrictnessViolation) as ref:
        horizontal_legs_reference(y, yp)
    assert str(err.value) == str(ref.value) == (
        "horizontal composite cannot be strictified at apex object 1"
    )


_SMALL_GROUPS = [trivial_group(), cyclic_group(2), cyclic_group(3), cyclic_group(4),
                 direct_product(cyclic_group(2), cyclic_group(2)), symmetric_group(3)]


@functools.cache
def _small_homs(i, j):
    return all_homs(_SMALL_GROUPS[i], _SMALL_GROUPS[j])


@st.composite
def cospans(draw):
    """Two functors f, g into one groupoid of at most two objects, each from a
    groupoid of at most two objects, drawn from small groups and all homs."""
    small = st.integers(0, len(_SMALL_GROUPS) - 1)
    target_ids = draw(st.lists(small, min_size=1, max_size=2))
    target = Groupoid([(f"c{i}", _SMALL_GROUPS[t]) for i, t in enumerate(target_ids)])

    def functor(prefix):
        objs, omap, homs = [], [], []
        for i in range(draw(st.integers(1, 2))):
            c = draw(st.integers(0, len(target) - 1))
            s = draw(small)
            objs.append((f"{prefix}{i}", _SMALL_GROUPS[s]))
            omap.append(c)
            homs.append(draw(st.sampled_from(_small_homs(s, target_ids[c]))))
        return GroupoidFunctor(Groupoid(objs), target, omap, homs)

    return functor("a"), functor("b")


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(cospans())
def test_comma_category_properties_on_random_functors(fg):
    f, g = fg
    cat = comma_category(f, g)
    for (a, b), (coset_class, witness, class_ids) in cat.pair_data.items():
        c = f.target.aut(f(a))
        fh, gh = f.hom(a), g.hom(b)
        n_h, n_k = fh.source.order, gh.source.order
        # coset_class partitions Aut(c) into the double cosets of the reps
        assert sorted(set(coset_class.tolist())) == class_ids
        for cid in class_ids:
            rep = cat.classes[cid].rep
            coset = {c.mul(c.mul(fh(h), rep), c.inv[gh(k)])
                     for h in range(n_h) for k in range(n_k)}
            assert coset == set(np.flatnonzero(coset_class == cid).tolist())
            # orbit-stabilizer: |H| |K| = |fib| |double coset|
            assert n_h * n_k == cat.classes[cid].fib.order * len(coset)
        # each witness is the lex-first (h0, k0) with m = f(h0) rep g(k0)^-1
        for m in range(c.order):
            rep = cat.classes[coset_class[m]].rep
            hits = [(h, k) for h in range(n_h) for k in range(n_k)
                    if c.mul(c.mul(fh(h), rep), c.inv[gh(k)]) == m]
            assert witness[m] == hits[0]
