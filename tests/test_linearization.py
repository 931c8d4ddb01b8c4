import dataclasses
import gc
import itertools
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lincat.cli
import lincat.groupoids
import lincat.linearization
import lincat.rep
from lincat.documents import parse
from lincat.errors import (
    DimensionMismatch,
    InputTooLarge,
    IntertwinerProjectionFailure,
    NonIntegralMultiplicity,
    NumericalFailure,
    SpanMismatch,
    StrictnessViolation,
)
from lincat.groupoids import (
    Groupoid,
    GroupoidFunctor,
    Span,
    SpanMap,
    _run_memo,
    compose_spans,
    discrete_groupoid,
    horizontal_compose_spanmaps,
    identity_span,
    one_object_groupoid,
    reverse_span,
    terminal_groupoid,
    vertical_compose_spanmaps,
)
from lincat.groups import (
    FinGroup,
    GroupHom,
    cyclic_group,
    direct_product,
    identity_hom,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    trivial_hom,
)
from lincat.linearization import (
    MAX_PAIRS,
    MAX_TRIPLES,
    SuiteConfig,
    CheckResult,
    FunctorialityReport,
    _blocks_deviation,
    _check_dual_path,
    _dual_path,
    beta_compositor,
    composite_block_iso,
    degroupoidify,
    degroupoidify_2cell,
    lambda_object,
    lambda_span,
    lambda_spanmap,
    verify_functoriality,
)
from lincat.suites import (
    default_suite,
    endo_map_on_identity,
    fig1_span,
    groupoidification_map,
    mixed_groupoid,
    random_suite,
    span_over_points,
    z2_in_s3,
)
from lincat.rep import (
    DEFAULT_TOL,
    _counit_kernel,
    _unit_kernel,
    irreps,
)
from lincat.twovect import (
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    hcompose_2morph,
    vcompose_2morph,
)
from staged_reference import staged_transfer_piece
from test_rep import _loop_projection

DATA = "src/lincat/data"

TOL = 1e-8


# --- objects ----------------------------------------------------------------


def test_lambda_object_terminal():
    obj = lambda_object(terminal_groupoid())
    assert len(obj.basis) == 1
    assert obj.basis.labels[0][2] == 1


def test_lambda_object_three_points():
    obj = lambda_object(discrete_groupoid(["a", "b", "c"]))
    assert len(obj.basis) == 3


def test_lambda_object_bs3():
    # oracle: number of irreps == number of conjugacy classes == 3
    obj = lambda_object(one_object_groupoid(symmetric_group(3)))
    assert len(obj.basis) == 3


def test_lambda_object_empty():
    obj = lambda_object(Groupoid([]))
    assert len(obj.basis) == 0


# --- spans ------------------------------------------------------------------


def test_lambda_identity_span_is_identity_matrix():
    for gpd in [
        terminal_groupoid(),
        one_object_groupoid(symmetric_group(3)),
        mixed_groupoid(),
    ]:
        res = lambda_span(identity_span(gpd))
        n = len(res.map.domain)
        assert np.array_equal(res.map.dims, np.eye(n, dtype=int))


def test_lambda_fig1():
    res = lambda_span(fig1_span())
    assert res.map.dims.tolist() == [[1, 1, 0], [0, 1, 1]]
    assert res.witnesses[(0, 0)] == [0]
    assert res.witnesses[(1, 2)] == [3]


def test_lambda_bz2_over_points():
    res = lambda_span(span_over_points(one_object_groupoid(cyclic_group(2))))
    assert res.map.dims.tolist() == [[1]]
    assert len(res.map.hom_bases[(0, 0)]) == 1


def test_lambda_dagger_duality_fixture_spans():
    spans = default_suite().spans
    for s in spans:
        fwd = lambda_span(s).map.dims
        rev = lambda_span(reverse_span(s)).map.dims
        assert np.array_equal(rev, fwd.T)


def test_lambda_trivial_groups_reduce_to_set_matrix():
    fig1 = fig1_span()
    lam = lambda_span(fig1).map.dims
    deg = degroupoidify(fig1)
    assert all(
        Fraction(int(lam[r, c]), 1) == deg[r][c]
        for r in range(2)
        for c in range(3)
    )


# --- degroupoidification ------------------------------------------------------


def test_degroupoidify_fig1():
    assert degroupoidify(fig1_span()) == [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]


def test_degroupoidify_bz2_apex():
    span = span_over_points(one_object_groupoid(cyclic_group(2)))
    assert degroupoidify(span) == [[Fraction(1, 2)]]


def test_degroupoidify_empty_apex():
    one = terminal_groupoid()
    t = trivial_group()
    empty = Groupoid([])
    leg = GroupoidFunctor(empty, one, [], [])
    span = Span(empty, leg, leg)
    assert degroupoidify(span) == [[Fraction(0, 1)]]


def test_degroupoidify_2cell_matches_coefficients():
    gm = groupoidification_map(one_object_groupoid(cyclic_group(2)))
    assert degroupoidify_2cell(gm) == [[Fraction(1, 2)]]
    gmx = groupoidification_map(mixed_groupoid())
    assert degroupoidify_2cell(gmx) == [[Fraction(5, 3)]]


# --- span maps ----------------------------------------------------------------


def test_lambda_identity_spanmap_is_identity():
    for span in [fig1_span(), span_over_points(one_object_groupoid(cyclic_group(2)))]:
        res = lambda_spanmap(SpanMap.identity(span))
        for (r, c), blk in res.morphism.blocks.items():
            n = res.source_result.map.dims[r, c]
            assert blk.shape == (n, n)
            if n:
                assert np.max(np.abs(blk - np.eye(n))) < TOL


def test_groupoidification_scalars():
    cases = [
        (one_object_groupoid(cyclic_group(2)), Fraction(1, 2)),
        (one_object_groupoid(cyclic_group(3)), Fraction(1, 3)),
        (one_object_groupoid(symmetric_group(3)), Fraction(1, 6)),
        (discrete_groupoid(["a", "b", "c"]), Fraction(3)),
        (mixed_groupoid(), Fraction(5, 3)),
    ]
    for apex, expect in cases:
        res = lambda_spanmap(groupoidification_map(apex))
        blk = res.morphism.blocks[(0, 0)]
        assert abs(blk[0, 0] - float(expect)) < TOL
        # exact coefficient bookkeeping
        assert sum(res.coefficients.values()) == expect


def test_lambda_spanmap_blocks_are_intertwiners():
    incl = z2_in_s3()
    bs3 = one_object_groupoid(symmetric_group(3))
    bz2 = one_object_groupoid(incl.source)
    m = endo_map_on_identity(bs3, GroupoidFunctor(bz2, bs3, [0], [incl]))
    res = lambda_spanmap(m)
    # reconstruct the image matrices and check equivariance over Aut(x2)
    lam_bot = res.target_result
    for (r, c), blk in res.morphism.blocks.items():
        wits = lam_bot.details[(r, c)]
        src_wits = res.source_result.details[(r, c)]
        if not blk.size:
            continue
        col = 0
        for tw in src_wits:
            for f in tw.basis:
                row = 0
                for bw in wits:
                    # rebuild the mapped matrix in this witness block
                    n = len(bw.basis)
                    if n:
                        coords = blk[row : row + n, col]
                        mapped = sum(
                            coords[i] * bw.basis[i] for i in range(n)
                        )
                        g = bw.r1.group
                        for a in range(g.order):
                            resid = (
                                mapped @ bw.r1.matrices[a]
                                - bw.r2.matrices[a] @ mapped
                            )
                            assert np.max(np.abs(resid)) < TOL
                    row += n
                col += 1


def _projected_blocks_reference(res):
    """The blocks of a ``lambda_spanmap`` result as the paper states them: at
    (bottom basis element b, top basis element f), c(x1, x2) times the
    coordinate along b of P(f), with P the group average onto the bottom
    witness's intertwiners, one product per group element."""
    blocks = {}
    for key, blk in res.morphism.blocks.items():
        want = np.zeros(blk.shape, dtype=complex)
        for tw in res.source_result.details[key]:
            for bw in res.target_result.details[key]:
                q = res.coefficients.get((tw.apex_idx, bw.apex_idx))
                if not q:
                    continue
                for i, f in enumerate(tw.basis):
                    pf = _loop_projection(f, bw.r1, bw.r2)
                    for k, b in enumerate(bw.basis):
                        want[bw.start + k, tw.start + i] = float(q) * np.vdot(b, pf)
        blocks[key] = want
    return blocks


@pytest.mark.parametrize("suite_seed", [None, *range(20), "small"],
                         ids=lambda k: {None: "default", "small": "random5small"}.get(
                             k, f"random{k}"))
def test_lambda_spanmap_blocks_are_projected_coordinates(suite_seed):
    if suite_seed is None:
        suite = default_suite()
    elif suite_seed == "small":
        suite = random_suite(5, n_spans=4, n_maps=3)
    else:
        suite = random_suite(suite_seed)
    maps = list(suite.spanmaps)
    if suite_seed == "small":
        # a composite with repeated leg homs
        maps.append(vertical_compose_spanmaps(maps[0], maps[0]))
    compared = 0
    for y in maps:
        res = lambda_spanmap(y, seed=suite.seed, tol=suite.tolerance, check=False)
        for key, want in _projected_blocks_reference(res).items():
            if want.size:
                assert np.max(np.abs(res.morphism.blocks[key] - want)) < 1e-12
                compared += 1
    assert compared


def test_lambda_spanmap_reads_each_coefficient_at_its_witness_pair():
    # in the suites, each entry's top and bottom witnesses are the same apex
    # objects and the coefficients are symmetric wherever a block reads them;
    # here the bottom apex has three objects, the top two, and the one
    # span-map apex object runs from top object 0 to bottom object 1
    z3 = cyclic_group(3)
    bz3, ident = one_object_groupoid(z3), identity_hom(z3)

    def span(names):
        apex = Groupoid([(n, z3) for n in names])
        leg = GroupoidFunctor(apex, bz3, [0] * len(names), [ident] * len(names))
        return Span(apex, leg, leg)

    top, bottom = span("uv"), span("uvw")
    y = SpanMap(top, bottom, bz3, GroupoidFunctor(bz3, top.apex, [0], [ident]),
                GroupoidFunctor(bz3, bottom.apex, [1], [ident]))
    res = lambda_spanmap(y)  # the dual path agrees
    assert res.coefficients == {(0, 1): 1}
    for key, want in _projected_blocks_reference(res).items():
        blk = res.morphism.blocks[key]
        assert np.max(np.abs(blk - want), initial=0.0) < 1e-12
        if key[0] == key[1]:
            assert np.allclose(np.abs(blk), [[0, 0], [1, 0], [0, 0]])


def _cycled_copies_map(x):
    """A strict span map from the span on three copies of x's apex to
    itself: its apex is that span's, the up leg is the identity and the down
    leg sends copy c to copy c+1 mod 3 by identity homs, so each object's
    coefficients form a 3-cycle, not a symmetric matrix."""
    n = len(x.apex)
    apex = Groupoid([(f"{name}/{c}", g) for c in range(3) for name, g in x.apex.objects])

    def copied(leg):
        return GroupoidFunctor(apex, leg.target, [leg(i % n) for i in range(3 * n)],
                               [leg.hom(i % n) for i in range(3 * n)])

    span = Span(apex, copied(x.left), copied(x.right))
    homs = [identity_hom(g) for _, g in apex.objects]
    cycle = GroupoidFunctor(apex, apex, [(i + n) % (3 * n) for i in range(3 * n)], homs)
    return SpanMap(span, span, apex, GroupoidFunctor.identity(apex), cycle)


@pytest.mark.parametrize("suite_seed", range(20))
def test_lambda_spanmap_reads_cycled_coefficients_at_their_witness_pairs(suite_seed):
    # the random suites' span maps all have symmetric coefficients, so they
    # cannot tell a coefficient read at (x1, x2) from one read at (x2, x1);
    # a 3-cycle of copies can, and the dual path must agree with each block
    suite = random_suite(suite_seed)
    for x in suite.spans:
        y = _cycled_copies_map(x)
        n = len(x.apex)
        weight = np.array(degroupoidify_2cell(y), dtype=float)
        assert not np.array_equal(weight, weight.T)
        assert np.array_equal(weight != 0, np.roll(np.eye(3 * n, dtype=bool), n, axis=0))
        res = lambda_spanmap(y, seed=suite.seed)  # raises if the paths disagree
        assert any(blk.size for blk in res.morphism.blocks.values())


def test_lambda_spanmap_dual_paths_agree_on_suite():
    # lambda_spanmap raises IntertwinerProjectionFailure on disagreement, so
    # running it with check=True over the suite is the assertion
    for sm in default_suite().spanmaps:
        lambda_spanmap(sm, check=True)


def test_dual_path_catches_a_wrong_block():
    sm = parse(f"{DATA}/gmap_bz2.json").payload
    res = lambda_spanmap(sm)
    blocks = dict(res.morphism.blocks)
    (key,) = [k for k, b in blocks.items() if b.size]
    assert np.allclose(blocks[key], [[0.5]])
    blocks[key] = blocks[key] + 1e-3
    wrong = TwoMorphism(res.morphism.source, res.morphism.target, blocks)
    # the error names the entry where the two paths disagree
    with pytest.raises(IntertwinerProjectionFailure,
                       match=rf"at entry \({key[0]},{key[1]}\)$"):
        _check_dual_path(sm, res.source_result, res.target_result, wrong,
                         tol=DEFAULT_TOL)


def test_dual_path_catches_a_wrong_block_off_the_first_witness_pair():
    sm = random_suite(0).spanmaps[2]
    res = lambda_spanmap(sm)
    key = (0, 1)
    # four top and four bottom witnesses, one basis element each
    for lam in (res.source_result, res.target_result):
        assert [len(w.basis) for w in lam.details[key]] == [1, 1, 1, 1]
    blocks = dict(res.morphism.blocks)
    blocks[key] = blocks[key].copy()
    blocks[key][3, 2] += 1e-3
    wrong = TwoMorphism(res.morphism.source, res.morphism.target, blocks)
    with pytest.raises(IntertwinerProjectionFailure, match=r"at entry \(0,1\)$"):
        _check_dual_path(sm, res.source_result, res.target_result, wrong,
                         tol=DEFAULT_TOL)


def test_transfer_piece_needs_equal_restricted_models(monkeypatch):
    # the closed form reads r1_top's vectors as r1_bot's only because the
    # span map's left legs restrict W1 to the same model
    keys = []
    real = lincat.linearization._transfer_piece

    def recorded(*key):
        keys.append(key)
        return real(*key)

    monkeypatch.setattr(lincat.linearization, "_transfer_piece", recorded)
    lambda_spanmap(random_suite(0).spanmaps[2])
    s_hom, t_hom, r1_top, ind_top, r1_bot, ind_bot = keys[0]
    real(s_hom, t_hom, r1_top, ind_top, r1_bot, ind_bot)
    moved = lincat.rep.RepModel(r1_bot.group, -r1_bot.matrices)
    with pytest.raises(NumericalFailure, match="strictness lost in restricted models"):
        real(s_hom, t_hom, r1_top, ind_top, moved, ind_bot)


def _closed_form_piece(s_hom, t_hom, r1_top, ind_top, r1_bot, ind_bot,
                       inverse=True, act=True, norm="Y"):
    """``_transfer_piece``'s closed form, with one part optionally wrong:
    t1(x) for t1(x)^-1, C e_j for x.C e_j, or 1/#X1 for 1/#Y."""
    x1, t1_hom = s_hom.target, ind_top.hom
    elts = ind_top.group.mult[ind_top.coset_reps][
        :, t1_hom.map[x1.inv] if inverse else t1_hom.map]
    if act:
        vecs = r1_top.matrices @ ind_top.invariant_basis
    else:
        vecs = np.broadcast_to(ind_top.invariant_basis,
                               (x1.order,) + ind_top.invariant_basis.shape)
    out = np.concatenate([ind_bot.tensor_coords(row, vecs) for row in elts], axis=1)
    return out / (s_hom.source.order if norm == "Y" else x1.order)


@pytest.mark.parametrize("wrong", [
    {"inverse": False},  # t1(x) instead of t1(x)^-1
    {"act": False},      # the action of x on C e_j dropped
    {"norm": "X1"},      # divided by #X1 instead of #Y
    {},                  # the closed form itself: caught nowhere
], ids=["t1-not-inverted", "action-dropped", "divided-by-X1", "correct"])
def test_dual_path_catches_a_wrong_closed_form(monkeypatch, wrong):
    monkeypatch.setattr(lincat.linearization, "_transfer_piece",
                        lambda *key: _closed_form_piece(*key, **wrong))
    maps = default_suite().spanmaps + [
        y for seed in range(8) for y in random_suite(seed).spanmaps]
    caught = 0
    for y in maps:
        try:
            lambda_spanmap(y)
        except IntertwinerProjectionFailure:
            caught += 1
    assert (caught > 0) == bool(wrong), caught


def test_dual_path_builds_no_induced_model(monkeypatch):
    # the pieces read the witnesses' pushforwards and induce nothing more
    results = [lambda_spanmap(y, check=False)
               for y in default_suite().spanmaps + random_suite(0).spanmaps]
    for res in results:
        res.source_result.details, res.target_result.details

    def refuse(*args, **kwargs):
        raise AssertionError("the dual path must build no induced model")

    for module in (lincat.rep, lincat.linearization):
        monkeypatch.setattr(module, "induce_rep", refuse)
    compared = 0
    for res in results:
        got = _dual_path(res.spanmap, res.source_result, res.target_result)
        dev, _ = _blocks_deviation(got, res.morphism)
        assert dev < DEFAULT_TOL
        compared += sum(b.size > 0 for b in got.blocks.values())
    assert compared > 0


def _dual_path_with(monkeypatch, change):
    """Patch ``_dual_path`` so that ``change(blocks)`` edits the blocks of
    each 2-cell it returns."""
    real = lincat.linearization._dual_path

    def changed(*args):
        out = real(*args)
        blocks = {k: b.copy() for k, b in out.blocks.items()}
        change(blocks)
        return TwoMorphism(out.source, out.target, blocks)

    monkeypatch.setattr(lincat.linearization, "_dual_path", changed)


def test_a_nan_tolerance_fails_the_dual_path(monkeypatch):
    y = default_suite().spanmaps[2]
    with pytest.raises(IntertwinerProjectionFailure):
        lambda_spanmap(y, tol=float("nan"))

    def off_by_one(blocks):
        blocks[1, 0] += 1.0

    _dual_path_with(monkeypatch, off_by_one)
    with pytest.raises(IntertwinerProjectionFailure) as exc:
        lambda_spanmap(y, tol=float("nan"))
    assert exc.value.deviation == pytest.approx(1.0)


def test_a_nan_block_fails_the_dual_path(monkeypatch):
    # the map's nonempty blocks are (1, 0) and (2, 0): a NaN in the last one
    # must not leave the worst deviation at the first one's
    y = default_suite().spanmaps[2]
    assert [k for k, b in lambda_spanmap(y).morphism.blocks.items() if b.size] == [
        (1, 0), (2, 0)]

    def nan_block(blocks):
        blocks[2, 0][0, 0] = np.nan

    _dual_path_with(monkeypatch, nan_block)
    with pytest.raises(IntertwinerProjectionFailure, match=r"at entry \(2,0\)$") as exc:
        lambda_spanmap(y)
    assert np.isnan(exc.value.deviation)


def test_dual_path_tolerance_can_be_tightened():
    sm = parse(f"{DATA}/gmap_bz2.json").payload
    # the correct blocks pass the dual path at this tolerance
    res = lambda_spanmap(sm, tol=1e-13)
    blocks = dict(res.morphism.blocks)
    (key,) = [k for k, b in blocks.items() if b.size]
    blocks[key] = blocks[key] + 1e-11
    wrong = TwoMorphism(res.morphism.source, res.morphism.target, blocks)
    with pytest.raises(IntertwinerProjectionFailure):
        _check_dual_path(sm, res.source_result, res.target_result, wrong, tol=1e-13)


# --- compositor ---------------------------------------------------------------


def test_beta_identity_span():
    one = terminal_groupoid()
    rep = beta_compositor(identity_span(one), identity_span(one))
    assert rep.ok()


def test_beta_fig1_reverse():
    fig1 = fig1_span()
    rep = beta_compositor(reverse_span(fig1), fig1)
    assert rep.ok()
    assert rep.dims_composite.tolist() == [[2, 1], [1, 2]]


def test_beta_inclusion_spans_double_cosets():
    incl = z2_in_s3()
    apex = one_object_groupoid(incl.source)
    one = terminal_groupoid()
    bs3 = one_object_groupoid(symmetric_group(3))
    to_bs3 = GroupoidFunctor(apex, bs3, [0], [incl])
    s1 = Span(apex, GroupoidFunctor.to_terminal(apex, one), to_bs3)
    s2 = Span(apex, to_bs3, GroupoidFunctor.to_terminal(apex, one))
    rep = beta_compositor(s1, s2)
    assert rep.ok()
    # two double cosets contribute: hom over the diagonal Z2 class (dim 2
    # regular-rep invariants) plus the free class
    comp = compose_spans(s1, s2)
    assert sorted(comp.apex.aut(i).order for i in range(len(comp.apex))) == [1, 2]
    assert rep.dims_composite.tolist() == [[2]]
    assert rep.max_condition_number < 1e6


def _drop_class(cat):
    """Forget the last double-coset class of the first apex-object pair."""
    pair = min(cat.pair_data)
    coset_class, witness, class_ids = cat.pair_data[pair]
    cat.pair_data[pair] = (coset_class, witness, class_ids[:-1])


def _drop_fibred_pair(cat):
    """Forget the last pair of the first class's fibred product."""
    cid = cat.pair_data[min(cat.pair_data)][2][0]
    for proj in (cat.proj_left, cat.proj_right):
        hom = proj.hom_maps[cid]
        proj.hom_maps[cid] = GroupHom._derived(hom.source, hom.target, hom.map[:-1])


@pytest.mark.parametrize("mutate", [_drop_class, _drop_fibred_pair],
                         ids=["dropped-class", "dropped-fibred-pair"])
def test_compositor_reports_a_broken_comparison_map(monkeypatch, mutate):
    # the comma data behind every composite beta_compositor reads is broken
    # at one pair: the report is not ok and the check fails, nothing raises.
    # Each call breaks a copy, so the run's kept composite, which the
    # horizontal section reads too, stays whole
    real = lincat.linearization.compose_spans

    def broken(x, xp):
        composite = real(x, xp)
        cat = composite.comma
        copy = dataclasses.replace(cat, pair_data=dict(cat.pair_data), **{
            side: GroupoidFunctor._derived(f.source, f.target, f.object_map, f.hom_maps)
            for side, f in (("proj_left", cat.proj_left), ("proj_right", cat.proj_right))})
        mutate(copy)
        return Span(composite.apex, composite.left, composite.right, comma=copy,
                    factors=composite.factors)

    monkeypatch.setattr(lincat.linearization, "compose_spans", broken)
    fig1 = fig1_span()
    rep = beta_compositor(reverse_span(fig1), fig1)
    assert rep.dims_ok and not rep.ok()
    assert rep.max_defect >= 1 and rep.max_condition_number == float("inf")
    checks = verify_functoriality(default_suite()).section("compositor")
    assert checks and not any(r.passed for r in checks)
    assert all(r.deviation >= 1 and r.note == "max gamma condition inf" for r in checks)


def test_compositor_reports_a_dims_mismatch(monkeypatch):
    real = lincat.linearization.compose_2linear

    def shifted(a, b):
        product = real(a, b)
        return TwoLinearMap(product.domain, product.codomain, product.dims + 1)

    monkeypatch.setattr(lincat.linearization, "compose_2linear", shifted)
    fig1 = fig1_span()
    rep = beta_compositor(reverse_span(fig1), fig1)
    assert not rep.dims_ok and rep.max_defect == 0 and not rep.ok()
    checks = verify_functoriality(default_suite()).section("compositor")
    assert checks and not any(r.passed for r in checks)


def test_compositor_is_exact_at_tolerance_zero():
    p = parse(f"{DATA}/suite_small.json").payload
    report = verify_functoriality(
        SuiteConfig(p["groupoids"], p["spans"], p["spanmaps"], tolerance=0.0))
    checks = report.section("compositor")
    assert len(checks) == 4
    assert all(r.passed and r.deviation == 0.0 for r in checks)


def test_beta_gamma_invertible_across_suite(monkeypatch):
    # the comparison maps are checked from the tables: no model, no SVD
    spans = default_suite().spans
    pairs = [
        (a, b) for a in spans for b in spans if a.target == b.source
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("beta_compositor must build no model and take no SVD")

    for module in (lincat.rep, lincat.linearization):
        monkeypatch.setattr(module, "induce_rep", refuse)
        monkeypatch.setattr(module, "_condition", refuse)
    monkeypatch.setattr(lincat.rep, "regular_rep", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert len(pairs) > 12
    for a, b in pairs:
        rep = beta_compositor(a, b)
        assert rep.ok()
        assert rep.max_condition_number == 1.0


# --- vertical / horizontal ---------------------------------------------------


def test_vertical_composition_blocks():
    bz2 = one_object_groupoid(cyclic_group(2))
    g1 = groupoidification_map(bz2)
    comp = vertical_compose_spanmaps(g1, g1)
    lhs = lambda_spanmap(comp).morphism
    rhs = vcompose_2morph(
        lambda_spanmap(g1).morphism, lambda_spanmap(g1).morphism
    )
    assert abs(lhs.blocks[(0, 0)][0, 0] - 0.25) < TOL
    assert np.max(np.abs(lhs.blocks[(0, 0)] - rhs.blocks[(0, 0)])) < TOL


def test_vertical_composition_nontrivial_feet():
    incl = z2_in_s3()
    bs3 = one_object_groupoid(symmetric_group(3))
    bz2 = one_object_groupoid(incl.source)
    m = endo_map_on_identity(bs3, GroupoidFunctor(bz2, bs3, [0], [incl]))
    comp = vertical_compose_spanmaps(m, m)
    lhs = lambda_spanmap(comp).morphism
    rhs = vcompose_2morph(lambda_spanmap(m).morphism, lambda_spanmap(m).morphism)
    for key, blk in lhs.blocks.items():
        if blk.size:
            assert np.max(np.abs(blk - rhs.blocks[key])) < TOL


def test_horizontal_composition_with_correspondence():
    bz2 = one_object_groupoid(cyclic_group(2))
    bz3 = one_object_groupoid(cyclic_group(3))
    g1 = groupoidification_map(bz2)
    g2 = groupoidification_map(bz3)
    comp = horizontal_compose_spanmaps(g1, g2)
    lam_comp = lambda_spanmap(comp)
    assert abs(lam_comp.morphism.blocks[(0, 0)][0, 0] - 1 / 6) < TOL
    hc = hcompose_2morph(
        lambda_spanmap(g2).morphism, lambda_spanmap(g1).morphism
    )
    iso_top = composite_block_iso(lam_comp.source_result)
    iso_bot = composite_block_iso(lam_comp.target_result)
    for key, blk in lam_comp.morphism.blocks.items():
        lhs = blk @ iso_top.blocks[key]
        rhs = iso_bot.blocks[key] @ hc.blocks[key]
        if lhs.size:
            assert np.max(np.abs(lhs - rhs)) < TOL



def _beta_blocks_reference(lam_c):
    """The compositor's blocks of a composite's ``lambda_span`` result, one
    basis element at a time: column (middle label, u', u) is sent, at each
    composite witness (x_o, m, x'_o) with u' from x'_o and u from x_o, to the
    Frobenius coordinates of u' . W2(m^-1) . u."""
    x, xp = lam_c.span.factors
    cat = lam_c.span.comma
    lam_x, lam_xp = lambda_span(x), lambda_span(xp)
    blocks = {}
    for (r, c), wits in lam_c.details.items():
        n = int(lam_c.map.dims[r, c])
        cols = []
        for jmid, w2 in itertools.chain.from_iterable(lam_x.target_object.positions):
            ups = [(pw.apex_idx, up) for pw in lam_xp.details[(r, jmid)] for up in pw.basis]
            uqs = [(qw.apex_idx, uq) for qw in lam_x.details[(jmid, c)] for uq in qw.basis]
            for p_idx, up in ups:
                for q_idx, uq in uqs:
                    col = np.zeros(n, dtype=complex)
                    off = 0
                    for wit in wits:
                        cls = cat.classes[wit.apex_idx]
                        if cls.a_idx == q_idx and cls.b_idx == p_idx:
                            m_inv = x.target.aut(cls.c_idx).inv[cls.rep]
                            e = up @ w2.matrices[m_inv] @ uq
                            for i, b in enumerate(wit.basis):
                                col[off + i] = np.sum(np.conj(b) * e)
                        off += len(wit.basis)
                    cols.append(col)
        blocks[(r, c)] = np.stack(cols, axis=1) if cols else np.zeros((n, 0))
    return blocks


@pytest.mark.parametrize("suite_seed", [None, *range(8)])
def test_beta_blocks_match_reference_loop(suite_seed):
    suite = default_suite() if suite_seed is None else random_suite(suite_seed)
    checked = 0
    for y, yp in itertools.product(suite.spanmaps, repeat=2):
        if y.top.target != yp.top.source:
            continue
        try:
            comp = horizontal_compose_spanmaps(y, yp)
        except StrictnessViolation:
            continue
        for span in (comp.top, comp.bottom):
            lam_c = lambda_span(span)
            beta = composite_block_iso(lam_c)
            x, xp = span.factors
            assert beta.source == compose_2linear(lambda_span(xp).map, lambda_span(x).map)
            assert beta.target is lam_c.map
            want = _beta_blocks_reference(lam_c)
            assert beta.blocks.keys() == want.keys()
            for key, blk in want.items():
                assert beta.blocks[key].shape == blk.shape
                if blk.size:
                    assert np.max(np.abs(beta.blocks[key] - blk)) < 1e-12
            checked += 1
    assert checked > 0


def test_compositor_sub_blocks_land_in_their_block(monkeypatch):
    # composite_block_iso writes each (witness, middle irrep) sub-block through
    # a reshape of a row and column range of its block; np.reshape copies
    # silently when it cannot make a view, and the write would then be lost.
    # The sub-blocks fill disjoint places, so the blocks' squared norm is the
    # sum of theirs exactly when every write lands.
    suite = random_suite(5, n_spans=4, n_maps=3)
    lams = [lambda_span(compose_spans(a, b)) for a in suite.spans for b in suite.spans
            if a.target == b.source]
    written = []
    real = np.einsum

    def recorded(subscripts, *operands):
        out = real(subscripts, *operands)
        if subscripts == "kab,pax,xy,qyb->kpq":
            written.append(out)
        return out

    monkeypatch.setattr(np, "einsum", recorded)
    betas = [composite_block_iso(lam) for lam in lams]
    monkeypatch.undo()
    assert len(written) > len(lams)
    total = sum(np.sum(np.abs(b) ** 2) for beta in betas for b in beta.blocks.values())
    assert total > 0 and abs(total - sum(np.sum(np.abs(w) ** 2) for w in written)) < 1e-9


def _uv_uvw_map():
    """The span map over BZ3 from the span with apex objects u, v to the one
    with u, v, w (all BZ3, legs the identity), whose one apex object runs
    from top object 0 to bottom object 1."""
    z3 = cyclic_group(3)
    bz3, ident = one_object_groupoid(z3), identity_hom(z3)

    def span(names):
        apex = Groupoid([(n, z3) for n in names])
        leg = GroupoidFunctor(apex, bz3, [0] * len(names), [ident] * len(names))
        return Span(apex, leg, leg)

    top, bottom = span("uv"), span("uvw")
    return SpanMap(top, bottom, bz3, GroupoidFunctor(bz3, top.apex, [0], [ident]),
                   GroupoidFunctor(bz3, bottom.apex, [1], [ident]))


def test_horizontal_check_catches_a_scaled_beta_block(monkeypatch):
    # scale one non-empty block of the top composite's compositor by
    # 1 + 1e-6; the bottom one is left alone, so naturality must fail.  The
    # run keeps one compositor per pair of factors, so the top and bottom
    # spans must differ: the uv/uvw map over BZ3, paired with itself
    y = _uv_uvw_map()
    suite = SuiteConfig([y.top.source], [], [y])
    real_beta = lincat.linearization.composite_block_iso
    scaled = []

    def scaled_beta(lam_c):
        beta = real_beta(lam_c)
        if lam_c.span.factors[0] != y.top:
            return beta
        key = next(k for k, b in beta.blocks.items() if b.size)
        scaled.append(key)
        return TwoMorphism(beta.source, beta.target,
                           {**beta.blocks, key: beta.blocks[key] * (1 + 1e-6)})

    (honest,) = verify_functoriality(suite).section("horizontal")
    assert honest.passed and honest.deviation == 0.0
    monkeypatch.setattr(lincat.linearization, "composite_block_iso", scaled_beta)
    (result,) = verify_functoriality(suite).section("horizontal")
    assert scaled and not result.passed and 1e-7 < result.deviation < 1e-5


def _count_comma_categories(monkeypatch):
    """Wrap lincat.groupoids.comma_category; the returned list grows by one
    entry per call."""
    import lincat.groupoids

    calls = []
    real = lincat.groupoids.comma_category

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lincat.groupoids, "comma_category", counted)
    return calls


def test_verify_functoriality_builds_each_composite_comma_once(monkeypatch):
    # the horizontal section reads the comma categories of the top and bottom
    # composites from the spans that horizontal_compose_spanmaps built, and
    # a composite of two given spans, whoever asks for it, is built once
    calls = _count_comma_categories(monkeypatch)
    assert verify_functoriality(default_suite()).ok
    assert len(calls) == 164


def test_verify_functoriality_builds_each_composite_of_a_span_pair_once(monkeypatch):
    # the compositor, the associator's inner bracketings and the horizontal
    # section's top and bottom spans share one composite per pair of spans
    built = []
    real = lincat.groupoids.Span

    def recorded(*args, **kwargs):
        x = real(*args, **kwargs)
        if x.factors is not None:
            built.append(x.factors)
        return x

    monkeypatch.setattr(lincat.groupoids, "Span", recorded)
    assert verify_functoriality(default_suite()).ok
    assert len(built) == len({(x.key, xp.key) for x, xp in built}) == 82


def test_a_run_hands_every_caller_one_composite_of_two_given_spans():
    g1 = groupoidification_map(one_object_groupoid(cyclic_group(2)))
    g2 = groupoidification_map(one_object_groupoid(symmetric_group(3)))
    with _run_memo([g1.top, g2.top]):
        comp = compose_spans(g1.top, g2.top)
        assert horizontal_compose_spanmaps(g1, g2).top is comp
        assert beta_compositor(g1.top, g2.top).composite is comp
        # comp was not given, so its composites are not kept
        assert compose_spans(comp, g2.top) is not compose_spans(comp, g2.top)
    assert compose_spans(g1.top, g2.top) is not comp


def test_composite_block_iso_reads_comma_of_given_composite(monkeypatch):
    g1 = groupoidification_map(one_object_groupoid(cyclic_group(2)))
    g2 = groupoidification_map(one_object_groupoid(symmetric_group(3)))
    top = horizontal_compose_spanmaps(g1, g2).top
    assert top.factors[0] is g1.top and top.factors[1] is g2.top
    fresh = composite_block_iso(lambda_span(compose_spans(g1.top, g2.top)))
    lam_c = lambda_span(top)
    calls = _count_comma_categories(monkeypatch)
    isos = composite_block_iso(lam_c)
    assert calls == []
    assert isos.blocks.keys() == fresh.blocks.keys()
    assert all(np.array_equal(isos.blocks[k], fresh.blocks[k]) for k in isos.blocks)
    bare = Span(top.apex, top.left, top.right)
    assert bare == top and bare.comma is None and bare.factors is None
    with pytest.raises(SpanMismatch):
        composite_block_iso(lambda_span(bare))
    # a comma category without factors does not name the spans to read
    with pytest.raises(SpanMismatch):
        composite_block_iso(lambda_span(Span(top.apex, top.left, top.right,
                                             comma=top.comma)))

# --- suite -------------------------------------------------------------------


def test_verify_functoriality_default_suite():
    report = verify_functoriality(default_suite())
    assert report.ok, "\n".join(report.summary_lines())
    assert report.max_deviation < TOL
    sections = {r.section for r in report.results}
    assert sections == {"compositor", "associator", "unitor", "vertical", "horizontal"}


def test_checked_pairs_and_triples_are_the_first_composable_ones():
    # the compositor and associator sections check the first MAX_PAIRS pairs
    # and MAX_TRIPLES triples of the full enumeration, in its order
    suite = default_suite()
    spans = suite.spans
    pairs = [(i, j) for i, a in enumerate(spans) for j, b in enumerate(spans)
             if a.target == b.source]
    triples = [(i, j, k) for i, j in pairs for k, c in enumerate(spans)
               if spans[j].target == c.source]
    assert len(triples) > MAX_TRIPLES
    report = verify_functoriality(suite)
    assert [r.name for r in report.section("compositor")] == [
        f"span[{i}] ; span[{j}]" for i, j in pairs[:MAX_PAIRS]]
    assert [r.name for r in report.section("associator")] == [
        f"span[{i}] ; span[{j}] ; span[{k}]" for i, j, k in triples[:MAX_TRIPLES]]


def test_verify_functoriality_identity_spans_only():
    from lincat.linearization import SuiteConfig

    one = terminal_groupoid()
    spans = [identity_span(one)]
    maps = [SpanMap.identity(spans[0])]
    report = verify_functoriality(SuiteConfig([one], spans, maps))
    assert report.ok
    assert report.max_deviation == 0.0


def test_failed_checks_record_the_disagreement_they_measured():
    # at tolerance 0 the dual paths of some default-suite span maps disagree,
    # and such a check fails with the measured disagreement as its deviation,
    # not 0.0; max_deviation covers every check, failed ones included
    report = verify_functoriality(default_suite(tolerance=0.0))
    noted = [r for r in report.results if "disagree by" in r.note]
    assert noted and not any(r.passed for r in noted)
    for r in noted:
        measured = float(r.note.split("disagree by ")[1].split(" ")[0])
        assert r.deviation == measured > 0.0, r
    assert report.max_deviation == max(r.deviation for r in report.results) > 0.0


def test_compositor_check_errors_fail_their_check(monkeypatch):
    # a check-failure error raised inside the compositor section fails its
    # check, with deviation inf since it measured none, instead of
    # propagating; the other sections still run and pass
    def failing(*args, **kwargs):
        raise DimensionMismatch("injected failure")

    monkeypatch.setattr(lincat.linearization, "beta_compositor", failing)
    report = verify_functoriality(default_suite())
    compositor = report.section("compositor")
    assert compositor and all(
        not r.passed and r.deviation == float("inf") and r.note == "injected failure"
        for r in compositor)
    assert all(r.passed for r in report.results if r.section != "compositor")
    assert report.max_deviation == float("inf") and not report.ok


@pytest.mark.parametrize("devs", [(0.0, float("nan")), (float("nan"), 0.0)])
def test_max_deviation_keeps_a_nan(devs):
    report = FunctorialityReport([CheckResult("s", str(i), True, d)
                                  for i, d in enumerate(devs)])
    assert np.isnan(report.max_deviation)


def test_verify_functoriality_random_suite():
    from lincat.suites import random_suite

    report = verify_functoriality(random_suite(seed=5, n_spans=4, n_maps=3))
    assert report.ok, "\n".join(report.summary_lines())


def test_lambda_two_sided_inclusion_span():
    # BS3 <- BZ2 -> BS3 with both legs the inclusion: entries are dimensions of
    # Z2-intertwiners between restricted irreps of S3
    incl = z2_in_s3()
    bz2 = one_object_groupoid(incl.source)
    bs3 = one_object_groupoid(symmetric_group(3))
    leg = GroupoidFunctor(bz2, bs3, [0], [incl])
    lam = lambda_span(Span(bz2, leg, leg))
    # oracle: pure character arithmetic over the restrictions
    from lincat.rep import hom_dim, irreps, restrict_rep

    s3reps = irreps(symmetric_group(3))
    oracle = [
        [
            hom_dim(
                restrict_rep(incl, w1).character, restrict_rep(incl, w2).character
            )
            for w1 in s3reps
        ]
        for w2 in s3reps
    ]
    assert lam.map.dims.tolist() == oracle == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    # every populated entry carries an orthonormal intertwiner basis
    for (r, c), basis in lam.map.hom_bases.items():
        assert len(basis) == lam.map.dims[r, c]


def test_lambda_empty_apex_span():
    from lincat.groupoids import Groupoid

    one = terminal_groupoid()
    empty = Groupoid([])
    leg = GroupoidFunctor(empty, one, [], [])
    lam = lambda_span(Span(empty, leg, leg))
    assert lam.map.dims.tolist() == [[0]]
    res = lambda_spanmap(SpanMap.identity(Span(empty, leg, leg)))
    assert res.morphism.blocks[(0, 0)].shape == (0, 0)


def test_random_suites_multiple_seeds():
    from lincat.suites import random_suite

    for seed in (1, 2):
        report = verify_functoriality(
            random_suite(seed=seed, n_groupoids=3, n_spans=3, n_maps=3)
        )
        assert report.ok, "\n".join(report.summary_lines())


def _dims_oracle(x):
    """Entry dims straight from the irreps' traces, with no classes,
    restriction or induction: sum over apex objects above (a1, a2) of
    (1/|Aut x|) sum_g tr W1(s g) conj tr W2(t g)."""
    cols = [(i, w) for i, (_, g) in enumerate(x.source.objects) for w in irreps(g)]
    rows = [(k, w) for k, (_, g) in enumerate(x.target.objects) for w in irreps(g)]
    out = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for xi in range(len(x.apex)):
        s, t, n = x.left.hom(xi), x.right.hom(xi), x.apex.aut(xi).order
        for r, (k, w2) in enumerate(rows):
            for c, (i, w1) in enumerate(cols):
                if (x.left(xi), x.right(xi)) == (i, k):
                    val = sum(
                        np.trace(w1.matrices[s(g)])
                        * np.conj(np.trace(w2.matrices[t(g)]))
                        for g in range(n)
                    ) / n
                    out[r, c] += round(val.real)
    return out


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_lambda_span_properties_on_random_spans(seed):
    suite = random_suite(seed, n_groupoids=2, n_spans=2, n_maps=0,
                         max_objects=2, max_apex_objects=3)
    for x in suite.spans:
        lam = lambda_span(x)
        rev = lambda_span(reverse_span(x))
        assert np.array_equal(rev.map.dims, lam.map.dims.T)
        assert rev.witnesses == {(c, r): w for (r, c), w in lam.witnesses.items()}
        assert np.array_equal(lam.map.dims, _dims_oracle(x))
        for key, wits in lam.details.items():
            apex = [w.apex_idx for w in wits]
            assert apex == sorted(set(apex)) == lam.witnesses[key]
            concat = [b for w in wits for b in w.basis]
            basis = lam.map.hom_bases[key]
            assert len(basis) == len(concat) == lam.map.dims[key]
            assert all(np.shares_memory(a, b) for a, b in zip(basis, concat))


def test_lambda_span_computes_each_leg_pair_once(monkeypatch):
    # apex objects u, v on the identity of S3 and w on Z2 < S3: in the
    # composite, the classes over (u, u), (u, v), (v, u), (v, v) share legs
    s3 = symmetric_group(3)
    incl = z2_in_s3()
    apex = Groupoid([("u", s3), ("v", s3), ("w", incl.source)])
    bs3 = one_object_groupoid(s3)
    leg = GroupoidFunctor(apex, bs3, [0, 0, 0],
                          [identity_hom(s3), identity_hom(s3), incl])
    x = compose_spans(Span(apex, leg, leg), Span(apex, leg, leg))
    keys = {(x.left(xi), x.right(xi), x.left.hom(xi), x.right.hom(xi))
            for xi in range(len(x.apex))}
    per_key = len(irreps(s3)) ** 2
    calls = []
    real = lincat.linearization.intertwiner_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lincat.linearization, "intertwiner_basis", counted)
    lam = lambda_span(x)
    assert calls == []  # dims come from characters; models wait for access
    lam.details
    assert len(calls) == len(keys) * per_key < len(x.apex) * per_key
    assert np.array_equal(lam.map.dims, _dims_oracle(x))


# --- the character layer: dims without models --------------------------------


def _spans_and_composites(suite):
    """The suite's spans, every composable pair's composite and both unitor
    composites of every span."""
    spans = list(suite.spans)
    out = spans + [compose_spans(a, b) for a in spans for b in spans
                   if a.target == b.source]
    for x in spans:
        out += [compose_spans(identity_span(x.source), x),
                compose_spans(x, identity_span(x.target))]
    return out


@pytest.mark.parametrize("suite_seed", [None] + list(range(20)),
                         ids=lambda k: "default" if k is None else f"random{k}")
def test_character_dims_equal_the_built_models(suite_seed):
    suite = default_suite() if suite_seed is None else random_suite(suite_seed)
    for x in _spans_and_composites(suite):
        lam = lambda_span(x, seed=suite.seed)
        dims, witnesses = lam.map.dims.copy(), dict(lam.witnesses)
        # the models: every apex object over an entry, with its basis
        details = lam.details
        assert {k: [w.apex_idx for w in wits] for k, wits in details.items()} == witnesses
        built = np.zeros_like(dims)
        for key, wits in details.items():
            built[key] = sum(len(w.basis) for w in wits)
            assert len(lam.map.hom_bases[key]) == dims[key]
        assert np.array_equal(built, dims)
        assert np.array_equal(lam.map.dims, dims)


@pytest.mark.parametrize("suite", [default_suite, lambda: random_suite(1),
                                   lambda: random_suite(2),
                                   lambda: random_suite(5, n_spans=4, n_maps=3)],
                         ids=["default", "random1", "random2", "random5"])
def test_witness_starts_index_their_bases_in_the_entry(suite):
    suite = suite()
    spans = _spans_and_composites(suite)
    spans += [x for y in suite.spanmaps for x in (y.top, y.bottom)]
    for x in spans:
        lam = lambda_span(x, seed=suite.seed)
        for key, wits in lam.details.items():
            basis = lam.map.hom_bases[key]
            for w in wits:
                own = basis[w.start : w.start + len(w.basis)]
                assert len(own) == len(w.basis)
                assert all(np.shares_memory(a, b) and np.array_equal(a, b)
                           for a, b in zip(own, w.basis))


@pytest.mark.parametrize("route", ["_restricted_pairing", "_induced_pairing"])
def test_character_routes_must_agree(monkeypatch, route):
    x = compose_spans(fig1_span(), reverse_span(fig1_span()))
    want = lambda_span(x).map.dims
    real = getattr(lincat.linearization, route)

    def perturbed(shift):
        def pairing(*args):
            out = real(*args).copy()
            out[0, 0] += shift
            return out
        return pairing

    monkeypatch.setattr(lincat.linearization, route, perturbed(1.0))
    with pytest.raises(NumericalFailure, match="disagree"):
        lambda_span(x)
    monkeypatch.setattr(lincat.linearization, route, perturbed(0.5))
    with pytest.raises(NonIntegralMultiplicity):
        lambda_span(x)
    monkeypatch.setattr(lincat.linearization, route, perturbed(1e-9))
    assert np.array_equal(lambda_span(x).map.dims, want)


def test_dims_only_sections_build_no_models(monkeypatch):
    built = []
    real = lincat.linearization._leg_entries

    def spied(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lincat.linearization, "_leg_entries", spied)
    for suite in (default_suite(), random_suite(5, n_spans=4, n_maps=3)):
        # without span maps, only the compositor, associator and unitor
        # sections run
        report = verify_functoriality(SuiteConfig(suite.groupoids, suite.spans, []))
        assert report.ok
        assert {r.section for r in report.results} == {"compositor", "associator",
                                                       "unitor"}
    assert built == []


def test_projector_size_guard_waits_for_the_models(monkeypatch):
    s3 = symmetric_group(3)
    bs3, point = one_object_groupoid(s3), terminal_groupoid()
    x = Span(bs3, GroupoidFunctor.identity(bs3),
             GroupoidFunctor(bs3, point, [0], [trivial_hom(s3, point.aut(0))]))
    irreps(s3)  # cached before the limit drops below the table's 576 bytes
    # the (2*1)^2 projector of the 2-dimensional irrep needs 64 bytes; its
    # pushforward to the point is empty (no S3-invariants), and the other
    # pushforwards take 16 bytes, below the induced models' guard
    monkeypatch.setattr(lincat.rep, "MAX_DENSE_BYTES", 63)
    lam = lambda_span(x)
    assert lam.map.dims.tolist() == [[0, 1, 0]]
    with pytest.raises(InputTooLarge, match="intertwiner projector"):
        lam.details
    with pytest.raises(InputTooLarge, match="intertwiner projector"):
        lam.map.hom_bases


def _record_calls(monkeypatch, name):
    """Wrap lincat.linearization.<name>; the returned list collects the
    (first argument, result) pair of every call."""
    log = []
    real = getattr(lincat.linearization, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((args[0], out))
        return out

    monkeypatch.setattr(lincat.linearization, name, wrapper)
    return log


def test_verify_functoriality_linearizes_each_span_map_once(monkeypatch):
    suite = default_suite()
    # builds, not calls: later calls on a given value read the run memo
    linearized = _record_calls(monkeypatch, "_lambda_spanmap")
    built = _record_calls(monkeypatch, "_lambda_span")
    vertical = _record_calls(monkeypatch, "vertical_compose_spanmaps")
    horizontal = _record_calls(monkeypatch, "horizontal_compose_spanmaps")
    assert verify_functoriality(suite).ok
    # a span object built twice is the kept composite of two given spans,
    # which each check that reads it linearizes again (the log keeps each
    # span alive, so ids differ)
    assert len(built) == 167
    given = set(suite.spans) | {x for y in suite.spanmaps for x in (y.top, y.bottom)}
    twice = [x for x, _ in built if sum(z is x for z, _ in built) > 1]
    assert twice and all(set(x.factors) <= given for x in twice)
    composites = [out for _, out in vertical + horizontal]
    assert composites

    def times(y):
        return sum(z is y for z, _ in linearized)

    assert [times(y) for y in suite.spanmaps] == [1] * len(suite.spanmaps)
    assert all(times(z) == 1 for z in composites)
    assert len(linearized) == len(suite.spanmaps) + len(composites)

    # with one pair per section, every other input map is never linearized
    linearized.clear()
    maps = suite.spanmaps
    vpair = next((i, j) for i, a in enumerate(maps) for j, b in enumerate(maps)
                 if a.bottom == b.top)
    hpair = next((i, j) for i, a in enumerate(maps) for j, b in enumerate(maps)
                 if a.top.target == b.top.source)
    monkeypatch.setattr(lincat.linearization, "MAX_PAIRS", 1)
    assert verify_functoriality(suite).ok
    paired = set(vpair) | set(hpair)
    assert len(paired) < len(maps)
    assert [times(y) for y in maps] == [int(i in paired) for i in range(len(maps))]


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_compositor_spans_are_built_once_at_any_tolerance(monkeypatch, tol):
    # no tolerance enters lambda_span or beta_compositor, so the compositor's
    # spans are the results the other sections read: as many builds at any
    # suite tolerance
    suite = dataclasses.replace(random_suite(5, n_spans=4, n_maps=3), tolerance=tol)
    built = _record_calls(monkeypatch, "_lambda_span")
    assert verify_functoriality(suite).ok
    assert len(built) == 35


def test_a_run_keeps_only_what_it_was_given_and_its_composites(monkeypatch):
    # the memo keeps the results of the given spans and span maps, the
    # composites of two given spans and their compositors (one per pair of
    # factors), and nothing else: no composite's linearization
    memos = []
    real = lincat.groupoids._RunMemo

    def spied(inputs):
        memos.append(real(inputs))
        return memos[-1]

    monkeypatch.setattr(lincat.groupoids, "_RunMemo", spied)
    suite = default_suite()
    assert verify_functoriality(suite).ok
    (memo,) = memos
    kinds = {}
    for (kind, keys), result in memo.results.items():
        assert set(keys) <= memo.inputs
        kinds.setdefault(kind[0], []).append(result)
    assert sorted(kinds) == ["compose_spans", "composite_block_iso", "lambda_span",
                             "lambda_spanmap"]
    assert len(kinds["composite_block_iso"]) == 9
    given = set(suite.spans) | {x for y in suite.spanmaps for x in (y.top, y.bottom)}
    assert {lam.span for lam in kinds["lambda_span"]} <= given
    assert {res.spanmap for res in kinds["lambda_spanmap"]} <= set(suite.spanmaps)
    assert all(x.factors[0] in given and x.factors[1] in given
               for x in kinds["compose_spans"])


def test_a_run_reads_the_composite_comma_beside_an_equal_bare_copy(monkeypatch):
    # the run is given a comma-less copy of the composite of x and xp, and
    # the identity maps of x and xp: the horizontal composite's top span
    # equals the copy, so it reads the copy's kept linearization, and
    # composite_block_iso must still find the composite's comma and factors
    x, xp = fig1_span(), reverse_span(fig1_span())
    comp = compose_spans(x, xp)
    bare = Span(comp.apex, comp.left, comp.right)
    built = _record_calls(monkeypatch, "_lambda_span")
    maps = [SpanMap.identity(x), SpanMap.identity(xp)]
    report = verify_functoriality(SuiteConfig([x.source, x.target], [bare], maps))
    assert report.ok and report.section("horizontal")
    assert sum(z == bare for z, _ in built) == 1
    want = composite_block_iso(lambda_span(comp))
    with _run_memo([bare, comp, x, xp]):
        lam_bare = lambda_span(bare)
        lam = lambda_span(comp)
        assert lam.span is comp and lam.map is lam_bare.map
        got = composite_block_iso(lam)
        with pytest.raises(SpanMismatch):
            composite_block_iso(lam_bare)
    assert all(np.array_equal(got.blocks[k], want.blocks[k]) for k in want.blocks)
    # so must a kept span map's result, read for an equal map
    y = horizontal_compose_spanmaps(*maps)
    y_bare = SpanMap(Span(y.top.apex, y.top.left, y.top.right),
                     Span(y.bottom.apex, y.bottom.left, y.bottom.right), y.apex, y.up, y.down)
    with _run_memo([y_bare, y, y_bare.top, y_bare.bottom]):
        res_bare, res = lambda_spanmap(y_bare), lambda_spanmap(y)
        assert res.morphism is res_bare.morphism and res.spanmap is y
        assert res.source_result.span is y.top and res.target_result.span is y.bottom
        got = composite_block_iso(res.source_result)
    assert all(np.array_equal(got.blocks[k], want.blocks[k]) for k in want.blocks)


def test_a_run_keeps_a_recorded_product_apart_from_its_plain_twin():
    # the two spans differ only in their feet's factors, and so do their
    # feet's irreps
    g = direct_product(symmetric_group(3), cyclic_group(2))
    spans = [identity_span(one_object_groupoid(h)) for h in (g, FinGroup(g.mult))]
    assert spans[0] != spans[1]
    with _run_memo(spans):
        lams = [lambda_span(x) for x in spans]
    for lam, x in zip(lams, spans):
        own = irreps(x.source.aut(0))
        assert all(r is w for (_, r), w in zip(lam.source_object.positions[0], own, strict=True))


def test_equal_spans_over_a_recorded_product_share_one_result(monkeypatch):
    # each span's feet are a product of its own factor objects: equal values,
    # so one build, one irreps list, and each result keeps its caller's span
    def product():
        return direct_product(symmetric_group(3), cyclic_group(2))

    spans = [identity_span(one_object_groupoid(product())) for _ in range(2)]
    feet = [x.source.aut(0) for x in spans]
    assert spans[0] == spans[1] and feet[0] is not feet[1]
    assert feet[0].factors[0] is not feet[1].factors[0]
    built = _record_calls(monkeypatch, "_lambda_span")
    with _run_memo(spans):
        lams = [lambda_span(x) for x in spans]
    assert len(built) == 1
    assert lams[0].map is lams[1].map
    assert [lam.span for lam in lams] == spans and all(
        lam.span is x for lam, x in zip(lams, spans))
    own = irreps(feet[0])
    assert irreps(feet[1]) is own
    for lam in lams:
        assert all(r is w for (_, r), w in zip(lam.source_object.positions[0], own, strict=True))


def _big_transfer_reference(y, top_wits, bot_wits):
    """The dual-path transfer with every apex object's piece built on its own,
    by the staged pasting."""
    top_pos = {w.apex_idx: i for i, w in enumerate(top_wits)}
    bot_pos = {w.apex_idx: i for i, w in enumerate(bot_wits)}
    top_off = np.cumsum([0] + [w.ind.dim for w in top_wits])
    bot_off = np.cumsum([0] + [w.ind.dim for w in bot_wits])
    big = np.zeros((bot_off[-1], top_off[-1]), dtype=complex)
    for yi in range(len(y.apex)):
        x1, x2 = y.up(yi), y.down(yi)
        if x1 not in top_pos or x2 not in bot_pos:
            continue
        i1, i2 = top_pos[x1], bot_pos[x2]
        big[bot_off[i2]:bot_off[i2 + 1], top_off[i1]:top_off[i1 + 1]] += (
            staged_transfer_piece(y.up.hom(yi), y.down.hom(yi),
                                  top_wits[i1].r1, top_wits[i1].ind,
                                  bot_wits[i2].r1, bot_wits[i2].ind)
        )
    return big


def _dual_path_reference(y, lam_top, lam_bot):
    """The dual path on one dense transfer matrix per (a2, column), with one
    embedding and one trace per basis element."""
    blocks = {}
    for a2, pairs in enumerate(lam_top.target_object.positions):
        bigs = {}
        for r, w2 in pairs:
            for c in range(len(lam_top.source_object.basis)):
                top_wits, bot_wits = lam_top.details[(r, c)], lam_bot.details[(r, c)]
                if c not in bigs:
                    bigs[c] = _big_transfer_reference(y, top_wits, bot_wits)
                big = bigs[c]
                projections = []
                lo2 = 0
                for bw in bot_wits:
                    ind2 = bw.ind
                    kappa = ind2.group.order / (ind2.hom.source.order * w2.dim)
                    for f2 in bw.basis:
                        proj = _counit_kernel(ind2, w2.matrices @ f2) / kappa
                        projections.append((lo2, ind2.dim, proj))
                    lo2 += ind2.dim
                ncols = sum(len(tw.basis) for tw in top_wits)
                alt = np.zeros((len(projections), ncols), dtype=complex)
                col = lo = 0
                for tw in top_wits:
                    for f in tw.basis:
                        iota = np.zeros((big.shape[1], w2.dim), dtype=complex)
                        iota[lo:lo + tw.ind.dim] = _unit_kernel(
                            tw.ind, f.conj().T @ w2.matrices)
                        image = big @ iota
                        for i, (lo2, dim2, proj) in enumerate(projections):
                            alt[i, col] = np.trace(proj @ image[lo2:lo2 + dim2]) / w2.dim
                        col += 1
                    lo += tw.ind.dim
                blocks[(r, c)] = alt
    return TwoMorphism(lam_top.map, lam_bot.map, blocks)


def _assert_dual_path_matches_reference(y):
    """Compares ``_dual_path`` with the reference on ``y``; returns the number
    of nonempty blocks compared."""
    res = lambda_spanmap(y, check=False)
    lam_top, lam_bot = res.source_result, res.target_result
    got = _dual_path(y, lam_top, lam_bot)
    want = _dual_path_reference(y, lam_top, lam_bot)
    assert got.blocks.keys() == want.blocks.keys()
    for key, blk in got.blocks.items():
        assert blk.shape == want.blocks[key].shape
        if blk.size:
            assert np.max(np.abs(blk - want.blocks[key])) < 1e-12
    return sum(blk.size > 0 for blk in got.blocks.values())


def test_dual_path_matches_reference_loop(monkeypatch):
    suites = [default_suite()] + [random_suite(seed) for seed in range(20)]
    assert sum(_assert_dual_path_matches_reference(y)
               for suite in suites for y in suite.spanmaps) > 0

    # on a composite with repeated leg homs, equal keys share one piece
    suite = random_suite(5, n_spans=4, n_maps=3)
    y = vertical_compose_spanmaps(suite.spanmaps[0], suite.spanmaps[0])
    assert _assert_dual_path_matches_reference(y) > 0
    built = []
    real = lincat.linearization._transfer_piece

    def counted(*key):
        built.append(key)
        return real(*key)

    monkeypatch.setattr(lincat.linearization, "_transfer_piece", counted)
    res = lambda_spanmap(y, check=False)
    lam_top, lam_bot = res.source_result, res.target_result
    _dual_path(y, lam_top, lam_bot)
    # the apex objects the dual path reads, once per entry they lie over
    contributions = 0
    for key, top_wits in lam_top.details.items():
        tops = {w.apex_idx for w in top_wits if len(w.basis)}
        bots = {w.apex_idx for w in lam_bot.details[key] if len(w.basis)}
        contributions += sum(y.up(yi) in tops and y.down(yi) in bots
                             for yi in range(len(y.apex)))
    assert 0 < len(built) < contributions


# --- the run memo of verify_functoriality -----------------------------------


def test_verify_functoriality_builds_each_leg_entry_once(monkeypatch):
    keys = []
    real = lincat.linearization._leg_entries

    def counted(s_hom, t_hom, irreps1, irreps2, xi):
        keys.append((s_hom, t_hom))
        return real(s_hom, t_hom, irreps1, irreps2, xi)

    monkeypatch.setattr(lincat.linearization, "_leg_entries", counted)
    assert verify_functoriality(random_suite(5, n_spans=4, n_maps=3)).ok
    # only the vertical and horizontal sections build models (through
    # lambda_spanmap and composite_block_iso); every other check reads dims
    assert len(keys) == len(set(keys)) == 4


def test_dims_blocks_are_shared_across_tolerances(monkeypatch):
    # no tolerance enters a dims block: a run computes as many blocks at a
    # tight tolerance as at the default one
    counts = []
    real = lincat.linearization._leg_dims

    def counted(*args):
        counts[-1] += 1
        return real(*args)

    monkeypatch.setattr(lincat.linearization, "_leg_dims", counted)
    for tol in (1e-8, 1e-12):
        counts.append(0)
        suite = random_suite(5, n_spans=4, n_maps=3)
        suite.tolerance = tol
        assert verify_functoriality(suite).ok
    assert counts[0] == counts[1] > 0


def test_run_memo_lives_only_for_the_call(monkeypatch):
    run_memo = lincat.groupoids._RUN
    seen = []
    real = lincat.linearization._leg_entries

    def spied(*args):
        seen.append(run_memo.get())
        return real(*args)

    monkeypatch.setattr(lincat.linearization, "_leg_entries", spied)
    assert verify_functoriality(default_suite()).ok
    assert seen and seen[0] is not None
    assert all(memo is seen[0] for memo in seen)
    assert run_memo.get() is None
    # outside a run, lambda_span's models build their leg entries afresh
    seen.clear()
    lambda_span(default_suite().spans[0]).details
    assert seen and all(memo is None for memo in seen)

    def failing(*args):
        raise RuntimeError("leg entries failed")

    monkeypatch.setattr(lincat.linearization, "_leg_entries", failing)
    with pytest.raises(RuntimeError, match="leg entries failed"):
        verify_functoriality(default_suite())
    assert run_memo.get() is None


def _inclusion_span(g, apex_name):
    """1 <- BH -> BG for H the cyclic subgroup of g generated by element 2."""
    elems, e = {0}, 2
    while e not in elems:
        elems.add(e)
        e = int(g.mult[e, 2])
    sub, incl = subgroup_embedding(g, sorted(elems))
    apex = Groupoid([(apex_name, sub)])
    point = terminal_groupoid()
    return Span(apex, GroupoidFunctor(apex, point, [0], [trivial_hom(sub, point.aut(0))]),
                GroupoidFunctor(apex, one_object_groupoid(g), [0], [incl]))


def test_run_keeps_feet_with_equal_tables_but_other_irreps_apart():
    # G as a recorded product takes its irreps from its factors, G' (the same
    # table) splits C[G']: their irreps differ in basis, so leg entries that
    # agree on hom tables must not be shared between the two spans
    g = direct_product(symmetric_group(3), cyclic_group(2))
    gp = FinGroup(g.mult)
    spans = [_inclusion_span(g, "h"), _inclusion_span(gp, "h'")]
    assert spans[0] != spans[1]
    assert spans[0].left.hom(0) == spans[1].left.hom(0)
    incl, incl_twin = spans[0].right.hom(0), spans[1].right.hom(0)
    assert np.array_equal(incl.map, incl_twin.map) and incl.source == incl_twin.source
    assert incl != incl_twin
    maps = [SpanMap.identity(x) for x in spans]
    report = verify_functoriality(SuiteConfig([], spans, maps))
    assert report.ok, "\n".join(report.summary_lines())
    assert {r.section for r in report.results} == {"unitor", "vertical"}


def test_lambda_spanmap_outside_a_run_builds_each_leg_entry_once(monkeypatch):
    keys = []
    real = lincat.linearization._leg_entries

    def counted(s_hom, t_hom, irreps1, irreps2, xi):
        keys.append((s_hom, t_hom))
        return real(s_hom, t_hom, irreps1, irreps2, xi)

    monkeypatch.setattr(lincat.linearization, "_leg_entries", counted)
    for g in (symmetric_group(3), symmetric_group(4)):
        res = lambda_spanmap(SpanMap.identity(_inclusion_span(g, "h")))
        # top is bottom: one result for both
        assert res.source_result is res.target_result
    # two equal spans that are different objects share their leg entries
    point = terminal_groupoid()
    apex = one_object_groupoid(cyclic_group(2))
    leg = GroupoidFunctor.to_terminal(apex, point)
    res = lambda_spanmap(SpanMap(identity_span(point), identity_span(point), apex, leg, leg))
    assert res.source_result is not res.target_result
    assert len(keys) == len(set(keys)) == 3
    assert lincat.groupoids._RUN.get() is None


def test_twomorph_prints_the_bytes_of_unshared_spans(monkeypatch, capsys):
    argv = ["--output", "json", "twomorph", f"{DATA}/gmap_bz2.json"]
    assert lincat.cli.main(argv) == 0
    shared = capsys.readouterr().out
    # each span linearized on its own, with no run memo
    monkeypatch.setattr(
        lincat.cli, "lambda_spanmap",
        lambda y, seed, tol: lincat.linearization._lambda_spanmap(y, seed, tol, True))
    assert lincat.cli.main(argv) == 0
    assert capsys.readouterr().out == shared


def test_finished_run_memo_is_freed_by_reference_counting(monkeypatch):
    refs = []
    real = lincat.groupoids._RunMemo

    def tracked(*args, **kwargs):
        memo = real(*args, **kwargs)
        refs.append(weakref.ref(memo))
        return memo

    monkeypatch.setattr(lincat.groupoids, "_RunMemo", tracked)
    gc.disable()
    try:
        report = verify_functoriality(random_suite(5, n_spans=4, n_maps=3))
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
    assert report.ok


def _report_rows(report):
    return ([(r.section, r.name, r.passed, r.deviation, r.note) for r in report.results],
            list(report.skipped))


def test_concurrent_runs_keep_their_own_memo():
    suites = [default_suite(), random_suite(5)]
    want = [_report_rows(verify_functoriality(suite)) for suite in suites]
    got = [None] * len(suites)

    def run(i):
        got[i] = _report_rows(verify_functoriality(suites[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(suites))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_run_lambda_spans_equal_standalone_recomputation(monkeypatch):
    suite = random_suite(5, n_spans=4, n_maps=3)
    recorded = _record_calls(monkeypatch, "_lambda_span")
    assert verify_functoriality(suite).ok
    monkeypatch.undo()
    # builds, not calls: each registered input is built once, and its later
    # calls read the run memo
    assert len(recorded) == 35
    for x, lam in recorded:
        alone = lambda_span(x, seed=suite.seed)
        assert np.array_equal(lam.map.dims, alone.map.dims)
        assert lam.witnesses == alone.witnesses
        assert lam.map.hom_bases.keys() == alone.map.hom_bases.keys()
        for key, basis in alone.map.hom_bases.items():
            got = lam.map.hom_bases[key]
            assert len(got) == len(basis)
            assert all(np.array_equal(a, b) for a, b in zip(got, basis))
