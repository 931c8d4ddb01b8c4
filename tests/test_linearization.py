from fractions import Fraction

import numpy as np
import pytest

from lincat.documents import parse
from lincat.errors import IntertwinerProjectionFailure
from lincat.groupoids import (
    Groupoid,
    GroupoidFunctor,
    Span,
    SpanMap,
    compose_spans,
    discrete_groupoid,
    horizontal_compose_spanmaps,
    identity_span,
    one_object_groupoid,
    reverse_span,
    terminal_groupoid,
    vertical_compose_spanmaps,
)
from lincat.groups import cyclic_group, symmetric_group, trivial_group
from lincat.linearization import (
    _check_dual_path,
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
    span_over_points,
    z2_in_s3,
)
from lincat.rep import DEFAULT_SEED, DEFAULT_TOL
from lincat.twovect import TwoMorphism, hcompose_2morph, vcompose_2morph

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
                            coords[i] * bw.basis[i].entries for i in range(n)
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
    with pytest.raises(IntertwinerProjectionFailure):
        _check_dual_path(sm, res.source_result, res.target_result, wrong,
                         seed=DEFAULT_SEED, tol=DEFAULT_TOL)


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


def test_beta_gamma_invertible_across_suite():
    spans = default_suite().spans
    pairs = [
        (a, b) for a in spans for b in spans if a.target == b.source
    ]
    for a, b in pairs[:12]:
        rep = beta_compositor(a, b)
        assert rep.ok()
        assert rep.max_condition_number < 1e6


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
    _, iso_top, _ = composite_block_iso(g1.top, g2.top, lam_c=lam_comp.source_result)
    _, iso_bot, _ = composite_block_iso(
        g1.bottom, g2.bottom, lam_c=lam_comp.target_result
    )
    for key, blk in lam_comp.morphism.blocks.items():
        lhs = blk @ iso_top[key]
        rhs = iso_bot[key] @ hc.blocks[key]
        if lhs.size:
            assert np.max(np.abs(lhs - rhs)) < TOL


# --- suite -------------------------------------------------------------------


def test_verify_functoriality_default_suite():
    report = verify_functoriality(default_suite())
    assert report.ok, "\n".join(report.summary_lines())
    assert report.max_deviation < TOL
    sections = {r.section for r in report.results}
    assert sections == {"compositor", "associator", "unitor", "vertical", "horizontal"}


def test_verify_functoriality_identity_spans_only():
    from lincat.linearization import SuiteConfig

    one = terminal_groupoid()
    spans = [identity_span(one)]
    maps = [SpanMap.identity(spans[0])]
    report = verify_functoriality(SuiteConfig([one], spans, maps))
    assert report.ok
    assert report.max_deviation == 0.0


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
