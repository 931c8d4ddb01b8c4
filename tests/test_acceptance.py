"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or on
failure) and enforces the stated tolerance and time budget.
"""

import time
from fractions import Fraction

import numpy as np

from lincat.errors import StrictnessViolation
from lincat.groupoids import (
    discrete_groupoid,
    horizontal_compose_spanmaps,
    one_object_groupoid,
    reverse_span,
    vertical_compose_spanmaps,
)
from lincat.groups import (
    GroupHom,
    cyclic_group,
    direct_product,
    symmetric_group,
    trivial_group,
    trivial_hom,
)
from lincat.linearization import (
    beta_compositor,
    composite_block_iso,
    degroupoidify,
    lambda_span,
    lambda_spanmap,
)
from lincat.rep import (
    character_inner,
    hom_dim,
    induce_rep,
    irreps,
    regular_rep,
    restrict_rep,
    trivial_rep,
    verify_zigzag,
)
from lincat.suites import (
    default_suite,
    fig1_span,
    groupoidification_map,
    mixed_groupoid,
    standard_homs,
    z2_in_s3,
    z3_in_s3,
)
from lincat.twovect import hcompose_2morph, vcompose_2morph

TOL = 1e-8


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.monotonic()

    def done(self, name):
        elapsed = time.monotonic() - self.start
        print(f"PASS {name} ({elapsed:.2f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"{name} exceeded its {self.budget}s budget"


def test_criterion_1_set_span_reduction():
    watch = Stopwatch(1.0)
    fig1 = fig1_span()
    expected = [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert degroupoidify(fig1) == expected
    assert lambda_span(fig1).map.dims.tolist() == [[1, 1, 0], [0, 1, 1]]
    watch.done("criterion 1: set-span reduction")


def test_criterion_2_groupoidification():
    watch = Stopwatch(5.0)
    cases = [
        (one_object_groupoid(cyclic_group(2)), Fraction(1, 2)),
        (one_object_groupoid(cyclic_group(3)), Fraction(1, 3)),
        (one_object_groupoid(symmetric_group(3)), Fraction(1, 6)),
        (discrete_groupoid(["p1", "p2", "p3"]), Fraction(3)),
        (mixed_groupoid(), Fraction(5, 3)),
    ]
    for apex, want in cases:
        # rational-sum oracle for the cardinality
        oracle = sum(
            (Fraction(1, apex.aut(i).order) for i in range(len(apex))),
            Fraction(0),
        )
        assert oracle == want
        res = lambda_spanmap(groupoidification_map(apex))
        assert sum(res.coefficients.values()) == want  # exact rationals
        block = res.morphism.blocks[(0, 0)]
        assert abs(block[0, 0] - float(want)) < TOL  # numeric path
    watch.done("criterion 2: groupoidification scalars")


def test_criterion_3_representation_core():
    watch = Stopwatch(30.0)
    groups = [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        direct_product(cyclic_group(2), cyclic_group(2)),
        symmetric_group(3),
        symmetric_group(4),
    ]
    for g in groups:
        assert g.order <= 24
        rs = irreps(g)
        assert sum(r.dim**2 for r in rs) == g.order
        for i, a in enumerate(rs):
            for j, b in enumerate(rs):
                want = 1.0 if i == j else 0.0
                assert abs(character_inner(a.character, b.character) - want) < TOL
    homs = [
        z2_in_s3(),
        z3_in_s3(),
        GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1]),
        trivial_hom(cyclic_group(2), trivial_group()),
    ]
    for f in homs:
        for v in irreps(f.source):
            ind_chi = induce_rep(f, v).character
            for w in irreps(f.target):
                lhs = hom_dim(ind_chi, w.character)
                rhs = hom_dim(v.character, restrict_rep(f, w).character)
                assert lhs == rhs
    watch.done("criterion 3: representation-theory core")


def test_criterion_4_zigzag():
    watch = Stopwatch(10.0)
    for name, f in standard_homs().items():
        probes = (
            [trivial_rep(f.source), regular_rep(f.source)]
            + list(irreps(f.source))
            + [trivial_rep(f.target), regular_rep(f.target)]
            + list(irreps(f.target))
        )
        report = verify_zigzag(f, probes)
        assert report.ok(TOL), f"zigzag failed for {name}: {report.max_deviation}"
    watch.done("criterion 4: zig-zag identities")


def test_criterion_5_compositor():
    watch = Stopwatch(60.0)
    spans = default_suite().spans
    pairs = [(a, b) for a in spans for b in spans if a.target == b.source]
    assert pairs, "suite has no composable pairs"
    for a, b in pairs:
        rep = beta_compositor(a, b)
        assert rep.dims_ok  # exact integer matrix product
        assert rep.max_condition_number < 1e6
        assert rep.max_defect < TOL
    watch.done(f"criterion 5: compositor over {len(pairs)} composable pairs")


def test_criterion_6_vertical_horizontal():
    watch = Stopwatch(60.0)
    maps = default_suite().spanmaps
    vchecked = hchecked = 0
    for a in maps:
        for b in maps:
            if a.bottom == b.top:
                try:
                    comp = vertical_compose_spanmaps(a, b)
                except StrictnessViolation:
                    continue
                lhs = lambda_spanmap(comp).morphism
                rhs = vcompose_2morph(
                    lambda_spanmap(a).morphism, lambda_spanmap(b).morphism
                )
                for key, blk in lhs.blocks.items():
                    if blk.size:
                        assert np.max(np.abs(blk - rhs.blocks[key])) < TOL
                vchecked += 1
    for a in maps:
        for b in maps:
            if a.top.target == b.top.source:
                try:
                    comp = horizontal_compose_spanmaps(a, b)
                except StrictnessViolation:
                    continue
                lam_comp = lambda_spanmap(comp)
                hc = hcompose_2morph(
                    lambda_spanmap(b).morphism, lambda_spanmap(a).morphism
                )
                iso_top = composite_block_iso(lam_comp.source_result)
                iso_bot = composite_block_iso(lam_comp.target_result)
                for key, blk in lam_comp.morphism.blocks.items():
                    lhs = blk @ iso_top.blocks[key]
                    rhs = iso_bot.blocks[key] @ hc.blocks[key]
                    if lhs.size:
                        assert np.max(np.abs(lhs - rhs)) < TOL
                hchecked += 1
    assert vchecked >= 10 and hchecked >= 10
    watch.done(
        f"criterion 6: vertical ({vchecked}) / horizontal ({hchecked}) composition"
    )


def test_criterion_7_dagger_duality():
    watch = Stopwatch(5.0)
    spans = default_suite().spans + [fig1_span()]
    for s in spans:
        fwd = lambda_span(s).map.dims
        rev = lambda_span(reverse_span(s)).map.dims
        assert np.array_equal(rev, fwd.T)
    watch.done(f"criterion 7: dagger duality over {len(spans)} spans")


def test_criterion_8_dual_evaluation_paths():
    watch = Stopwatch(60.0)
    maps = default_suite().spanmaps
    for sm in maps:
        # check=True raises IntertwinerProjectionFailure on disagreement > tol
        lambda_spanmap(sm, check=True, tol=TOL)
    watch.done(f"criterion 8: dual evaluation agreement over {len(maps)} span maps")
