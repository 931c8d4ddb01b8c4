"""Fixture objects and suite builders for the verification machinery."""

from __future__ import annotations

import operator

import numpy as np

from .errors import LincatError
from .groupoids import (
    Groupoid,
    GroupoidFunctor,
    Span,
    SpanMap,
    discrete_groupoid,
    identity_span,
    one_object_groupoid,
    reverse_span,
    terminal_groupoid,
)
from .groups import (
    GroupHom,
    all_homs,
    cyclic_group,
    direct_product,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    trivial_hom,
)
from .linearization import SuiteConfig
from .rep import DEFAULT_SEED, DEFAULT_TOL


def standard_groups():
    """The shipped group fixtures: trivial, Z2, Z3, Z4, S3."""
    return {
        "1": trivial_group(),
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "S3": symmetric_group(3),
    }


def z2_in_s3() -> GroupHom:
    """The copy of Z2 inside S3 generated by the transposition of the first
    two points."""
    s3 = symmetric_group(3)
    sub, incl = subgroup_embedding(s3, [0, 2], name="Z2")
    return incl


def z3_in_s3() -> GroupHom:
    s3 = symmetric_group(3)
    sub, incl = subgroup_embedding(s3, [0, 3, 4], name="Z3")
    return incl


def z4_onto_z2() -> GroupHom:
    return GroupHom(cyclic_group(4), cyclic_group(2), np.array([0, 1, 0, 1]))


def z2_to_1() -> GroupHom:
    return trivial_hom(cyclic_group(2), trivial_group())


def standard_homs():
    return {
        "Z2->S3": z2_in_s3(),
        "Z3->S3": z3_in_s3(),
        "Z4->Z2": z4_onto_z2(),
        "Z2->1": z2_to_1(),
    }


def fig1_span() -> Span:
    """The introductory span of sets: three points mapping to two points with
    fibers (y1,z1), (y2,z1), (y2,z2), (y3,z2)."""
    ys = discrete_groupoid(["y1", "y2", "y3"])
    zs = discrete_groupoid(["z1", "z2"])
    apex = discrete_groupoid(["x1", "x2", "x3", "x4"])
    t = trivial_group()
    homs = [trivial_hom(t, t) for _ in range(4)]
    left = GroupoidFunctor(apex, ys, [0, 1, 1, 2], homs)
    right = GroupoidFunctor(apex, zs, [0, 0, 1, 1], homs)
    return Span(apex, left, right)


def span_over_points(apex: Groupoid) -> Span:
    """The span  1 <- apex -> 1  along the unique functors."""
    one = terminal_groupoid()
    leg = GroupoidFunctor.to_terminal(apex, one)
    return Span(apex, leg, leg)


def mixed_groupoid() -> Groupoid:
    return Groupoid(
        [
            ("p", trivial_group()),
            ("q", cyclic_group(2)),
            ("r", symmetric_group(3)),
        ],
        name="mixed",
    )


def groupoidification_map(apex: Groupoid) -> SpanMap:
    """Span map between identity spans on the terminal groupoid with the given
    apex; its single matrix block is the groupoid cardinality of the apex."""
    one = terminal_groupoid()
    ident = identity_span(one)
    leg = GroupoidFunctor.to_terminal(apex, one)
    return SpanMap(ident, ident, apex, leg, leg)


def endo_map_on_identity(span_groupoid: Groupoid, functor: GroupoidFunctor) -> SpanMap:
    """Span map between the identity span on a groupoid, with both legs the
    same functor (always strict)."""
    ident = identity_span(span_groupoid)
    return SpanMap(ident, ident, functor.source, functor, functor)


def default_suite(seed=DEFAULT_SEED, tolerance=DEFAULT_TOL) -> SuiteConfig:
    """Fixture-based suite: the shipped groupoids with inclusion/terminal-leg
    spans and the strict span-map families over them."""
    one = terminal_groupoid()
    bz2 = one_object_groupoid(cyclic_group(2))
    bz3 = one_object_groupoid(cyclic_group(3))
    bs3 = one_object_groupoid(symmetric_group(3))
    p3 = discrete_groupoid(["y1", "y2", "y3"])
    p2 = discrete_groupoid(["z1", "z2"])
    mixed = mixed_groupoid()
    groupoids = [one, bz2, bz3, bs3, p3, p2, mixed]

    incl2 = GroupHom(bz2.aut(0), bs3.aut(0), z2_in_s3().map)
    incl3 = GroupHom(bz3.aut(0), bs3.aut(0), z3_in_s3().map)

    fig1 = fig1_span()
    spans = [
        identity_span(one),
        identity_span(bz2),
        identity_span(bs3),
        span_over_points(bz2),
        span_over_points(bz3),
        span_over_points(bs3),
        span_over_points(p3),
        span_over_points(mixed),
        fig1,
        reverse_span(fig1),
        Span(
            bz2,
            GroupoidFunctor.to_terminal(bz2, one),
            GroupoidFunctor(bz2, bs3, [0], [incl2]),
        ),
        Span(
            bz2,
            GroupoidFunctor(bz2, bs3, [0], [incl2]),
            GroupoidFunctor.to_terminal(bz2, one),
        ),
        Span(
            bz3,
            GroupoidFunctor.to_terminal(bz3, one),
            GroupoidFunctor(bz3, bs3, [0], [incl3]),
        ),
        Span(
            bz3,
            GroupoidFunctor(bz3, bs3, [0], [incl3]),
            GroupoidFunctor.to_terminal(bz3, one),
        ),
    ]

    maps = [
        SpanMap.identity(spans[3]),
        SpanMap.identity(fig1),
        SpanMap.identity(spans[10]),
        groupoidification_map(bz2),
        groupoidification_map(bz3),
        groupoidification_map(bs3),
        groupoidification_map(discrete_groupoid(["a", "b", "c"])),
        groupoidification_map(mixed),
        endo_map_on_identity(bs3, GroupoidFunctor(bz2, bs3, [0], [incl2])),
        endo_map_on_identity(bs3, GroupoidFunctor(bz3, bs3, [0], [incl3])),
        endo_map_on_identity(
            bz2,
            GroupoidFunctor(
                one, bz2, [0], [trivial_hom(one.aut(0), bz2.aut(0))]
            ),
        ),
    ]
    return SuiteConfig(groupoids, spans, maps, tolerance=tolerance, seed=seed)


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _seed_words(seed):
    """The four 64-bit words of numpy's ``SeedSequence(seed).generate_state(4,
    np.uint64)``: the seed's little-endian 32-bit words hashed into a pool of
    four, then eight output words paired little-endian."""
    entropy = []
    while True:
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _Draws:
    """The integer draws of ``numpy.random.default_rng(seed)``, call for call,
    without numpy's generator: PCG64 (a 128-bit LCG with the XSL-RR output,
    O'Neill 2014) seeded as numpy's SeedSequence seeds it, 32-bit draws that
    keep the upper half of each 64-bit output for the next one, and Lemire's
    rejection for a bounded integer (ACM TOMACS 29(1), 2019)."""

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645
    _M128 = (1 << 128) - 1

    def __init__(self, seed):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & self._M128
        # PCG64's seeding: one step from state 0 (which gives inc), add the
        # seed's state, one more step
        self._state = self._inc + (s_hi << 64 | s_lo)
        self._next64()
        self._half = None

    def _next64(self):
        self._state = (self._state * self._MULT + self._inc) & self._M128
        word = (self._state >> 64 ^ self._state) & _M64
        rot = self._state >> 122
        return (word >> rot | word << (64 - rot)) & _M64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, low, high):
        """A uniform integer in [low, high), as ``Generator.integers(low,
        high)`` draws it; a range of one value consumes no draw."""
        span = high - low
        if not 1 <= span <= _M32:
            raise ValueError(f"cannot draw from [{low}, {high})")
        if span == 1:
            return low
        m = self._next32() * span
        if (m & _M32) < span:
            threshold = (1 << 32) % span
            while (m & _M32) < threshold:
                m = self._next32() * span
        return low + (m >> 32)


def random_suite(seed, n_groupoids=4, n_spans=6, n_maps=4, max_objects=4,
                 max_apex_objects=6) -> SuiteConfig:
    """Seeded random suite within the documented bounds.  Span maps are drawn
    from the families that are strict by construction: maps over the terminal
    groupoid and maps between identity spans with equal legs.

    The seed is any non-negative integer (numpy integers included); a
    negative one raises LincatError.  It fixes the suite on every platform
    and numpy version: the draws are those of
    ``numpy.random.default_rng(seed).integers``, computed in plain Python,
    and the suite's irreps are split with the same seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise LincatError(f"seed must be non-negative, got {seed}")
    rng = _Draws(seed)
    pool = [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        direct_product(cyclic_group(2), cyclic_group(2)),
        symmetric_group(3),
    ]
    hom_cache = {}

    def homs_between(g, h):
        key = (g.key, h.key)
        if key not in hom_cache:
            hom_cache[key] = all_homs(g, h)
        return hom_cache[key]

    def random_groupoid(max_objs):
        n = rng.integers(1, max_objs + 1)
        objs = []
        for i in range(n):
            g = pool[rng.integers(0, len(pool))]
            objs.append((f"o{i}", g))
        return Groupoid(objs)

    groupoids = [random_groupoid(max_objects) for _ in range(n_groupoids)]

    def random_functor(src, tgt):
        omap = [rng.integers(0, len(tgt)) for _ in range(len(src))]
        homs = []
        for i in range(len(src)):
            options = homs_between(src.aut(i), tgt.aut(omap[i]))
            homs.append(options[rng.integers(0, len(options))])
        return GroupoidFunctor(src, tgt, omap, homs)

    spans = []
    for _ in range(n_spans):
        apex = random_groupoid(max_apex_objects)
        src = groupoids[rng.integers(0, len(groupoids))]
        tgt = groupoids[rng.integers(0, len(groupoids))]
        spans.append(Span(apex, random_functor(apex, src), random_functor(apex, tgt)))

    one = terminal_groupoid()
    maps = []
    for _ in range(n_maps):
        choice = rng.integers(0, 3)
        if choice == 0:
            maps.append(groupoidification_map(random_groupoid(max_apex_objects)))
        elif choice == 1:
            base = groupoids[rng.integers(0, len(groupoids))]
            apex = random_groupoid(max_apex_objects)
            maps.append(endo_map_on_identity(base, random_functor(apex, base)))
        else:
            s = spans[rng.integers(0, len(spans))]
            maps.append(SpanMap.identity(s))
    return SuiteConfig(groupoids + [one], spans, maps, seed=seed)
