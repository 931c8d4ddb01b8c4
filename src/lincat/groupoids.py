"""Skeletal essentially finite groupoids, functors, spans and spans of span maps.

A groupoid is stored skeletally: an ordered list of objects, each carrying its
automorphism group.  Distinct objects are non-isomorphic by fiat.  Weak
pullbacks are computed as comma categories: isomorphism classes of objects over
a pair (a, b) with f(a) = g(b) = c correspond to double cosets
im(f_a) \\ Aut(c) / im(g_b), and the automorphism group of the class with
mediating morphism m is the fibred product {(h, k) : f(h)*m = m*g(k)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    IndexOutOfRange,
    SpanMismatch,
    StrictnessViolation,
    TargetMismatch,
)
from .groups import FinGroup, GroupHom, _table_group, identity_hom


class Groupoid:
    """Ordered list of (name, automorphism group) pairs; may be empty."""

    def __init__(self, objects, name=None):
        objects = list(objects)
        names = [n for n, _ in objects]
        if len(set(names)) != len(names):
            raise IndexOutOfRange("object names must be unique")
        self.objects = objects
        self.name = name if name is not None else "+".join(names) or "0"

    @property
    def names(self):
        return [n for n, _ in self.objects]

    def aut(self, i) -> FinGroup:
        try:
            return self.objects[i][1]
        except IndexError:
            raise IndexOutOfRange(f"no object {i} in groupoid {self.name}") from None

    def __len__(self):
        return len(self.objects)

    def __eq__(self, other):
        return (
            isinstance(other, Groupoid)
            and self.names == other.names
            and all(a == b for (_, a), (_, b) in zip(self.objects, other.objects))
        )

    def __hash__(self):
        return hash(tuple((n, g.fingerprint) for n, g in self.objects))

    def __repr__(self):
        return f"Groupoid({self.name!r}, {len(self)} objects)"


def groupoid_cardinality(x: Groupoid) -> Fraction:
    """Sum of 1/#Aut over objects, as an exact rational."""
    total = Fraction(0, 1)
    for _, aut in x.objects:
        total += Fraction(1, aut.order)
    return total


def terminal_groupoid() -> Groupoid:
    from .groups import trivial_group

    return Groupoid([("*", trivial_group())], name="1")


def discrete_groupoid(names) -> Groupoid:
    from .groups import trivial_group

    t = trivial_group()
    return Groupoid([(n, t) for n in names])


def one_object_groupoid(g: FinGroup, obj_name="*", name=None) -> Groupoid:
    return Groupoid([(obj_name, g)], name=name or f"B{g.name}")


def disjoint_union(x: Groupoid, y: Groupoid, name=None) -> Groupoid:
    return Groupoid(list(x.objects) + list(y.objects), name=name)


class GroupoidFunctor:
    """Object map plus one group homomorphism per source object."""

    def __init__(self, source: Groupoid, target: Groupoid, object_map, hom_maps):
        object_map = np.asarray(object_map, dtype=np.int64)
        if object_map.shape != (len(source),):
            raise IndexOutOfRange("object map length does not match source")
        if len(source) and (object_map.min() < 0 or object_map.max() >= len(target)):
            raise IndexOutOfRange("object map entry out of range")
        hom_maps = list(hom_maps)
        if len(hom_maps) != len(source):
            raise IndexOutOfRange("need one hom per source object")
        for i, h in enumerate(hom_maps):
            if h.source != source.aut(i) or h.target != target.aut(int(object_map[i])):
                raise TargetMismatch(
                    f"hom at object {i} does not run between the required groups"
                )
        self.source = source
        self.target = target
        self.object_map = object_map
        self.hom_maps = hom_maps

    @classmethod
    def identity(cls, a: Groupoid) -> "GroupoidFunctor":
        return cls(a, a, np.arange(len(a)), [identity_hom(g) for _, g in a.objects])

    @classmethod
    def to_terminal(cls, a: Groupoid, terminal: Groupoid) -> "GroupoidFunctor":
        from .groups import trivial_hom

        return cls(
            a,
            terminal,
            np.zeros(len(a), dtype=np.int64),
            [trivial_hom(g, terminal.aut(0)) for _, g in a.objects],
        )

    def __call__(self, i):
        return int(self.object_map[i])

    def hom(self, i) -> GroupHom:
        return self.hom_maps[i]

    def then(self, other: "GroupoidFunctor") -> "GroupoidFunctor":
        """Composite ``other . self`` (apply self first)."""
        if self.target != other.source:
            raise TargetMismatch("functors are not composable")
        omap = other.object_map[self.object_map] if len(self.source) else self.object_map
        homs = [
            self.hom_maps[i].then(other.hom_maps[self(i)]) for i in range(len(self.source))
        ]
        return GroupoidFunctor(self.source, other.target, omap, homs)

    def __eq__(self, other):
        return (
            isinstance(other, GroupoidFunctor)
            and self.source == other.source
            and self.target == other.target
            and np.array_equal(self.object_map, other.object_map)
            and all(a == b for a, b in zip(self.hom_maps, other.hom_maps))
        )

    def __hash__(self):
        return hash((self.source, self.target, self.object_map.tobytes()))


@dataclass
class Span:
    """A diagram  source <- apex -> target  of groupoid functors."""

    apex: Groupoid
    left: GroupoidFunctor
    right: GroupoidFunctor

    def __post_init__(self):
        if self.left.source != self.apex or self.right.source != self.apex:
            raise TargetMismatch("span legs must start at the apex")

    @property
    def source(self) -> Groupoid:
        return self.left.target

    @property
    def target(self) -> Groupoid:
        return self.right.target

    def __eq__(self, other):
        return (
            isinstance(other, Span)
            and self.apex == other.apex
            and self.left == other.left
            and self.right == other.right
        )


def identity_span(a: Groupoid) -> Span:
    f = GroupoidFunctor.identity(a)
    return Span(a, f, f)


def reverse_span(x: Span) -> Span:
    """The same maps in the reverse orientation."""
    return Span(x.apex, x.right, x.left)


class SpanMap:
    """A span between two parallel spans, commuting strictly.

    ``up`` runs from the apex to the top span's apex, ``down`` to the bottom
    span's apex.  Strictness means top.left . up == bottom.left . down and
    top.right . up == bottom.right . down as functors, on objects and on
    group elements.
    """

    def __init__(self, top: Span, bottom: Span, apex: Groupoid, up, down):
        if top.source != bottom.source or top.target != bottom.target:
            raise SpanMismatch("top and bottom spans must share source and target")
        if up.source != apex or down.source != apex:
            raise SpanMismatch("up/down legs must start at the apex")
        if up.target != top.apex or down.target != bottom.apex:
            raise SpanMismatch("up/down legs must land on the span apexes")
        if up.then(top.left) != down.then(bottom.left):
            raise StrictnessViolation("left composites disagree")
        if up.then(top.right) != down.then(bottom.right):
            raise StrictnessViolation("right composites disagree")
        self.top = top
        self.bottom = bottom
        self.apex = apex
        self.up = up
        self.down = down

    @classmethod
    def identity(cls, x: Span) -> "SpanMap":
        f = GroupoidFunctor.identity(x.apex)
        return cls(x, x, x.apex, f, f)

    def __eq__(self, other):
        return (
            isinstance(other, SpanMap)
            and self.top == other.top
            and self.bottom == other.bottom
            and self.apex == other.apex
            and self.up == other.up
            and self.down == other.down
        )


def essential_preimage_cardinality(sm: SpanMap, x1: int, x2: int) -> Fraction:
    """Sum of 1/#Aut(y) over apex objects y with up(y) = x1 and down(y) = x2."""
    if not 0 <= x1 < len(sm.top.apex):
        raise IndexOutOfRange(f"no object {x1} in the top apex")
    if not 0 <= x2 < len(sm.bottom.apex):
        raise IndexOutOfRange(f"no object {x2} in the bottom apex")
    total = Fraction(0, 1)
    for y in range(len(sm.apex)):
        if sm.up(y) == x1 and sm.down(y) == x2:
            total += Fraction(1, sm.apex.aut(y).order)
    return total


# ---------------------------------------------------------------------------
# comma categories / weak pullbacks


@dataclass
class CommaClass:
    """One isomorphism class of objects in a comma category (f | g).

    The class sits over the pair (a_idx, b_idx) with common image c_idx, has
    mediating morphism ``rep`` (an element of Aut(c), minimal in its double
    coset unless a selector chose otherwise), and automorphism group ``fib``
    materialized on the lexicographically sorted pairs ``pairs``.
    """

    a_idx: int
    b_idx: int
    c_idx: int
    rep: int
    pairs: list
    fib: FinGroup
    pair_index: dict
    # for every m in Aut(c): which class it belongs to and a witness (h0, k0)
    # with m = f(h0) * rep * g(k0)^-1 (shared per (a, b) pair, set by the builder)
    coset_class: np.ndarray = None
    witness: list = None


@dataclass
class CommaCategory:
    groupoid: Groupoid
    proj_left: GroupoidFunctor
    proj_right: GroupoidFunctor
    classes: list
    # (a_idx, b_idx) -> (coset_class array over Aut(c), witness list, class ids)
    pair_data: dict = None


def _fibred_product(f: GroupHom, g: GroupHom, c: FinGroup, m: int):
    """Pairs (h, k) with f(h)*m = m*g(k), as a group on lex-sorted pairs."""
    pairs = []
    for h in range(f.source.order):
        lhs = c.mul(f(h), m)
        for k in range(g.source.order):
            if lhs == c.mul(m, g(k)):
                pairs.append((h, k))
    pairs.sort()
    fib = _table_group(
        pairs,
        lambda p, q: (f.source.mul(p[0], q[0]), g.source.mul(p[1], q[1])),
        name=f"fib[{m}]",
    )
    return pairs, fib, {p: i for i, p in enumerate(pairs)}


def comma_category(f: GroupoidFunctor, g: GroupoidFunctor, rep_selector=None) -> CommaCategory:
    """Skeleton of the comma category (f | g) with its two projections.

    ``rep_selector(a, b, c_idx, f_hom, g_hom, c_group, coset_elements)`` may
    pick the mediating representative of each double coset (or return None to
    refuse); the default takes the minimal element index.
    """
    if f.target != g.target:
        raise TargetMismatch("comma category needs functors with a common target")
    classes = []
    pair_data = {}
    for a in range(len(f.source)):
        for b in range(len(g.source)):
            if f(a) != g(b):
                continue
            c_idx = f(a)
            c = f.target.aut(c_idx)
            fh, gh = f.hom(a), g.hom(b)
            im_f = fh.image()
            im_g = gh.image()
            coset_class = -np.ones(c.order, dtype=np.int64)
            witness = [None] * c.order
            class_ids = []
            for m0 in range(c.order):
                if coset_class[m0] >= 0:
                    continue
                # double coset im(f_a) * m0 * im(g_b)
                coset = sorted(
                    {c.mul(c.mul(u, m0), v) for u in im_f for v in im_g}
                )
                rep = coset[0]
                if rep_selector is not None:
                    rep = rep_selector(a, b, c_idx, fh, gh, c, coset)
                    if rep is None:
                        raise StrictnessViolation(
                            f"no admissible representative in the double coset of "
                            f"{m0} over objects ({a}, {b})"
                        )
                pairs, fib, index = _fibred_product(fh, gh, c, rep)
                cls = CommaClass(a, b, c_idx, rep, pairs, fib, index)
                cid = len(classes)
                classes.append(cls)
                class_ids.append(cid)
                for h in range(fh.source.order):
                    u = fh(h)
                    for k in range(gh.source.order):
                        mm = c.mul(c.mul(u, rep), c.inv[gh(k)])
                        if witness[mm] is None:
                            coset_class[mm] = cid
                            witness[mm] = (h, k)
                cls.coset_class = coset_class
                cls.witness = witness
            pair_data[(a, b)] = (coset_class, witness, class_ids)
    names = []
    groups = []
    for cls in classes:
        na = f.source.names[cls.a_idx]
        nb = g.source.names[cls.b_idx]
        names.append(f"({na}|{cls.rep}|{nb})")
        groups.append(cls.fib)
    apex = Groupoid(list(zip(names, groups)))
    # projections forget to the two components
    left_omap = [cls.a_idx for cls in classes]
    left_homs = [
        GroupHom(cls.fib, f.source.aut(cls.a_idx), np.array([p[0] for p in cls.pairs]))
        for cls in classes
    ]
    right_omap = [cls.b_idx for cls in classes]
    right_homs = [
        GroupHom(cls.fib, g.source.aut(cls.b_idx), np.array([p[1] for p in cls.pairs]))
        for cls in classes
    ]
    proj_left = GroupoidFunctor(apex, f.source, left_omap, left_homs)
    proj_right = GroupoidFunctor(apex, g.source, right_omap, right_homs)
    return CommaCategory(apex, proj_left, proj_right, classes, pair_data)


def weak_pullback(f: GroupoidFunctor, g: GroupoidFunctor):
    """Skeleton of the weak pullback of  dom(f) -f-> C <-g- dom(g)  plus the
    two projection functors."""
    cat = comma_category(f, g)
    return cat.groupoid, cat.proj_left, cat.proj_right


def compose_spans(x: Span, xp: Span) -> Span:
    """Composite span (x first, then xp) by weak pullback over the shared foot."""
    if x.target != xp.source:
        raise TargetMismatch(
            f"cannot compose: {x.target.name} is not {xp.source.name}"
        )
    cat = comma_category(x.right, xp.left)
    return Span(cat.groupoid, cat.proj_left.then(x.left), cat.proj_right.then(xp.right))


# ---------------------------------------------------------------------------
# composition of span maps


def vertical_compose_spanmaps(y: SpanMap, yp: SpanMap) -> SpanMap:
    """Composite span map (y first, then yp) over the shared middle span.

    The apex is the weak pullback of y.down and yp.up.  The mediating
    representative of each double coset is chosen (minimal first) so that both
    foot homs of the middle span cannot tell the two fibred-product
    projections apart; without such a representative strict commutativity is
    unachievable and StrictnessViolation is raised.
    """
    if y.bottom != yp.top:
        raise SpanMismatch("middle spans disagree")
    mid = y.bottom

    def selector(a, b, c_idx, fh, gh, c, coset):
        xl = mid.left.hom(c_idx)
        xr = mid.right.hom(c_idx)
        for m in coset:
            ok = True
            for h in range(fh.source.order):
                lhs = c.mul(fh(h), m)
                for k in range(gh.source.order):
                    if lhs != c.mul(m, gh(k)):
                        continue
                    if xl(fh(h)) != xl(gh(k)) or xr(fh(h)) != xr(gh(k)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return m
        return None

    cat = comma_category(y.down, yp.up, rep_selector=selector)
    up = cat.proj_left.then(y.up)
    down = cat.proj_right.then(yp.down)
    return SpanMap(y.top, yp.bottom, cat.groupoid, up, down)


def horizontal_compose_spanmaps(y: SpanMap, yp: SpanMap) -> SpanMap:
    """Horizontal composite over the shared foot groupoid: the apex is the weak
    pullback of the two composites into that foot, and the legs are the induced
    functors into the composite top and bottom spans, keeping each mediating
    morphism intact."""
    if y.top.target != yp.top.source:
        raise SpanMismatch("span targets/sources do not chain")
    tau = y.up.then(y.top.right)       # Y -> A2, equal to down.then(bottom.right)
    sigma = yp.up.then(yp.top.left)    # Y' -> A2
    cat = comma_category(tau, sigma)

    top_cat = comma_category(y.top.right, yp.top.left)
    bot_cat = comma_category(y.bottom.right, yp.bottom.left)
    top_span = Span(
        top_cat.groupoid,
        top_cat.proj_left.then(y.top.left),
        top_cat.proj_right.then(yp.top.right),
    )
    bot_span = Span(
        bot_cat.groupoid,
        bot_cat.proj_left.then(y.bottom.left),
        bot_cat.proj_right.then(yp.bottom.right),
    )

    z = cat.groupoid
    mediators = [cat.classes[zi].rep for zi in range(len(z))]
    u_top = cat.proj_left.then(y.up)
    v_top = cat.proj_right.then(yp.up)
    u_bot = cat.proj_left.then(y.down)
    v_bot = cat.proj_right.then(yp.down)
    up, down = _strictified_legs(
        cat, top_cat, bot_cat, top_span, bot_span, u_top, v_top, u_bot, v_bot, mediators
    )
    return SpanMap(top_span, bot_span, z, up, down)


def _strictified_legs(cat, top_cat, bot_cat, top_span, bot_span,
                      u_top, v_top, u_bot, v_bot, mediators):
    """Build the up/down legs of a horizontal composite, choosing double-coset
    witnesses so that the result commutes strictly; raise otherwise."""
    z = cat.groupoid
    up_omap, up_homs = [], []
    down_omap, down_homs = [], []
    for zi in range(len(z)):
        m = mediators[zi]
        fib_z = cat.classes[zi]
        choice = _strict_witness_choice(
            z.aut(zi), fib_z, m,
            top_cat, u_top(zi), v_top(zi), u_top.hom(zi), v_top.hom(zi),
            bot_cat, u_bot(zi), v_bot(zi), u_bot.hom(zi), v_bot.hom(zi),
            top_span, bot_span,
        )
        if choice is None:
            raise StrictnessViolation(
                f"horizontal composite cannot be strictified at apex object {zi}"
            )
        (tcid, t_table), (bcid, b_table) = choice
        up_omap.append(tcid)
        up_homs.append(GroupHom(z.aut(zi), top_cat.classes[tcid].fib, t_table))
        down_omap.append(bcid)
        down_homs.append(GroupHom(z.aut(zi), bot_cat.classes[bcid].fib, b_table))
    up = GroupoidFunctor(z, top_cat.groupoid, up_omap, up_homs)
    down = GroupoidFunctor(z, bot_cat.groupoid, down_omap, down_homs)
    return up, down


def _leg_table(fibz_group, uh, vh, h0, k0, cls, auta, autb):
    """Transport (h, k) -> (h0^-1 u(h) h0, k0^-1 v(k) k0) into the fibred
    product at the class representative; None if any pair falls outside."""
    table = np.empty(fibz_group.order, dtype=np.int64)
    for w, (h, k) in enumerate(_pairs_of(fibz_group, uh, vh)):
        hh = auta.mul(auta.inv[h0], auta.mul(h, h0))
        kk = autb.mul(autb.inv[k0], autb.mul(k, k0))
        if (hh, kk) not in cls.pair_index:
            return None
        table[w] = cls.pair_index[(hh, kk)]
    return table


def _pairs_of(fibz_group, uh, vh):
    return [(uh(w), vh(w)) for w in range(fibz_group.order)]


def _strict_witness_choice(fibz_group, fib_cls, m,
                           top_cat, ta, tb, t_uh, t_vh,
                           bot_cat, ba, bb, b_uh, b_vh,
                           top_span, bot_span):
    """Search witness choices (top and bottom) making both feet composites of a
    horizontal composite agree at one apex object."""
    t_coset, t_witness, _ = top_cat.pair_data[(ta, tb)]
    b_coset, b_witness, _ = bot_cat.pair_data[(ba, bb)]
    tcid, bcid = int(t_coset[m]), int(b_coset[m])
    t_cls, b_cls = top_cat.classes[tcid], bot_cat.classes[bcid]
    t_auta = top_cat.proj_left.target.aut(ta)
    t_autb = top_cat.proj_right.target.aut(tb)
    b_auta = bot_cat.proj_left.target.aut(ba)
    b_autb = bot_cat.proj_right.target.aut(bb)
    th0, tk0 = t_witness[m]
    bh0, bk0 = b_witness[m]
    # the valid witnesses differ from the recorded one by fibred-product elements
    t_options = []
    for dh, dk in t_cls.pairs:
        h0 = t_auta.mul(th0, dh)
        k0 = t_autb.mul(tk0, dk)
        table = _leg_table(fibz_group, t_uh, t_vh, h0, k0, t_cls, t_auta, t_autb)
        if table is not None:
            t_options.append((h0, k0, table))
    b_options = []
    for dh, dk in b_cls.pairs:
        h0 = b_auta.mul(bh0, dh)
        k0 = b_autb.mul(bk0, dk)
        table = _leg_table(fibz_group, b_uh, b_vh, h0, k0, b_cls, b_auta, b_autb)
        if table is not None:
            b_options.append((h0, k0, table))
    for th, tk, t_table in t_options:
        for bh, bk, b_table in b_options:
            if _feet_agree(fibz_group, top_span, tcid, t_table,
                           bot_span, bcid, b_table):
                return (tcid, t_table), (bcid, b_table)
    return None


def _feet_agree(fibz_group, top_span, tcid, t_table, bot_span, bcid, b_table):
    if top_span.left(tcid) != bot_span.left(bcid):
        return False
    if top_span.right(tcid) != bot_span.right(bcid):
        return False
    tl, tr = top_span.left.hom(tcid), top_span.right.hom(tcid)
    bl, br = bot_span.left.hom(bcid), bot_span.right.hom(bcid)
    for w in range(fibz_group.order):
        if tl(int(t_table[w])) != bl(int(b_table[w])):
            return False
        if tr(int(t_table[w])) != br(int(b_table[w])):
            return False
    return True


def iso_class_data(x: Span):
    """Multiset fingerprint of a span: (left object, right object, aut order)
    per apex object, sorted.  Used to compare composites up to isomorphism."""
    data = [
        (x.left(i), x.right(i), x.apex.aut(i).order) for i in range(len(x.apex))
    ]
    return sorted(data)
