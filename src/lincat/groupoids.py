"""Skeletal essentially finite groupoids, functors, spans and spans of span maps.

A groupoid is stored skeletally: an ordered tuple of objects, each carrying
its automorphism group.  Distinct objects are non-isomorphic by fiat.  As
for groups and homs, the value of a groupoid, functor, span or span map is
its ``key``, computed once per object, which equality, hashing
(``groups._ByKey``) and every cache key of it read.

Weak pullbacks are computed as comma categories: isomorphism classes of
objects over a pair (a, b) with f(a) = g(b) = c correspond to double cosets
im(f_a) \\ Aut(c) / im(g_b), and the automorphism group of the class with
mediating morphism m is the fibred product {(h, k) : f(h)*m = m*g(k)}.

The double cosets over a pair of objects depend only on the pair's two
homs, so they come from ``groups.double_cosets``, which computes them once
per pair of hom values and keeps them, with each class's fibred-product
group, pairs and witnesses, in the store of the foot group's value: the data
lives while any group of that value does, and every comma category over
equal hom pairs into it shares one ``fib`` group per class.  Each class is read off
one array D[h, k] = f(h)*m*g(k)^-1 over H x K: its values are the double
coset, the first occurrence of each value in row-major order is that
element's lexicographically first witness (h0, k0), and the entries equal
to m are the fibred product, in lexicographic order.  The fibred-product
table is then array arithmetic on the codes h*|K| + k.

A composite span keeps the comma category it was built from (``Span.comma``)
and the two spans it composes (``Span.factors``), so its classes, witnesses,
pair codes and factors are read, not rebuilt.  A horizontal
composite of span maps takes each leg from those arrays: the candidate
witnesses of a mediator are its recorded witness times each pair of its
class, all candidates' conjugated pair tables come out of one searchsorted
over the class's pair codes, and the first (top, bottom) candidate pair on
which both feet agree, in row-major order, is kept.

A run memo (``_run_memo``, one per context) shares work by value: ``_once``
keeps results by kind and the keys of the given spans and span maps they are
built from, ``shared`` holds one dict per kind for the layers above, and the
composite of two given spans is built once, one object for every caller.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRange,
    SpanMismatch,
    StrictnessViolation,
    TargetMismatch,
)
from .groups import (
    FinGroup,
    GroupHom,
    _ByKey,
    _double_coset_class,
    double_cosets,
    identity_hom,
)


class Groupoid(_ByKey):
    """Ordered tuple of (name, automorphism group) pairs; may be empty.

    ``key``, the objects' names and groups' keys, is the groupoid's value:
    equality and hashing read it, and the groupoid's name is outside it."""

    def __init__(self, objects, name=None):
        self.objects = tuple(objects)
        self.names = [n for n, _ in self.objects]
        if len(set(self.names)) != len(self.names):
            raise IndexOutOfRange("object names must be unique")
        self.key = tuple((n, g.key) for n, g in self.objects)
        self.name = name if name is not None else "+".join(self.names) or "0"

    def aut(self, i) -> FinGroup:
        try:
            return self.objects[i][1]
        except IndexError:
            raise IndexOutOfRange(f"no object {i} in groupoid {self.name}") from None

    def __len__(self):
        return len(self.objects)

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
    return Groupoid(x.objects + y.objects, name=name)


class GroupoidFunctor(_ByKey):
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
    def _derived(cls, source, target, object_map, hom_maps) -> "GroupoidFunctor":
        """A functor without the checks, for data that is right by
        construction: a composite of functors, a projection of a comma
        category, or a leg of a horizontal composite, whose homs run between
        the right groups because they were built on them."""
        f = cls.__new__(cls)
        f.source, f.target = source, target
        f.object_map = np.asarray(object_map, dtype=np.int64)
        f.hom_maps = list(hom_maps)
        return f

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
        return GroupoidFunctor._derived(self.source, other.target, omap, homs)

    @cached_property
    def key(self):
        """The functor's value: its groupoids' keys, its object map and its
        homs' maps (whose groups the groupoids and object map fix)."""
        return (self.source.key, self.target.key, self.object_map.tobytes(),
                tuple(h.map.tobytes() for h in self.hom_maps))


@dataclass(eq=False)
class Span(_ByKey):
    """A diagram  source <- apex -> target  of groupoid functors.

    A span built by ``compose_spans`` keeps in ``comma`` the comma category
    whose skeleton is its apex and in ``factors`` the pair of spans it
    composes; any other span has None in both.  Its value, ``key``, is its
    legs' keys (computed once): equality, hashing and serialization ignore
    the two.
    """

    apex: Groupoid
    left: GroupoidFunctor
    right: GroupoidFunctor
    comma: CommaCategory = field(default=None, repr=False)
    factors: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.left.source != self.apex or self.right.source != self.apex:
            raise TargetMismatch("span legs must start at the apex")

    @property
    def source(self) -> Groupoid:
        return self.left.target

    @property
    def target(self) -> Groupoid:
        return self.right.target

    @cached_property
    def key(self):
        return self.left.key, self.right.key


def identity_span(a: Groupoid) -> Span:
    f = GroupoidFunctor.identity(a)
    return Span(a, f, f)


def reverse_span(x: Span) -> Span:
    """The same maps in the reverse orientation."""
    return Span(x.apex, x.right, x.left)


class SpanMap(_ByKey):
    """A span between two parallel spans, commuting strictly.

    ``up`` runs from the apex to the top span's apex, ``down`` to the bottom
    span's apex.  Strictness means top.left . up == bottom.left . down and
    top.right . up == bottom.right . down as functors, on objects and on
    group elements.  Its value, ``key``, is its spans' and legs' keys (computed once).
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

    @cached_property
    def key(self):
        return self.top.key, self.bottom.key, self.up.key, self.down.key


# ---------------------------------------------------------------------------
# comma categories / weak pullbacks


@dataclass
class CommaClass:
    """One isomorphism class of objects in a comma category (f | g).

    The class sits over the pair (a_idx, b_idx) with common image c_idx, has
    mediating morphism ``rep`` (an element of Aut(c), minimal in its double
    coset unless ``admissible`` refused it), and automorphism group ``fib``
    materialized on the lexicographically sorted pairs (h, k) of the fibred
    product; the comma category's projection homs at the class read off its
    components.
    """

    a_idx: int
    b_idx: int
    c_idx: int
    rep: int
    fib: FinGroup


@dataclass
class CommaCategory:
    groupoid: Groupoid
    proj_left: GroupoidFunctor
    proj_right: GroupoidFunctor
    classes: list
    # (a_idx, b_idx) -> (coset_class, witness, class ids): for every m in
    # Aut(c), the class it belongs to and the lex-first (h0, k0) with
    # m = f(h0) * rep * g(k0)^-1
    pair_data: dict = None


def comma_category(f: GroupoidFunctor, g: GroupoidFunctor, admissible=None) -> CommaCategory:
    """Skeleton of the comma category (f | g) with its two projections.

    Over each pair (a, b) with f(a) = g(b) = c, the classes are the double
    cosets of ``groups.double_cosets(f_a, g_b)``, in that order, at their
    minimal elements: their fibred-product groups, pairs and witnesses come
    from the store of Aut(c)'s value, so equal hom pairs into it share
    them, and only the ``CommaClass``es, the projection homs and the pair
    data, with class ids offset by the classes before the pair, are built
    here.

    ``admissible(c_idx, u, v)`` may refuse representatives: the candidates m
    of a double coset are tried in increasing order, with u = f(hs) and
    v = g(ks) the images of the fibred-product pairs (hs, ks) at m, and the
    first accepted one is kept; if none is, StrictnessViolation is raised.
    A class at a refused minimum is built for this category alone.
    """
    if f.target != g.target:
        raise TargetMismatch("comma category needs functors with a common target")
    classes = []
    left_homs = []
    right_homs = []
    pair_data = {}
    for a in range(len(f.source)):
        for b in range(len(g.source)):
            if f(a) != g(b):
                continue
            c_idx = f(a)
            fh, gh = f.hom(a), g.hom(b)
            cosets = double_cosets(fh, gh)
            offset = len(classes)
            witness = list(cosets.witness)
            for j, cls in enumerate(cosets.classes):
                if admissible is not None and not admissible(
                        c_idx, fh.map[cls.hs], gh.map[cls.ks]):
                    cls = _admissible_class(fh, gh, cosets, j, witness,
                                            lambda u, v: admissible(c_idx, u, v),
                                            (a, b))
                classes.append(CommaClass(a, b, c_idx, cls.rep, cls.fib))
                # projections forget to the two components
                left_homs.append(GroupHom._derived(cls.fib, f.source.aut(a), cls.hs))
                right_homs.append(GroupHom._derived(cls.fib, g.source.aut(b), cls.ks))
            pair_data[(a, b)] = (cosets.coset_class + offset, witness,
                                 list(range(offset, len(classes))))
    names = []
    groups = []
    for cls in classes:
        na = f.source.names[cls.a_idx]
        nb = g.source.names[cls.b_idx]
        names.append(f"({na}|{cls.rep}|{nb})")
        groups.append(cls.fib)
    apex = Groupoid(list(zip(names, groups)))
    left_omap = [cls.a_idx for cls in classes]
    right_omap = [cls.b_idx for cls in classes]
    proj_left = GroupoidFunctor._derived(apex, f.source, left_omap, left_homs)
    proj_right = GroupoidFunctor._derived(apex, g.source, right_omap, right_homs)
    return CommaCategory(apex, proj_left, proj_right, classes, pair_data)


def _admissible_class(fh, gh, cosets, j, witness, accepts, pair):
    """The class of double coset ``j`` of ``cosets`` at its first element
    after the minimum that ``accepts(f(hs), g(ks))``, with its members'
    witnesses rewritten in ``witness``.  Never cached."""
    members = np.flatnonzero(cosets.coset_class == j).tolist()
    for m in members[1:]:
        cls, elements, witnesses = _double_coset_class(fh, gh, m)
        if accepts(fh.map[cls.hs], gh.map[cls.ks]):
            for mm, w in zip(elements.tolist(), witnesses):
                witness[mm] = w
            return cls
    raise StrictnessViolation(
        f"no admissible representative in the double coset of "
        f"{members[0]} over objects {pair}"
    )


@dataclass
class _RunMemo:
    """The work one run shares (see the module docstring)."""

    inputs: set  # value keys of the given spans, span maps and maps' top/bottom spans
    results: dict = field(default_factory=dict)  # (kind, value keys) -> result
    shared: dict = field(default_factory=dict)   # kind -> the dict its builds share


# the memo of the run in this context, if any
_RUN = contextvars.ContextVar("lincat_run_memo", default=None)


@contextlib.contextmanager
def _run_memo(inputs):
    """A run memo given the spans and span maps ``inputs``, for the body."""
    token = _RUN.set(_RunMemo({v.key for v in inputs}))
    try:
        yield
    finally:
        _RUN.reset(token)


def _once(kind, values, build):
    """``build()``, kept by a run given every span or span map in ``values``,
    by ``kind`` (a name and arguments) and the values' keys."""
    run = _RUN.get()
    keys = () if run is None else tuple(v.key for v in values)
    if run is None or not run.inputs.issuperset(keys):
        return build()
    if (kind, keys) not in run.results:
        run.results[kind, keys] = build()
    return run.results[kind, keys]


def _shared(kind):
    """The dict that the builds of ``kind`` share in this run, or a new one."""
    return {} if (run := _RUN.get()) is None else run.shared.setdefault(kind, {})


def compose_spans(x: Span, xp: Span) -> Span:
    """Composite span (x first, then xp) by weak pullback over the shared foot.

    The composite keeps the comma category (x.right | xp.left) whose skeleton
    is its apex as ``comma`` and (x, xp) as ``factors``, which later steps
    read; a run given x and xp builds it once, one object for every call."""
    if x.target != xp.source:
        raise TargetMismatch(
            f"cannot compose: {x.target.name} is not {xp.source.name}"
        )

    def build():
        cat = comma_category(x.right, xp.left)
        return Span(cat.groupoid, cat.proj_left.then(x.left),
                    cat.proj_right.then(xp.right), comma=cat, factors=(x, xp))

    return _once(("compose_spans",), (x, xp), build)


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

    def admissible(c_idx, u, v):
        xl = mid.left.hom(c_idx).map
        xr = mid.right.hom(c_idx).map
        return np.array_equal(xl[u], xl[v]) and np.array_equal(xr[u], xr[v])

    cat = comma_category(y.down, yp.up, admissible=admissible)
    up = cat.proj_left.then(y.up)
    down = cat.proj_right.then(yp.down)
    return SpanMap(y.top, yp.bottom, cat.groupoid, up, down)


def horizontal_compose_spanmaps(y: SpanMap, yp: SpanMap) -> SpanMap:
    """Horizontal composite over the shared foot groupoid: the apex is the weak
    pullback of the two composites into that foot, and the legs are the induced
    functors into the composite top and bottom spans, keeping each mediating
    morphism intact.  The top and bottom spans are ``compose_spans``' composites,
    which a run given the spans shares with its other checks.

    At each apex object z with mediator m and fibred-product pairs (hs, ks),
    the candidate witnesses of m in a composite are the recorded witness times
    each pair of m's class, in the class's pair order.  A candidate (h0, k0)
    carries (h, k) to (h0^-1 u(h) h0, k0^-1 v(k) k0), where u and v are the
    span maps' legs; every pair of z lands in the class, because the span
    maps' legs agree on the shared foot.  The first (top, bottom) candidate
    pair in row-major order on which both feet agree gives z's up and down
    homs; if there is none, StrictnessViolation is raised."""
    if y.top.target != yp.top.source:
        raise SpanMismatch("span targets/sources do not chain")
    tau = y.up.then(y.top.right)       # Y -> A2, equal to down.then(bottom.right)
    sigma = yp.up.then(yp.top.left)    # Y' -> A2
    cat = comma_category(tau, sigma)
    top, bot = compose_spans(y.top, yp.top), compose_spans(y.bottom, yp.bottom)
    z = cat.groupoid
    up_omap, up_homs = [], []
    down_omap, down_homs = [], []
    for zi, cls in enumerate(cat.classes):
        a, b, m = cls.a_idx, cls.b_idx, cls.rep
        hs, ks = cat.proj_left.hom(zi).map, cat.proj_right.hom(zi).map
        tcid, t_tabs = _witness_tables(top.comma, y.up(a), yp.up(b), m,
                                       y.up.hom(a).map[hs], yp.up.hom(b).map[ks])
        bcid, b_tabs = _witness_tables(bot.comma, y.down(a), yp.down(b), m,
                                       y.down.hom(a).map[hs], yp.down.hom(b).map[ks])
        # (top candidate, bottom candidate, w): both feet homs agree on w
        agree = np.ones((len(t_tabs), len(b_tabs), len(hs)), dtype=bool)
        for tf, bf in ((top.left, bot.left), (top.right, bot.right)):
            agree &= tf(tcid) == bf(bcid)
            agree &= tf.hom(tcid).map[t_tabs][:, None] == bf.hom(bcid).map[b_tabs][None]
        hits = np.argwhere(agree.all(axis=2))
        if not len(hits):
            raise StrictnessViolation(
                f"horizontal composite cannot be strictified at apex object {zi}"
            )
        ti, bi = hits[0]
        up_omap.append(tcid)
        up_homs.append(GroupHom(cls.fib, top.comma.classes[tcid].fib, t_tabs[ti]))
        down_omap.append(bcid)
        down_homs.append(GroupHom(cls.fib, bot.comma.classes[bcid].fib, b_tabs[bi]))
    up = GroupoidFunctor._derived(z, top.apex, up_omap, up_homs)
    down = GroupoidFunctor._derived(z, bot.apex, down_omap, down_homs)
    return SpanMap(top, bot, z, up, down)


def _witness_tables(cat: CommaCategory, a: int, b: int, m: int, u, v):
    """The class id of m over (a, b) in ``cat`` and, one row per witness of
    m, the positions in the class's pairs of (h0^-1 u h0, k0^-1 v k0).  The
    witnesses are the recorded one times each pair of the class, in pair
    order."""
    coset_class, witness, _ = cat.pair_data[(a, b)]
    cid = int(coset_class[m])
    auta = cat.proj_left.target.aut(a)
    autb = cat.proj_right.target.aut(b)
    ph, pk = cat.proj_left.hom(cid).map, cat.proj_right.hom(cid).map
    wh, wk = witness[m]
    h0 = auta.mult[wh, ph]
    k0 = autb.mult[wk, pk]
    hh = auta.mult[auta.mult[auta.inv[h0][:, None], u], h0[:, None]]
    kk = autb.mult[autb.mult[autb.inv[k0][:, None], v], k0[:, None]]
    # the class's pair codes ascend, because its pairs are lex-sorted
    codes = ph * autb.order + pk
    # every row lands in the class, since tau = y.up;y.top.right = y.down;y.bottom.right
    return cid, np.searchsorted(codes, hh * autb.order + kk)
