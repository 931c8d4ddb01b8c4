"""Finite groups as full multiplication tables, plus homomorphisms.

Elements of a group of order n are the indices 0..n-1 and index 0 is the
identity.  ``mult[a, b]`` is the product a*b, with the convention that for
permutations acting on points, (p*q)(i) = p(q(i)) (apply q first).

The group axioms are proved once, where a table enters the program:
``FinGroup(mult)`` and ``validate_group`` (every document table,
``cyclic_group``, ``trivial_group``) and the permutation closures of
``group_from_permutations`` and ``symmetric_group`` check identity, inverses
and associativity in full.  Tables derived from validated groups check only
closure: ``subgroup_embedding``, ``direct_product`` and the fibred products of
``double_cosets`` are subsets of a validated group (or of a product of two)
that hold the identity, and a closed subset of a finite group is a subgroup,
its associativity and inverses inherited.  Likewise a hom's law is checked by
``GroupHom(...)``, but not again for composites (``then``), for the
projections of a fibred product, or for the homs ``all_homs`` has just tested.

The cosets of a hom's image depend only on the hom, so the library has one
routine per kind: ``coset_data`` for the left (or right) cosets of im(f)
with the lifts through f, which induction reads, and ``double_cosets`` for
f(H) \\ C / g(K) with each class's fibred product, which the comma
categories of ``groupoids`` read.

A group's value is ``FinGroup.key``: its table, with its factors' keys if
``direct_product`` recorded it as a product, since those fix its irreps.  A
hom's value is ``GroupHom.key``: its source and target keys and its map.
Every value class of the library (groups and homs here, groupoids, functors,
spans and span maps in ``groupoids``) computes its ``key`` once per object and
takes equality and hashing from ``_ByKey``, and every cache key of a value
reads it.

A group's invariants depend only on its value, so all groups of one value
share one store (``FinGroup.store``) of its classes, coset data and irreps,
each computed once (``_memo``); names and factors stay each object's own.  A
store lives while a group that read it does; one that holds a group of its
own value (a trivial ``fib`` group, an irrep's group) is freed by the cyclic
collector.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AxiomViolation, GroupMismatch, IndexOutOfRange, InputTooLarge

# most generator-image assignments that all_homs may try
MAX_HOM_CANDIDATES = 2**20
# most points that group_from_permutations lets its permutations act on
MAX_DEGREE = 2**20
# most elements that group_from_permutations lets a closure reach
MAX_GROUP_ORDER = 500
# largest dense array (bytes) that direct_product, symmetric_group and
# group_from_permutations, and rep's regular_rep, irreps and
# intertwiner_basis, may allocate: a regular representation of order 256
MAX_DENSE_BYTES = 2**28


def _generating_set(table):
    """A greedy generating set of a table whose rows and columns are
    permutations, with identity 0: each generator is the least element
    outside the closure so far under left products with the generators."""
    reached = np.zeros(len(table), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            before = reached.copy()
            reached[table[np.ix_(gens, frontier)]] = True
            frontier = np.flatnonzero(reached & ~before)
    return gens


def _check_table(table):
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise AxiomViolation("identity", (-1,), "multiplication table is not square")
    n = table.shape[0]
    if n == 0:
        raise AxiomViolation("identity", (-1,), "empty multiplication table")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise AxiomViolation("identity", tuple(bad), "entry out of range")
    idx = np.arange(n)
    # identity at index 0
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        bad_row = np.nonzero(table[0] != idx)[0]
        g = bad_row[0] if len(bad_row) else np.nonzero(table[:, 0] != idx)[0][0]
        raise AxiomViolation("identity", (int(g),))
    # every row and column is a permutation: sorted, each one is 0..n-1
    bad_rows = (np.sort(table, axis=1) != idx).any(axis=1)
    bad_cols = (np.sort(table, axis=0) != idx[:, None]).any(axis=0)
    bad = np.nonzero(bad_rows | bad_cols)[0]
    if len(bad):
        a = int(bad[0])
        what = "row" if bad_rows[a] else "column"
        raise AxiomViolation("inverse", (a,), f"{what} {a} is not a permutation")
    # associativity by Light's test: the elements a with (x*a)*y == x*(a*y)
    # for all x, y are closed under the product, so checking the generators
    # of a generating set proves it for the whole table
    if not all(np.array_equal(table[table[:, a]], table[:, table[a]])
               for a in _generating_set(table)):
        # name the first failing triple (a*b)*c != a*(b*c), scanning one row
        # a at a time (O(n^2) memory)
        for a in range(n):
            lhs = table[table[a], :]   # lhs[b,c] = table[table[a,b], c]
            rhs = table[a, table]      # rhs[b,c] = table[a, table[b,c]]
            if not np.array_equal(lhs, rhs):
                b, c = np.argwhere(lhs != rhs)[0]
                raise AxiomViolation("associativity", (a, int(b), int(c)))
    return table


class _ByKey:
    """Equality and hashing by the value ``key``, which each subclass
    computes once per object."""

    def __eq__(self, other):
        return other is self or isinstance(other, type(self)) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


class _Store(dict):
    """The invariants of one group value; a dict that can be weakly referenced."""


# the store of each group value that some live group holds, keyed by value
_STORES = weakref.WeakValueDictionary()
_STORES_LOCK = threading.Lock()


class FinGroup(_ByKey):
    """A finite group given by its multiplication table over element indices.

    Its value, ``key``, is the table's bytes (``fingerprint``), together with
    the keys of the ``factors`` that ``direct_product`` records, so a recorded
    product differs from the same table built without them.  ``name``,
    ``factors`` and ``fingerprint`` belong to the object; the invariants
    belong to the value and sit in ``store``, which every group of that value
    shares."""

    def __init__(self, mult, name=None):
        try:
            table = np.ascontiguousarray(np.asarray(mult, dtype=np.int64))
        except ValueError:
            raise AxiomViolation(
                "identity", (-1,), "multiplication table is not square"
            ) from None
        except OverflowError:
            raise AxiomViolation("identity", (-1,), "entry out of range") from None
        self._set_table(_check_table(table), name)

    @classmethod
    def _subgroup_table(cls, table, name=None) -> "FinGroup":
        """A group on ``table`` without the axiom proof: only for tables of a
        subset of an already validated group (or of a product of them) that
        contains the identity at index 0 and is closed under the product, so
        associativity and inverses are inherited."""
        g = cls.__new__(cls)
        g._set_table(np.ascontiguousarray(table, dtype=np.int64), name)
        return g

    def _set_table(self, table, name):
        self.mult = table
        self.order = int(table.shape[0])
        self.name = name if name is not None else f"G{self.order}"
        # each row is a permutation, so its one 0 is its smallest entry
        self.inv = np.argmin(table, axis=1)
        self.fingerprint = table.tobytes()
        # set by direct_product only, before any key or store is read
        self.factors = None

    @cached_property
    def key(self):
        """The group's value: its table, and its factors' keys if it is a
        recorded product."""
        if self.factors is None:
            return self.fingerprint
        return (self.fingerprint, *(f.key for f in self.factors))

    @cached_property
    def store(self):
        """The invariants of this group's value, shared by every live group
        of that value (``_memo``)."""
        with _STORES_LOCK:
            return _STORES.setdefault(self.key, _Store())

    @cached_property
    def classes(self):
        """The conjugacy classes, computed once per group value."""
        return _memo(self, "classes", conjugacy_classes, self)

    @cached_property
    def class_sizes(self):
        """Number of elements in each conjugacy class."""
        return np.array([len(c) for c in self.classes])

    @cached_property
    def class_of(self):
        """The index in ``classes`` of each element's conjugacy class."""
        out = np.empty(self.order, dtype=np.int64)
        for c, members in enumerate(self.classes):
            out[members] = c
        return out

    def mul(self, a, b):
        return int(self.mult[a, b])

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FinGroup({self.name!r}, order={self.order})"


def validate_group(mult, name=None):
    """Build a FinGroup from a raw table, checking all three group axioms."""
    return FinGroup(mult, name=name)


def conjugacy_classes(g: FinGroup):
    """Partition of element indices into conjugacy classes.

    Classes are ordered by their minimal element, so the class of the
    identity comes first.  Each class is one gather: x a x^-1 for every x
    is ``mult[mult[:, a], inv]``.
    """
    seen = np.zeros(g.order, dtype=bool)
    classes = []
    for a in range(g.order):
        if seen[a]:
            continue
        conj = g.mult[g.mult[:, a], g.inv]
        orbit = np.flatnonzero(np.bincount(conj, minlength=g.order))
        seen[orbit] = True
        classes.append(orbit.tolist())
    return classes


@dataclass(eq=False)
class GroupHom(_ByKey):
    """A homomorphism given by an element-index table of length source.order."""

    source: FinGroup
    target: FinGroup
    map: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.map, dtype=np.int64)
        except OverflowError:
            raise GroupMismatch("hom table entry out of range") from None
        if m.shape != (self.source.order,):
            raise GroupMismatch("hom table length does not match source order")
        if m.min() < 0 or m.max() >= self.target.order:
            raise GroupMismatch("hom table entry out of range")
        if m[0] != 0:
            raise GroupMismatch("hom does not preserve the identity")
        lhs = m[self.source.mult]
        rhs = self.target.mult[m[:, None], m]
        if not np.array_equal(lhs, rhs):
            a, b = np.argwhere(lhs != rhs)[0]
            raise GroupMismatch(f"not a homomorphism at pair ({a}, {b})")
        self.map = m

    @classmethod
    def _derived(cls, source, target, m) -> "GroupHom":
        """A hom without the law check, for a table ``m`` whose law holds by
        construction: a composite of homs, a projection of a fibred product,
        or a table whose law the caller has just checked."""
        h = cls.__new__(cls)
        h.source, h.target, h.map = source, target, np.asarray(m, dtype=np.int64)
        return h

    def __call__(self, a):
        return int(self.map[a])

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite ``other . self`` (apply self first)."""
        if self.target != other.source:
            raise GroupMismatch("homs are not composable")
        return GroupHom._derived(self.source, other.target, other.map[self.map])

    def kernel(self):
        return [int(a) for a in np.nonzero(self.map == 0)[0]]

    def image(self):
        return sorted({int(a) for a in self.map})

    @cached_property
    def key(self):
        """The hom's value: its source and target keys and its map."""
        return self.source.key, self.target.key, self.map.tobytes()


def identity_hom(g: FinGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order))


def trivial_hom(source: FinGroup, target: FinGroup) -> GroupHom:
    return GroupHom(source, target, np.zeros(source.order, dtype=np.int64))


# ---------------------------------------------------------------------------
# constructions


def _table_group(codes, products, name=None) -> FinGroup:
    """The subgroup on the elements with increasing integer ``codes``
    (identity first) of an already validated group (or product of groups),
    where ``products[i, j]`` is the code of element i times element j.  Its
    table holds the positions of the products.  Only closure is checked,
    raising AxiomViolation if the codes are not closed under the product,
    since a closed subset holding the identity inherits the other axioms."""
    codes = np.asarray(codes, dtype=np.int64)
    products = np.asarray(products, dtype=np.int64)
    table = np.minimum(np.searchsorted(codes, products), len(codes) - 1)
    missing = codes[table] != products
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise AxiomViolation(
            "inverse", (int(codes[i]), int(codes[j])), "element set is not closed"
        )
    return FinGroup._subgroup_table(table, name=name)


def _permutation_group(perms, name=None) -> FinGroup:
    """The group on a list of one-line permutations, coded by position."""
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    arr = np.array(perms, dtype=np.int64).reshape(n, -1)
    products = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        # arr[i][arr[j]] is perms[i] * perms[j]: apply perms[j] first
        products[i] = [index.get(r, -1) for r in map(tuple, arr[i, arr].tolist())]
    # permutation closures get the full axiom proof, like any outside table;
    # it rejects a product outside the list (-1) as out of range
    return FinGroup(products, name=name)


def _compose_perms(p, q):
    """One-line permutation p*q: apply q first."""
    return tuple(p[k] for k in q)


def trivial_group() -> FinGroup:
    return FinGroup([[0]], name="1")


def cyclic_group(n: int) -> FinGroup:
    a = np.arange(n)
    return FinGroup((a[:, None] + a[None, :]) % n, name=f"Z{n}")


def symmetric_group(n: int) -> FinGroup:
    """S_n on points 0..n-1; elements are one-line permutations in lexicographic
    order, so the identity permutation has index 0; S0 is the trivial group.
    Raises IndexOutOfRange for n < 0, and InputTooLarge before enumerating
    when the table of n!^2 int64 entries would take more than MAX_DENSE_BYTES."""
    if n < 0:
        raise IndexOutOfRange(f"S{n}: a symmetric group needs n >= 0 points")
    nbytes = math.prod(range(1, n + 1)) ** 2 * 8  # n!
    if nbytes > MAX_DENSE_BYTES:
        raise InputTooLarge(
            f"table of S{n} needs {nbytes} bytes, above the limit of {MAX_DENSE_BYTES}"
        )
    return _permutation_group(sorted(itertools.permutations(range(n))), name=f"S{n}")


def direct_product(g: FinGroup, h: FinGroup) -> FinGroup:
    """Product group; element (a, b) has index a*h.order + b.

    The product records ``factors = (g, h)``, from which ``rep.irreps`` builds
    its irreps.  The factors are part of its value (``FinGroup.key``), so the
    product differs from a group with the same table built another way, whose
    irreps have other bases.  Raises InputTooLarge before allocating when the
    product's table of n^2 int64 entries would take more than
    MAX_DENSE_BYTES."""
    n = g.order * h.order
    nbytes = n * n * 8
    if nbytes > MAX_DENSE_BYTES:
        raise InputTooLarge(
            f"product table of a group of order {n} needs {nbytes} bytes, "
            f"above the limit of {MAX_DENSE_BYTES}"
        )
    products = g.mult[:, None, :, None] * h.order + h.mult[None, :, None, :]
    # the factors are validated, so the product table is closed by construction
    p = FinGroup._subgroup_table(products.reshape(n, n), name=f"{g.name}x{h.name}")
    p.factors = (g, h)
    return p


def group_from_permutations(generators, n_points, name=None):
    """Close a set of one-line permutations under composition and return the
    resulting permutation group as a table.  The identity gets index 0 and the
    remaining elements are sorted lexicographically.  Raises InputTooLarge
    before building any permutation when ``n_points`` exceeds MAX_DEGREE, and
    as soon as the closure would hold more than MAX_GROUP_ORDER elements, or
    more permutation entries than MAX_DENSE_BYTES holds int64 numbers (the
    closure, its array and each row of products hold that many).
    Raises IndexOutOfRange for n_points < 0, and, naming the generator's
    position, when a generator is not a permutation of 0..n_points-1: a point
    list of another length, a point outside that range, or a repeated point."""
    if n_points < 0:
        raise IndexOutOfRange(f"a permutation group needs n_points >= 0, got {n_points}")
    if n_points > MAX_DEGREE:
        raise InputTooLarge(
            f"permutations of {n_points} points are above the limit of {MAX_DEGREE}"
        )
    gens = [tuple(p) for p in generators]
    for i, p in enumerate(gens):
        if sorted(p) != list(range(n_points)):
            raise IndexOutOfRange(
                f"generator {i} {list(p)} is not a permutation of 0..{n_points - 1}"
            )
    elements = {tuple(range(n_points))}
    frontier = list(elements)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = _compose_perms(p, q)
                if r not in elements:
                    if len(elements) >= MAX_GROUP_ORDER:
                        raise InputTooLarge(
                            f"generated group exceeds the cap of "
                            f"{MAX_GROUP_ORDER} elements"
                        )
                    nbytes = (len(elements) + 1) * n_points * 8
                    if nbytes > MAX_DENSE_BYTES:
                        raise InputTooLarge(
                            f"{len(elements) + 1} permutations of {n_points} "
                            f"points need {nbytes} bytes, above the limit of "
                            f"{MAX_DENSE_BYTES}"
                        )
                    elements.add(r)
                    nxt.append(r)
        frontier = nxt
    return _permutation_group(sorted(elements), name=name)


def subgroup_embedding(g: FinGroup, elements, name=None):
    """The subgroup of ``g`` on the given element indices (which must be closed),
    together with its inclusion hom.  Subgroup elements keep their relative
    order, so the identity stays at index 0."""
    elems = sorted(set(int(e) for e in elements))
    if not elems or elems[0] != 0:
        raise AxiomViolation("identity", (0,), "subgroup must contain the identity")
    codes = np.array(elems, dtype=np.int64)
    sub = _table_group(codes, g.mult[codes[:, None], codes],
                       name=name or f"{g.name}_sub{len(elems)}")
    incl = GroupHom(sub, g, codes)
    return sub, incl


# ---------------------------------------------------------------------------
# cosets of hom images, computed once per hom value on the group they live in


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _memo(group, key, build, *args):
    """``build(*args)``, kept under ``key`` in the store of ``group``'s value,
    so it is computed once while any group of that value lives."""
    entry = group.store.get(key)
    if entry is None:
        # threads that race on a key all get the entry stored first
        entry = group.store.setdefault(key, build(*args))
    return entry


def _cosets(mult, image):
    """Minimal-index representatives of the cosets a*image under the product
    table ``mult``, in increasing order, and the coset id of every element.
    Pass the transposed table for the right cosets image*a."""
    coset_index = -np.ones(mult.shape[0], dtype=np.int64)
    reps = []
    for a in range(mult.shape[0]):
        if coset_index[a] < 0:
            coset_index[mult[a, image]] = len(reps)
            reps.append(a)
    return reps, coset_index


class CosetData(NamedTuple):
    """The cosets of im(f) in H = f.target on one side, from ``coset_data``.
    Every array is read-only.

    Attributes:
        reps: minimal-index representatives h_i, increasing.
        index: the coset id i of every element h of H.
        lift: per h, the minimal-index g in G with h = h_i f(g) (left cosets)
            or h = f(g) h_i (right cosets).
        preimage: per h, its minimal-index preimage under f (|G| off im(f)).
        kernel: ker(f), increasing.
        image: im(f), increasing.
    """

    reps: np.ndarray
    index: np.ndarray
    lift: np.ndarray
    preimage: np.ndarray
    kernel: np.ndarray
    image: np.ndarray


def coset_data(f: GroupHom, right=False) -> CosetData:
    """The left cosets h*im(f) of f : G -> H, or the right cosets im(f)*h
    when ``right`` is set, with the lifts through f.  Computed once per hom
    value and side, and kept in the store of ``f.target``."""
    side = "right" if right else "left"
    return _memo(f.target, (side, f.key), _coset_data, f, right)


def _coset_data(f: GroupHom, right):
    h = f.target
    n = np.arange(h.order)
    image = np.flatnonzero(np.bincount(f.map, minlength=h.order))
    kernel = np.flatnonzero(f.map == 0)
    preimage = np.full(h.order, f.source.order)
    np.minimum.at(preimage, f.map, np.arange(f.source.order))
    reps, index = _cosets(h.mult.T if right else h.mult, image)
    reps = np.array(reps, dtype=np.int64)
    # u = h_i^-1 h (left) or h h_i^-1 (right) lies in im(f), and lift[h] is
    # the first occurrence of u in f's table
    rep_inv = h.inv[reps][index]
    u = h.mult[n, rep_inv] if right else h.mult[rep_inv, n]
    lift = preimage[u]
    _read_only(reps, index, lift, preimage, kernel, image)
    return CosetData(reps, index, lift, preimage, kernel, image)


class DoubleCosetClass(NamedTuple):
    """One double coset f(H) m g(K) of ``double_cosets``: its representative
    m, its fibred-product pairs (hs, ks), the lexicographically sorted (h, k)
    with f(h) m = m g(k), as read-only arrays, and the group ``fib`` on those
    pairs (named ``fib[m]``)."""

    rep: int
    hs: np.ndarray
    ks: np.ndarray
    fib: FinGroup


class DoubleCosets(NamedTuple):
    """The decomposition f(H) \\ C / g(K) of ``double_cosets``.

    Attributes:
        classes: one ``DoubleCosetClass`` per double coset, with the minimal
            element of each as its representative, in increasing order.
        coset_class: the position in ``classes`` of every element m of C
            (read-only).
        witness: per m, the lexicographically first (h0, k0) with
            m = f(h0) * rep * g(k0)^-1 for its class's rep.
    """

    classes: tuple
    coset_class: np.ndarray
    witness: tuple


def _coset_array(fh: GroupHom, gh: GroupHom, m: int):
    """D[h, k] = f(h) * m * g(k)^-1 over all of H x K."""
    c = fh.target
    return c.mult[c.mult[fh.map, m][:, None], c.inv[gh.map]]


def _double_coset_class(fh: GroupHom, gh: GroupHom, m: int):
    """The double coset f(H) m g(K), for homs f : H -> C and g : K -> C, read
    off one array D[h, k] = f(h) * m * g(k)^-1 over H x K: its values are
    the double coset, the first occurrence of each value in row-major order
    is that element's lex-first witness (h0, k0), and ``np.nonzero(D == m)``
    is the fibred product at m, already lex-sorted.  Its table is array
    arithmetic on the codes h*|K| + k, with only closure checked.

    Returns the ``DoubleCosetClass`` of m, the double coset's elements in
    increasing order, and each one's witness.  Not cached: ``double_cosets``
    keeps the classes at their minimal representatives."""
    nk = gh.source.order
    d = _coset_array(fh, gh, m)
    hs, ks = np.nonzero(d == m)
    fib = _table_group(
        hs * nk + ks,
        fh.source.mult[hs[:, None], hs] * nk + gh.source.mult[ks[:, None], ks],
        name=f"fib[{m}]",
    )
    _read_only(hs, ks)
    first = np.full(fh.target.order, d.size)
    np.minimum.at(first, d.ravel(), np.arange(d.size))
    members = np.flatnonzero(first < d.size)
    witnesses = [divmod(w, nk) for w in first[members].tolist()]
    return DoubleCosetClass(m, hs, ks, fib), members, witnesses


def double_cosets(fh: GroupHom, gh: GroupHom) -> DoubleCosets:
    """The double cosets f(H) \\ C / g(K) of homs f : H -> C and g : K -> C,
    each at its minimal element, with their fibred products and witnesses
    (``_double_coset_class``).  Computed once per pair of hom values and kept
    in the store of C, so equal pairs share one ``fib`` group."""
    if fh.target != gh.target:
        raise GroupMismatch("double cosets need homs into one group")
    return _memo(fh.target, ("double", fh.key, gh.key), _double_cosets, fh, gh)


def _double_cosets(fh, gh):
    order = fh.target.order
    coset_class = np.full(order, -1, dtype=np.int64)
    witness = [None] * order
    classes = []
    for m in range(order):
        if coset_class[m] >= 0:
            continue
        cls, members, witnesses = _double_coset_class(fh, gh, m)
        coset_class[members] = len(classes)
        for mm, w in zip(members.tolist(), witnesses):
            witness[mm] = w
        classes.append(cls)
    _read_only(coset_class)
    return DoubleCosets(tuple(classes), coset_class, tuple(witness))


# ---------------------------------------------------------------------------
# exhaustive hom enumeration (desk scale only; used by the verification suites)


def all_homs(source: FinGroup, target: FinGroup):
    """Every homomorphism source -> target, found by assigning images to the
    generators of ``_generating_set`` and checking the full homomorphism law.
    A candidate map is filled by breadth-first layers from the identity, one
    gather per layer (m[g * x] = image(g) * m[x]), so it is the unique hom
    with those generator images whenever one exists.  Exponential in the
    number of generators; fine for the small groups used in verification
    suites.  Raises InputTooLarge before trying any assignment when there
    are more than MAX_HOM_CANDIDATES of them."""
    gens = np.array(_generating_set(source.mult), dtype=np.int64)
    candidates = target.order ** len(gens)
    if candidates > MAX_HOM_CANDIDATES:
        raise InputTooLarge(
            f"all_homs would try {candidates} generator images "
            f"({target.order}^{len(gens)}), above the limit of {MAX_HOM_CANDIDATES}"
        )
    # breadth-first layers from the identity: each new element, with the
    # generator and the element of the layer before whose product it is.
    # Left products by one generator are distinct, so an element is taken
    # once, from the first generator that reaches it
    layers = []
    reached = np.zeros(source.order, dtype=bool)
    reached[0] = True
    prev = np.zeros(1, dtype=np.int64)
    while not reached.all():
        parts = []
        for i, g in enumerate(gens):
            elts = source.mult[g, prev]
            new = ~reached[elts]
            reached[elts[new]] = True
            parts.append((elts[new], np.full(np.count_nonzero(new), i), prev[new]))
        prev, gen, x = (np.concatenate(a) for a in zip(*parts))
        layers.append((prev, gen, x))
    homs = []
    for images in itertools.product(range(target.order), repeat=len(gens)):
        images = np.array(images, dtype=np.int64)
        m = np.zeros(source.order, dtype=np.int64)
        for elts, gen, x in layers:
            m[elts] = target.mult[images[gen], m[x]]
        lhs = m[source.mult]
        rhs = target.mult[np.ix_(m, m)]
        if np.array_equal(lhs, rhs):
            homs.append(GroupHom._derived(source, target, m))
    return homs
