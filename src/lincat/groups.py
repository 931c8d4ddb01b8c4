"""Finite groups as full multiplication tables, plus homomorphisms.

Elements of a group of order n are the indices 0..n-1 and index 0 is the
identity.  ``mult[a, b]`` is the product a*b, with the convention that for
permutations acting on points, (p*q)(i) = p(q(i)) (apply q first).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AxiomViolation, GroupMismatch, InputTooLarge

# most generator-image assignments that all_homs may try
MAX_HOM_CANDIDATES = 2**20
# most points that group_from_permutations lets its permutations act on
MAX_DEGREE = 2**20


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
    # every row and column is a permutation
    for a in range(n):
        if len(set(table[a].tolist())) != n:
            raise AxiomViolation("inverse", (a,), f"row {a} is not a permutation")
        if len(set(table[:, a].tolist())) != n:
            raise AxiomViolation("inverse", (a,), f"column {a} is not a permutation")
    # associativity: (a*b)*c == a*(b*c), one row a at a time (O(n^2) memory)
    for a in range(n):
        lhs = table[table[a], :]   # lhs[b,c] = table[table[a,b], c]
        rhs = table[a, table]      # rhs[b,c] = table[a, table[b,c]]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise AxiomViolation("associativity", (a, int(b), int(c)))
    return table


class FinGroup:
    """A finite group given by its multiplication table over element indices."""

    def __init__(self, mult, name=None):
        try:
            table = np.ascontiguousarray(np.asarray(mult, dtype=np.int64))
        except ValueError:
            raise AxiomViolation(
                "identity", (-1,), "multiplication table is not square"
            ) from None
        except OverflowError:
            raise AxiomViolation("identity", (-1,), "entry out of range") from None
        self.mult = table = _check_table(table)
        self.order = int(table.shape[0])
        self.name = name if name is not None else f"G{self.order}"
        # each row is a permutation, so its one 0 is its smallest entry
        self.inv = np.argmin(table, axis=1)
        self.fingerprint = table.tobytes()

    @cached_property
    def classes(self):
        """The conjugacy classes, computed once per group object."""
        return conjugacy_classes(self)

    @cached_property
    def class_sizes(self):
        """Number of elements in each conjugacy class."""
        return np.array([len(c) for c in self.classes])

    def mul(self, a, b):
        return int(self.mult[a, b])

    def conjugate(self, g, x):
        """x * g * x^-1."""
        return int(self.mult[self.mult[x, g], self.inv[x]])

    def __len__(self):
        return self.order

    def __eq__(self, other):
        return isinstance(other, FinGroup) and self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self):
        return f"FinGroup({self.name!r}, order={self.order})"


def validate_group(mult, name=None):
    """Build a FinGroup from a raw table, checking all three group axioms."""
    return FinGroup(mult, name=name)


def conjugacy_classes(g: FinGroup):
    """Partition of element indices into conjugacy classes.

    Classes are ordered by their minimal element, so the class of the
    identity comes first.
    """
    seen = np.zeros(g.order, dtype=bool)
    classes = []
    for a in range(g.order):
        if seen[a]:
            continue
        orbit = sorted({g.conjugate(a, x) for x in range(g.order)})
        for b in orbit:
            seen[b] = True
        classes.append(orbit)
    return classes


@dataclass
class GroupHom:
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

    def __call__(self, a):
        return int(self.map[a])

    def then(self, other: "GroupHom") -> "GroupHom":
        """Composite ``other . self`` (apply self first)."""
        if self.target != other.source:
            raise GroupMismatch("homs are not composable")
        return GroupHom(self.source, other.target, other.map[self.map])

    def kernel(self):
        return [int(a) for a in np.nonzero(self.map == 0)[0]]

    def image(self):
        return sorted({int(a) for a in self.map})

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and self.source == other.source
            and self.target == other.target
            and np.array_equal(self.map, other.map)
        )

    def __hash__(self):
        return hash((self.source.fingerprint, self.target.fingerprint, self.map.tobytes()))


def identity_hom(g: FinGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order))


def trivial_hom(source: FinGroup, target: FinGroup) -> GroupHom:
    return GroupHom(source, target, np.zeros(source.order, dtype=np.int64))


# ---------------------------------------------------------------------------
# constructions


def _table_group(codes, products, name=None) -> FinGroup:
    """The group on the elements with increasing integer ``codes`` (identity
    first), where ``products[i, j]`` is the code of element i times element j.
    The table holds the positions of the products; raises AxiomViolation if
    the codes are not closed under the product."""
    codes = np.asarray(codes, dtype=np.int64)
    products = np.asarray(products, dtype=np.int64)
    table = np.minimum(np.searchsorted(codes, products), len(codes) - 1)
    missing = codes[table] != products
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise AxiomViolation(
            "inverse", (int(codes[i]), int(codes[j])), "element set is not closed"
        )
    return FinGroup(table, name=name)


def _permutation_group(perms, name=None) -> FinGroup:
    """The group on a list of one-line permutations, coded by position."""
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    arr = np.array(perms, dtype=np.int64).reshape(n, -1)
    products = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        # arr[i][arr[j]] is perms[i] * perms[j]: apply perms[j] first
        products[i] = [index.get(r, -1) for r in map(tuple, arr[i, arr].tolist())]
    return _table_group(np.arange(n), products, name=name)


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
    order, so the identity permutation has index 0."""
    return _permutation_group(sorted(itertools.permutations(range(n))), name=f"S{n}")


def direct_product(g: FinGroup, h: FinGroup) -> FinGroup:
    """Product group; element (a, b) has index a*h.order + b."""
    products = g.mult[:, None, :, None] * h.order + h.mult[None, :, None, :]
    n = g.order * h.order
    return _table_group(np.arange(n), products.reshape(n, n), name=f"{g.name}x{h.name}")


def group_from_permutations(generators, n_points, name=None, max_order=500):
    """Close a set of one-line permutations under composition and return the
    resulting permutation group as a table.  The identity gets index 0 and the
    remaining elements are sorted lexicographically.  Raises InputTooLarge
    before building any permutation when ``n_points`` exceeds MAX_DEGREE."""
    if n_points > MAX_DEGREE:
        raise InputTooLarge(
            f"permutations of {n_points} points are above the limit of {MAX_DEGREE}"
        )
    gens = [tuple(p) for p in generators]
    for p in gens:
        if sorted(p) != list(range(n_points)):
            raise AxiomViolation("inverse", (-1,), f"{p} is not a permutation of 0..{n_points-1}")
    elements = {tuple(range(n_points))}
    frontier = list(elements)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = _compose_perms(p, q)
                if r not in elements:
                    elements.add(r)
                    nxt.append(r)
        frontier = nxt
        if len(elements) > max_order:
            raise AxiomViolation(
                "inverse", (-1,), f"generated group exceeds the cap of {max_order} elements"
            )
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
# exhaustive hom enumeration (desk scale only; used by the verification suites)


def _generating_words(g: FinGroup):
    """Greedy generating set plus a recipe for every element over it.

    Returns ``(gens, recipe)`` where recipe is a list of steps in evaluation
    order: ("id", elt), ("gen", elt, gen_i) or ("mul", elt, gen_i, prev_elt)
    meaning elt = gens[gen_i] * prev_elt with prev_elt already evaluated.
    """
    gens = []
    recipe = [("id", 0)]
    in_closure = {0}
    closure = [0]
    for a in range(g.order):
        if a in in_closure:
            continue
        gens.append(a)
        gi = len(gens) - 1
        recipe.append(("gen", a, gi))
        in_closure.add(a)
        closure.append(a)
        changed = True
        while changed:
            changed = False
            for x in list(closure):
                for gj in range(len(gens)):
                    c = g.mul(gens[gj], x)
                    if c not in in_closure:
                        recipe.append(("mul", c, gj, x))
                        in_closure.add(c)
                        closure.append(c)
                        changed = True
    return gens, recipe


def all_homs(source: FinGroup, target: FinGroup):
    """Every homomorphism source -> target, found by assigning generator images
    and checking the full homomorphism law.  Exponential in the number of
    generators; fine for the small groups used in verification suites.
    Raises InputTooLarge before trying any assignment when there are more
    than MAX_HOM_CANDIDATES of them."""
    gens, recipe = _generating_words(source)
    candidates = target.order ** len(gens)
    if candidates > MAX_HOM_CANDIDATES:
        raise InputTooLarge(
            f"all_homs would try {candidates} generator images "
            f"({target.order}^{len(gens)}), above the limit of {MAX_HOM_CANDIDATES}"
        )
    homs = []
    for images in itertools.product(range(target.order), repeat=len(gens)):
        m = np.empty(source.order, dtype=np.int64)
        for step in recipe:
            if step[0] == "id":
                m[step[1]] = 0
            elif step[0] == "gen":
                m[step[1]] = images[step[2]]
            else:
                _, c, gj, x = step
                m[c] = target.mul(images[gj], m[x])
        lhs = m[source.mult]
        rhs = target.mult[np.ix_(m, m)]
        if np.array_equal(lhs, rhs):
            homs.append(GroupHom(source, target, m))
    return homs
