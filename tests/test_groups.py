import itertools

import numpy as np
import pytest

import lincat.groups
from lincat.errors import AxiomViolation, GroupMismatch, IndexOutOfRange, InputTooLarge
from lincat.groups import (
    FinGroup,
    GroupHom,
    all_homs,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    group_from_permutations,
    identity_hom,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    trivial_hom,
    validate_group,
)


def brute_force_conjugacy(g):
    """Oracle: orbits of the conjugation action, straight from the definition."""
    remaining = set(range(g.order))
    classes = []
    while remaining:
        a = min(remaining)
        orbit = {g.mul(g.mul(x, a), g.inv[x]) for x in range(g.order)}
        classes.append(sorted(orbit))
        remaining -= orbit
    return classes


def test_validate_trivial():
    g = validate_group([[0]])
    assert g.order == 1


def test_validate_z2():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv.tolist() == [0, 1]


def test_validate_inverse_violation():
    with pytest.raises(AxiomViolation) as err:
        validate_group([[0, 1], [1, 1]])
    assert err.value.kind == "inverse"
    assert 1 in err.value.witness


def test_validate_identity_violation():
    with pytest.raises(AxiomViolation) as err:
        validate_group([[1, 0], [0, 1]])
    assert err.value.kind == "identity"


def _first_non_permutation(table):
    """Oracle: the first a whose row, else whose column, is not a permutation."""
    n = len(table)
    for a in range(n):
        if len(set(table[a])) != n:
            return a, f"row {a} is not a permutation"
        if len({row[a] for row in table}) != n:
            return a, f"column {a} is not a permutation"
    return None


def test_validate_inverse_reports_first_row_or_column():
    cases = [
        # every row is a permutation, column 1 is not
        [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
        # row 1 and column 1 both fail: the row is reported
        [[0, 1, 2], [1, 1, 2], [2, 0, 1]],
        # column 1 fails before row 2
        [[0, 1, 2], [1, 2, 0], [2, 2, 1]],
    ]
    # Z5 with one entry off the identity row and column overwritten
    rng = np.random.default_rng(3)
    for _ in range(30):
        t = [[(a + b) % 5 for b in range(5)] for a in range(5)]
        a, b = rng.integers(1, 5, 2)
        t[a][b] = int(rng.integers(0, 5))
        cases.append(t)
    for table in cases:
        want = _first_non_permutation(table)
        if want is None:
            continue
        with pytest.raises(AxiomViolation) as err:
            validate_group(table)
        assert (err.value.kind, err.value.witness, str(err.value)) == (
            "inverse", (want[0],), want[1])
    with pytest.raises(AxiomViolation) as err:
        validate_group(cases[0])
    assert (err.value.kind, err.value.witness) == ("inverse", (1,))


def test_validate_associativity_violation():
    # rows/columns are permutations and index 0 is an identity, but the
    # operation x*y = x + y + x*y*(x-y) mod 5 over Z5 fails associativity
    n = 5
    table = [[(a + b + a * b * (a - b)) % n for b in range(n)] for a in range(n)]
    ok_latin = all(len(set(row)) == n for row in table)
    if ok_latin:
        with pytest.raises(AxiomViolation) as err:
            validate_group(table)
        assert err.value.kind in ("associativity", "inverse")


def test_validate_associativity_reports_first_triple():
    # a Latin square with identity 0: a loop of order 5 that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    t = np.array(table)
    failing = [
        (a, b, c)
        for a in range(5) for b in range(5) for c in range(5)
        if t[t[a, b], c] != t[a, t[b, c]]
    ]
    assert failing[0] == (1, 1, 2)
    with pytest.raises(AxiomViolation) as err:
        validate_group(table)
    assert err.value.kind == "associativity"
    assert err.value.witness == (1, 1, 2)


def _first_nonassociative_triple(table):
    """Reference: the lexicographically first (a, b, c) with
    (a*b)*c != a*(b*c), from all n^3 triples at once, or None."""
    t = np.asarray(table)
    bad = np.argwhere(t[t] != t[:, t])
    return tuple(int(v) for v in bad[0]) if len(bad) else None


def _intercalate_loops(g):
    """Latin squares with identity 0 made from g's table by swapping the two
    values of an intercalate (rows a, c and columns b, d, none of them 0,
    with a*b = c*d and a*d = c*b): loops, associative or not."""
    t = g.mult
    nonzero = range(1, g.order)
    for a, c, b, d in itertools.product(nonzero, repeat=4):
        if a < c and b < d and t[a, b] == t[c, d] and t[a, d] == t[c, b]:
            loop = t.copy()
            loop[[a, a, c, c], [b, d, b, d]] = t[[a, a, c, c], [d, b, d, b]]
            yield loop


def test_light_associativity_test_agrees_with_the_full_scan():
    z2 = cyclic_group(2)
    groups = [direct_product(direct_product(z2, z2), z2),
              direct_product(cyclic_group(4), z2), symmetric_group(3)]
    verdicts = set()
    for g in groups:
        for loop in [g.mult, *_intercalate_loops(g)]:
            want = _first_nonassociative_triple(loop)
            verdicts.add(want is None)
            if want is None:
                assert np.array_equal(validate_group(loop).mult, loop)
                continue
            with pytest.raises(AxiomViolation) as err:
                validate_group(loop)
            assert (err.value.kind, err.value.witness) == ("associativity", want)
    assert verdicts == {True, False}


def greedy_generators(g):
    """Reference: each generator is the least element outside the closure so
    far, closed by left products with the generators one element at a time."""
    gens, closure = [], [0]
    for a in range(g.order):
        if a in closure:
            continue
        gens.append(a)
        closure.append(a)
        changed = True
        while changed:
            changed = False
            for x in list(closure):
                for b in gens:
                    c = int(g.mult[b, x])
                    if c not in closure:
                        closure.append(c)
                        changed = True
    return gens


def test_generating_set_generates_under_left_products():
    for g in (symmetric_group(4), cyclic_group(12),
              group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)):
        gens = lincat.groups._generating_set(g.mult)
        reached = {0}
        frontier = [0]
        while frontier:
            frontier = [int(g.mult[a, x]) for a in gens for x in frontier
                        if int(g.mult[a, x]) not in reached]
            reached.update(frontier)
        assert reached == set(range(g.order))
        assert gens == greedy_generators(g)


def test_conjugacy_trivial_and_z2():
    assert conjugacy_classes(trivial_group()) == [[0]]
    assert conjugacy_classes(cyclic_group(2)) == [[0], [1]]


def test_conjugacy_s3_against_oracle(s3):
    classes = conjugacy_classes(s3)
    assert classes == brute_force_conjugacy(s3)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert classes[0] == [0]


@pytest.mark.parametrize(
    "maker",
    [
        trivial_group,
        lambda: cyclic_group(2),
        lambda: cyclic_group(3),
        lambda: cyclic_group(4),
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        lambda: FinGroup(direct_product(cyclic_group(2), cyclic_group(2)).mult),
        lambda: symmetric_group(3),
        lambda: group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
        lambda: symmetric_group(5),
        lambda: direct_product(symmetric_group(4), symmetric_group(4)),
    ],
    ids=["1", "Z2", "Z3", "Z4", "V4", "V4-table", "S3", "A5", "S5", "S4xS4"],
)
def test_conjugacy_classes_and_their_order_match_the_oracle(maker):
    g = maker()
    assert conjugacy_classes(g) == brute_force_conjugacy(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_cyclic_valid_and_class_count(n):
    g = cyclic_group(n)
    assert g.order == n
    # abelian: every class is a singleton
    assert conjugacy_classes(g) == [[i] for i in range(n)]


def test_class_sizes_sum_to_order(s3, s4, v4):
    for g in (s3, s4, v4):
        assert sum(len(c) for c in conjugacy_classes(g)) == g.order


def test_symmetric_group_composition_convention():
    s3 = symmetric_group(3)
    # index 2 is [1,0,2] (swap first two points), index 3 is [1,2,0]
    perms = sorted(itertools.permutations(range(3)))
    a, b = 2, 3
    composed = tuple(perms[a][perms[b][i]] for i in range(3))
    assert perms[s3.mul(a, b)] == composed


def test_group_from_permutations_matches_symmetric():
    for gens, n, order in [
        ([[1, 0, 2], [1, 2, 0]], 3, 6),
        ([[1, 0, 2, 3], [1, 2, 3, 0]], 4, 24),
    ]:
        g = group_from_permutations(gens, n)
        assert g.order == order
        assert np.array_equal(g.mult, symmetric_group(n).mult)


def test_group_from_permutations_17_cycle_matches_dict_table():
    # 17^17 overflows int64, so no fixed-radix code of the one-line
    # permutations can stand in for the positions here
    n = 17
    elements = sorted(tuple((i + k) % n for i in range(n)) for k in range(n))
    index = {p: i for i, p in enumerate(elements)}
    ref = [[index[tuple(p[i] for i in q)] for q in elements] for p in elements]
    g = group_from_permutations([list(range(1, n)) + [0]], n)
    assert g.mult.tolist() == ref


def test_group_from_permutations_cap(monkeypatch):
    # Z7 from a 7-cycle: six permutations of 7 points state a peak of
    # 8*6*(3.4*6 + 12*7) bytes, rounded up to 5012, and all seven 6037
    gens = [list(range(1, 7)) + [0]]
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 5011)
    with pytest.raises(InputTooLarge, match="a group of 6 permutations of 7 points "
                       "needs 5012 bytes, above the limit of 5011"):
        group_from_permutations(gens, 7)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 6037)
    assert group_from_permutations(gens, 7).order == 7


def test_group_from_permutations_stops_at_the_cap(monkeypatch):
    # the nine transpositions (0 i) of 10 points each give a new element in
    # the first step; the closure stops at the first one beyond the byte
    # limit: five permutations of 10 points state 5480 bytes, six 6740
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 6739)
    made = []
    real = lincat.groups._compose_perms

    def spied(p, q):
        made.append(real(p, q))
        return made[-1]

    monkeypatch.setattr(lincat.groups, "_compose_perms", spied)
    gens = []
    for i in range(1, 10):
        t = list(range(10))
        t[0], t[i] = i, 0
        gens.append(t)
    with pytest.raises(InputTooLarge, match="6 permutations of 10 points needs 6740 bytes"):
        group_from_permutations(gens, 10)
    assert len(made) == 5
    made.clear()
    with pytest.raises(InputTooLarge):
        group_from_permutations([list(range(1, 10)) + [0]], 10)
    assert len(made) == 5


def _refuse(*args, **kwargs):
    raise AssertionError("a permutation group was built before the guard")


def test_symmetric_group_size_guard(monkeypatch):
    # S8's table would be 40,320^2 int64 entries (13 GB), and its build 3.4
    # times as much: the guard must come before the permutations are
    # enumerated
    with monkeypatch.context() as m:
        m.setattr(itertools, "permutations", _refuse)
        m.setattr(lincat.groups, "_permutation_group", _refuse)
        with pytest.raises(InputTooLarge, match="building S8 needs 44219105280 bytes"):
            symmetric_group(8)
        # a float would overflow at 171!^2
        with pytest.raises(InputTooLarge, match="building S171 needs"):
            symmetric_group(171)
        # S7 states 3.4 * 5040^2 * 8 bytes, about 691 MB
        with pytest.raises(InputTooLarge, match="S7 needs 690923520 bytes"):
            symmetric_group(7)
    # S3: 6^2 int64 entries are 288 bytes, and 3.4 times that rounds down
    # to 979
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 978)
    with pytest.raises(InputTooLarge, match="S3 needs 979 bytes"):
        symmetric_group(3)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 979)
    assert symmetric_group(3).order == 6


@pytest.mark.parametrize("n", [-1, -3])
def test_symmetric_group_refuses_negative_degree(monkeypatch, n):
    # a negative degree is refused before anything is enumerated, also by
    # group_from_permutations; S0 stays the trivial group
    with monkeypatch.context() as m:
        m.setattr(itertools, "permutations", _refuse)
        m.setattr(lincat.groups, "_permutation_group", _refuse)
        with pytest.raises(IndexOutOfRange, match=f"S{n}: "):
            symmetric_group(n)
        with pytest.raises(IndexOutOfRange, match=f"n_points >= 0, got {n}"):
            group_from_permutations([], n)
    trivial = symmetric_group(0)
    assert trivial.order == 1 and trivial.name == "S0"
    assert group_from_permutations([], 0) == trivial


def test_group_from_permutations_entry_guard(monkeypatch):
    # Z2 swapping points 0 and 1 of 1000: the closure holds its permutations
    # as tuples, 12 times their 16,000 int64 bytes, beside a table of 32;
    # it stops before it adds the second element
    swap = [1, 0] + list(range(2, 1000))
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 192108)
    with monkeypatch.context() as m:
        m.setattr(lincat.groups, "_permutation_group", _refuse)
        with pytest.raises(InputTooLarge,
                           match="2 permutations of 1000 points needs 192109 bytes"):
            group_from_permutations([swap], 1000)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 192109)
    assert group_from_permutations([swap], 1000).order == 2


@pytest.mark.parametrize("gens, message", [
    ([[1, 0, 2], [0, 0, 1]], "generator 1 [0, 0, 1] is not a permutation of 0..2"),
    ([[0, 1, 3]], "generator 0 [0, 1, 3] is not a permutation of 0..2"),
    ([[1, 2, 0], [1, 0]], "generator 1 [1, 0] is not a permutation of 0..2"),
])
def test_malformed_generator_is_out_of_range(gens, message):
    # malformed input, not an axiom violation: no table was checked
    with pytest.raises(IndexOutOfRange) as err:
        group_from_permutations(gens, 3)
    assert str(err.value) == message


def test_direct_product_orders(z2, z3, s3):
    g = direct_product(z2, z3)
    assert g.order == 6
    assert conjugacy_classes(g) == [[i] for i in range(6)]
    # a non-abelian factor: (a, b) has index a*m + b and multiplies
    # componentwise
    g, m = direct_product(s3, z2), z2.order
    assert g.order == 12
    for a, b, c, d in itertools.product(range(6), range(2), range(6), range(2)):
        assert g.mult[a * m + b, c * m + d] == s3.mult[a, c] * m + z2.mult[b, d]


def test_direct_product_records_factors_in_its_value(z2, s3):
    g = direct_product(s3, z2)
    assert g.factors[0] is s3 and g.factors[1] is z2
    plain = FinGroup(g.mult)
    assert plain.factors is None and s3.factors is None
    # the same table without factors is another value
    assert g.fingerprint == plain.fingerprint
    assert g != plain and plain != g
    assert g.key == (g.fingerprint, s3.key, z2.key) and plain.key == plain.fingerprint
    again = direct_product(symmetric_group(3), cyclic_group(2))
    assert g == again and hash(g) == hash(again)
    assert g == g and g != s3


class _NoTable:
    """A factor's table that fails on any read."""

    def __getitem__(self, key):
        raise AssertionError("a product table was built before the guard")


def test_direct_product_size_guard(monkeypatch):
    s4, s5 = symmetric_group(4), symmetric_group(5)
    # S5 x S5: 14,400^2 int64 entries are 1.66 GB, and the build holds 2.1
    # times that; the product's table is built from its factors' tables, so
    # the guard must come before any read
    with monkeypatch.context() as m:
        m.setattr(s5, "mult", _NoTable())
        with pytest.raises(InputTooLarge, match="order 14400 needs 3483648000 bytes"):
            direct_product(s5, s5)
    g = direct_product(s4, s4)
    assert g.order == 576 and g.factors == (s4, s4)
    # S4 x S4: 2.1 * 576^2 * 8 bytes, rounded up
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 5573836)
    with pytest.raises(InputTooLarge, match="order 576 needs 5573837 bytes"):
        direct_product(s4, s4)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 5573837)
    assert direct_product(s4, s4) == g


def test_class_of_inverts_classes():
    for g in (symmetric_group(4), direct_product(symmetric_group(3), cyclic_group(2))):
        assert len(g.class_of) == g.order
        for c, members in enumerate(g.classes):
            assert g.class_of[members].tolist() == [c] * len(members)


def test_subgroup_embedding_is_hom(s3):
    sub, incl = subgroup_embedding(s3, [0, 2])
    assert sub.order == 2
    assert incl.map.tolist() == [0, 2]
    assert incl.then(identity_hom(s3)) == incl


def test_subgroup_embedding_rejects_non_closed(s3):
    with pytest.raises(AxiomViolation, match="element set is not closed"):
        subgroup_embedding(s3, [0, 1, 2])


# a Latin square with identity 0 (an order-5 loop) that is not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
         [4, 2, 0, 1, 3]]


def test_non_associative_table_is_rejected():
    t = np.array(LOOP5)
    idx = np.arange(5)
    # only the associativity proof can reject it
    assert (np.sort(t, axis=0) == idx[:, None]).all()
    assert (np.sort(t, axis=1) == idx).all()
    assert (t[0] == idx).all() and (t[:, 0] == idx).all()
    for build in (FinGroup, validate_group):
        with pytest.raises(AxiomViolation) as err:
            build(LOOP5)
        assert (err.value.kind, err.value.witness) == ("associativity", (1, 1, 2))


def _subgroups(g):
    """Every subgroup of g generated by two elements, by closure."""
    found = set()
    for a, b in itertools.product(range(g.order), repeat=2):
        elems, frontier = {0}, [0]
        while frontier:
            frontier = [c for c in {g.mul(x, y) for x in frontier for y in (a, b)}
                        if c not in elems]
            elems.update(frontier)
        found.add(tuple(sorted(elems)))
    return sorted(found)


def test_closure_only_groups_match_the_full_proof(s3, s4, z2, z3, v4):
    # the subgroups of S4 (all two-generated: 30 of them) and some products
    derived = [subgroup_embedding(s4, elems)[0] for elems in _subgroups(s4)]
    assert len(derived) == 30
    derived += [direct_product(s3, z2), direct_product(z3, v4), direct_product(s4, s3)]
    for g in derived:
        checked = FinGroup(g.mult, name=g.name)
        # a recorded product's value holds its factors too: compare tables
        assert g.fingerprint == checked.fingerprint
        if g.factors is None:
            assert g == checked and hash(g) == hash(checked)
        for attr in ("mult", "inv"):
            got, want = getattr(g, attr), getattr(checked, attr)
            assert got.dtype == want.dtype == np.int64
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)
        assert g.order == checked.order and g.name == checked.name


def test_unchecked_homs_satisfy_the_law(z2, z4, s3, s4):
    # all_homs and then skip GroupHom's law check; the checked constructor
    # must accept every one of them and give an equal hom
    derived = all_homs(s3, s3) + all_homs(z4, s4)
    derived += [f.then(g) for f in all_homs(z4, s3) for g in all_homs(s3, z2)]
    derived += [f.then(g) for f in all_homs(z2, s4) for g in all_homs(s4, s3)]
    assert len(derived) == 10 + 16 + 4 * 2 + 10 * 10
    for f in derived:
        assert f.map.dtype == np.int64
        assert GroupHom(f.source, f.target, f.map.copy()) == f


def test_hom_validation_rejects_non_hom(z4, z2):
    with pytest.raises(GroupMismatch):
        GroupHom(z4, z2, [0, 1, 1, 0])


def test_hom_kernel_image(z4, z2):
    f = GroupHom(z4, z2, [0, 1, 0, 1])
    assert f.kernel() == [0, 2]
    assert f.image() == [0, 1]


def test_trivial_hom_everywhere(s3, one):
    f = trivial_hom(s3, one)
    assert f.image() == [0]
    assert len(f.kernel()) == 6


def test_all_homs_size_guard(z2, v4, s3, monkeypatch):
    def no_candidate(*args, **kwargs):
        raise AssertionError("a candidate was built before the guard")

    # V4 needs two generators: 6^2 images into S3
    monkeypatch.setattr(lincat.groups, "MAX_HOM_CANDIDATES", 6**2 - 1)
    with monkeypatch.context() as m:
        m.setattr(lincat.groups, "GroupHom", no_candidate)
        with pytest.raises(InputTooLarge):
            all_homs(v4, s3)
    monkeypatch.setattr(lincat.groups, "MAX_HOM_CANDIDATES", 6)
    assert len(all_homs(z2, s3)) == 4


def test_all_homs_counts(z2, z3, z4, s3, one):
    # |Hom(Z2, Z2)| = 2, |Hom(Z2, Z3)| = 1, |Hom(Z4, Z2)| = 2
    assert len(all_homs(z2, z2)) == 2
    assert len(all_homs(z2, z3)) == 1
    assert len(all_homs(z4, z2)) == 2
    # homs Z2 -> S3: identity image or one of three transpositions
    assert len(all_homs(z2, s3)) == 4
    # homs S3 -> Z2: trivial and sign
    assert len(all_homs(s3, z2)) == 2
    for f in all_homs(s3, s3):
        # spot-check each claimed hom on random pairs
        for a, b in [(1, 2), (3, 5), (4, 4)]:
            assert f(s3.mul(a, b)) == s3.mul(f(a), f(b))
