import itertools

import numpy as np
import pytest

from lincat.errors import AxiomViolation, GroupMismatch
from lincat.groups import (
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


def test_conjugacy_trivial_and_z2():
    assert conjugacy_classes(trivial_group()) == [[0]]
    assert conjugacy_classes(cyclic_group(2)) == [[0], [1]]


def test_conjugacy_s3_against_oracle(s3):
    classes = conjugacy_classes(s3)
    assert classes == brute_force_conjugacy(s3)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert classes[0] == [0]


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


def test_group_from_permutations_cap():
    with pytest.raises(AxiomViolation):
        group_from_permutations([list(range(1, 7)) + [0]], 7, max_order=5)


def test_direct_product_orders(z2, z3):
    g = direct_product(z2, z3)
    assert g.order == 6
    assert conjugacy_classes(g) == [[i] for i in range(6)]


def test_subgroup_embedding_is_hom(s3):
    sub, incl = subgroup_embedding(s3, [0, 2])
    assert sub.order == 2
    assert incl.map.tolist() == [0, 2]
    assert incl.then(identity_hom(s3)) == incl


def test_subgroup_embedding_rejects_non_closed(s3):
    with pytest.raises(AxiomViolation):
        subgroup_embedding(s3, [0, 1, 2])


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
