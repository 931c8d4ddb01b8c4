import gc
import itertools
import pickle
import random
import threading
import weakref

import numpy as np
import pytest

from lincat.errors import (
    GroupMismatch,
    InputTooLarge,
    LincatError,
    ModelMismatch,
    NonIntegralMultiplicity,
    RankMismatch,
    SingularMap,
)
from lincat.groups import (
    FinGroup,
    GroupHom,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    group_from_permutations,
    identity_hom,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    trivial_hom,
)
import lincat.rep
from lincat.groupoids import one_object_groupoid
from lincat.linearization import lambda_object
from lincat.rep import (
    Character,
    RepModel,
    ZigzagReport,
    character_inner,
    eps_L,
    eps_R,
    eta_L,
    eta_R,
    hom_dim,
    induce_rep,
    intertwiner_basis,
    irreps,
    nakayama,
    regular_rep,
    restrict_rep,
    trivial_rep,
    verify_zigzag,
)

from fresh import cold, python, relabelled

TOL = 1e-8


def induced_character_oracle(f, chi_values, class_index_src, g_src, h_tgt):
    """Oracle: chi_ind(a) = (1/|G|) sum_{x in H} sum_{g : f(g) = x^-1 a x} chi(g),
    computed from character values alone."""
    out = []
    for cls in conjugacy_classes(h_tgt):
        a = cls[0]
        total = 0.0 + 0.0j
        for x in range(h_tgt.order):
            conj = h_tgt.mul(h_tgt.mul(h_tgt.inv[x], a), x)
            for g in range(g_src.order):
                if f(g) == conj:
                    total += chi_values[class_index_src[g]]
        out.append(total / g_src.order)
    return np.array(out)


def class_index(g):
    idx = {}
    for ci, cls in enumerate(conjugacy_classes(g)):
        for a in cls:
            idx[a] = ci
    return idx


# --- irreps -----------------------------------------------------------------


def test_irreps_trivial(one):
    rs = irreps(one)
    assert len(rs) == 1 and rs[0].dim == 1


def test_irreps_z2_characters(z2):
    rs = irreps(z2)
    vals = {tuple(int(round(v.real)) for v in r.character.values) for r in rs}
    # oracle: decomposing the 2-dim regular representation gives exactly these
    assert vals == {(1, 1), (1, -1)}


def test_irreps_s3(s3):
    rs = irreps(s3)
    assert sorted(r.dim for r in rs) == [1, 1, 2]
    assert sum(r.dim**2 for r in rs) == 6


@pytest.mark.parametrize(
    "maker",
    [
        trivial_group,
        lambda: cyclic_group(2),
        lambda: cyclic_group(3),
        lambda: cyclic_group(4),
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        lambda: symmetric_group(3),
        lambda: symmetric_group(4),
        lambda: group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
        lambda: symmetric_group(5),
        lambda: direct_product(symmetric_group(3), symmetric_group(3)),
        lambda: direct_product(symmetric_group(4), cyclic_group(2)),
    ],
)
def test_irreps_complete_orthonormal_unitary(maker):
    g = maker()
    rs = irreps(g)
    assert sum(r.dim**2 for r in rs) == g.order
    for i, a in enumerate(rs):
        for j, b in enumerate(rs):
            want = 1.0 if i == j else 0.0
            assert abs(character_inner(a.character, b.character) - want) < TOL
    for r in rs:
        r.check()
        for a in range(g.order):
            m = r.matrices[a]
            assert np.max(np.abs(m @ m.conj().T - np.eye(r.dim))) < TOL


@pytest.mark.parametrize(
    "maker, dims",
    [
        (lambda: group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
         [1, 3, 3, 4, 5]),
        (lambda: symmetric_group(5), [1, 1, 4, 4, 5, 5, 6]),
    ],
    ids=["A5", "S5"],
)
def test_irreps_dims_of_order_60_and_120(maker, dims):
    assert [r.dim for r in irreps(maker())] == dims


def _cold_s3():
    return cold(lambda: relabelled(symmetric_group(3)))


def test_irreps_deterministic_order():
    # two cold computations on one value: the first one's store is freed
    # with the last group of that value before the second is built
    g = _cold_s3()
    a = [r.matrices for r in irreps(g)]
    store = weakref.ref(g.store)
    del g
    gc.collect()
    assert store() is None
    b = irreps(_cold_s3())
    for ma, rb in zip(a, b):
        assert np.max(np.abs(ma - rb.matrices)) == 0.0
    dims = [r.dim for r in b]
    assert dims == sorted(dims)


def test_kept_irreps_belong_to_the_value_not_to_the_asking_group():
    # a result the store keeps is the value's: every irrep's group equals
    # the asking group, but it is the group object that asked first, under
    # that object's name
    first = _cold_s3()
    twin = FinGroup(first.mult, name="A")
    table = irreps(first)
    assert irreps(twin) is table
    assert all(r.group == twin and r.group is first for r in table)
    assert table[0].group.name == first.name != twin.name


def test_irreps_takes_no_tolerance():
    # irreps are kept by value and seed, so a tolerance could not be
    # honoured on a hit: irreps takes none, cold or warm
    g = _cold_s3()
    with pytest.raises(TypeError):
        irreps(g, tol=1e-30)
    irreps(g)
    with pytest.raises(TypeError):
        irreps(g, tol=1e-30)


def test_permutation_kernel_matches_dense_regular_rep(s4):
    # reference: compress the dense regular representation, as irreps once did
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((s4.order, 5)) + 1j * rng.standard_normal((s4.order, 5))
    basis, _ = np.linalg.qr(raw)
    dense = np.einsum("ni,gnm,mj->gij", basis.conj(), regular_rep(s4).matrices, basis)
    assert np.max(np.abs(np.array(list(lincat.rep._subrep(s4, basis))) - dense)) < 1e-12
    chi = [np.trace(dense[c[0]]) for c in s4.classes]
    assert np.max(np.abs(lincat.rep._char_of(s4, basis) - chi)) < 1e-12


def test_subrep_chunks_match_the_element_loop(s4, monkeypatch):
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((s4.order, 3)) + 1j * rng.standard_normal((s4.order, 3))
    basis, _ = np.linalg.qr(raw)
    loop = np.array([basis.conj().T @ basis[s4.mult[s4.inv[a]]] for a in range(s4.order)])
    # one element per chunk, a chunk that leaves a short tail, one chunk
    for chunk_bytes in (1, 5 * basis.nbytes, 1 << 20):
        monkeypatch.setattr(lincat.rep, "_SUBREP_CHUNK_BYTES", chunk_bytes)
        assert np.max(np.abs(lincat.rep._subrep(s4, basis) - loop)) < 1e-14


def _loop_char_of(g, basis):
    """Reference: one vdot per conjugacy class, as ``_char_of`` once took them."""
    return np.array([np.vdot(basis, basis[g.mult[g.inv[c[0]]]]) for c in g.classes])


def _loop_char_key(chi):
    """Reference: two ``round`` calls per class, as ``_char_key`` once took them."""
    return tuple((round(v.real, 8), round(v.imag, 8)) for v in chi)


def test_char_of_chunks_match_the_class_loop(s4, monkeypatch):
    rng = np.random.default_rng(4)
    z = cyclic_group(256)  # abelian: one class per element
    for g in (s4, z):
        raw = rng.standard_normal((g.order, 3)) + 1j * rng.standard_normal((g.order, 3))
        basis, _ = np.linalg.qr(raw)
        loop = _loop_char_of(g, basis)
        # one representative per chunk, a chunk that leaves a short tail, one chunk
        for chunk_bytes in (1, 5 * basis.nbytes, 1 << 20):
            monkeypatch.setattr(lincat.rep, "_SUBREP_CHUNK_BYTES", chunk_bytes)
            assert np.max(np.abs(lincat.rep._char_of(g, basis) - loop)) < 1e-13


MAKERS = {
    "1": trivial_group,
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": lambda: symmetric_group(3),
    "A5": lambda: group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
    "S5": lambda: symmetric_group(5),
    "S3xS3": lambda: direct_product(symmetric_group(3), symmetric_group(3)),
    "S3xS3-table": lambda: FinGroup(
        direct_product(symmetric_group(3), symmetric_group(3)).mult),
    "S4xZ2": lambda: direct_product(symmetric_group(4), cyclic_group(2)),
    "S4xZ2-table": lambda: FinGroup(
        direct_product(symmetric_group(4), cyclic_group(2)).mult),
}

# the loop reference for every maker, from a fresh interpreter, where no
# group holds a value: every irrep there, a product's factors' included, is
# split with the loop character and key; prints the pickled dims, loop keys,
# matrices and character values
_LOOP_IRREPS = """
import pickle
import lincat.rep
from test_rep import MAKERS, _loop_char_key, _loop_char_of
lincat.rep._char_of, lincat.rep._char_key = _loop_char_of, _loop_char_key
print(pickle.dumps({
    name: [(r.dim, _loop_char_key(r.character.values), r.matrices, r.character.values)
           for r in lincat.rep.irreps(make())]
    for name, make in MAKERS.items()}).hex())
"""


@pytest.fixture(scope="module")
def loop_irreps():
    return pickle.loads(bytes.fromhex(python("-c", _LOOP_IRREPS)))


@pytest.mark.parametrize("maker", list(MAKERS))
def test_array_characters_keep_irreps_order_dims_and_keys(maker, loop_irreps):
    got = irreps(MAKERS[maker]())
    want = loop_irreps[maker]
    char_key = lincat.rep._char_key
    assert [r.dim for r in got] == [dim for dim, _, _, _ in want]
    assert [char_key(r.character.values) for r in got] == [key for _, key, _, _ in want]
    for a, (_, _, mats, chars) in zip(got, want):
        # the bases do not read the characters
        assert np.array_equal(a.matrices, mats)
        assert np.max(np.abs(a.character.values - chars)) < 1e-12


def test_uniform_draws_are_fixed_by_the_seed():
    a = lincat.rep._uniform(random.Random(3), (2, 4, 4))
    b = lincat.rep._uniform(random.Random(3), (2, 4, 4))
    c = lincat.rep._uniform(random.Random(4), (2, 4, 4))
    assert a.shape == (2, 4, 4) and a.dtype == np.float64
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert a.min() >= -1.0 and a.max() < 1.0


def test_numpy_integer_seed_is_the_int_seed():
    # the stdlib generator refuses numpy integers; irreps takes them and
    # keeps its result under the int
    g = _cold_s3()
    a = irreps(g, seed=np.int64(5))
    assert irreps(g, seed=5) is a
    mats = [r.matrices for r in a]
    del g, a
    for ma, rb in zip(mats, irreps(_cold_s3(), seed=5)):
        assert np.array_equal(ma, rb.matrices)


def test_negative_seed_is_refused():
    # random.Random(-5) would act as seed 5
    g = _cold_s3()
    with pytest.raises(LincatError, match="seed must be non-negative, got -5"):
        irreps(g, seed=-5)
    assert not g.store


@pytest.mark.parametrize(
    "maker",
    [
        lambda: group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
        lambda: symmetric_group(4),
        lambda: symmetric_group(5),
    ],
    ids=["A5", "S4", "S5"],
)
def test_seeds_change_only_the_bases(maker):
    g = maker()
    a, b = irreps(g, seed=0), irreps(g, seed=7)
    assert [r.dim for r in a] == [r.dim for r in b]
    for ra, rb in zip(a, b):
        assert np.max(np.abs(ra.character.values - rb.character.values)) < 1e-12
    assert any(not np.allclose(ra.matrices, rb.matrices) for ra, rb in zip(a, b))
    gpd = one_object_groupoid(g)
    labels = [lambda_object(gpd, seed=s).basis.labels for s in (0, 7)]
    assert labels[0] == labels[1]


def _element_sum_average(g, basis, h):
    # reference: (1/|G|) sum_a S(a) h S(a)^H, element by element, with S(a)
    # the compression of the dense regular representation
    total = np.zeros_like(h)
    for mat in regular_rep(g).matrices:
        s = basis.conj().T @ mat @ basis
        total += s @ h @ s.conj().T
    return total / g.order


def test_closed_form_average_matches_element_sum(s4):
    rng = np.random.default_rng(1)
    a5 = group_from_permutations([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5)
    # an isotypic block of C[S4]: the range of the projector
    # (d/|G|) sum_a conj(chi(a)) reg(a) of a 3-dimensional irrep, in a random
    # orthonormal basis
    w = irreps(s4)[3]
    chi = np.trace(w.matrices, axis1=1, axis2=2)
    proj = np.einsum("a,anm->nm", chi.conj(), regular_rep(s4).matrices)
    u, sv, _ = np.linalg.svd(proj * w.dim / s4.order)
    assert int(np.sum(sv > 0.5)) == w.dim**2
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    block = u[:, : w.dim**2] @ q
    cases = [(s4, np.eye(s4.order, dtype=complex)), (s4, block),
             (a5, np.eye(a5.order, dtype=complex))]
    for g, basis in cases:
        k = basis.shape[1]
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        h = a + a.conj().T
        got = lincat.rep._averaged(g, basis, h)
        assert np.max(np.abs(got - _element_sum_average(g, basis, h))) < 1e-12


def test_irreps_never_builds_the_regular_representation(monkeypatch):
    def refuse(g):
        raise AssertionError("irreps must not call regular_rep")

    monkeypatch.setattr(lincat.rep, "regular_rep", refuse)
    rs = irreps(cold(lambda: relabelled(symmetric_group(4))))
    assert [r.dim for r in rs] == [1, 1, 2, 3, 3]


# --- hom_dim ----------------------------------------------------------------


def test_hom_dim_orthonormality(z2):
    rs = irreps(z2)
    triv = [r for r in rs if abs(r.character.values[1] - 1) < TOL][0]
    sign = [r for r in rs if abs(r.character.values[1] + 1) < TOL][0]
    assert hom_dim(triv.character, triv.character) == 1
    assert hom_dim(triv.character, sign.character) == 0


def test_hom_dim_regular_multiplicities(s3):
    # oracle: the regular character pairs with each irrep by its dimension
    reg = regular_rep(s3).character
    for r in irreps(s3):
        assert hom_dim(reg, r.character) == r.dim


def test_hom_dim_group_mismatch(z2, z3):
    with pytest.raises(GroupMismatch):
        hom_dim(irreps(z2)[0].character, irreps(z3)[0].character)


def test_hom_dim_non_integral(z2):
    chi = Character(z2, np.array([1.0, 0.5]))
    with pytest.raises(NonIntegralMultiplicity):
        hom_dim(chi, chi)


# --- restriction ------------------------------------------------------------


def test_restrict_identity(s3):
    w = irreps(s3)[2]
    res = restrict_rep(identity_hom(s3), w)
    assert np.max(np.abs(res.matrices - w.matrices)) == 0.0


def test_restrict_2dim_splits(z2_in_s3, s3):
    w2 = [r for r in irreps(s3) if r.dim == 2][0]
    res = restrict_rep(z2_in_s3, w2)
    # oracle: restricted character values by composing with the inclusion
    ci = class_index(s3)
    sub = z2_in_s3.source
    vals = [w2.character.values[ci[z2_in_s3(a)]] for a in [0, 1]]
    assert np.allclose(res.character.values, vals)
    mults = [hom_dim(res.character, r.character) for r in irreps(sub)]
    assert sorted(mults) == [1, 1]  # trivial + sign


def test_restrict_along_trivial_hom(s3, one):
    w2 = [r for r in irreps(s3) if r.dim == 2][0]
    # pull back along 1 -> S3: everything acts as the identity
    f = trivial_hom(one, s3)
    res = restrict_rep(f, w2)
    assert np.max(np.abs(res.matrices[0] - np.eye(2))) < TOL


def test_rep_model_rejects_bad_shapes(z2):
    for bad in (5, np.ones((2, 1)), np.ones((3, 1, 1)), np.ones((2, 1, 2))):
        with pytest.raises(GroupMismatch):
            RepModel(z2, bad)


def test_restrict_group_mismatch(z2_in_s3, z2):
    with pytest.raises(GroupMismatch):
        restrict_rep(z2_in_s3, trivial_rep(z2))


# --- induction --------------------------------------------------------------


def test_induce_identity(s3):
    w = [r for r in irreps(s3) if r.dim == 2][0]
    ind = induce_rep(identity_hom(s3), w)
    assert ind.dim == 2
    assert abs(character_inner(ind.character, w.character) - 1) < TOL


def test_induce_trivial_from_z2_to_s3(z2_in_s3, s3):
    sub = z2_in_s3.source
    ind = induce_rep(z2_in_s3, trivial_rep(sub))
    assert ind.dim == 3
    ind.check()
    # oracle: induced character computed from character values alone
    chi = induced_character_oracle(
        z2_in_s3, [1.0, 1.0], class_index(sub), sub, s3
    )
    assert np.allclose(ind.character.values, chi, atol=TOL)
    mults = {
        r.dim: hom_dim(ind.character, r.character) for r in irreps(s3)
    }
    assert mults[2] == 1  # trivial + the 2-dim irrep


def test_induce_sign_along_collapse(z2):
    sign = [r for r in irreps(z2) if abs(r.character.values[1] + 1) < TOL][0]
    f = trivial_hom(z2, trivial_group())
    ind = induce_rep(f, sign)
    # oracle: the averaging projector (1 + sign)/2 has rank 0
    p = (sign.matrices[0] + sign.matrices[1]) / 2
    assert np.linalg.matrix_rank(p) == 0
    assert ind.dim == 0


def test_induce_dimension_law(z2_in_s3, z3_in_s3, z4, z2):
    cases = [
        (z2_in_s3, trivial_rep(z2_in_s3.source)),
        (z3_in_s3, trivial_rep(z3_in_s3.source)),
        (GroupHom(z4, z2, [0, 1, 0, 1]), regular_rep(z4)),
    ]
    for f, v in cases:
        ind = induce_rep(f, v)
        image = f.image()
        n_cosets = f.target.order // len(image)
        p = sum(v.matrices[k] for k in f.kernel()) / len(f.kernel())
        inv_dim = int(round(np.trace(p).real))
        assert ind.dim == n_cosets * inv_dim


def test_frobenius_reciprocity_all_fixture_homs(z2_in_s3, z3_in_s3, z4, z2):
    homs = [
        z2_in_s3,
        z3_in_s3,
        GroupHom(z4, z2, [0, 1, 0, 1]),
        trivial_hom(z2, trivial_group()),
    ]
    for f in homs:
        for v in irreps(f.source):
            ind_chi = induce_rep(f, v).character
            for w in irreps(f.target):
                lhs = hom_dim(ind_chi, w.character)
                rhs = hom_dim(v.character, restrict_rep(f, w).character)
                assert lhs == rhs


# --- intertwiners -----------------------------------------------------------


def test_intertwiner_schur(s3):
    w = [r for r in irreps(s3) if r.dim == 2][0]
    basis = intertwiner_basis(w, w)
    assert len(basis) == 1
    b = basis[0]
    # scaled identity
    off = b - np.trace(b) / 2 * np.eye(2)
    assert np.max(np.abs(off)) < TOL


def test_intertwiner_equivariance_bound_reads_tol(s3, monkeypatch):
    # the equivariance residual is bounded by 10 * DEFAULT_TOL, read at the
    # call: the basis element's residual is a few ulps, above 10 * 1e-18
    w = [r for r in irreps(s3) if r.dim == 2][0]
    assert len(intertwiner_basis(w, w)) == 1
    monkeypatch.setattr(lincat.rep, "DEFAULT_TOL", 1e-18)
    with pytest.raises(RankMismatch, match="fails equivariance"):
        intertwiner_basis(w, w)


@pytest.mark.parametrize("top", [1.0, 4.0])
def test_condition_cuts_at_rank_cut(top):
    # the smallest singular value is singular at RANK_CUT times
    # max(1, the largest) and invertible just above it
    cut = lincat.rep.RANK_CUT * top
    at = np.diag([top, cut])
    with pytest.raises(SingularMap, match="^at the cut$"):
        lincat.rep._condition(at, "at the cut")
    above = np.diag([top, 2 * cut])
    assert lincat.rep._condition(above, "above the cut") == top / (2 * cut)
    assert lincat.rep._condition(np.zeros((0, 0)), "empty") == 1.0


def _generated(g, gens):
    """Closure of ``gens`` under the product of g."""
    elems = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for x in gens:
            b = g.mul(x, a)
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return elems


def _kron_projector(r1, r2):
    """The averaged projector as a loop of |G| Kronecker products."""
    g = r1.group
    p = np.zeros((r2.dim * r1.dim,) * 2, dtype=complex)
    for a in range(g.order):
        p += np.kron(r2.matrices[g.inv[a]], r1.matrices[a].T)
    return p / g.order


def test_intertwiner_projector_matches_kron_reference(s3, s4):
    # one-line permutations in lexicographic order, as symmetric_group lists them
    perms4 = sorted(itertools.permutations(range(4)))
    t01 = perms4.index((1, 0, 2, 3))
    subgroups = {
        s3: [[1], [3], [1, 3]],
        s4: [
            [t01],
            [perms4.index((1, 2, 3, 0))],
            [perms4.index((1, 0, 3, 2)), perms4.index((2, 3, 0, 1))],
            [t01, perms4.index((1, 2, 0, 3))],
        ],
    }
    seen_rank5 = False
    for g, gen_lists in subgroups.items():
        for gens in gen_lists:
            _, incl = subgroup_embedding(g, _generated(g, gens))
            pulled = [restrict_rep(incl, w) for w in irreps(g)]
            for r1 in pulled:
                for r2 in pulled:
                    basis = intertwiner_basis(r1, r2)
                    vecs = [b.reshape(-1) for b in basis]
                    proj = sum((np.outer(v, v.conj()) for v in vecs),
                               np.zeros((r2.dim * r1.dim,) * 2, dtype=complex))
                    assert np.max(np.abs(proj - _kron_projector(r1, r2))) < 1e-12
                    seen_rank5 |= len(basis) == 5 and gens == [t01]
    # the 3-dim S4 irreps restricted to <(0 1)> are 2 + 1: rank 2^2 + 1^2
    assert seen_rank5


def _loop_projection(f, r1, r2):
    """(1/|G|) sum_g r2(g^-1) f r1(g), one product per group element."""
    g = r1.group
    out = np.zeros(f.shape, dtype=complex)
    for a in range(g.order):
        out += r2.matrices[g.inv[a]] @ f @ r1.matrices[a]
    return out / g.order


def test_projection_keeps_the_intertwiner_coordinates(s3, s4):
    # the restricted irreps are unitary, so the group average P is an
    # orthogonal projection onto the span of the orthonormal intertwiner
    # basis: the coordinates of P(f) in that basis are those of f, which is
    # what lets lambda_spanmap skip P
    perms4 = sorted(itertools.permutations(range(4)))
    subgroups = {
        s3: [[1], [3], [1, 3]],
        s4: [
            [perms4.index((1, 0, 2, 3))],
            [perms4.index((1, 2, 3, 0))],
            [perms4.index((1, 0, 3, 2)), perms4.index((2, 3, 0, 1))],
            [perms4.index((1, 0, 2, 3)), perms4.index((1, 2, 0, 3))],
        ],
    }
    rng = np.random.default_rng(0)
    compared = 0
    for g, gen_lists in subgroups.items():
        for gens in gen_lists:
            _, incl = subgroup_embedding(g, _generated(g, gens))
            pulled = [restrict_rep(incl, w) for w in irreps(g)]
            for r1 in pulled:
                for r2 in pulled:
                    shape = (3, r2.dim, r1.dim)
                    fs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    pfs = np.array([_loop_projection(f, r1, r2) for f in fs])
                    basis = intertwiner_basis(r1, r2)
                    basis = basis.reshape(len(basis), r2.dim * r1.dim).conj()
                    got = basis @ pfs.reshape(3, -1).T
                    want = basis @ fs.reshape(3, -1).T
                    assert np.max(np.abs(got - want), initial=0.0) < 1e-12
                    compared += got.size
    assert compared


def test_intertwiner_projector_size_guard(s3, monkeypatch):
    w = irreps(s3)[2]  # the 2-dimensional irrep: a (2*2)^2 projector
    # 7.7 times the projector's 16 entries and 2.1 times the residuals of
    # rank 1 on six 2x2 matrices, 16 bytes an entry: 2777.6 bytes
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 2777)
    with pytest.raises(InputTooLarge, match="projector on 2x2 matrices needs 2778 bytes"):
        intertwiner_basis(w, w)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 2778)
    assert len(intertwiner_basis(w, w)) == 1


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("an array was allocated before the guard")


def test_induce_rep_size_guard(z2_in_s3, monkeypatch):
    # the trivial rep of Z2 induced into S3: 3 cosets x 1 invariant.  The
    # model holds two 1x1 blocks and gathers two 1x1 base matrices, 16 bytes
    # an entry, beside 24 int64 coset entries: 1.1 * 256 bytes
    triv = trivial_rep(z2_in_s3.source)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 281)
    with pytest.raises(InputTooLarge, match="dimension 3 to a group of order 6 needs 282"):
        induce_rep(z2_in_s3, triv)
    # its dense matrices, six 3x3 complex ones, and the six rows of three
    # blocks they gather, 1152 bytes, are refused at their first read,
    # before anything is allocated
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 1151)
    ind = induce_rep(z2_in_s3, triv)
    assert ind.dim == 3
    with monkeypatch.context() as m:
        m.setattr(np, "zeros", _refuse_allocation)
        with pytest.raises(InputTooLarge, match="dimension 3 on a group of order 6 "
                           "needs 1152 bytes, above the limit of 1151"):
            ind.matrices
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 1152)
    assert ind.matrices.shape == (6, 3, 3)


def test_irreps_size_guard(monkeypatch):
    # on a miss, the split holds 11 times the |G| x |G| basis of C[S4],
    # 24*24*16 bytes
    s4 = cold(lambda: relabelled(symmetric_group(4)))
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 11 * 24 * 24 * 16 - 1)
    with pytest.raises(InputTooLarge, match="order 24 needs 101376 bytes"):
        irreps(s4)
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 11 * 24 * 24 * 16)
    assert [r.dim for r in irreps(s4)] == [1, 1, 2, 3, 3]


def test_regular_rep_size_guard():
    with pytest.raises(InputTooLarge):
        regular_rep(cyclic_group(257))
    z4 = cyclic_group(4)
    reg = regular_rep(z4)
    for a in range(4):
        want = np.zeros((4, 4))
        want[(np.arange(4) + a) % 4, np.arange(4)] = 1.0
        assert np.array_equal(reg.matrices[a], want)


def test_intertwiner_regular_z2(z2):
    reg = regular_rep(z2)
    basis = intertwiner_basis(reg, reg)
    assert len(basis) == 2


def test_intertwiner_triv_vs_sign(z2):
    rs = irreps(z2)
    triv = [r for r in rs if abs(r.character.values[1] - 1) < TOL][0]
    sign = [r for r in rs if abs(r.character.values[1] + 1) < TOL][0]
    assert intertwiner_basis(triv, sign).shape == (0, 1, 1)


def test_intertwiner_basis_is_one_stack(z2_in_s3, s3):
    # (hom_dim, r2.dim, r1.dim) in every case, zero dimensions included
    g = z2_in_s3.source
    empty = RepModel(g, np.zeros((g.order, 0, 0)))
    models = [empty, regular_rep(g)] + [restrict_rep(z2_in_s3, w) for w in irreps(s3)]
    for r1 in models:
        for r2 in models:
            basis = intertwiner_basis(r1, r2)
            assert isinstance(basis, np.ndarray)
            assert basis.flags.c_contiguous
            assert basis.shape == (hom_dim(r1.character, r2.character), r2.dim, r1.dim)


def test_intertwiner_equivariance_residual(z2_in_s3, s3):
    w1 = irreps(s3)[1]
    w2 = [r for r in irreps(s3) if r.dim == 2][0]
    r1 = restrict_rep(z2_in_s3, w1)
    r2 = restrict_rep(z2_in_s3, w2)
    g = r1.group
    for b in intertwiner_basis(r1, r2):
        for a in range(g.order):
            res = b @ r1.matrices[a] - r2.matrices[a] @ b
            assert np.max(np.abs(res)) < TOL


def test_intertwiner_orthonormal(z2):
    reg = regular_rep(z2)
    basis = intertwiner_basis(reg, reg)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(np.sum(np.conj(a) * b) - want) < TOL


# --- nakayama ---------------------------------------------------------------


def test_nakayama_trivial(one):
    n, _ = nakayama(identity_hom(one), trivial_rep(one))
    assert np.allclose(n, [[1.0]])


def test_nakayama_identity_on_z2(z2):
    n, cond = nakayama(identity_hom(z2), trivial_rep(z2))
    assert n.shape == (1, 1)
    assert abs(n[0, 0]) > 1e-12
    assert cond < 1e6


def test_nakayama_z2_to_s3(z2_in_s3):
    n, cond = nakayama(z2_in_s3, trivial_rep(z2_in_s3.source))
    assert n.shape == (3, 3)
    assert np.linalg.matrix_rank(n) == 3
    assert cond < 1e6


def test_nakayama_group_mismatch(z2_in_s3, s3):
    with pytest.raises(GroupMismatch):
        nakayama(z2_in_s3, trivial_rep(s3))


# --- units and counits ------------------------------------------------------


def test_units_identity_hom_are_identities(z2):
    f = identity_hom(z2)
    reg = regular_rep(z2)
    for mk, model in [
        (eta_L, reg),
        (eta_R, reg),
        (eps_L, reg),
        (eps_R, reg),
    ]:
        m = mk(f, model)
        assert m.shape == (2, 2)
        assert np.max(np.abs(m - np.eye(2))) < TOL


def test_eta_L_injects_identity_coset(z2_in_s3):
    triv = trivial_rep(z2_in_s3.source)
    m = eta_L(z2_in_s3, triv)
    assert m.shape == (3, 1)
    assert abs(m[0, 0] - 1) < TOL
    assert np.max(np.abs(m[1:, :])) < TOL


def test_eps_R_surjective_coefficient(z2):
    # for the collapse Z2 -> 1 on the trivial rep, the counit scales by
    # #source / #target = 2
    f = trivial_hom(z2, trivial_group())
    triv = trivial_rep(z2)
    m = eps_R(f, triv)
    assert m.shape == (1, 1)
    assert abs(m[0, 0] - 2.0) < TOL


def test_eta_R_displayed_formula(z2_in_s3, s3):
    # eta_R on a basis vector matches (1/#G) sum_h h^-1 (x) h(v) directly
    g_model = trivial_rep(s3)
    ind = induce_rep(z2_in_s3, restrict_rep(z2_in_s3, g_model))
    m = eta_R(z2_in_s3, g_model)
    acc = np.zeros(ind.dim, dtype=complex)
    for a in range(s3.order):
        acc += ind.tensor_coords(s3.inv[a], np.array([1.0 + 0j]))
    acc /= z2_in_s3.source.order
    assert np.allclose(m[:, 0], acc, atol=TOL)


def test_unit_counit_model_mismatch(z2_in_s3, s3):
    with pytest.raises(ModelMismatch):
        eta_L(z2_in_s3, trivial_rep(s3))
    with pytest.raises(ModelMismatch):
        eps_L(z2_in_s3, trivial_rep(z2_in_s3.source))


# --- zigzag -----------------------------------------------------------------


def zigzag_probes(f):
    return [
        trivial_rep(f.source),
        regular_rep(f.source),
        trivial_rep(f.target),
        regular_rep(f.target),
    ]


def test_zigzag_identity_hom(z2):
    f = identity_hom(z2)
    rep = verify_zigzag(f, zigzag_probes(f))
    assert rep.max_deviation < 1e-12


def test_zigzag_inclusion(z2_in_s3, s3):
    probes = zigzag_probes(z2_in_s3) + [
        r for r in irreps(s3)
    ]
    rep = verify_zigzag(z2_in_s3, probes)
    assert rep.ok(TOL)


def test_zigzag_collapse(z2):
    f = trivial_hom(z2, trivial_group())
    rep = verify_zigzag(f, zigzag_probes(f))
    assert rep.ok(TOL)


@pytest.mark.parametrize("devs", [(0.0, float("nan")), (float("nan"), 0.0)])
def test_zigzag_report_keeps_a_nan(z2, devs):
    rep = ZigzagReport(identity_hom(z2), dict(enumerate(devs)))
    assert np.isnan(rep.max_deviation) and not rep.ok()


def test_zigzag_all_fixture_homs(z2_in_s3, z3_in_s3, z4, z2):
    homs = [
        z2_in_s3,
        z3_in_s3,
        GroupHom(z4, z2, [0, 1, 0, 1]),
        trivial_hom(z2, trivial_group()),
    ]
    for f in homs:
        rep = verify_zigzag(f, zigzag_probes(f))
        assert rep.ok(TOL), f"zigzag failed for {f}"


def test_irrep_cache_concurrent_reads():
    # eight threads race on a fresh value: all get the one list stored first
    s4 = cold(lambda: relabelled(symmetric_group(4)))
    results = [None] * 8
    errors = []

    def work(i):
        try:
            results[i] = irreps(s4)
        except Exception as exc:  # surface failures to the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert all(rs is results[0] for rs in results)
    assert [r.dim for r in results[0]] == [1, 1, 2, 3, 3]


# --- irreps of recorded products --------------------------------------------


@pytest.mark.parametrize(
    "maker",
    [
        lambda: direct_product(symmetric_group(3), symmetric_group(3)),
        lambda: direct_product(symmetric_group(4), cyclic_group(2)),
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        lambda: direct_product(direct_product(symmetric_group(3), cyclic_group(2)),
                               cyclic_group(3)),
    ],
    ids=["S3xS3", "S4xZ2", "Z2xZ2", "(S3xZ2)xZ3"],
)
def test_product_irreps_match_the_split_table(maker):
    # oracle: the same table without recorded factors splits C[G]
    p = maker()
    assert p.factors is not None
    plain = FinGroup(p.mult)
    assert plain.factors is None
    got, want = irreps(p), irreps(plain)
    assert [r.dim for r in got] == [r.dim for r in want]
    for r, s in zip(got, want):
        assert np.max(np.abs(r.character.values - s.character.values)) < 1e-12
        r.check()
        m = r.matrices
        assert np.max(np.abs(m @ m.conj().transpose(0, 2, 1) - np.eye(r.dim))) < TOL


def test_product_and_equal_table_keep_separate_cache_entries(s3):
    p = direct_product(s3, s3)
    plain = FinGroup(p.mult)
    assert p != plain and p.fingerprint == plain.fingerprint
    assert p.store is not plain.store
    a, b = irreps(p), irreps(plain)
    assert a is not b
    assert irreps(p) is a and irreps(plain) is b
    # the entries: S3's, the product's and the plain table's, one store each
    assert p.store[("irreps", 1729)] is a and plain.store[("irreps", 1729)] is b
    assert s3.store[("irreps", 1729)] is irreps(s3)
    # a nested product's key holds its factors' keys all the way down
    z2, z3 = cyclic_group(2), cyclic_group(3)
    inner = direct_product(s3, z2)
    q1 = direct_product(inner, z3)
    q2 = direct_product(FinGroup(inner.mult), z3)
    assert q1 != q2 and q1.fingerprint == q2.fingerprint
    assert irreps(q1) is not irreps(q2)


def test_s4_squared_irreps_come_from_the_factors(s4, monkeypatch):
    irreps(s4)

    def refuse(*args):
        raise AssertionError("a recorded product must not split C[G]")

    monkeypatch.setattr(lincat.rep, "_split", refuse)
    rs = irreps(cold(lambda: direct_product(s4, s4)))
    assert len(rs) == 25
    assert sum(r.dim**2 for r in rs) == 576


def test_product_irreps_size_guard(z4, monkeypatch):
    # the product route holds 1.1 times |G|^2 complex numbers, 10137.6
    # bytes, and is guarded before its factors' irreps are computed (their
    # splits state 6336 and 2816 bytes)
    s3 = _cold_s3()
    p = cold(lambda: direct_product(s3, z4))
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 10137)
    with pytest.raises(InputTooLarge, match="order 24 needs 10138 bytes"):
        irreps(p)
    assert not p.store and not s3.store
    monkeypatch.setattr(lincat.groups, "MAX_DENSE_BYTES", 10138)
    assert sum(r.dim**2 for r in irreps(p)) == 24
