"""The coset-decomposition kernels of induced models against the loop
constructions they replaced.

The references below build everything one element at a time: induction
through a section dict on im(f), tensor coordinates one block at a time, and
the unit, flattening, Nakayama and comparison maps as sums of single tensors.
Induced matrices must agree bit for bit, every other kernel within 1e-12.
Inputs: every hom among 1, Z2, Z3, Z4, S3 and Z2xZ2, with each irrep of the
source and its regular representation.
"""

import itertools

import numpy as np

from lincat.groupoids import compose_spans_with_comma
from lincat.groups import all_homs, cyclic_group, direct_product, symmetric_group, trivial_group
from lincat.linearization import _gamma_pair_witness
from lincat.rep import (
    _counit_kernel,
    _cosets,
    _invariant_basis,
    _nakayama_data,
    _unit_kernel,
    flatten_induction,
    induce_rep,
    induced_morphism,
    irreps,
    regular_rep,
    restrict_rep,
)
from lincat.suites import default_suite, random_suite

KERNEL_TOL = 1e-12

GROUPS = [
    trivial_group(),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    symmetric_group(3),
    direct_product(cyclic_group(2), cyclic_group(2)),
]
HOMS = [f for a, b in itertools.product(GROUPS, repeat=2) for f in all_homs(a, b)]


def models(g):
    return list(irreps(g)) + [regular_rep(g)]


CASES = [(f, v) for f in HOMS for v in models(f.source)]


# --- the loop references ----------------------------------------------------


def ref_section(f):
    """Minimal-index preimage of every element of im(f)."""
    section = {}
    for g in range(f.source.order):
        section.setdefault(f(g), g)
    return section


def ref_induce(f, v):
    """(matrices, coset reps, coset ids, invariant basis) of ind_f(v)."""
    h = f.target
    image = f.image()
    section = ref_section(f)
    c = _invariant_basis(v, f.kernel())
    dw = c.shape[1]
    reps, coset_index = _cosets(h.mult, image)
    dim = len(reps) * dw
    mats = np.zeros((h.order, dim, dim), dtype=complex)
    sigma = {u: c.conj().T @ v.matrices[section[u]] @ c for u in image}
    for a in range(h.order):
        for i, hi in enumerate(reps):
            ahi = h.mul(a, hi)
            j = int(coset_index[ahi])
            u = h.mul(h.inv[reps[j]], ahi)
            mats[a, j * dw : (j + 1) * dw, i * dw : (i + 1) * dw] = sigma[u]
    return mats, reps, coset_index, c


def ref_tensor_coords(ind, h, vec):
    vec = np.asarray(vec, dtype=complex)
    out = np.zeros((ind.dim,) + vec.shape[1:], dtype=complex)
    dw = ind.block_dim
    if dw == 0:
        return out
    hh = ind.group
    i = int(ind.coset_index[h])
    u = hh.mul(hh.inv[ind.coset_reps[i]], h)
    gu = ref_section(ind.hom)[u]
    out[i * dw : (i + 1) * dw] = ind.invariant_basis.conj().T @ (
        ind.base.matrices[gu] @ vec
    )
    return out


def ref_unit_kernel(ind, mats):
    h = ind.group
    out = np.zeros((ind.dim, mats.shape[2]), dtype=complex)
    for a in range(h.order):
        out += ref_tensor_coords(ind, h.inv[a], mats[a])
    return out / ind.hom.source.order


def ref_counit_kernel(ind, mats):
    out = np.zeros((mats.shape[1], ind.dim), dtype=complex)
    dw = ind.block_dim
    for i, hi in enumerate(ind.coset_reps):
        out[:, i * dw : (i + 1) * dw] = mats[hi] @ ind.invariant_basis
    return out


def ref_flatten(outer, direct):
    inner = outer.base
    hh = outer.group
    f = outer.hom
    dw_out, dw_in = outer.block_dim, inner.block_dim
    out = np.zeros((direct.dim, outer.dim), dtype=complex)
    for i, ri in enumerate(outer.coset_reps):
        for j in range(dw_out):
            w = outer.invariant_basis[:, j]
            for q, rq in enumerate(inner.coset_reps):
                for l in range(dw_in):
                    out[:, i * dw_out + j] += w[q * dw_in + l] * ref_tensor_coords(
                        direct, hh.mul(ri, f(rq)), inner.invariant_basis[:, l]
                    )
    return out


def ref_nakayama(f, v):
    ind = induce_rep(f, v)
    h = f.target
    c = ind.invariant_basis
    dw = c.shape[1]
    image = f.image()
    section = ref_section(f)
    rreps, _ = _cosets(h.mult.T, image)
    mat = np.zeros((ind.dim, len(rreps) * dw), dtype=complex)
    for i, ri in enumerate(rreps):
        for j in range(dw):
            for u in image:
                val = v.matrices[section[u]] @ c[:, j]
                mat[:, i * dw + j] += ref_tensor_coords(ind, h.inv[h.mul(u, ri)], val)
    return mat / f.source.order


def ref_gamma(x, xp, cat, pair):
    a_idx, b_idx = pair
    _, _, class_ids = cat.pair_data[pair]
    t_hom = x.right.hom(a_idx)
    sp_hom = xp.left.hom(b_idx)
    c_group = x.target.aut(x.right(a_idx))
    w = regular_rep(x.apex.aut(a_idx))
    rhs = induce_rep(t_hom, w)
    lhs_models = [
        induce_rep(cat.proj_right.hom(cid), restrict_rep(cat.proj_left.hom(cid), w))
        for cid in class_ids
    ]
    gamma = np.zeros((rhs.dim, sum(m.dim for m in lhs_models)), dtype=complex)
    off = 0
    for cid, lhs in zip(class_ids, lhs_models):
        m_inv = c_group.inv[cat.classes[cid].rep]
        dw = lhs.block_dim
        for i, ki in enumerate(lhs.coset_reps):
            elt = c_group.mul(sp_hom(ki), m_inv)
            for j in range(dw):
                gamma[:, off + i * dw + j] = ref_tensor_coords(
                    rhs, elt, lhs.invariant_basis[:, j]
                )
        off += lhs.dim
    return gamma


def assert_close(got, want):
    assert got.shape == want.shape
    if want.size:
        assert np.max(np.abs(got - want)) < KERNEL_TOL


# --- the kernels ------------------------------------------------------------


def test_cases_cover_every_hom_and_a_model_without_invariants():
    assert len(HOMS) == 102 and len(CASES) == 434
    assert any(induce_rep(f, v).block_dim == 0 for f, v in CASES)


def test_induce_rep_matches_loop_bit_for_bit():
    for f, v in CASES:
        ind = induce_rep(f, v)
        mats, reps, coset_index, c = ref_induce(f, v)
        assert np.array_equal(ind.matrices, mats), (f, v.dim)
        assert list(ind.coset_reps) == reps
        assert np.array_equal(ind.coset_index, coset_index)
        assert np.array_equal(ind.invariant_basis, c)


def test_lift_is_the_minimal_coset_decomposition():
    for f in HOMS:
        ind = induce_rep(f, regular_rep(f.source))
        h = f.target
        section = ref_section(f)
        for a in range(h.order):
            hi = ind.coset_reps[ind.coset_index[a]]
            assert h.mul(hi, f(ind.lift[a])) == a
            assert ind.lift[a] == section[h.mul(h.inv[hi], a)]
        for u in f.image():
            assert ind.lift[u] == section[u]


def test_tensor_coords_matches_loop_for_elements_and_arrays():
    rng = np.random.default_rng(0)
    for f, v in CASES:
        ind = induce_rep(f, v)
        h = f.target
        eye = np.eye(v.dim, dtype=complex)
        for a in range(h.order):
            assert_close(ind.tensor_coords(a, eye[:, 0]), ref_tensor_coords(ind, a, eye[:, 0]))
            assert_close(ind.tensor_coords(a, eye), ref_tensor_coords(ind, a, eye))
        elts = rng.integers(0, h.order, size=2 * h.order)
        vecs = rng.standard_normal((len(elts), v.dim, 2)) + 1j * rng.standard_normal(
            (len(elts), v.dim, 2)
        )
        want = sum(ref_tensor_coords(ind, a, vec) for a, vec in zip(elts, vecs))
        assert_close(ind.tensor_coords(elts, vecs), want)
        assert_close(ind.tensor_coords(elts, vecs[:, :, 0]), want[:, 0])


def test_unit_and_counit_kernels_match_loop():
    for f in HOMS:
        for w in models(f.target):
            ind = induce_rep(f, restrict_rep(f, w))
            assert_close(_unit_kernel(ind, w.matrices), ref_unit_kernel(ind, w.matrices))
            assert_close(_counit_kernel(ind, w.matrices), ref_counit_kernel(ind, w.matrices))


def test_induced_morphism_is_block_diagonal():
    for f, v in CASES:
        ind = induce_rep(f, v)
        phi = np.eye(v.dim) * 2.0
        want = np.kron(np.eye(len(ind.coset_reps)), 2.0 * np.eye(ind.block_dim))
        assert_close(induced_morphism(ind, ind, phi), want)


def test_nakayama_matches_loop():
    for f, v in CASES:
        mat, _, _ = _nakayama_data(f, v, 1e-8)
        assert_close(mat, ref_nakayama(f, v))


def test_flatten_induction_matches_loop():
    checked = 0
    for g in HOMS:
        v = regular_rep(g.source)
        inner = induce_rep(g, v)
        for f in HOMS:
            if f.source != g.target:
                continue
            outer = induce_rep(f, inner)
            direct = induce_rep(g.then(f), v)
            assert_close(flatten_induction(outer, direct), ref_flatten(outer, direct))
            checked += 1
    assert checked > 100


def test_gamma_columns_match_loop():
    # random_suite(1) has class representatives that are not involutions
    spans = default_suite().spans + random_suite(1).spans
    checked = 0
    for x, xp in itertools.product(spans, repeat=2):
        if x.target != xp.source:
            continue
        _, cat = compose_spans_with_comma(x, xp)
        for pair in sorted(cat.pair_data):
            got = _gamma_pair_witness(x, xp, cat, pair).matrix
            assert_close(got, ref_gamma(x, xp, cat, pair))
            checked += 1
    assert checked > 0


def test_sign_rep_along_collapse_has_no_invariants():
    z2, one = GROUPS[1], GROUPS[0]
    (f,) = all_homs(z2, one)
    sign = next(r for r in irreps(z2) if r.character.values[1].real < 0)
    ind = induce_rep(f, sign)
    assert ind.block_dim == 0 and ind.dim == 0
    assert ind.matrices.shape == (1, 0, 0)
    assert ind.tensor_coords(0, np.ones(1)).shape == (0,)
    assert ind.tensor_coords(np.zeros(3, dtype=int), np.ones((3, 1, 2))).shape == (0, 2)
    assert _nakayama_data(f, sign, 1e-8)[0].shape == (0, 0)
    assert _unit_kernel(ind, np.ones((1, 1, 1))).shape == (0, 1)
    assert _counit_kernel(ind, np.ones((1, 1, 1))).shape == (1, 0)
