import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lincat.errors import BasisMismatch, ShapeMismatch
from lincat.twovect import (
    TwoBasis,
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    dagger,
    hcompose_2morph,
    summand_offsets,
    vcompose_2morph,
)

Y = TwoBasis([("y1", 0, 1), ("y2", 0, 1), ("y3", 0, 1)])
Z = TwoBasis([("z1", 0, 1), ("z2", 0, 1)])
FIG1_DIMS = np.array([[1, 1, 0], [0, 1, 1]])


def fig1_map():
    return TwoLinearMap(Y, Z, FIG1_DIMS)


def test_unique_labels_enforced():
    with pytest.raises(BasisMismatch):
        TwoBasis([("a", 0, 1), ("a", 0, 1)])


def test_compose_with_identity():
    t = fig1_map()
    assert compose_2linear(t, TwoLinearMap.identity(Y)) == t
    assert compose_2linear(TwoLinearMap.identity(Z), t) == t


def test_compose_fig1_with_transpose():
    t = fig1_map()
    td = dagger(t)
    comp = compose_2linear(t, td)
    # oracle: plain integer matrix product
    assert comp.dims.tolist() == (FIG1_DIMS @ FIG1_DIMS.T).tolist()
    assert comp.dims.tolist() == [[2, 1], [1, 2]]


def test_compose_zero_column():
    empty = TwoBasis([])
    zc = TwoLinearMap(empty, Z, np.zeros((2, 0), dtype=int))
    anything = TwoLinearMap(Y, empty, np.zeros((0, 3), dtype=int))
    comp = compose_2linear(zc, anything)
    assert comp.dims.shape == (2, 3)
    assert np.all(comp.dims == 0)


def test_hom_bases_built_and_checked_on_first_access():
    calls = []

    def build(short=False):
        calls.append(short)
        return {(r, c): [np.eye(1, dtype=complex)] * (int(FIG1_DIMS[r, c]) - short)
                for r in range(2) for c in range(3)}

    t = TwoLinearMap(Y, Z, FIG1_DIMS, build)
    assert calls == []
    assert t.hom_bases is t.hom_bases and calls == [False]
    bad = TwoLinearMap(Y, Z, FIG1_DIMS, lambda: build(short=True))
    with pytest.raises(ShapeMismatch, match="dims says 1"):
        bad.hom_bases


def test_compose_keeps_dims_only():
    basis = {(r, c): [np.eye(1, dtype=complex)] * int(FIG1_DIMS[r, c])
             for r in range(2) for c in range(3)}
    t = TwoLinearMap(Y, Z, FIG1_DIMS, basis)
    comp = compose_2linear(t, dagger(t))
    assert comp.hom_bases is None
    assert comp.dims.tolist() == [[2, 1], [1, 2]]


def test_compose_mismatch():
    with pytest.raises(BasisMismatch):
        compose_2linear(fig1_map(), fig1_map())


def test_compose_associative_on_dims():
    rng = np.random.default_rng(0)
    a = TwoLinearMap(Y, Z, rng.integers(0, 3, (2, 3)))
    b = TwoLinearMap(Z, Y, rng.integers(0, 3, (3, 2)))
    c = TwoLinearMap(Y, Z, rng.integers(0, 3, (2, 3)))
    left = compose_2linear(compose_2linear(c, b), a)
    right = compose_2linear(c, compose_2linear(b, a))
    assert np.array_equal(left.dims, right.dims)


def test_dagger_involution_and_antihomomorphism():
    t = fig1_map()
    assert np.array_equal(dagger(dagger(t)).dims, t.dims)
    assert dagger(t).dims.tolist() == [[1, 0], [1, 1], [0, 1]]
    u = dagger(t)  # Z -> Y
    lhs = dagger(compose_2linear(t, u))
    rhs = compose_2linear(dagger(u), dagger(t))
    assert np.array_equal(lhs.dims, rhs.dims)


def test_dagger_scalar_entry():
    one = TwoBasis([("*", 0, 1)])
    t = TwoLinearMap(one, one, [[5]])
    assert dagger(t).dims.tolist() == [[5]]


def test_dagger_hom_bases_conjugated():
    one = TwoBasis([("*", 0, 1)])
    m = np.array([[1j]])
    t = TwoLinearMap(one, one, [[1]], {(0, 0): [m]})
    d = dagger(t)
    assert np.allclose(d.hom_bases[(0, 0)][0], [[-1j]])


def test_vcompose_identity_and_scalars():
    one = TwoBasis([("*", 0, 1)])
    t = TwoLinearMap(one, one, [[1]])
    lam = TwoMorphism(t, t, {(0, 0): np.array([[2.0]])})
    mu = TwoMorphism(t, t, {(0, 0): np.array([[3.0]])})
    ident = TwoMorphism.identity(t)
    assert np.allclose(vcompose_2morph(lam, ident).blocks[(0, 0)], [[2.0]])
    assert np.allclose(vcompose_2morph(lam, mu).blocks[(0, 0)], [[6.0]])


def test_hcompose_scalars_tensor():
    one = TwoBasis([("*", 0, 1)])
    t = TwoLinearMap(one, one, [[1]])
    lam = TwoMorphism(t, t, {(0, 0): np.array([[2.0]])})
    mu = TwoMorphism(t, t, {(0, 0): np.array([[5.0]])})
    h = hcompose_2morph(lam, mu)
    assert np.allclose(h.blocks[(0, 0)], [[10.0]])


def test_shape_mismatch_raises():
    one = TwoBasis([("*", 0, 1)])
    t = TwoLinearMap(one, one, [[1]])
    with pytest.raises(ShapeMismatch):
        TwoMorphism(t, t, {(0, 0): np.zeros((2, 2))})


def random_two_morphism(rng, domain, codomain, dims_a, dims_b):
    src = TwoLinearMap(domain, codomain, dims_a)
    tgt = TwoLinearMap(domain, codomain, dims_b)
    blocks = {
        (r, c): rng.standard_normal((dims_b[r][c], dims_a[r][c]))
        + 1j * rng.standard_normal((dims_b[r][c], dims_a[r][c]))
        for r in range(len(codomain))
        for c in range(len(domain))
    }
    return TwoMorphism(src, tgt, blocks)


def test_interchange_law_random_blocks():
    rng = np.random.default_rng(7)
    A = TwoBasis([("a", 0, 1)])
    B = TwoBasis([("b", 0, 1), ("b", 1, 1)])
    C = TwoBasis([("c", 0, 1)])
    for _ in range(5):
        d1 = rng.integers(0, 3, (2, 1)).tolist()
        d2 = rng.integers(0, 3, (2, 1)).tolist()
        d3 = rng.integers(0, 3, (2, 1)).tolist()
        e1 = rng.integers(0, 3, (1, 2)).tolist()
        e2 = rng.integers(0, 3, (1, 2)).tolist()
        e3 = rng.integers(0, 3, (1, 2)).tolist()
        alpha = random_two_morphism(rng, A, B, d1, d2)
        alphap = random_two_morphism(rng, A, B, d2, d3)
        beta = random_two_morphism(rng, B, C, e1, e2)
        betap = random_two_morphism(rng, B, C, e2, e3)
        lhs = hcompose_2morph(
            vcompose_2morph(beta, betap), vcompose_2morph(alpha, alphap)
        )
        rhs = vcompose_2morph(
            hcompose_2morph(beta, alpha), hcompose_2morph(betap, alphap)
        )
        for key in lhs.blocks:
            assert np.allclose(lhs.blocks[key], rhs.blocks[key], atol=1e-10)



def _random_morphism(rng, dom, cod):
    """A 2-morphism between two random 2-linear maps dom -> cod whose dims
    (0 to 3) include zeros, with random complex blocks."""
    shape = (len(cod), len(dom))
    src = TwoLinearMap(dom, cod, rng.integers(0, 4, size=shape))
    tgt = TwoLinearMap(dom, cod, rng.integers(0, 4, size=shape))
    blocks = {(r, c): rng.normal(size=(tgt.dims[r, c], src.dims[r, c]))
              + 1j * rng.normal(size=(tgt.dims[r, c], src.dims[r, c]))
              for r in range(shape[0]) for c in range(shape[1])}
    return TwoMorphism(src, tgt, blocks)


@pytest.mark.parametrize("seed", range(8))
def test_hcompose_matches_plain_kron_assembly(seed):
    rng = np.random.default_rng(seed)
    x = TwoBasis([(f"x{i}", 0, 1) for i in range(2)])
    m = TwoBasis([(f"m{i}", 0, 1) for i in range(4)])
    a = _random_morphism(rng, m, Z)
    b = _random_morphism(rng, x, m)
    got = hcompose_2morph(a, b)
    empty = 0
    for (r, c), blk in got.blocks.items():
        # oracle: every piece through np.kron, empty ones included
        pieces = [np.kron(a.blocks[(r, j)], b.blocks[(j, c)]) for j in range(len(m))]
        empty += sum(p.size == 0 and p.shape != (0, 0) for p in pieces)
        want = np.zeros((sum(p.shape[0] for p in pieces),
                         sum(p.shape[1] for p in pieces)), dtype=complex)
        ro = co = 0
        for p in pieces:
            want[ro : ro + p.shape[0], co : co + p.shape[1]] = p
            ro, co = ro + p.shape[0], co + p.shape[1]
        assert np.array_equal(blk, want)
    # zero-row and zero-column pieces that still move an offset occur
    assert empty > 0


@st.composite
def _composable_dims(draw):
    """Source and target dims of a (rows x middle) and b (middle x columns),
    entries 0 to 3, so that zero rows and columns occur."""
    nr, nj, nc = (draw(st.integers(0, 3)) for _ in range(3))

    def dims(shape):
        flat = draw(st.lists(st.integers(0, 3), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
        return np.array(flat, dtype=np.int64).reshape(shape)

    return [dims((nr, nj)) for _ in range(2)], [dims((nj, nc)) for _ in range(2)]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(_composable_dims())
def test_summand_offsets_place_every_hcompose_piece(dims):
    (a_src, a_tgt), (b_src, b_tgt) = dims
    nr, nj, nc = a_src.shape[0], a_src.shape[1], b_src.shape[1]
    rows = TwoBasis([(f"r{i}", 0, 1) for i in range(nr)])
    mid = TwoBasis([(f"j{i}", 0, 1) for i in range(nj)])
    cols = TwoBasis([(f"c{i}", 0, 1) for i in range(nc)])
    a_maps = TwoLinearMap(mid, rows, a_src), TwoLinearMap(mid, rows, a_tgt)
    b_maps = TwoLinearMap(cols, mid, b_src), TwoLinearMap(cols, mid, b_tgt)
    # every piece of middle label j is filled with j + 1
    a = TwoMorphism(*a_maps, {(r, j): np.ones((a_tgt[r, j], a_src[r, j]))
                              for r in range(nr) for j in range(nj)})
    b = TwoMorphism(*b_maps, {(j, c): np.full((b_tgt[j, c], b_src[j, c]), j + 1.0)
                              for j in range(nj) for c in range(nc)})
    got = hcompose_2morph(a, b)
    row0 = summand_offsets(a_maps[1], b_maps[1])
    col0 = summand_offsets(a_maps[0], b_maps[0])
    for (r, c), blk in got.blocks.items():
        # the pieces tile the entry: each starts where the one before ends
        end = [0, 0]
        for j in range(nj):
            assert [row0[r, j, c], col0[r, j, c]] == end
            nrows, ncols = a_tgt[r, j] * b_tgt[j, c], a_src[r, j] * b_src[j, c]
            end = [end[0] + nrows, end[1] + ncols]
            # and a nonempty one is written there, by hcompose_2morph
            where = np.argwhere(blk == j + 1)
            if nrows and ncols:
                assert where.min(axis=0).tolist() == [row0[r, j, c], col0[r, j, c]]
                assert len(where) == nrows * ncols
            else:
                assert len(where) == 0
        assert end == list(blk.shape)
