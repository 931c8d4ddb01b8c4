import numpy as np
import pytest

from lincat.errors import BasisMismatch, GroupMismatch, ShapeMismatch
from lincat.groups import cyclic_group, symmetric_group
from lincat.rep import LinearMap
from lincat.twovect import (
    GradedVector,
    TwoBasis,
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    dagger,
    graded_convolution,
    hcompose_2morph,
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


def test_compose_keeps_dims_only():
    basis = {(r, c): [LinearMap(np.eye(1))] * int(FIG1_DIMS[r, c])
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
    m = LinearMap(np.array([[1j]]))
    t = TwoLinearMap(one, one, [[1]], {(0, 0): [m]})
    d = dagger(t)
    assert np.allclose(d.hom_bases[(0, 0)][0].entries, [[-1j]])


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


# --- graded convolution -----------------------------------------------------


def test_convolution_deltas(z2):
    a = GradedVector(z2, [1, 0])
    b = GradedVector(z2, [0, 1])
    assert graded_convolution(a, b).dims.tolist() == [0, 1]


def test_convolution_double_loop(z2):
    v = GradedVector(z2, [1, 1])
    # oracle: direct double loop
    out = [0, 0]
    for a in range(2):
        for b in range(2):
            out[z2.mul(a, b)] += 1
    assert graded_convolution(v, v).dims.tolist() == out == [2, 2]


def test_convolution_unit(z2):
    delta = GradedVector(z2, [1, 0])
    v = GradedVector(z2, [3, 5])
    assert graded_convolution(v, delta).dims.tolist() == [3, 5]
    assert graded_convolution(delta, v).dims.tolist() == [3, 5]


@pytest.mark.parametrize("maker", [lambda: cyclic_group(2), lambda: cyclic_group(3), lambda: symmetric_group(3)])
def test_convolution_associative_exhaustive(maker):
    g = maker()
    rng = np.random.default_rng(11)
    for _ in range(4):
        u = GradedVector(g, rng.integers(0, 3, g.order))
        v = GradedVector(g, rng.integers(0, 3, g.order))
        w = GradedVector(g, rng.integers(0, 3, g.order))
        lhs = graded_convolution(graded_convolution(u, v), w)
        rhs = graded_convolution(u, graded_convolution(v, w))
        assert lhs.dims.tolist() == rhs.dims.tolist()


def test_convolution_group_mismatch(z2, z3):
    with pytest.raises(GroupMismatch):
        graded_convolution(GradedVector(z2, [1, 0]), GradedVector(z3, [1, 0, 0]))
