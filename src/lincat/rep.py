"""Complex representation theory of finite groups given by tables.

Everything here works in double-precision complex arithmetic.  Irreducible
representations are found by splitting C[G] with seeded random equivariant
operators, so all bases are reproducible for a fixed seed.  The splitting
never forms the regular representation as matrices: element a sends e_j to
e_{aj}, so it acts on a basis of a subspace (its columns) by a row
permutation, and every compression, character and averaged operator is
computed from permuted rows of that basis, one element at a time.

Induction along an arbitrary homomorphism f : G -> H is realized on the
concrete space

    (left coset reps of im f in H)  x  (ker f)-invariants of V,

with the invariants materialized through the averaging projector.  Each
element h of H is decomposed once per induced model as h = h_i f(lift[h])
with h_i a coset representative; the induced matrices, the tensor
coordinates of h (x) v and every map into or out of an induced model are
array expressions over that decomposition.  The Nakayama map identifies this
tensor model with the hom model
Hom_{C[G]}(C[H], V) and makes the induction a two-sided adjoint of
restriction; the four unit/counit maps of the two adjunctions are produced as
explicit matrices in these distinguished bases.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GroupMismatch,
    InputTooLarge,
    ModelMismatch,
    NonIntegralMultiplicity,
    NumericalFailure,
    RankMismatch,
    SingularMap,
)
from .groups import FinGroup, GroupHom

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-8
INT_TOL = 1e-6


@dataclass
class LinearMap:
    """A complex matrix with explicit row/column counts (either may be zero)."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2:
            raise ValueError("LinearMap entries must be a matrix")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("LinearMap entries must be finite")

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]


@dataclass
class Character:
    """Class function of a representation: one value per conjugacy class."""

    group: FinGroup
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.group.classes),):
            raise GroupMismatch("need one character value per conjugacy class")

    @property
    def dim(self):
        return int(round(self.values[0].real))


def character_inner(a: Character, b: Character) -> complex:
    """(1/|G|) sum_g a(g) conj(b(g))."""
    if a.group != b.group:
        raise GroupMismatch("characters live on different groups")
    sizes = a.group.class_sizes
    return complex(np.sum(sizes * a.values * np.conj(b.values)) / a.group.order)


def hom_dim(a: Character, b: Character, int_tol=INT_TOL) -> int:
    """Dimension of the space of intertwiners between reps with these characters."""
    val = character_inner(a, b)
    n = round(val.real)
    if abs(val - n) > int_tol:
        raise NonIntegralMultiplicity(f"character pairing {val} is not an integer")
    return int(n)


class RepModel:
    """An explicit matrix representation: one invertible matrix per element."""

    def __init__(self, group: FinGroup, matrices, basis_labels=None, check=False):
        matrices = np.asarray(matrices, dtype=complex)
        if matrices.shape[0] != group.order or matrices.ndim != 3:
            raise GroupMismatch("need one square matrix per group element")
        if matrices.shape[1] != matrices.shape[2]:
            raise GroupMismatch("representation matrices must be square")
        self.group = group
        self.matrices = matrices
        self.dim = int(matrices.shape[1])
        self.basis_labels = list(basis_labels) if basis_labels is not None else None
        self._character = None
        if check:
            self.check()

    def check(self, tol=DEFAULT_TOL):
        g = self.group
        if self.dim == 0:
            return
        if np.max(np.abs(self.matrices[0] - np.eye(self.dim))) > tol:
            raise NumericalFailure("identity element does not act as the identity")
        for a in range(g.order):
            for b in range(g.order):
                err = np.max(
                    np.abs(self.matrices[g.mul(a, b)] - self.matrices[a] @ self.matrices[b])
                )
                if err > tol:
                    raise NumericalFailure(f"representation law fails at ({a},{b}): {err}")

    @property
    def character(self) -> Character:
        if self._character is None:
            vals = [
                np.trace(self.matrices[c[0]]) if self.dim else 0.0
                for c in self.group.classes
            ]
            self._character = Character(self.group, np.array(vals))
        return self._character


class Irrep(RepModel):
    """A unitary irreducible representation with its character attached."""

    def __init__(self, group, matrices, character):
        super().__init__(group, matrices)
        self._character = character


def trivial_rep(g: FinGroup) -> RepModel:
    return RepModel(g, np.ones((g.order, 1, 1), dtype=complex))


# largest dense array (bytes) that regular_rep or intertwiner_basis may
# allocate: a regular representation of order 256
MAX_DENSE_BYTES = 2**28


def regular_rep(g: FinGroup) -> RepModel:
    """C[G] as |G| dense permutation matrices; raises InputTooLarge before
    allocating when they would take more than MAX_DENSE_BYTES."""
    nbytes = g.order**3 * 16
    if nbytes > MAX_DENSE_BYTES:
        raise InputTooLarge(
            f"regular representation of a group of order {g.order} needs "
            f"{nbytes} bytes, above the limit of {MAX_DENSE_BYTES}"
        )
    mats = np.zeros((g.order, g.order, g.order), dtype=complex)
    for a in range(g.order):
        mats[a, g.mult[a], np.arange(g.order)] = 1.0
    return RepModel(g, mats)


# ---------------------------------------------------------------------------
# irreducibles by splitting C[G] under the permutation action

_IRREP_CACHE: dict = {}
_IRREP_LOCK = threading.Lock()


def _left_action(g: FinGroup, a):
    """Row permutation by which a acts on C[G]: reg(a) @ B == B[_left_action(g, a)]."""
    return g.mult[g.inv[a]]


def _subrep(g: FinGroup, basis):
    """The regular representation compressed to the orthonormal columns of
    ``basis``: basis^H @ basis[mult[inv[a]]], yielded element by element so
    that a caller summing over the group never holds all |G| matrices."""
    bh = basis.conj().T
    for a in range(g.order):
        yield bh @ basis[_left_action(g, a)]


def _char_of(g: FinGroup, basis):
    """Character of the compression to ``basis``, one trace per conjugacy
    class: tr(basis^H reg(a) basis) at each class representative a."""
    return np.array([np.vdot(basis, basis[_left_action(g, c[0])]) for c in g.classes])


def _split(g: FinGroup, basis, rng, cluster_tol=1e-6):
    """Split an invariant subspace with a random averaged Hermitian operator,
    (1/|G|) sum_a S(a) h S(a)^H with S(a) the compression of reg(a), summed
    element by element."""
    k = basis.shape[1]
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    h = a + a.conj().T
    avg = np.zeros((k, k), dtype=complex)
    for sub in _subrep(g, basis):
        avg += sub @ h @ sub.conj().T
    avg /= g.order
    evals, vecs = np.linalg.eigh(avg)
    pieces = []
    start = 0
    for i in range(1, k + 1):
        if i == k or evals[i] - evals[i - 1] > cluster_tol:
            block = basis @ vecs[:, start:i]
            block, _ = np.linalg.qr(block)
            pieces.append(block)
            start = i
    return pieces


def irreps(g: FinGroup, seed=DEFAULT_SEED, tol=DEFAULT_TOL, use_cache=True):
    """All irreducible unitary representations of g, in a deterministic order:
    ascending dimension, then lexicographically by character value tuple over
    the conjugacy classes (real parts compared before imaginary parts)."""
    key = (g.fingerprint, seed)
    if use_cache:
        with _IRREP_LOCK:
            cached = _IRREP_CACHE.get(key)
        if cached is not None:
            return cached
    rng = np.random.default_rng(seed)
    queue = [np.eye(g.order, dtype=complex)]
    simple = []
    while queue:
        basis = queue.pop(0)
        chi = _char_of(g, basis)
        norm = np.sum(g.class_sizes * chi * np.conj(chi)).real / g.order
        if abs(norm - round(norm)) > INT_TOL:
            raise NumericalFailure(f"character norm {norm} is not integral")
        if round(norm) == 1:
            simple.append((basis, chi))
            continue
        for attempt in range(40):
            pieces = _split(g, basis, rng)
            if len(pieces) > 1:
                queue.extend(pieces)
                break
        else:
            raise NumericalFailure("failed to split a reducible invariant subspace")
    # one representative per character
    found = {}
    for basis, chi in simple:
        chikey = tuple((round(v.real, 8), round(v.imag, 8)) for v in chi)
        if chikey not in found:
            found[chikey] = Irrep(g, list(_subrep(g, basis)), Character(g, chi))
    result = sorted(
        found.values(),
        key=lambda r: (r.dim, tuple((round(v.real, 8), round(v.imag, 8)) for v in r.character.values)),
    )
    if sum(r.dim**2 for r in result) != g.order:
        raise NumericalFailure(
            f"irrep dimensions {[r.dim for r in result]} do not satisfy sum d^2 = |G|"
        )
    for i, r in enumerate(result):
        for j, s in enumerate(result):
            want = 1.0 if i == j else 0.0
            if abs(character_inner(r.character, s.character) - want) > tol:
                raise NumericalFailure("computed characters are not orthonormal")
    if use_cache:
        with _IRREP_LOCK:
            _IRREP_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# restriction and induction along a homomorphism


def restrict_rep(f: GroupHom, r: RepModel) -> RepModel:
    """Pullback along f: element g acts by r(f(g)) on the same space."""
    if r.group != f.target:
        raise GroupMismatch("model lives on the wrong group for this restriction")
    return RepModel(f.source, r.matrices[f.map], basis_labels=r.basis_labels)


class InducedRep(RepModel):
    """Concrete model of C[H] tensor_{C[G]} V along f : G -> H.

    Every h in H factors once as h = h_i f(g) with h_i = coset_reps[i],
    i = coset_index[h] and g = lift[h], so h (x) v = h_i (x) g.v; its
    coordinates are C^H V(g) v in block i and zero elsewhere (C the invariant
    basis).  ``tensor_coords`` applies this rule, and ``induce_rep`` builds
    the matrices from the same decomposition.

    Attributes:
        hom: the homomorphism f.
        base: the G-model V that was induced.
        coset_reps: minimal-index representatives of the left cosets h*im(f).
        coset_index: coset id per element of H.
        lift: per element h of H, the minimal-index g in G with
            h = coset_reps[coset_index[h]] * f(g).
        invariant_basis: orthonormal basis C (columns) of the ker(f)-invariants.
    """

    def __init__(self, group, matrices, basis_labels, hom, base, coset_reps,
                 coset_index, lift, invariant_basis):
        super().__init__(group, matrices, basis_labels)
        self.hom = hom
        self.base = base
        self.coset_reps = coset_reps
        self.coset_index = coset_index
        self.lift = lift
        self.invariant_basis = invariant_basis

    @property
    def block_dim(self):
        return self.invariant_basis.shape[1]

    def tensor_coords(self, h, vec):
        """Coordinates of the tensor  h (x) vec  (vec in V-coordinates; the
        columns of a matrix are sent to columns).  ``h`` may also be an array
        of elements, with ``vec`` stacking one vector or matrix per element
        along axis 0: the result is then the coordinates of the sum of the
        tensors, accumulated per coset."""
        h = np.asarray(h)
        vec = np.asarray(vec, dtype=complex)
        if h.ndim == 0:
            h, vec = h[None], vec[None]
        tail = vec.shape[2:]
        vec = vec.reshape(len(h), vec.shape[1], math.prod(tail))
        dw = self.block_dim
        out = np.zeros((len(self.coset_reps), dw, vec.shape[2]), dtype=complex)
        if dw:
            terms = self.base.matrices[self.lift[h]] @ vec
            np.add.at(out, self.coset_index[h], self.invariant_basis.conj().T @ terms)
        return out.reshape((self.dim,) + tail)


def _invariant_basis(v: RepModel, kernel):
    if v.dim == 0:
        return np.zeros((0, 0), dtype=complex)
    p = np.zeros((v.dim, v.dim), dtype=complex)
    for k in kernel:
        p += v.matrices[k]
    p /= len(kernel)
    u, s, _ = np.linalg.svd(p)
    rank = int(np.sum(s > 0.5))
    return u[:, :rank]


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


def induce_rep(f: GroupHom, v: RepModel) -> InducedRep:
    """Induction of v along f, on the basis  h_i (x) e_j  (cosets x invariants):
    a sends h_i to a h_i = h_j f(lift[a h_i]), so block (j, i) of a is
    C^H V(lift[a h_i]) C."""
    if v.group != f.source:
        raise GroupMismatch("model lives on the wrong group for this induction")
    h = f.target
    image = f.image()
    reps, coset_index = _cosets(h.mult, image)
    # h = h_i u with u = h_i^-1 h in im(f), and lift[h] is the first
    # occurrence of u in f's table
    preimage = np.full(h.order, f.source.order)
    np.minimum.at(preimage, f.map, np.arange(f.source.order))
    lift = preimage[h.mult[h.inv[reps][coset_index], np.arange(h.order)]]
    c = _invariant_basis(v, f.kernel())
    dw = c.shape[1]
    n = len(reps)
    # C^H V(g) C at the preimages g of im(f), which are all the lifts
    lifts = preimage[image]
    blocks = np.zeros((f.source.order, dw, dw), dtype=complex)
    blocks[lifts] = c.conj().T @ v.matrices[lifts] @ c
    ahi = h.mult[:, reps]
    mats = np.zeros((h.order, n, dw, n, dw), dtype=complex)
    mats[np.arange(h.order)[:, None], coset_index[ahi], :, np.arange(n), :] = (
        blocks[lift[ahi]]
    )
    labels = [f"h{hi}⊗e{j}" for hi in reps for j in range(dw)]
    return InducedRep(h, mats.reshape(h.order, n * dw, n * dw), labels, f, v, reps,
                      coset_index, lift, c)


def induced_morphism(ind_source: InducedRep, ind_target: InducedRep, phi):
    """Apply the induction functor to an equivariant map between base models.

    Both inductions must be along the same homomorphism; the result is block
    diagonal over the cosets.
    """
    if ind_source.hom != ind_target.hom:
        raise ModelMismatch("inductions along different homomorphisms")
    phi = np.asarray(phi, dtype=complex)
    n = len(ind_source.coset_reps)
    out = np.zeros((n, ind_target.block_dim, n, ind_source.block_dim), dtype=complex)
    diag = np.arange(n)
    out[diag, :, diag, :] = (
        ind_target.invariant_basis.conj().T @ phi @ ind_source.invariant_basis
    )
    return out.reshape(ind_target.dim, ind_source.dim)


def flatten_induction(outer: InducedRep, direct: InducedRep):
    """The canonical iso ind_f(ind_g(V)) -> ind_{f.g}(V) as a matrix.

    ``outer`` must be an induction (along f) of an InducedRep (along g), and
    ``direct`` the induction of the same base along the composite g.then(f).
    Column (i, j) is the sum over the inner cosets q of
    r_i f(r_q) (x) C_g w_{q,j}, with w_j the j-th ker(f)-invariant vector of
    ind_g V and w_{q,j} its block q.
    """
    inner = outer.base
    if not isinstance(inner, InducedRep):
        raise ModelMismatch("outer induction must sit on an induced model")
    if direct.hom != inner.hom.then(outer.hom):
        raise ModelMismatch("direct induction is not along the composite hom")
    w = outer.invariant_basis.reshape(
        len(inner.coset_reps), inner.block_dim, outer.block_dim
    )
    vecs = inner.invariant_basis @ w
    elts = outer.group.mult[outer.coset_reps][:, outer.hom.map[inner.coset_reps]]
    return np.concatenate([direct.tensor_coords(row, vecs) for row in elts], axis=1)


# ---------------------------------------------------------------------------
# intertwiners


def intertwiner_basis(r1: RepModel, r2: RepModel, tol=DEFAULT_TOL):
    """Orthonormal basis (Frobenius norm) of {f : f r1(g) = r2(g) f for all g},
    read off the SVD of the group-averaged projector on row-major vec(f),

        P = (1/|G|) sum_g r2(g^-1) (x) r1(g)^T,

    formed in one contraction over the group; the rank is checked against the
    character count and every basis element against every group element.
    Raises InputTooLarge before forming P when it would take more than
    MAX_DENSE_BYTES."""
    if r1.group != r2.group:
        raise GroupMismatch("intertwiners need both models on one group")
    g = r1.group
    d1, d2 = r1.dim, r2.dim
    nbytes = (d1 * d2) ** 2 * 16
    if nbytes > MAX_DENSE_BYTES:
        raise InputTooLarge(
            f"intertwiner projector on {d2}x{d1} matrices needs {nbytes} bytes, "
            f"above the limit of {MAX_DENSE_BYTES}"
        )
    expected = hom_dim(r1.character, r2.character)
    if d1 == 0 or d2 == 0:
        if expected:
            raise RankMismatch("positive character count on a zero-dimensional space")
        return []
    # P[(i,k),(j,l)] = (1/|G|) sum_a r2(a^-1)[i,j] r1(a)[l,k]
    s = np.einsum("aij,alk->ikjl", r2.matrices[g.inv], r1.matrices)
    s = s.reshape(d2 * d1, d2 * d1) / g.order
    u, sv, _ = np.linalg.svd(s)
    cutoff = 1e-9 * max(1.0, sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > cutoff))
    if rank != expected:
        raise RankMismatch(
            f"projector rank {rank} disagrees with character count {expected}"
        )
    stack = u[:, :rank].T.reshape(rank, 1, d2, d1)
    # residual of f r1(a) = r2(a) f for every basis element f and element a
    worst = np.abs(stack @ r1.matrices - r2.matrices @ stack).max(axis=(1, 2, 3))
    bad = np.nonzero(worst > 10 * tol)[0]
    if bad.size:
        raise RankMismatch(
            f"projected basis element fails equivariance: {worst[bad[0]]}"
        )
    return [LinearMap(u[:, k].reshape(d2, d1)) for k in range(rank)]


# ---------------------------------------------------------------------------
# hom model, Nakayama map, units and counits


def _nakayama_data(f: GroupHom, v: RepModel, tol):
    """(matrix, ind model, condition number) of the exterior trace map
    phi -> (1/#G) sum_{h in H} h^-1 (x) phi(h).

    The hom model Hom_{C[G]}(C[H], V) has the distinguished basis of pairs
    (right coset rep r_i, invariant basis vector e_j) with
    phi_{i,j}(f(g) r_i) = g . (C e_j), zero off the coset im(f) r_i.  Raises
    SingularMap unless the matrix is square and numerically invertible."""
    ind = induce_rep(f, v)
    h = f.target
    image = f.image()
    rreps, _ = _cosets(h.mult.T, image)
    # phi_{i,j} at u r_i, for every u in im(f) and its lift g: g . (C e_j)
    vals = v.matrices[ind.lift[image]] @ ind.invariant_basis
    mat = np.concatenate(
        [ind.tensor_coords(h.inv[h.mult[image, ri]], vals) for ri in rreps], axis=1
    )
    mat /= f.source.order
    if mat.shape[0] != mat.shape[1]:
        raise SingularMap("hom and tensor models have different dimensions")
    cond = 1.0
    if mat.shape[0]:
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= tol * max(1.0, sv[0]):
            raise SingularMap("exterior trace map is numerically singular")
        cond = float(sv[0] / sv[-1])
    return mat, ind, cond


def nakayama(f: GroupHom, v: RepModel, tol=DEFAULT_TOL) -> LinearMap:
    """Matrix of the exterior trace map from the hom model of induction to the
    tensor model, in the distinguished bases; raises SingularMap if it is not
    invertible.  The returned map carries a ``condition_number`` attribute."""
    mat, _, cond = _nakayama_data(f, v, tol)
    out = LinearMap(mat)
    out.condition_number = cond
    return out


def _unit_kernel(ind: InducedRep, mats) -> np.ndarray:
    """(1/#G) sum_{a in H} a^-1 (x) M[a] e for every basis vector e, where
    ``ind`` is induced along f : G -> H and ``mats`` stacks one matrix M[a]
    per element of H.  With M the action of the H-model whose restriction
    was induced, this is the right unit."""
    return ind.tensor_coords(ind.group.inv, mats) / ind.hom.source.order


def _counit_kernel(ind: InducedRep, mats) -> np.ndarray:
    """The map h_i (x) e_j -> M[h_i] C e_j on the cosets x invariants basis of
    ``ind``.  With M the action of the H-model whose restriction was induced,
    this is the left counit."""
    out = mats[ind.coset_reps] @ ind.invariant_basis
    return out.transpose(1, 0, 2).reshape(mats.shape[1], ind.dim)


def eta_L(f: GroupHom, fmodel: RepModel) -> LinearMap:
    """Unit of the adjunction with induction on the right:  v -> 1 (x) v."""
    if fmodel.group != f.source:
        raise ModelMismatch("eta_L needs a model of the source group")
    ind = induce_rep(f, fmodel)
    out = np.zeros((ind.dim, fmodel.dim), dtype=complex)
    dw = ind.block_dim
    if dw:
        out[0:dw, :] = ind.invariant_basis.conj().T
    return LinearMap(out)


def eps_L(f: GroupHom, gmodel: RepModel) -> LinearMap:
    """Counit of the same adjunction: sum of multiplication maps
    h (x) v -> h . v on the induced model of the restriction."""
    if gmodel.group != f.target:
        raise ModelMismatch("eps_L needs a model of the target group")
    ind = induce_rep(f, restrict_rep(f, gmodel))
    return LinearMap(_counit_kernel(ind, gmodel.matrices))


def eta_R(f: GroupHom, gmodel: RepModel) -> LinearMap:
    """Unit of the adjunction with induction on the left:
    v -> (1/#G) sum_{h in H} h^-1 (x) h.v."""
    if gmodel.group != f.target:
        raise ModelMismatch("eta_R needs a model of the target group")
    ind = induce_rep(f, restrict_rep(f, gmodel))
    return LinearMap(_unit_kernel(ind, gmodel.matrices))


def eps_R(f: GroupHom, fmodel: RepModel, tol=DEFAULT_TOL) -> LinearMap:
    """Counit of the same adjunction: evaluation at the identity composed with
    the inverse of the exterior trace map."""
    if fmodel.group != f.source:
        raise ModelMismatch("eps_R needs a model of the source group")
    mat, ind, _ = _nakayama_data(f, fmodel, tol)
    dw = ind.block_dim
    ev = np.zeros((fmodel.dim, mat.shape[1]), dtype=complex)
    if dw:
        # only the right coset of the identity contributes to phi(1); its
        # representative is the identity, stored first
        ev[:, 0:dw] = ind.invariant_basis
    inv = np.linalg.inv(mat) if mat.shape[0] else mat
    return LinearMap(ev @ inv)


@dataclass
class ZigzagReport:
    hom: GroupHom
    deviations: dict = field(default_factory=dict)

    @property
    def max_deviation(self):
        return max(self.deviations.values(), default=0.0)

    def ok(self, tol=DEFAULT_TOL):
        return self.max_deviation < tol


def verify_zigzag(f: GroupHom, probes) -> ZigzagReport:
    """Evaluate the four triangle identities of the two adjunctions on each
    probe representation and report the worst deviation from the identity."""
    report = ZigzagReport(f)
    for idx, probe in enumerate(probes):
        if probe.group == f.source:
            ind = induce_rep(f, probe)
            ind2 = induce_rep(f, restrict_rep(f, ind))
            # (eps_L . Id) o (Id . eta_L) = Id on the induced model
            push_eta = induced_morphism(ind, ind2, eta_L(f, probe).entries)
            comp1 = eps_L(f, ind).entries @ push_eta
            report.deviations[(idx, "left_push")] = _dev_from_eye(comp1)
            # (Id . eps_R) o (eta_R . Id) = Id on the induced model
            push_eps = induced_morphism(ind2, ind, eps_R(f, probe).entries)
            comp4 = push_eps @ eta_R(f, ind).entries
            report.deviations[(idx, "right_push")] = _dev_from_eye(comp4)
        elif probe.group == f.target:
            res = restrict_rep(f, probe)
            # (Id . eps_L) o (eta_L . Id) = Id on the restricted model
            comp2 = eps_L(f, probe).entries @ eta_L(f, res).entries
            report.deviations[(idx, "left_pull")] = _dev_from_eye(comp2)
            # (eps_R . Id) o (Id . eta_R) = Id on the restricted model
            comp3 = eps_R(f, res).entries @ eta_R(f, probe).entries
            report.deviations[(idx, "right_pull")] = _dev_from_eye(comp3)
        else:
            raise ModelMismatch("probe representation does not match either group")
    return report


def _dev_from_eye(mat):
    n = mat.shape[0]
    if n != mat.shape[1]:
        return float("inf")
    if n == 0:
        return 0.0
    return float(np.max(np.abs(mat - np.eye(n))))
