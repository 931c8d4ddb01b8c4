"""Complex representation theory of finite groups given by tables.

Everything here works in double-precision complex arithmetic.  Irreducible
representations are found by splitting C[G] with random equivariant
operators drawn from the standard library's ``random.Random(seed)``, so all
bases are reproducible for a fixed seed and no process loads
``numpy.random``; a product recorded by ``direct_product`` takes Kronecker
products of its factors' irreps instead.  The splitting never forms the
regular representation as matrices: element a sends e_j to e_{aj}, so it
acts on a basis of a subspace (its columns) by a row permutation.
Characters are read from permuted rows of that basis at class
representatives, and the final irrep matrices from one gather and one
product per chunk of elements; the averaged operator that splits a subspace
is one convolution over the table.

Induction along an arbitrary homomorphism f : G -> H is realized on the
concrete space

    (left coset reps of im f in H)  x  (ker f)-invariants of V,

with the invariants materialized through the averaging projector.  Each
element h of H is decomposed as h = h_i f(lift[h]) with h_i a coset
representative, once per hom value: ``groups.coset_data`` keeps the
decomposition in the store of H's value, and every induced model along an
equal hom shares it.  An induced model stays in that coset form: its
character, the tensor coordinates of h (x) v and every map into or out of it
are array expressions over the decomposition, and its |H| matrices are built
only when read.  The Nakayama map identifies this tensor model with the hom
model Hom_{C[G]}(C[H], V) and makes the induction a two-sided adjoint of
restriction; the four unit/counit maps of the two adjunctions are produced as
explicit matrices in these distinguished bases.  Rank and invertibility
decisions cut at RANK_CUT; no function that builds a result takes a
tolerance, which only bounds how far two computations disagree.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GroupMismatch,
    LincatError,
    ModelMismatch,
    NonIntegralMultiplicity,
    NumericalFailure,
    RankMismatch,
    SingularMap,
)
from .groups import FinGroup, GroupHom, _check_peak, _memo, coset_data

DEFAULT_SEED = 1729
DEFAULT_TOL = 1e-8
INT_TOL = 1e-6
RANK_CUT = 1e-9  # relative to max(1, the largest singular value)


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


def _class_pairing(g: FinGroup, a, b):
    """(1/|G|) sum_C |C| a(C) conj(b(C)) over the classes C of g, for class
    functions stacked as rows: entry [j, i] pairs row i of ``a`` with row j
    of ``b`` (a number for two single rows)."""
    return (b.conj() * (g.class_sizes / g.order)) @ a.T


def character_inner(a: Character, b: Character) -> complex:
    """(1/|G|) sum_g a(g) conj(b(g))."""
    if a.group != b.group:
        raise GroupMismatch("characters live on different groups")
    return complex(_class_pairing(a.group, a.values, b.values))


def hom_dim(a: Character, b: Character) -> int:
    """Dimension of the space of intertwiners between reps with these characters."""
    val = character_inner(a, b)
    return int(_integral(val))


def _integral(values, where=""):
    """Round character pairings (a number or an array) to integers, raising
    NonIntegralMultiplicity unless each is within INT_TOL of one; ``where``
    ends the error's message."""
    values = np.asarray(values)
    n = np.rint(values.real)
    if (abs(values - n) > INT_TOL).any():
        raise NonIntegralMultiplicity(
            f"character pairing {values.tolist()} is not an integer{where}"
        )
    return n.astype(np.int64)


def _condition(mat, message):
    """Condition number of the square matrix ``mat`` by its singular values
    (1.0 when it is empty), raising SingularMap(message) when the smallest is
    at most RANK_CUT times max(1, the largest)."""
    if not mat.size:
        return 1.0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= RANK_CUT * max(1.0, sv[0]):
        raise SingularMap(message)
    return float(sv[0] / sv[-1])


class RepModel:
    """An explicit matrix representation: one invertible matrix per element."""

    def __init__(self, group: FinGroup, matrices):
        matrices = np.asarray(matrices, dtype=complex)
        if matrices.ndim != 3 or matrices.shape[0] != group.order:
            raise GroupMismatch("need one square matrix per group element")
        if matrices.shape[1] != matrices.shape[2]:
            raise GroupMismatch("representation matrices must be square")
        self.group = group
        self.matrices = matrices
        self.dim = int(matrices.shape[1])
        self._character = None

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


def regular_rep(g: FinGroup) -> RepModel:
    """C[G] as |G| dense permutation matrices; raises InputTooLarge before
    allocating when they would take more than MAX_DENSE_BYTES."""
    # 1.00x the matrices at Z150
    _check_peak(g.order**3 * 16, f"the regular representation of order {g.order}")
    mats = np.zeros((g.order, g.order, g.order), dtype=complex)
    for a in range(g.order):
        mats[a, g.mult[a], np.arange(g.order)] = 1.0
    return RepModel(g, mats)


# ---------------------------------------------------------------------------
# irreducibles by splitting C[G] under the permutation action


def _left_action(g: FinGroup, a):
    """Row permutation by which a acts on C[G]: reg(a) @ B == B[_left_action(g, a)]."""
    return g.mult[g.inv[a]]


# bytes of the permuted copies of a basis that ``_subrep`` gathers at once
_SUBREP_CHUNK_BYTES = 1 << 20


def _subrep(g: FinGroup, basis):
    """The regular representation compressed to the orthonormal columns of
    ``basis``: the (|G|, k, k) stack of basis^H @ basis[mult[inv[a]]], one
    gather and one product per chunk of elements, so that a caller never
    holds more than _SUBREP_CHUNK_BYTES of permuted copies of the basis."""
    bh = basis.conj().T
    out = np.empty((g.order, basis.shape[1], basis.shape[1]), dtype=complex)
    step = max(1, _SUBREP_CHUNK_BYTES // basis.nbytes)
    for start in range(0, g.order, step):
        chunk = slice(start, start + step)
        out[chunk] = bh @ basis[_left_action(g, chunk)]
    return out


def _char_of(g: FinGroup, basis):
    """Character of the compression to ``basis``, one trace per conjugacy
    class: tr(basis^H reg(a) basis) at each class representative a, one
    gather and one contraction per chunk of representatives, chunked as in
    ``_subrep`` (an abelian group has |G| classes)."""
    reps = np.array([c[0] for c in g.classes])
    flat = basis.conj().ravel()
    out = np.empty(len(reps), dtype=complex)
    step = max(1, _SUBREP_CHUNK_BYTES // basis.nbytes)
    for start in range(0, len(reps), step):
        chunk = reps[start:start + step]
        permuted = basis[_left_action(g, chunk)]
        out[start:start + step] = permuted.reshape(len(chunk), -1) @ flat
    return out


def _averaged(g: FinGroup, basis, h):
    """(1/|G|) sum_a S(a) h S(a)^H with S(a) = B^H reg(a) B the compression to
    the columns B of ``basis``, in closed form.

    The sum is B^H T B with T the twirl of M = B h B^H, and since reg(a) sends
    e_j to e_{aj}, T[x, y] = (1/|G|) sum_a M[a^-1 x, a^-1 y] = f[x^-1 y] is a
    convolution: f[c] = (1/|G|) sum_u M[u, u c], one gather over the table."""
    m = basis @ h @ basis.conj().T
    f = m[np.arange(g.order)[:, None], g.mult].mean(axis=0)
    t = f[g.mult[g.inv]]
    return basis.conj().T @ t @ basis


def _uniform(rng: random.Random, shape):
    """Uniform draws on [-1, 1) from ``rng``: the top 53 bits of each
    little-endian 64-bit word of ``rng.randbytes``, so a seed fixes the
    values on every platform."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((words >> 11) * 2.0**-52 - 1.0).reshape(shape)


def _split(g: FinGroup, basis, rng):
    """Split an invariant subspace along the eigenspaces of a random averaged
    Hermitian operator (``_averaged``), which commutes with the action."""
    k = basis.shape[1]
    re, im = _uniform(rng, (2, k, k))
    a = re + 1j * im
    evals, vecs = np.linalg.eigh(_averaged(g, basis, a + a.conj().T))
    pieces = []
    start = 0
    for i in range(1, k + 1):
        if i == k or evals[i] - evals[i - 1] > 1e-6:
            block = basis @ vecs[:, start:i]
            block, _ = np.linalg.qr(block)
            pieces.append(block)
            start = i
    return pieces


def _char_key(chi):
    """Rounded character values: the sort and deduplication key of an irrep."""
    rounded = np.round(chi, 8)
    return tuple(zip(rounded.real.tolist(), rounded.imag.tolist()))


def _irreps_by_splitting(g: FinGroup, seed):
    """(character key, irrep) pairs, one per character, from splitting C[G]."""
    rng = random.Random(seed)
    queue = [np.eye(g.order, dtype=complex)]
    found = {}
    while queue:
        basis = queue.pop(0)
        chi = _char_of(g, basis)
        norm = _class_pairing(g, chi, chi).real
        if abs(norm - round(norm)) > INT_TOL:
            raise NumericalFailure(f"character norm {norm} is not integral")
        if round(norm) == 1:
            found.setdefault(_char_key(chi), (basis, chi))
            continue
        for attempt in range(40):
            pieces = _split(g, basis, rng)
            if len(pieces) > 1:
                queue.extend(pieces)
                break
        else:
            raise NumericalFailure("failed to split a reducible invariant subspace")
    out = []
    for key, (basis, chi) in found.items():
        mats = _subrep(g, basis)
        # the identity's compression basis^H basis is I up to a rounding-level
        # scale: divide that scale out (a 1-dimensional irrep's values become
        # exact ratios) and store the identity exactly, so that restrictions
        # of the irrep keep an exact identity
        d = basis.shape[1]
        mats /= np.trace(mats[0]).real / d
        mats[0] = np.eye(d)
        out.append((key, Irrep(g, mats, Character(g, chi))))
    return out


def _irreps_of_product(g: FinGroup, seed):
    """(character key, irrep) pairs of a recorded product G x H: (a, b) acts
    by kron(U(a), V(b)) for every pair of factor irreps U, V."""
    left, right = g.factors
    reps = [c[0] for c in g.classes]
    out = []
    for u in irreps(left, seed=seed):
        for v in irreps(right, seed=seed):
            d = u.dim * v.dim
            mats = np.einsum("aij,bkl->abikjl", u.matrices, v.matrices)
            mats = mats.reshape(g.order, d, d)
            mats[0] = np.eye(d)
            chi = np.trace(mats[reps], axis1=1, axis2=2)
            out.append((_char_key(chi), Irrep(g, mats, Character(g, chi))))
    return out


def irreps(g: FinGroup, seed=DEFAULT_SEED):
    """All irreducible unitary representations of g, in a deterministic order:
    ascending dimension, then lexicographically by character value tuple over
    the conjugacy classes (real parts compared before imaginary parts).

    A product recorded by ``direct_product`` takes its irreps from its
    factors' (recursively, for nested products): kron(U(a), V(b)) for every
    pair of factor irreps.  Any other group splits C[G].  On both routes the
    identity element acts by an exact identity matrix.  Results are kept
    per seed in the store of g's value: a recorded product's value holds
    its factors, so it and the same table built another way keep separate
    stores and bases.  A kept result is the value's: an irrep's ``group``
    equals g, but may be another object with another name.  On a miss, raises
    InputTooLarge before allocating when its peak passes MAX_DENSE_BYTES:
    11 times the |G|^2 complex basis of C[G] when it splits, 1.1 times the
    product's matrices (as many numbers) for a product; and NumericalFailure
    unless the characters are orthonormal within DEFAULT_TOL: no caller
    picks that tolerance, so a kept result never
    depends on one.  The seed is any non-negative integer (numpy integers
    included); a negative one raises LincatError."""
    # random.Random refuses numpy integers and takes a negative seed's
    # absolute value
    seed = operator.index(seed)
    if seed < 0:
        raise LincatError(f"seed must be non-negative, got {seed}")
    return _memo(g, ("irreps", seed), _irreps, g, seed)


def _irreps(g: FinGroup, seed):
    """The sorted and checked irreps of ``irreps``, built afresh."""
    what = f"the irreducible representations of a group of order {g.order}"
    if g.factors is None:
        # 10.76x the basis at GL_2(F_5) (order 480), 10.46x at S6 (order 720)
        _check_peak(11 * g.order**2 * 16, what)
        keyed = _irreps_by_splitting(g, seed)
    else:
        # 1.10x at A5xS4 (order 1440), 1.02x at A5xA5 (3600), factors' irreps included
        _check_peak(1.1 * g.order**2 * 16, what)
        keyed = _irreps_of_product(g, seed)
    result = [r for _, r in sorted(keyed, key=lambda kr: (kr[1].dim, kr[0]))]
    if sum(r.dim**2 for r in result) != g.order:
        raise NumericalFailure(
            f"irrep dimensions {[r.dim for r in result]} do not satisfy sum d^2 = |G|"
        )
    chars = np.array([r.character.values for r in result])
    gram = _class_pairing(g, chars, chars)
    if np.max(np.abs(gram - np.eye(len(result)))) > DEFAULT_TOL:
        raise NumericalFailure("computed characters are not orthonormal")
    return result


# ---------------------------------------------------------------------------
# restriction and induction along a homomorphism


def restrict_rep(f: GroupHom, r: RepModel) -> RepModel:
    """Pullback along f: element g acts by r(f(g)) on the same space."""
    if r.group != f.target:
        raise GroupMismatch("model lives on the wrong group for this restriction")
    return RepModel(f.source, r.matrices[f.map])


class InducedRep(RepModel):
    """Concrete model of C[H] tensor_{C[G]} V along f : G -> H.

    Every h in H factors once as h = h_i f(g) with h_i = coset_reps[i],
    i = coset_index[h] and g = lift[h], so h (x) v = h_i (x) g.v; its
    coordinates are C^H V(g) v in block i and zero elsewhere (C the invariant
    basis).  ``tensor_coords`` applies this rule, and ``character`` reads the
    induced-character formula off the same decomposition; ``matrices``, the
    dense (|H|, dim, dim) stack, is built on its first read.

    Attributes:
        hom: the homomorphism f.
        base: the G-model V that was induced.
        coset_reps: minimal-index representatives of the left cosets h*im(f).
        coset_index: coset id per element of H.
        lift: per element h of H, the minimal-index g in G with
            h = coset_reps[coset_index[h]] * f(g).
        invariant_basis: orthonormal basis C (columns) of the ker(f)-invariants.
        blocks: C^H V(g) C per element g of G at the lifts, zero elsewhere.

    ``coset_reps``, ``coset_index`` and ``lift`` are the read-only arrays of
    ``groups.coset_data(hom)``, shared by every model induced along an equal
    hom.
    """

    def __init__(self, hom, base, cosets, invariant_basis, blocks):
        self.group = hom.target
        self.dim = len(cosets.reps) * invariant_basis.shape[1]
        self.hom, self.base = hom, base
        self.coset_reps, self.coset_index, self.lift = cosets.reps, cosets.index, cosets.lift
        self.invariant_basis = invariant_basis
        self.blocks = blocks

    @cached_property
    def matrices(self):
        """The dense (|H|, dim, dim) stack, built on the first read, which
        raises InputTooLarge first if the stack and its gathered blocks pass
        MAX_DENSE_BYTES."""
        # a h_i = h_j f(lift[a h_i]), so block (j, i) of a is blocks[lift[a h_i]]
        h, n, dw = self.group, len(self.coset_reps), self.block_dim
        # 1.00x at Z200 on C[Z50] and C[Z100], and at S5 on C[1]
        _check_peak(h.order * (n + 1) * n * dw**2 * 16, f"the matrices of an induced "
                    f"model of dimension {self.dim} on a group of order {h.order}")
        ahi = h.mult[:, self.coset_reps]
        mats = np.zeros((h.order, n, dw, n, dw), dtype=complex)
        mats[np.arange(h.order)[:, None], self.coset_index[ahi], :, np.arange(n), :] = (
            self.blocks[self.lift[ahi]]
        )
        return mats.reshape(h.order, self.dim, self.dim)

    @cached_property
    def character(self) -> Character:
        # at each class representative c, tr blocks[lift[c h_i]] summed over
        # the cosets h_i that c fixes
        h = self.group
        ahi = h.mult[np.ix_([c[0] for c in h.classes], self.coset_reps)]
        fixed = self.coset_index[ahi] == np.arange(len(self.coset_reps))
        diag = np.diagonal(self.blocks, axis1=1, axis2=2)[self.lift[ahi]]
        return Character(h, (diag * fixed[..., None]).sum(axis=(1, 2)))

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
    eye = np.eye(v.dim, dtype=complex)
    # a trivial kernel fixes every vector, and the SVD of an exact identity is
    # the identity (irreps and their restrictions act so at index 0); a model
    # whose identity matrix is off by rounding keeps the SVD, which may rotate
    # the basis inside the degenerate space
    if len(kernel) == 1 and np.array_equal(v.matrices[0], eye):
        return eye
    p = np.zeros((v.dim, v.dim), dtype=complex)
    for k in kernel:
        p += v.matrices[k]
    p /= len(kernel)
    u, s, _ = np.linalg.svd(p)
    rank = int(np.sum(s > 0.5))
    return u[:, :rank]


def induce_rep(f: GroupHom, v: RepModel) -> InducedRep:
    """Induction of v along f, on the basis  h_i (x) e_j  (cosets x invariants),
    kept in coset form: the model holds the diagonal blocks C^H V(g) C, one
    per element of f's source, and builds its matrices only when they are
    read (``InducedRep.matrices``).  The cosets, lifts, kernel and image are
    ``groups.coset_data(f)``, computed once per hom value and kept, read-only,
    in the store of the value of f's target group.  Raises InputTooLarge
    before allocating the blocks when 1.1 times them, the base's matrices it
    gathers at the lifts and the coset arrays pass MAX_DENSE_BYTES."""
    if v.group != f.source:
        raise GroupMismatch("model lives on the wrong group for this induction")
    h = f.target
    cosets = coset_data(f)
    c = _invariant_basis(v, cosets.kernel)
    dw = c.shape[1]
    # C^H V(g) C at the preimages g of im(f), which are all the lifts
    lifts = cosets.preimage[cosets.image]
    # 1.09x at Z200 -> Z50 on C[Z200], 1.01x at the identity of Z150 on C[Z150]
    _check_peak(1.1 * (16 * (f.source.order * dw**2 + len(lifts) * v.dim**2)
                       + sum(a.nbytes for a in cosets)),
                f"inducing a model of dimension {len(cosets.reps) * dw} to a group "
                f"of order {h.order}")
    blocks = np.zeros((f.source.order, dw, dw), dtype=complex)
    blocks[lifts] = c.conj().T @ v.matrices[lifts] @ c
    return InducedRep(f, v, cosets, c, blocks)


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


# ---------------------------------------------------------------------------
# intertwiners


def intertwiner_basis(r1: RepModel, r2: RepModel):
    """Orthonormal basis (Frobenius norm) of {f : f r1(g) = r2(g) f for all g},
    read off the SVD of the group-averaged projector on row-major vec(f),

        P = (1/|G|) sum_g r2(g^-1) (x) r1(g)^T,

    formed in one contraction over the group; its rank (above RANK_CUT) must be
    the character count, each element equivariant within 10 * DEFAULT_TOL.
    Returns the basis as one C-contiguous (rank, r2.dim, r1.dim) array, of
    rank 0 when either dimension is 0.  Raises InputTooLarge before forming P
    when 7.7 times P (its SVD) and 2.1 times the rank * |G| residuals of the
    equivariance check pass MAX_DENSE_BYTES."""
    if r1.group != r2.group:
        raise GroupMismatch("intertwiners need both models on one group")
    g = r1.group
    d1, d2 = r1.dim, r2.dim
    expected = hom_dim(r1.character, r2.character)
    # 7.70x P at d1 * d2 = 576 (Z2, 24 copies of two characters); 2.06x the
    # residuals at 12 copies of the trivial character of Z100
    _check_peak(16 * (7.7 * (d1 * d2) ** 2 + 2.1 * expected * g.order * d1 * d2),
                f"the intertwiner projector on {d2}x{d1} matrices")
    if d1 == 0 or d2 == 0:
        if expected:
            raise RankMismatch("positive character count on a zero-dimensional space")
        return np.zeros((0, d2, d1), dtype=complex)
    # P[(i,k),(j,l)] = (1/|G|) sum_a r2(a^-1)[i,j] r1(a)[l,k]
    s = np.einsum("aij,alk->ikjl", r2.matrices[g.inv], r1.matrices)
    s = s.reshape(d2 * d1, d2 * d1) / g.order
    u, sv, _ = np.linalg.svd(s)
    rank = int(np.sum(sv > RANK_CUT * max(1.0, sv[0])))
    if rank != expected:
        raise RankMismatch(
            f"projector rank {rank} disagrees with character count {expected}"
        )
    basis = np.ascontiguousarray(u[:, :rank].T).reshape(rank, d2, d1)
    # residual of f r1(a) = r2(a) f for every basis element f and element a
    stack = basis[:, None]
    worst = np.abs(stack @ r1.matrices - r2.matrices @ stack).max(axis=(1, 2, 3))
    bad = np.nonzero(worst > 10 * DEFAULT_TOL)[0]
    if bad.size:
        raise RankMismatch(
            f"projected basis element fails equivariance: {worst[bad[0]]}"
        )
    return basis


# ---------------------------------------------------------------------------
# hom model, Nakayama map, units and counits


def _nakayama_data(f: GroupHom, v: RepModel):
    """(matrix, ind model, condition number) of the exterior trace map
    phi -> (1/#G) sum_{h in H} h^-1 (x) phi(h).

    The hom model Hom_{C[G]}(C[H], V) has the distinguished basis of pairs
    (right coset rep r_i, invariant basis vector e_j) with
    phi_{i,j}(f(g) r_i) = g . (C e_j), zero off the coset im(f) r_i.  Raises
    SingularMap unless the matrix is square and numerically invertible."""
    ind = induce_rep(f, v)
    h = f.target
    image = coset_data(f).image
    rreps = coset_data(f, right=True).reps
    # phi_{i,j} at u r_i, for every u in im(f) and its lift g: g . (C e_j)
    vals = v.matrices[ind.lift[image]] @ ind.invariant_basis
    mat = np.concatenate(
        [ind.tensor_coords(h.inv[h.mult[image, ri]], vals) for ri in rreps], axis=1
    )
    mat /= f.source.order
    if mat.shape[0] != mat.shape[1]:
        raise SingularMap("hom and tensor models have different dimensions")
    return mat, ind, _condition(mat, "exterior trace map is numerically singular")


def nakayama(f: GroupHom, v: RepModel):
    """(matrix, condition number) of the exterior trace map from the hom model
    of induction to the tensor model, in the distinguished bases; raises
    SingularMap if it is not invertible."""
    mat, _, cond = _nakayama_data(f, v)
    return mat, cond


def _unit_kernel(ind: InducedRep, mats) -> np.ndarray:
    """(1/#G) sum_{a in H} a^-1 (x) M[a] e for every basis vector e, where
    ``ind`` is induced along f : G -> H and ``mats`` stacks one matrix M[a]
    per element of H (further tail axes stack several such maps, as in
    ``tensor_coords``).  With M the action of the H-model whose restriction
    was induced, this is the right unit."""
    return ind.tensor_coords(ind.group.inv, mats) / ind.hom.source.order


def _counit_kernel(ind: InducedRep, mats) -> np.ndarray:
    """The map h_i (x) e_j -> M[h_i] C e_j on the cosets x invariants basis of
    ``ind``.  With M the action of the H-model whose restriction was induced,
    this is the left counit."""
    out = mats[ind.coset_reps] @ ind.invariant_basis
    return out.transpose(1, 0, 2).reshape(mats.shape[1], ind.dim)


def eta_L(f: GroupHom, fmodel: RepModel) -> np.ndarray:
    """Unit of the adjunction with induction on the right:  v -> 1 (x) v."""
    if fmodel.group != f.source:
        raise ModelMismatch("eta_L needs a model of the source group")
    return induce_rep(f, fmodel).tensor_coords(0, np.eye(fmodel.dim))


def eps_L(f: GroupHom, gmodel: RepModel) -> np.ndarray:
    """Counit of the same adjunction: sum of multiplication maps
    h (x) v -> h . v on the induced model of the restriction."""
    if gmodel.group != f.target:
        raise ModelMismatch("eps_L needs a model of the target group")
    ind = induce_rep(f, restrict_rep(f, gmodel))
    return _counit_kernel(ind, gmodel.matrices)


def eta_R(f: GroupHom, gmodel: RepModel) -> np.ndarray:
    """Unit of the adjunction with induction on the left:
    v -> (1/#G) sum_{h in H} h^-1 (x) h.v."""
    if gmodel.group != f.target:
        raise ModelMismatch("eta_R needs a model of the target group")
    ind = induce_rep(f, restrict_rep(f, gmodel))
    return _unit_kernel(ind, gmodel.matrices)


def eps_R(f: GroupHom, fmodel: RepModel) -> np.ndarray:
    """Counit of the same adjunction: evaluation at the identity composed with
    the inverse of the exterior trace map."""
    if fmodel.group != f.source:
        raise ModelMismatch("eps_R needs a model of the source group")
    mat, ind, _ = _nakayama_data(f, fmodel)
    dw = ind.block_dim
    ev = np.zeros((fmodel.dim, mat.shape[1]), dtype=complex)
    if dw:
        # only the right coset of the identity contributes to phi(1); its
        # representative is the identity, stored first
        ev[:, 0:dw] = ind.invariant_basis
    inv = np.linalg.inv(mat) if mat.shape[0] else mat
    return ev @ inv


@dataclass
class ZigzagReport:
    hom: GroupHom
    deviations: dict = field(default_factory=dict)

    @property
    def max_deviation(self):
        """The largest deviation; NaN if any is NaN, so ``ok`` is False."""
        return float(np.max(list(self.deviations.values()), initial=0.0))

    def ok(self, tol=DEFAULT_TOL):
        return self.max_deviation < tol


def verify_zigzag(f: GroupHom, probes) -> ZigzagReport:
    """Evaluate the four triangle identities of the two adjunctions on each
    probe representation and report the worst deviation from the identity.
    No tolerance enters the maps: the caller's decides ``ZigzagReport.ok``."""
    report = ZigzagReport(f)
    for idx, probe in enumerate(probes):
        if probe.group == f.source:
            ind = induce_rep(f, probe)
            ind2 = induce_rep(f, restrict_rep(f, ind))
            # (eps_L . Id) o (Id . eta_L) = Id on the induced model
            push_eta = induced_morphism(ind, ind2, eta_L(f, probe))
            comp1 = eps_L(f, ind) @ push_eta
            report.deviations[(idx, "left_push")] = _dev_from_eye(comp1)
            # (Id . eps_R) o (eta_R . Id) = Id on the induced model
            push_eps = induced_morphism(ind2, ind, eps_R(f, probe))
            comp4 = push_eps @ eta_R(f, ind)
            report.deviations[(idx, "right_push")] = _dev_from_eye(comp4)
        elif probe.group == f.target:
            res = restrict_rep(f, probe)
            # (Id . eps_L) o (eta_L . Id) = Id on the restricted model
            comp2 = eps_L(f, probe) @ eta_L(f, res)
            report.deviations[(idx, "left_pull")] = _dev_from_eye(comp2)
            # (eps_R . Id) o (Id . eta_R) = Id on the restricted model
            comp3 = eps_R(f, res) @ eta_R(f, probe)
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
