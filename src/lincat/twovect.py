"""Matrix skeleton of 2-vector spaces.

A 2-vector space is presented by a finite basis of simple objects; 2-linear
maps between them are matrices of nonnegative integers (dimensions of the hom
vector spaces), optionally with an explicit basis of matrices per entry;
2-morphisms are block matrices of linear maps.  Tensor/direct-sum index ordering is
lexicographic with the left factor major, and block layouts are row-major by
codomain label, so every composite is bit-reproducible.  An entry of a
composite is a direct sum over middle labels, middle label major; its one
layout is ``summand_offsets``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, ShapeMismatch


@dataclass(frozen=True)
class TwoBasis:
    """Ordered basis of simple objects: (object name, irrep index, irrep dim)."""

    labels: tuple

    def __init__(self, labels):
        labels = tuple(tuple(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise BasisMismatch("basis labels must be unique")
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.labels)


class TwoLinearMap:
    """A codomain x domain matrix of hom-space dimensions, with optional
    explicit hom bases per entry (a sequence of that many complex matrices).

    ``hom_bases`` may also be given as a function of no arguments that
    returns them: it is called on the first access of ``hom_bases``, and
    the basis lengths are checked against ``dims`` then."""

    def __init__(self, domain: TwoBasis, codomain: TwoBasis, dims, hom_bases=None):
        dims = np.asarray(dims, dtype=np.int64)
        if dims.shape != (len(codomain), len(domain)):
            raise ShapeMismatch(
                f"dims shape {dims.shape} does not match bases "
                f"({len(codomain)}, {len(domain)})"
            )
        if dims.size and dims.min() < 0:
            raise ShapeMismatch("dims must be nonnegative")
        self.domain = domain
        self.codomain = codomain
        self.dims = dims
        self._hom_bases = hom_bases
        if not callable(hom_bases):
            self._check_lengths(hom_bases)

    @property
    def hom_bases(self):
        if callable(self._hom_bases):
            bases = self._hom_bases()
            self._check_lengths(bases)
            self._hom_bases = bases
        return self._hom_bases

    def _check_lengths(self, hom_bases):
        for (r, c), basis in (hom_bases or {}).items():
            if len(basis) != self.dims[r, c]:
                raise ShapeMismatch(
                    f"hom basis at ({r},{c}) has {len(basis)} elements, "
                    f"dims says {self.dims[r, c]}"
                )

    @classmethod
    def identity(cls, basis: TwoBasis):
        return cls(basis, basis, np.eye(len(basis), dtype=np.int64))

    def __eq__(self, other):
        return (
            isinstance(other, TwoLinearMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and np.array_equal(self.dims, other.dims)
        )


def compose_2linear(a: TwoLinearMap, b: TwoLinearMap) -> TwoLinearMap:
    """Composite a . b (apply b first): dims are the integer product
    a.dims @ b.dims."""
    if a.domain != b.codomain:
        raise BasisMismatch("maps are not composable: domain of a != codomain of b")
    return TwoLinearMap(b.domain, a.codomain, a.dims @ b.dims)


def dagger(t: TwoLinearMap) -> TwoLinearMap:
    """Transpose of dims with domain and codomain swapped; hom bases are sent
    entrywise to the dual bases (conjugate transposes)."""
    hom_bases = None
    if t.hom_bases is not None:
        hom_bases = {
            (c, r): [m.conj().T for m in basis]
            for (r, c), basis in t.hom_bases.items()
        }
    return TwoLinearMap(t.codomain, t.domain, t.dims.T.copy(), hom_bases)


class TwoMorphism:
    """A natural transformation between two parallel 2-linear maps: one linear
    map per basis pair, of shape target.dims x source.dims."""

    def __init__(self, source: TwoLinearMap, target: TwoLinearMap, blocks):
        if source.domain != target.domain or source.codomain != target.codomain:
            raise ShapeMismatch("source and target must be parallel 2-linear maps")
        self.source = source
        self.target = target
        self.blocks = {}
        for r in range(len(source.codomain)):
            for c in range(len(source.domain)):
                shape = (target.dims[r, c], source.dims[r, c])
                blk = blocks.get((r, c))
                blk = np.zeros(shape, dtype=complex) if blk is None else np.asarray(blk, dtype=complex)
                if blk.shape != shape:
                    raise ShapeMismatch(
                        f"block ({r},{c}) has shape {blk.shape}, expected {shape}"
                    )
                self.blocks[(r, c)] = blk

    @classmethod
    def identity(cls, t: TwoLinearMap):
        return cls(
            t, t, {(r, c): np.eye(t.dims[r, c]) for r in range(len(t.codomain))
                   for c in range(len(t.domain))}
        )


def vcompose_2morph(a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
    """Vertical composite (a first, then b): blockwise composition of maps."""
    if a.target != b.source or not np.array_equal(a.target.dims, b.source.dims):
        raise ShapeMismatch("vertical composition needs a.target == b.source")
    blocks = {key: b.blocks[key] @ a.blocks[key] for key in a.blocks}
    return TwoMorphism(a.source, b.target, blocks)


def summand_offsets(a: TwoLinearMap, b: TwoLinearMap) -> np.ndarray:
    """The summand layout of the composite a . b: entry (r, c) of
    ``compose_2linear(a, b)`` is the direct sum over middle labels j of
    hom-space tensor products, hom a[r, j] (x) hom b[j, c], middle label
    major, and ``offsets[r, j, c]`` is the position of summand j's first
    basis element in that entry, sum over j' < j of
    a.dims[r, j'] * b.dims[j', c].  ``hcompose_2morph`` places its blocks by
    it, and ``linearization.composite_block_iso`` its columns."""
    sizes = a.dims[:, :, None] * b.dims[None, :, :]
    return np.cumsum(sizes, axis=1) - sizes


def hcompose_2morph(a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
    """Horizontal composite a . b between the composite 2-linear maps: block
    (r, c) is the direct sum over middle labels j of kron(a-block (r, j),
    b-block (j, c)), its rows and columns laid out by ``summand_offsets`` of
    the targets and of the sources."""
    if a.source.domain != b.source.codomain:
        raise ShapeMismatch("horizontal composition needs chaining bases")
    src = compose_2linear(a.source, b.source)
    tgt = compose_2linear(a.target, b.target)
    row0 = summand_offsets(a.target, b.target)
    col0 = summand_offsets(a.source, b.source)
    blocks = {}
    for r in range(len(src.codomain)):
        for c in range(len(src.domain)):
            blk = np.zeros((tgt.dims[r, c], src.dims[r, c]), dtype=complex)
            for j in range(len(a.source.domain)):
                p, q = a.blocks[(r, j)], b.blocks[(j, c)]
                if p.size and q.size:
                    piece = np.kron(p, q)
                    ro, co = row0[r, j, c], col0[r, j, c]
                    blk[ro : ro + piece.shape[0], co : co + piece.shape[1]] = piece
            blocks[(r, c)] = blk
    return TwoMorphism(src, tgt, blocks)
