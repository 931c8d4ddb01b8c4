"""Matrix skeleton of 2-vector spaces.

A 2-vector space is presented by a finite basis of simple objects; 2-linear
maps between them are matrices of nonnegative integers (dimensions of the hom
vector spaces), optionally with an explicit basis per entry; 2-morphisms are
block matrices of linear maps.  Tensor/direct-sum index ordering is
lexicographic with the left factor major, and block layouts are row-major by
codomain label, so every composite is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, GroupMismatch, ShapeMismatch
from .groups import FinGroup
from .rep import LinearMap


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

    def index(self, label):
        return self.labels.index(tuple(label))


class TwoLinearMap:
    """A codomain x domain matrix of hom-space dimensions, with optional
    explicit hom bases per entry (a list of LinearMap of that length)."""

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
        if hom_bases is not None:
            for (r, c), basis in hom_bases.items():
                if len(basis) != dims[r, c]:
                    raise ShapeMismatch(
                        f"hom basis at ({r},{c}) has {len(basis)} elements, "
                        f"dims says {dims[r, c]}"
                    )
        self.hom_bases = hom_bases

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
            (c, r): [LinearMap(m.entries.conj().T) for m in basis]
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
                blk = np.asarray(
                    blocks.get((r, c), np.zeros((target.dims[r, c], source.dims[r, c]))),
                    dtype=complex,
                )
                if blk.shape != (target.dims[r, c], source.dims[r, c]):
                    raise ShapeMismatch(
                        f"block ({r},{c}) has shape {blk.shape}, expected "
                        f"({target.dims[r, c]}, {source.dims[r, c]})"
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


def hcompose_2morph(a: TwoMorphism, b: TwoMorphism) -> TwoMorphism:
    """Horizontal composite a . b between the composite 2-linear maps, with
    blocks assembled as direct sums over the middle basis of tensor products
    kron(a-block, b-block), middle label major."""
    if a.source.domain != b.source.codomain:
        raise ShapeMismatch("horizontal composition needs chaining bases")
    src = compose_2linear(a.source, b.source)
    tgt = compose_2linear(a.target, b.target)
    blocks = {}
    for r in range(len(src.codomain)):
        for c in range(len(src.domain)):
            blk = np.zeros((tgt.dims[r, c], src.dims[r, c]), dtype=complex)
            ro = co = 0
            for j in range(len(a.source.domain)):
                piece = np.kron(a.blocks[(r, j)], b.blocks[(j, c)])
                blk[ro : ro + piece.shape[0], co : co + piece.shape[1]] = piece
                ro += piece.shape[0]
                co += piece.shape[1]
            blocks[(r, c)] = blk
    return TwoMorphism(src, tgt, blocks)


@dataclass
class GradedVector:
    """Vector of dimensions graded by the elements of a finite group."""

    group: FinGroup
    dims: np.ndarray

    def __post_init__(self):
        self.dims = np.asarray(self.dims, dtype=np.int64)
        if self.dims.shape != (self.group.order,):
            raise GroupMismatch("need one dimension per group element")


def graded_convolution(v: GradedVector, w: GradedVector) -> GradedVector:
    """Product of group-graded dimension vectors:
    out[h] = sum over g*g' = h of v[g] * w[g']."""
    if v.group != w.group:
        raise GroupMismatch("graded vectors live on different groups")
    g = v.group
    out = np.zeros(g.order, dtype=np.int64)
    for a in range(g.order):
        for b in range(g.order):
            out[g.mul(a, b)] += v.dims[a] * w.dims[b]
    return GradedVector(g, out)
