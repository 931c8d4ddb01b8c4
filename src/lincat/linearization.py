"""The 2-linearization functor on groupoids, spans, and spans of span maps.

A groupoid A is sent to the 2-vector space with one basis label per pair
(object of A, irreducible representation of its automorphism group).  A span
A1 <- X -> A2 is sent to the matrix whose ((a2,W2),(a1,W1)) entry is the
direct sum, over apex objects x lying above (a1, a2), of the space of
Aut(x)-intertwiners between the two pullbacks of W1 and W2; the entry
dimensions are computed by character arithmetic and cross-checked against the
multiplicity of W2 in the induced representation.  An apex object's
summands depend only on its two feet and its leg homs s, t, so the matrix is
built in one pass over apex objects that computes them once per key
(a1, a2, s, t): the pullbacks s*W1, t*W2, the pushforwards t_*s*W1, the
count with its cross-check and the intertwiner bases.  Every apex object with
that key is a witness sharing those models, which the dual path below reads.

A strict span of span maps is sent to a matrix of linear operators between
those intertwiner spaces, evaluated in closed form as

    f  |->  c(x1, x2) * P(f),      c = |preimage of (x1,x2)| * #Aut(x1),

with P the group-average projection onto intertwiners over the bottom
witness, taken for all basis elements of a top witness in one batched
product over the group.  A second, independent evaluation path pastes the
explicit unit/counit matrices on induced models and must agree within
tolerance; a span-map apex object's unit/counit piece depends only on its up
and down homs and its witnesses' models, so apex objects that share them
share one piece within a call.

``verify_functoriality`` linearizes each input span and span map at most
once per run, the first time a check needs it, and hands those results to
the compositor, unitor, vertical and horizontal checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    IntertwinerProjectionFailure,
    NumericalFailure,
    SingularMap,
    StrictnessViolation,
)
from .groupoids import (
    CommaCategory,
    Groupoid,
    Span,
    SpanMap,
    compose_spans,
    compose_spans_with_comma,
    horizontal_compose_spanmaps,
    identity_span,
    vertical_compose_spanmaps,
)
from .rep import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    InducedRep,
    RepModel,
    _counit_kernel,
    _unit_kernel,
    flatten_induction,
    hom_dim,
    induce_rep,
    induced_morphism,
    intertwiner_basis,
    irreps,
    regular_rep,
    restrict_rep,
)
from .twovect import (
    TwoBasis,
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    hcompose_2morph,
    vcompose_2morph,
)


@dataclass
class LambdaObject:
    """Basis of (object, irrep) pairs for the 2-vector space of a groupoid."""

    groupoid: Groupoid
    basis: TwoBasis
    # per object of the groupoid, its (basis position, irrep) pairs in basis
    # order
    positions: list


def lambda_object(a: Groupoid, seed=DEFAULT_SEED) -> LambdaObject:
    labels = []
    positions = []
    for name, aut in a.objects:
        table = irreps(aut, seed=seed)
        positions.append([(len(labels) + k, r) for k, r in enumerate(table)])
        labels.extend((name, k, r.dim) for k, r in enumerate(table))
    return LambdaObject(a, TwoBasis(labels), positions)


@dataclass
class _EntryWitness:
    """One apex object's contribution to a matrix entry."""

    apex_idx: int
    r1: RepModel  # pullback of W1 along the left leg
    r2: RepModel  # pullback of W2 along the right leg
    basis: list   # intertwiner basis (may be empty)
    ind: InducedRep  # pushforward of r1 along the right leg


@dataclass
class LambdaSpanResult:
    span: Span
    map: TwoLinearMap
    witnesses: dict
    source_object: LambdaObject
    target_object: LambdaObject
    details: dict = field(repr=False, default=None)


def lambda_span(x: Span, seed=DEFAULT_SEED, tol=DEFAULT_TOL) -> LambdaSpanResult:
    """Matrix of intertwiner spaces for a span, with explicit hom bases."""
    src = lambda_object(x.source, seed=seed)
    tgt = lambda_object(x.target, seed=seed)
    nrow, ncol = len(tgt.basis), len(src.basis)
    dims = np.zeros((nrow, ncol), dtype=np.int64)
    details = {(r, c): [] for r in range(nrow) for c in range(ncol)}
    # an apex object's entries depend only on its feet and leg homs
    memo = {}
    # apex objects in increasing order, so each entry's witnesses ascend
    for xi in range(len(x.apex)):
        key = (x.left(xi), x.right(xi), x.left.hom(xi), x.right.hom(xi))
        if key not in memo:
            memo[key] = _leg_entries(src, tgt, *key, xi, tol)
        for r, c, d, r1, r2, basis, ind in memo[key]:
            details[(r, c)].append(_EntryWitness(xi, r1, r2, basis, ind))
            dims[r, c] += d
    hom_bases = {k: [b for w in wits for b in w.basis] for k, wits in details.items()}
    witnesses = {k: [w.apex_idx for w in wits] for k, wits in details.items()}
    tmap = TwoLinearMap(src.basis, tgt.basis, dims, hom_bases)
    return LambdaSpanResult(x, tmap, witnesses, src, tgt, details)


def _leg_entries(src, tgt, a1, a2, s_hom, t_hom, xi, tol):
    """The entries (r, c, dim, s*W1, t*W2, intertwiner basis, t_*s*W1) of an
    apex object above (a1, a2) with leg homs s_hom, t_hom; ``xi`` is the
    first such apex object, named in the cross-check's error."""
    pulled2 = [(r, w2, restrict_rep(t_hom, w2)) for r, w2 in tgt.positions[a2]]
    entries = []
    for c, w1 in src.positions[a1]:
        r1 = restrict_rep(s_hom, w1)
        ind = induce_rep(t_hom, r1)
        for r, w2, r2 in pulled2:
            # the basis's length is the character count: intertwiner_basis
            # raises RankMismatch otherwise
            basis = intertwiner_basis(r1, r2, tol=tol)
            d = len(basis)
            # independent route: multiplicity of W2 in the pushforward
            d_ind = hom_dim(ind.character, w2.character)
            if d != d_ind:
                raise NumericalFailure(
                    f"intertwiner count {d} disagrees with induced "
                    f"multiplicity {d_ind} at apex object {xi}"
                )
            entries.append((r, c, d, r1, r2, basis, ind))
    return entries


def degroupoidify(x: Span):
    """Exact rational matrix of the span: rows over target objects, columns
    over source objects, entry = sum over apex objects of #Aut(src)/#Aut(x)."""
    nrow, ncol = len(x.target), len(x.source)
    out = [[Fraction(0, 1) for _ in range(ncol)] for _ in range(nrow)]
    for xi in range(len(x.apex)):
        i, k = x.left(xi), x.right(xi)
        out[k][i] += Fraction(x.source.aut(i).order, x.apex.aut(xi).order)
    return out


def degroupoidify_2cell(y: SpanMap):
    """Rational matrix of a span map over the apex iso classes of its top and
    bottom spans: entry = #Aut(x1) * (preimage cardinality over (x1, x2))."""
    nrow, ncol = len(y.bottom.apex), len(y.top.apex)
    out = [[Fraction(0, 1) for _ in range(ncol)] for _ in range(nrow)]
    for yi in range(len(y.apex)):
        x1, x2 = y.up(yi), y.down(yi)
        out[x2][x1] += Fraction(
            y.top.apex.aut(x1).order, y.apex.aut(yi).order
        )
    return out


# ---------------------------------------------------------------------------
# 2-morphisms


@dataclass
class LambdaSpanMapResult:
    spanmap: SpanMap
    morphism: TwoMorphism
    coefficients: dict
    source_result: LambdaSpanResult
    target_result: LambdaSpanResult


def _project_onto_intertwiners(fs, r1: RepModel, r2: RepModel):
    """(1/#G) sum_g r2(g^-1) f r1(g) for every f in the stack ``fs`` of shape
    (k, dim r2, dim r1) — projection onto intertwiners r1 -> r2 — as one
    batched product over the stack and the group."""
    g = r1.group
    terms = r2.matrices[g.inv] @ fs[:, None] @ r1.matrices
    return terms.sum(axis=1) / g.order


def lambda_spanmap(y: SpanMap, seed=DEFAULT_SEED, tol=DEFAULT_TOL,
                   check=True) -> LambdaSpanMapResult:
    """Matrix of linear operators for a strict span of span maps.

    Blocks run from the intertwiner spaces of the top span to those of the
    bottom span.  When ``check`` is set, the same blocks are recomputed by
    pasting unit/counit matrices on induced models and the two answers must
    agree within ``tol``.
    """
    lam_top = lambda_span(y.top, seed=seed, tol=tol)
    lam_bot = lambda_span(y.bottom, seed=seed, tol=tol)
    coeffs = {}
    cards = {}
    for yi in range(len(y.apex)):
        key = (y.up(yi), y.down(yi))
        cards[key] = cards.get(key, Fraction(0, 1)) + Fraction(
            1, y.apex.aut(yi).order
        )
    for (x1, x2), card in cards.items():
        coeffs[(x1, x2)] = card * y.top.apex.aut(x1).order
    blocks = {}
    for r in range(len(lam_top.target_object.basis)):
        for c in range(len(lam_top.source_object.basis)):
            top_wits = lam_top.details[(r, c)]
            bot_wits = lam_bot.details[(r, c)]
            block = np.zeros(
                (int(lam_bot.map.dims[r, c]), int(lam_top.map.dims[r, c])),
                dtype=complex,
            )
            col0 = 0
            for tw in top_wits:
                ncols = len(tw.basis)
                fs = np.array([f.entries for f in tw.basis])
                row0 = 0
                for bw in bot_wits:
                    nrows = len(bw.basis)
                    coeff = coeffs.get((tw.apex_idx, bw.apex_idx))
                    if coeff and ncols and nrows:
                        # Frobenius coordinates of every projected f in the
                        # bottom witness's basis, in one product
                        pf = _project_onto_intertwiners(fs, bw.r1, bw.r2)
                        b2 = np.array([b.entries for b in bw.basis])
                        coords = b2.reshape(nrows, -1).conj() @ pf.reshape(ncols, -1).T
                        block[row0 : row0 + nrows, col0 : col0 + ncols] = (
                            float(coeff) * coords
                        )
                    row0 += nrows
                col0 += ncols
            blocks[(r, c)] = block
    morphism = TwoMorphism(lam_top.map, lam_bot.map, blocks)
    if check:
        _check_dual_path(y, lam_top, lam_bot, morphism, tol=tol)
    return LambdaSpanMapResult(y, morphism, coeffs, lam_top, lam_bot)


# --- secondary evaluation path (unit/counit pasting on induced models) -----


def _big_transfer(y: SpanMap, top_wits, bot_wits):
    """The presheaf-level map between the block models
    (+)_{x1} ind_{t1}(s1*W1)  ->  (+)_{x2} ind_{t2}(s2*W1)
    obtained by pasting the right unit along y.up with the left counit along
    y.down through the staged/direct induction isomorphisms.  The block
    models are the witnesses' pushforwards.  A span-map apex object's piece
    depends only on its up and down homs and the models of its top and
    bottom witnesses, which ``lambda_span`` shares between apex objects with
    equal feet and leg homs; each distinct piece is built once."""
    top_pos = {w.apex_idx: i for i, w in enumerate(top_wits)}
    bot_pos = {w.apex_idx: i for i, w in enumerate(bot_wits)}
    top_off = np.cumsum([0] + [w.ind.dim for w in top_wits])
    bot_off = np.cumsum([0] + [w.ind.dim for w in bot_wits])
    big = np.zeros((int(bot_off[-1]), int(top_off[-1])), dtype=complex)
    pieces = {}
    for yi in range(len(y.apex)):
        x1, x2 = y.up(yi), y.down(yi)
        if x1 not in top_pos or x2 not in bot_pos:
            continue
        i1, i2 = top_pos[x1], bot_pos[x2]
        tw, bw = top_wits[i1], bot_wits[i2]
        # RepModels hash by identity: shared models give equal keys
        key = (y.up.hom(yi), y.down.hom(yi), tw.r1, tw.ind, bw.r1, bw.ind)
        if key not in pieces:
            pieces[key] = _transfer_piece(*key)
        big[
            int(bot_off[i2]) : int(bot_off[i2 + 1]),
            int(top_off[i1]) : int(top_off[i1 + 1]),
        ] += pieces[key]
    return big


def _transfer_piece(s_hom, t_hom, r1_top, ind_top, r1_bot, ind_bot):
    """mor2 . flat2^-1 . flat1 . mor1 from the top witness's pushforward
    ind_top = ind_{t1}(r1_top) to the bottom one's ind_bot = ind_{t2}(r1_bot),
    for a span-map apex object with up hom s_hom and down hom t_hom."""
    t1_hom, t2_hom = ind_top.hom, ind_bot.hom
    comp_hom = s_hom.then(t1_hom)
    if comp_hom != t_hom.then(t2_hom):
        raise NumericalFailure("strictness lost in composite homs")
    v_y = restrict_rep(s_hom, r1_top)
    # eta side: the right unit r1_top -> ind_s(v_y), then induced along t1
    # and flattened
    ind_s = induce_rep(s_hom, v_y)
    eta = _unit_kernel(ind_s, r1_top.matrices)
    staged1 = induce_rep(t1_hom, ind_s)
    direct = induce_rep(comp_hom, v_y)
    flat1 = flatten_induction(staged1, direct)
    mor1 = induced_morphism(ind_top, staged1, eta)
    # eps side: the left counit ind_t(restrict(t, r1_bot)) -> r1_bot,
    # induced along t2
    res_t = restrict_rep(t_hom, r1_bot)
    ind_t = induce_rep(t_hom, res_t)
    eps = _counit_kernel(ind_t, r1_bot.matrices)
    staged2 = induce_rep(t2_hom, ind_t)
    direct2 = induce_rep(t_hom.then(t2_hom), res_t)
    flat2 = flatten_induction(staged2, direct2)
    mor2 = induced_morphism(staged2, ind_bot, eps)
    if flat1.shape != flat2.shape or flat1.shape[0] != flat1.shape[1]:
        raise NumericalFailure("staged and direct inductions disagree in size")
    return mor2 @ np.linalg.solve(flat2, flat1) @ mor1


def _check_dual_path(y, lam_top, lam_bot, morphism, tol):
    """Recompute every block by the unit/counit route and compare."""
    rows = [
        (a2, r, w2)
        for a2, pairs in enumerate(lam_top.target_object.positions)
        for r, w2 in pairs
    ]
    cache = {}
    for a2, r, w2 in rows:
        for c in range(len(lam_top.source_object.basis)):
            top_wits = lam_top.details[(r, c)]
            bot_wits = lam_bot.details[(r, c)]
            nrows, ncols = morphism.blocks[(r, c)].shape
            if nrows == 0 and ncols == 0:
                continue
            if (a2, c) not in cache:
                cache[(a2, c)] = _big_transfer(y, top_wits, bot_wits)
            big = cache[(a2, c)]
            # embed/project through the Frobenius identifications: the
            # embedding of W2 attached to f : base -> pullback of W2 is the
            # unit kernel on f^dag W2(a); the projection attached to f2 is the
            # counit kernel on W2(h) f2, divided by
            # kappa = #Aut(a2) / (#Aut(x2) * dim W2)
            projections = []
            lo2 = 0
            for bw in bot_wits:
                ind2 = bw.ind
                kappa = ind2.group.order / (ind2.hom.source.order * w2.dim)
                for f2 in bw.basis:
                    proj = _counit_kernel(ind2, w2.matrices @ f2.entries) / kappa
                    projections.append((lo2, ind2.dim, proj))
                lo2 += ind2.dim
            alt = np.zeros((nrows, ncols), dtype=complex)
            col = 0
            lo = 0
            for tw in top_wits:
                for f in tw.basis:
                    iota = np.zeros((big.shape[1], w2.dim), dtype=complex)
                    iota[lo : lo + tw.ind.dim, :] = _unit_kernel(
                        tw.ind, f.entries.conj().T @ w2.matrices
                    )
                    image = big @ iota
                    for i, (lo2, dim2, proj) in enumerate(projections):
                        alt[i, col] = np.trace(
                            proj @ image[lo2 : lo2 + dim2, :]
                        ) / w2.dim
                    col += 1
                lo += tw.ind.dim
            dev = (
                float(np.max(np.abs(alt - morphism.blocks[(r, c)])))
                if alt.size
                else 0.0
            )
            if dev > tol:
                raise IntertwinerProjectionFailure(
                    f"closed-form and unit/counit paths disagree by {dev} "
                    f"at entry ({r},{c})"
                )


# ---------------------------------------------------------------------------
# compositor


@dataclass
class GammaWitness:
    """Explicit comparison isomorphism at one composite-apex class."""

    class_index: int
    matrix: np.ndarray
    condition_number: float
    module_map_defect: float


@dataclass
class BetaReport:
    span_first: Span
    span_second: Span
    composite: Span
    dims_product: np.ndarray
    dims_composite: np.ndarray
    gammas: list

    @property
    def dims_ok(self):
        return np.array_equal(self.dims_product, self.dims_composite)

    @property
    def max_condition_number(self):
        return max((g.condition_number for g in self.gammas), default=1.0)

    @property
    def max_defect(self):
        return max((g.module_map_defect for g in self.gammas), default=0.0)

    def ok(self, tol=DEFAULT_TOL, cond_cap=1e6):
        return (
            self.dims_ok
            and self.max_condition_number < cond_cap
            and self.max_defect < tol
        )


def beta_compositor(x: Span, xp: Span, seed=DEFAULT_SEED, tol=DEFAULT_TOL,
                    lam_x=None, lam_xp=None) -> BetaReport:
    """Check that composition is respected: the matrix of the composite span
    equals the integer product of the two matrices, and on each composite-apex
    class the comparison map

        k (x) v  ->  s'(k) m^-1 (x) v

    (from induction along the fibred-product projection to induction along the
    middle leg, on the regular representation) is well defined and invertible.
    ``lam_x`` and ``lam_xp`` may pass in the factors' ``lambda_span`` results.
    """
    composite, cat = compose_spans_with_comma(x, xp)
    if lam_x is None:
        lam_x = lambda_span(x, seed=seed, tol=tol)
    if lam_xp is None:
        lam_xp = lambda_span(xp, seed=seed, tol=tol)
    lam_c = lambda_span(composite, seed=seed, tol=tol)
    product = compose_2linear(lam_xp.map, lam_x.map)
    if not np.array_equal(product.dims, lam_c.map.dims):
        raise DimensionMismatch(
            f"composite dims {lam_c.map.dims.tolist()} != product "
            f"{product.dims.tolist()}"
        )
    gammas = []
    for pair in sorted(cat.pair_data):
        gammas.append(_gamma_pair_witness(x, xp, cat, pair))
    return BetaReport(x, xp, composite, product.dims, lam_c.map.dims, gammas)


def _gamma_pair_witness(x: Span, xp: Span, cat: CommaCategory, pair):
    """The comparison map at one apex-object pair (x_o, x'_o): the direct sum
    over its double-coset classes of  k (x) v -> s'(k) m^-1 (x) v  must be an
    isomorphism onto the one-stage induction along the middle leg."""
    a_idx, b_idx = pair
    _, _, class_ids = cat.pair_data[pair]
    t_hom = x.right.hom(a_idx)      # Aut(x_o) -> Aut(c)
    sp_hom = xp.left.hom(b_idx)     # Aut(x'_o) -> Aut(c)
    c_group = x.target.aut(x.right(a_idx))
    w = regular_rep(x.apex.aut(a_idx))
    rhs = induce_rep(t_hom, w)
    lhs_models = []
    for cid in class_ids:
        proj1 = cat.proj_left.hom(cid)
        proj2 = cat.proj_right.hom(cid)
        lhs_models.append(induce_rep(proj2, restrict_rep(proj1, w)))
    total = sum(m.dim for m in lhs_models)
    if total != rhs.dim:
        raise DimensionMismatch(
            f"comparison spaces differ in dimension at pair {pair}: "
            f"{total} vs {rhs.dim}"
        )
    # column (i, j) of a class with representative m is
    # s'(k_i) m^-1 (x) C e_j = s'(k_i) . (m^-1 (x) C e_j)
    blocks = []
    for cid, lhs in zip(class_ids, lhs_models):
        at_m = rhs.tensor_coords(c_group.inv[cat.classes[cid].rep], lhs.invariant_basis)
        cols = rhs.matrices[sp_hom.map[lhs.coset_reps]] @ at_m
        blocks.append(cols.transpose(1, 0, 2).reshape(rhs.dim, lhs.dim))
    gamma = np.concatenate(blocks, axis=1)
    if gamma.size:
        sv = np.linalg.svd(gamma, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise SingularMap(f"comparison map at pair {pair} is singular")
        cond = float(sv[0] / sv[-1])
    else:
        cond = 1.0
    # module-map property: gamma . (+) rho_lhs(l) == rho_rhs(s'(l)) . gamma,
    # one column block of the direct sum at a time, for every l at once
    defect = 0.0
    if gamma.size:
        image = rhs.matrices[sp_hom.map] @ gamma
        off = 0
        for lhs in lhs_models:
            if lhs.dim:
                blk = slice(off, off + lhs.dim)
                d = np.max(np.abs(gamma[:, blk] @ lhs.matrices - image[:, :, blk]))
                defect = max(defect, float(d))
            off += lhs.dim
    return GammaWitness(pair, gamma, cond, defect)


# ---------------------------------------------------------------------------
# block correspondence for horizontal composites


def composite_block_iso(x: Span, xp: Span, lam_x=None, lam_xp=None, lam_c=None,
                        seed=DEFAULT_SEED, tol=DEFAULT_TOL):
    """Per basis pair, the isomorphism from the tensor-product hom bases of the
    matrix product onto the hom bases of the composite span's matrix.

    A column indexed by (middle label (a2,W2), u' in the second span's entry
    basis, u in the first span's entry basis) is sent to the family, over
    composite-apex witnesses (x_o, m, x'_o), of  u' . W2(m^-1) . u  expressed
    in the witness's intertwiner basis.  Returns (composite result, dict of
    matrices per (row, col), comma metadata).
    """
    composite, cat = compose_spans_with_comma(x, xp)
    if lam_x is None:
        lam_x = lambda_span(x, seed=seed, tol=tol)
    if lam_xp is None:
        lam_xp = lambda_span(xp, seed=seed, tol=tol)
    if lam_c is None:
        lam_c = lambda_span(composite, seed=seed, tol=tol)
    mid = lam_x.target_object
    isos = {}
    for r in range(len(lam_c.target_object.basis)):
        for c in range(len(lam_c.source_object.basis)):
            n = int(lam_c.map.dims[r, c])
            cols = []
            for jmid, w2 in chain.from_iterable(mid.positions):
                # (apex object, basis element) pairs of the two factor entries
                ups = [(pw.apex_idx, up) for pw in lam_xp.details[(r, jmid)]
                       for up in pw.basis]
                uqs = [(qw.apex_idx, uq) for qw in lam_x.details[(jmid, c)]
                       for uq in qw.basis]
                for p_idx, up in ups:
                    for q_idx, uq in uqs:
                        col = np.zeros(n, dtype=complex)
                        off = 0
                        for wit in lam_c.details[(r, c)]:
                            cls = cat.classes[wit.apex_idx]
                            if cls.a_idx == q_idx and cls.b_idx == p_idx:
                                m_inv = x.target.aut(cls.c_idx).inv[cls.rep]
                                e = up.entries @ w2.matrices[m_inv] @ uq.entries
                                for i, b in enumerate(wit.basis):
                                    col[off + i] = np.sum(np.conj(b.entries) * e)
                            off += len(wit.basis)
                        cols.append(col)
            mat = (
                np.stack(cols, axis=1) if cols else np.zeros((n, 0), dtype=complex)
            )
            if mat.shape != (n, n):
                raise DimensionMismatch(
                    f"block iso at ({r},{c}) is {mat.shape}, expected square {n}"
                )
            if n:
                sv = np.linalg.svd(mat, compute_uv=False)
                if sv[-1] <= 1e-9 * max(1.0, sv[0]):
                    raise SingularMap(f"block correspondence at ({r},{c}) is singular")
            isos[(r, c)] = mat
    return composite, isos, cat


# ---------------------------------------------------------------------------
# functoriality suite


@dataclass
class SuiteConfig:
    groupoids: list
    spans: list
    spanmaps: list
    tolerance: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    max_pairs: int = 64
    max_triples: int = 6


@dataclass
class CheckResult:
    section: str
    name: str
    passed: bool
    deviation: float = 0.0
    note: str = ""


@dataclass
class FunctorialityReport:
    results: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    @property
    def max_deviation(self):
        return max((r.deviation for r in self.results), default=0.0)

    def section(self, name):
        return [r for r in self.results if r.section == name]

    def summary_lines(self):
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.section}: {r.name} (deviation {r.deviation:.3e})"
                + (f" -- {r.note}" if r.note else "")
            )
        for s in self.skipped:
            lines.append(f"[skip] {s}")
        return lines


def verify_functoriality(config: SuiteConfig) -> FunctorialityReport:
    """Run the coherence and composition checks over a suite of spans and
    span maps; failures are reported, not raised.

    Each input span and span map is linearized at most once, when a check
    first needs it; an input in no checked pair is never linearized.  The
    results live only for this call."""
    report = FunctorialityReport()
    seed, tol = config.seed, config.tolerance
    spans = list(config.spans)
    maps = list(config.spanmaps)

    # each input is linearized once, the first time a check needs it
    @cache
    def lam_span(i):
        return lambda_span(spans[i], seed=seed, tol=tol)

    @cache
    def lam_map(i):
        return lambda_spanmap(maps[i], seed=seed, tol=tol)

    # (a) compositor dimension checks + gamma invertibility
    pairs = [
        (i, j)
        for i, a in enumerate(spans)
        for j, b in enumerate(spans)
        if a.target == b.source
    ][: config.max_pairs]
    for i, j in pairs:
        name = f"span[{i}] ; span[{j}]"
        try:
            rep = beta_compositor(spans[i], spans[j], seed=seed, tol=tol,
                                  lam_x=lam_span(i), lam_xp=lam_span(j))
            report.results.append(
                CheckResult(
                    "compositor",
                    name,
                    rep.ok(tol=max(tol, 1e-7)),
                    rep.max_defect,
                    f"max gamma condition {rep.max_condition_number:.2e}",
                )
            )
        except DimensionMismatch as exc:
            report.results.append(CheckResult("compositor", name, False, note=str(exc)))

    # (b) associator coherence at the dimension level
    triples = [
        (i, j, k)
        for i, a in enumerate(spans)
        for j, b in enumerate(spans)
        for k, c in enumerate(spans)
        if a.target == b.source and b.target == c.source
    ][: config.max_triples]
    for i, j, k in triples:
        name = f"span[{i}] ; span[{j}] ; span[{k}]"
        left = compose_spans(compose_spans(spans[i], spans[j]), spans[k])
        right = compose_spans(spans[i], compose_spans(spans[j], spans[k]))
        dl = lambda_span(left, seed=seed, tol=tol).map.dims
        dr = lambda_span(right, seed=seed, tol=tol).map.dims
        report.results.append(
            CheckResult("associator", name, bool(np.array_equal(dl, dr)))
        )

    # (c) unitor checks at the dimension level
    for i, s in enumerate(spans):
        left_unit = compose_spans(identity_span(s.source), s)
        right_unit = compose_spans(s, identity_span(s.target))
        ok = np.array_equal(
            lambda_span(left_unit, seed=seed, tol=tol).map.dims, lam_span(i).map.dims
        ) and np.array_equal(
            lambda_span(right_unit, seed=seed, tol=tol).map.dims, lam_span(i).map.dims
        )
        report.results.append(CheckResult("unitor", f"span[{i}]", bool(ok)))

    # (d) vertical composition
    vpairs = [
        (i, j)
        for i, a in enumerate(maps)
        for j, b in enumerate(maps)
        if a.bottom == b.top
    ][: config.max_pairs]
    for i, j in vpairs:
        name = f"map[{i}] ; map[{j}]"
        try:
            comp = vertical_compose_spanmaps(maps[i], maps[j])
        except StrictnessViolation as exc:  # genuine non-strictifiable composites
            report.skipped.append(f"vertical {name}: {exc}")
            continue
        lhs = lambda_spanmap(comp, seed=seed, tol=tol).morphism
        rhs = vcompose_2morph(lam_map(i).morphism, lam_map(j).morphism)
        dev = _blocks_deviation(lhs, rhs)
        report.results.append(CheckResult("vertical", name, dev < tol * 10, dev))

    # (e) horizontal composition, compared through the block correspondence
    hpairs = [
        (i, j)
        for i, a in enumerate(maps)
        for j, b in enumerate(maps)
        if a.top.target == b.top.source
    ][: config.max_pairs]
    for i, j in hpairs:
        name = f"map[{i}] * map[{j}]"
        try:
            comp = horizontal_compose_spanmaps(maps[i], maps[j])
        except StrictnessViolation as exc:
            report.skipped.append(f"horizontal {name}: {exc}")
            continue
        lam_comp = lambda_spanmap(comp, seed=seed, tol=tol)
        lam_j = lam_map(j)
        lam_i = lam_map(i)
        hcomp = hcompose_2morph(lam_j.morphism, lam_i.morphism)
        _, iso_top, _ = composite_block_iso(
            maps[i].top, maps[j].top, lam_x=lam_i.source_result,
            lam_xp=lam_j.source_result, lam_c=lam_comp.source_result,
            seed=seed, tol=tol,
        )
        _, iso_bot, _ = composite_block_iso(
            maps[i].bottom, maps[j].bottom, lam_x=lam_i.target_result,
            lam_xp=lam_j.target_result, lam_c=lam_comp.target_result,
            seed=seed, tol=tol,
        )
        dev = 0.0
        for key, blk in lam_comp.morphism.blocks.items():
            lhs = blk @ iso_top[key]
            rhs = iso_bot[key] @ hcomp.blocks[key]
            if lhs.size:
                dev = max(dev, float(np.max(np.abs(lhs - rhs))))
        report.results.append(CheckResult("horizontal", name, dev < tol * 10, dev))

    return report


def _blocks_deviation(a: TwoMorphism, b: TwoMorphism):
    dev = 0.0
    for key, blk in a.blocks.items():
        other = b.blocks[key]
        if blk.shape != other.shape:
            return float("inf")
        if blk.size:
            dev = max(dev, float(np.max(np.abs(blk - other))))
    return dev
