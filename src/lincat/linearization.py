"""The 2-linearization functor on groupoids, spans, and spans of span maps.

A groupoid A is sent to the 2-vector space with one basis label per pair
(object of A, irreducible representation of its automorphism group).  A span
A1 <- X -> A2 is sent to the matrix whose ((a2,W2),(a1,W1)) entry is the
direct sum, over apex objects x lying above (a1, a2), of the space of
Aut(x)-intertwiners between the two pullbacks of W1 and W2; the entry
dimensions are computed by character arithmetic and cross-checked against the
multiplicity of W2 in the induced representation.  A strict span of span maps
is sent to a matrix of linear operators between those intertwiner spaces,
evaluated in closed form as

    f  |->  c(x1, x2) * P(f),      c = |preimage of (x1,x2)| * #Aut(x1),

with P the group-average projection onto intertwiners over the bottom
witness.  A second, independent evaluation path pastes the explicit
unit/counit matrices on induced models and must agree within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    comma_category,
    compose_spans,
    identity_span,
)
from .rep import (
    DEFAULT_SEED,
    DEFAULT_TOL,
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
from .twovect import TwoBasis, TwoLinearMap, TwoMorphism, compose_2linear


@dataclass
class LambdaObject:
    """Basis of (object, irrep) pairs for the 2-vector space of a groupoid."""

    groupoid: Groupoid
    basis: TwoBasis
    irrep_tables: list


def lambda_object(a: Groupoid, seed=DEFAULT_SEED) -> LambdaObject:
    tables = [irreps(aut, seed=seed) for _, aut in a.objects]
    labels = []
    for (name, _), table in zip(a.objects, tables):
        for k, r in enumerate(table):
            labels.append((name, k, r.dim))
    return LambdaObject(a, TwoBasis(labels), tables)


@dataclass
class _EntryWitness:
    """One apex object's contribution to a matrix entry."""

    apex_idx: int
    r1: RepModel  # pullback of W1 along the left leg
    r2: RepModel  # pullback of W2 along the right leg
    basis: list   # intertwiner basis (may be empty)


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
    hom_bases = {}
    witnesses = {}
    details = {}
    # group apex objects by foot pair
    by_feet = {}
    for xi in range(len(x.apex)):
        by_feet.setdefault((x.left(xi), x.right(xi)), []).append(xi)
    for r, (a2_name, w2_idx, _) in enumerate(tgt.basis.labels):
        a2 = x.target.names.index(a2_name)
        w2 = tgt.irrep_tables[a2][w2_idx]
        for c, (a1_name, w1_idx, _) in enumerate(src.basis.labels):
            a1 = x.source.names.index(a1_name)
            w1 = src.irrep_tables[a1][w1_idx]
            entry_wits = []
            basis_cat = []
            total = 0
            for xi in by_feet.get((a1, a2), []):
                r1 = restrict_rep(x.left.hom(xi), w1)
                r2 = restrict_rep(x.right.hom(xi), w2)
                d = hom_dim(r1.character, r2.character)
                # independent route: multiplicity of W2 in the pushforward
                ind = induce_rep(x.right.hom(xi), r1)
                d_ind = hom_dim(ind.character, w2.character)
                if d != d_ind:
                    raise NumericalFailure(
                        f"intertwiner count {d} disagrees with induced "
                        f"multiplicity {d_ind} at apex object {xi}"
                    )
                basis = intertwiner_basis(r1, r2, tol=tol)
                entry_wits.append(_EntryWitness(xi, r1, r2, basis))
                basis_cat.extend(basis)
                total += d
            dims[r, c] = total
            hom_bases[(r, c)] = basis_cat
            witnesses[(r, c)] = [w.apex_idx for w in entry_wits]
            details[(r, c)] = entry_wits
    tmap = TwoLinearMap(src.basis, tgt.basis, dims, hom_bases)
    return LambdaSpanResult(x, tmap, witnesses, src, tgt, details)


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


def _project_onto_intertwiners(f, r1: RepModel, r2: RepModel):
    """(1/#G) sum_g r2(g^-1) f r1(g) — projection onto intertwiners r1 -> r2."""
    g = r1.group
    out = np.zeros_like(np.asarray(f, dtype=complex))
    for a in range(g.order):
        out += r2.matrices[g.inv[a]] @ f @ r1.matrices[a]
    return out / g.order


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
                row0 = 0
                for bw in bot_wits:
                    nrows = len(bw.basis)
                    coeff = coeffs.get((tw.apex_idx, bw.apex_idx))
                    if coeff and ncols and nrows:
                        scale = float(coeff)
                        for j, f in enumerate(tw.basis):
                            pf = scale * _project_onto_intertwiners(
                                f.entries, bw.r1, bw.r2
                            )
                            for i, b2 in enumerate(bw.basis):
                                block[row0 + i, col0 + j] = np.sum(
                                    np.conj(b2.entries) * pf
                                )
                    row0 += nrows
                col0 += ncols
            blocks[(r, c)] = block
    morphism = TwoMorphism(lam_top.map, lam_bot.map, blocks)
    if check:
        _check_dual_path(y, lam_top, lam_bot, morphism, seed=seed, tol=tol)
    return LambdaSpanMapResult(y, morphism, coeffs, lam_top, lam_bot)


# --- secondary evaluation path (unit/counit pasting on induced models) -----


def _big_transfer(y: SpanMap, top_wits, bot_wits):
    """The presheaf-level map between the block models
    (+)_{x1} ind_{t1}(s1*W1)  ->  (+)_{x2} ind_{t2}(s2*W1)
    obtained by pasting the right unit along y.up with the left counit along
    y.down through the staged/direct induction isomorphisms."""
    top_models = [induce_rep(y.top.right.hom(w.apex_idx), w.r1) for w in top_wits]
    bot_models = [induce_rep(y.bottom.right.hom(w.apex_idx), w.r1) for w in bot_wits]
    top_pos = {w.apex_idx: i for i, w in enumerate(top_wits)}
    bot_pos = {w.apex_idx: i for i, w in enumerate(bot_wits)}
    top_off = np.cumsum([0] + [m.dim for m in top_models])
    bot_off = np.cumsum([0] + [m.dim for m in bot_models])
    big = np.zeros((int(bot_off[-1]), int(top_off[-1])), dtype=complex)
    for yi in range(len(y.apex)):
        x1, x2 = y.up(yi), y.down(yi)
        if x1 not in top_pos or x2 not in bot_pos:
            continue
        i1, i2 = top_pos[x1], bot_pos[x2]
        r1_top = top_wits[i1].r1
        r1_bot = bot_wits[i2].r1
        s_hom = y.up.hom(yi)
        t_hom = y.down.hom(yi)
        t1_hom = y.top.right.hom(x1)
        t2_hom = y.bottom.right.hom(x2)
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
        mor1 = induced_morphism(top_models[i1], staged1, eta)
        # eps side: the left counit ind_t(restrict(t, r1_bot)) -> r1_bot,
        # induced along t2
        res_t = restrict_rep(t_hom, r1_bot)
        ind_t = induce_rep(t_hom, res_t)
        eps = _counit_kernel(ind_t, r1_bot.matrices)
        staged2 = induce_rep(t2_hom, ind_t)
        direct2 = induce_rep(t_hom.then(t2_hom), res_t)
        flat2 = flatten_induction(staged2, direct2)
        mor2 = induced_morphism(staged2, bot_models[i2], eps)
        if flat1.shape != flat2.shape or flat1.shape[0] != flat1.shape[1]:
            raise NumericalFailure("staged and direct inductions disagree in size")
        piece = mor2 @ np.linalg.solve(flat2, flat1) @ mor1
        big[
            int(bot_off[i2]) : int(bot_off[i2 + 1]),
            int(top_off[i1]) : int(top_off[i1 + 1]),
        ] += piece
    return big, top_models, bot_models


def _check_dual_path(y, lam_top, lam_bot, morphism, seed, tol):
    """Recompute every block by the unit/counit route and compare."""
    tgt = lam_top.target_object
    src = lam_top.source_object
    cache = {}
    for r, (a2_name, w2_idx, _) in enumerate(tgt.basis.labels):
        a2 = y.top.target.names.index(a2_name)
        w2 = tgt.irrep_tables[a2][w2_idx]
        for c in range(len(src.basis)):
            top_wits = lam_top.details[(r, c)]
            bot_wits = lam_bot.details[(r, c)]
            nrows, ncols = morphism.blocks[(r, c)].shape
            if nrows == 0 and ncols == 0:
                continue
            (a1_name, w1_idx, _) = src.basis.labels[c]
            a1 = y.top.source.names.index(a1_name)
            w1 = src.irrep_tables[a1][w1_idx]
            key = (a1, w1_idx, a2)
            if key not in cache:
                cache[key] = _big_transfer(y, top_wits, bot_wits)
            big, top_models, bot_models = cache[key]
            # embed/project through the Frobenius identifications: the
            # embedding of W2 attached to f : base -> pullback of W2 is the
            # unit kernel on f^dag W2(a); the projection attached to f2 is the
            # counit kernel on W2(h) f2, divided by
            # kappa = #Aut(a2) / (#Aut(x2) * dim W2)
            alt = np.zeros((nrows, ncols), dtype=complex)
            col0 = 0
            for i1, tw in enumerate(top_wits):
                lo = int(np.sum([m.dim for m in top_models[:i1]]))
                for j, f in enumerate(tw.basis):
                    iota = np.zeros((big.shape[1], w2.dim), dtype=complex)
                    iota[lo : lo + top_models[i1].dim, :] = _unit_kernel(
                        top_models[i1], f.entries.conj().T @ w2.matrices
                    )
                    image = big @ iota
                    row0 = 0
                    for i2, bw in enumerate(bot_wits):
                        ind2 = bot_models[i2]
                        kappa = ind2.group.order / (ind2.hom.source.order * w2.dim)
                        lo2 = int(np.sum([m.dim for m in bot_models[:i2]]))
                        for i, f2 in enumerate(bw.basis):
                            proj = _counit_kernel(ind2, w2.matrices @ f2.entries) / kappa
                            val = np.trace(
                                proj @ image[lo2 : lo2 + ind2.dim, :]
                            ) / w2.dim
                            alt[row0 + i, col0 + j] = val
                        row0 += len(bw.basis)
                col0 += len(tw.basis)
            dev = (
                float(np.max(np.abs(alt - morphism.blocks[(r, c)])))
                if alt.size
                else 0.0
            )
            if dev > max(tol, 1e-8):
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


def beta_compositor(x: Span, xp: Span, seed=DEFAULT_SEED, tol=DEFAULT_TOL) -> BetaReport:
    """Check that composition is respected: the matrix of the composite span
    equals the integer product of the two matrices, and on each composite-apex
    class the comparison map

        k (x) v  ->  s'(k) m^-1 (x) v

    (from induction along the fibred-product projection to induction along the
    middle leg, on the regular representation) is well defined and invertible.
    """
    composite = compose_spans(x, xp)
    lam_x = lambda_span(x, seed=seed, tol=tol)
    lam_xp = lambda_span(xp, seed=seed, tol=tol)
    lam_c = lambda_span(composite, seed=seed, tol=tol)
    product = compose_2linear(lam_xp.map, lam_x.map)
    if not np.array_equal(product.dims, lam_c.map.dims):
        raise DimensionMismatch(
            f"composite dims {lam_c.map.dims.tolist()} != product "
            f"{product.dims.tolist()}"
        )
    cat = comma_category(x.right, xp.left)
    gammas = []
    for pair in sorted(cat.pair_data):
        gammas.append(_gamma_pair_witness(x, xp, cat, pair, tol))
    return BetaReport(x, xp, composite, product.dims, lam_c.map.dims, gammas)


def _gamma_pair_witness(x: Span, xp: Span, cat: CommaCategory, pair, tol):
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
    gamma = np.zeros((rhs.dim, total), dtype=complex)
    off = 0
    for cid, lhs in zip(class_ids, lhs_models):
        cls = cat.classes[cid]
        m_inv = c_group.inv[cls.rep]
        dw = lhs.block_dim
        for i, ki in enumerate(lhs.coset_reps):
            elt = c_group.mul(sp_hom(ki), m_inv)
            for j in range(dw):
                base_vec = lhs.invariant_basis[:, j]
                gamma[:, off + i * dw + j] = rhs.tensor_coords(elt, base_vec)
        off += lhs.dim
    if gamma.size:
        sv = np.linalg.svd(gamma, compute_uv=False)
        if sv[-1] <= 1e-12 * max(1.0, sv[0]):
            raise SingularMap(f"comparison map at pair {pair} is singular")
        cond = float(sv[0] / sv[-1])
    else:
        cond = 1.0
    # module-map property: gamma . (+) rho_lhs(l) == rho_rhs(s'(l)) . gamma
    defect = 0.0
    if gamma.size:
        for l in range(xp.apex.aut(b_idx).order):
            act = np.zeros((total, total), dtype=complex)
            off = 0
            for lhs in lhs_models:
                act[off : off + lhs.dim, off : off + lhs.dim] = lhs.matrices[l]
                off += lhs.dim
            d = np.max(np.abs(gamma @ act - rhs.matrices[sp_hom(l)] @ gamma))
            defect = max(defect, float(d))
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
    composite = compose_spans(x, xp)
    if lam_x is None:
        lam_x = lambda_span(x, seed=seed, tol=tol)
    if lam_xp is None:
        lam_xp = lambda_span(xp, seed=seed, tol=tol)
    if lam_c is None:
        lam_c = lambda_span(composite, seed=seed, tol=tol)
    cat = comma_category(x.right, xp.left)
    mid = lam_x.target_object
    isos = {}
    for r in range(len(lam_c.target_object.basis)):
        for c in range(len(lam_c.source_object.basis)):
            n = int(lam_c.map.dims[r, c])
            cols = []
            for jmid, (a2_name, w2_idx, _) in enumerate(mid.basis.labels):
                a2 = x.target.names.index(a2_name)
                w2 = mid.irrep_tables[a2][w2_idx]
                for up in lam_xp.map.hom_bases[(r, jmid)]:
                    for uq in lam_x.map.hom_bases[(jmid, c)]:
                        col = np.zeros(n, dtype=complex)
                        off = 0
                        for wit in lam_c.details[(r, c)]:
                            cls = cat.classes[wit.apex_idx]
                            if x.right(cls.a_idx) == a2:
                                e = _composite_hom_element(
                                    lam_x, lam_xp, cat, cls, jmid, c, r, up, uq, w2
                                )
                                if e is not None:
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


def _composite_hom_element(lam_x, lam_xp, cat, cls, jmid, c, r, up, uq, w2):
    """u' . W2(m^-1) . u at one composite witness, or None when the witness
    does not sit over the pair of witnesses carrying u and u'."""
    x_span = lam_x.span
    # locate u's witness (apex object of x) and u''s witness (apex of xp)
    # by position in the concatenated bases
    x_wits = lam_x.details[(jmid, c)]
    xp_wits = lam_xp.details[(r, jmid)]
    q_pos = _basis_owner(x_wits, uq)
    p_pos = _basis_owner(xp_wits, up)
    if q_pos is None or p_pos is None:
        return None
    if cls.a_idx != q_pos or cls.b_idx != p_pos:
        return None
    m_inv = x_span.target.aut(cls.c_idx).inv[cls.rep]
    return up.entries @ w2.matrices[m_inv] @ uq.entries


def _basis_owner(wits, elem):
    for w in wits:
        for b in w.basis:
            if b is elem:
                return w.apex_idx
    return None


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
    span maps; failures are reported, not raised."""
    report = FunctorialityReport()
    seed, tol = config.seed, config.tolerance
    spans = list(config.spans)
    maps = list(config.spanmaps)

    lam_cache = {}

    def lam(s):
        key = id(s)
        if key not in lam_cache:
            lam_cache[key] = lambda_span(s, seed=seed, tol=tol)
        return lam_cache[key]

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
            rep = beta_compositor(spans[i], spans[j], seed=seed, tol=tol)
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
            lambda_span(left_unit, seed=seed, tol=tol).map.dims, lam(s).map.dims
        ) and np.array_equal(
            lambda_span(right_unit, seed=seed, tol=tol).map.dims, lam(s).map.dims
        )
        report.results.append(CheckResult("unitor", f"span[{i}]", bool(ok)))

    # (d) vertical composition
    from .groupoids import vertical_compose_spanmaps
    from .twovect import vcompose_2morph

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
        rhs = vcompose_2morph(
            lambda_spanmap(maps[i], seed=seed, tol=tol).morphism,
            lambda_spanmap(maps[j], seed=seed, tol=tol).morphism,
        )
        dev = _blocks_deviation(lhs, rhs)
        report.results.append(CheckResult("vertical", name, dev < tol * 10, dev))

    # (e) horizontal composition, compared through the block correspondence
    from .groupoids import horizontal_compose_spanmaps
    from .twovect import hcompose_2morph

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
        hcomp = hcompose_2morph(
            lambda_spanmap(maps[j], seed=seed, tol=tol).morphism,
            lambda_spanmap(maps[i], seed=seed, tol=tol).morphism,
        )
        _, iso_top, _ = composite_block_iso(
            maps[i].top, maps[j].top, lam_c=lam_comp.source_result, seed=seed, tol=tol
        )
        _, iso_bot, _ = composite_block_iso(
            maps[i].bottom, maps[j].bottom, lam_c=lam_comp.target_result,
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
