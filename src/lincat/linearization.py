"""The 2-linearization functor on groupoids, spans, and spans of span maps.

A groupoid A is sent to the 2-vector space with one basis label per pair
(object of A, irreducible representation of its automorphism group).  A span
A1 <- X -> A2 is sent to the matrix whose ((a2,W2),(a1,W1)) entry is the
direct sum, over apex objects x lying above (a1, a2), of the space of
Aut(x)-intertwiners between the two pullbacks of W1 and W2.  An apex object's
summands depend only on its leg homs s, t (whose targets fix the feet's
groups, hence their irreps), and ``lambda_span`` works in two layers:

* **Characters, eagerly.**  The entry dims and their witnesses (every apex
  object over the entry, in increasing order) are class-function arithmetic:
  an apex object adds conj(B) diag(|c|/|Aut x|) A^T, with A and B the feet's
  irreducible characters pulled back along s and t to the classes c of
  Aut(x).  Each block is cross-checked against <Ind_t Res_s chi1, chi2> on
  the right foot, with the induced character from the class map of t; both
  routes must be integral and agree.  One block per leg key is computed:
  the leg homs' value keys (``GroupHom.key``, whose feet's keys fix their
  irreps) and the seed.
* **Models, on first access.**  ``details`` and ``map.hom_bases`` are built
  together the first time either is read, once per leg key:
  the pullbacks s*W1, t*W2, the pushforwards t_*s*W1 and the intertwiner
  bases, with the projector's rank check, the induced-multiplicity
  cross-check and a check of each entry's basis length against the
  character dims.  Every apex object with that key is a witness sharing
  those models, which the dual path below reads.  So the models' errors,
  such as ``InputTooLarge`` from the intertwiner projector, arise on that
  first access rather than in ``lambda_span``.  An entry's basis is its
  witnesses' bases concatenated in witness order, and each witness records
  where its own begins (``start``), once: every 2-cell placed on that basis
  reads its rows and columns from it.

A strict span of span maps is sent to a matrix of linear operators between
those intertwiner spaces, evaluated in closed form as

    f  |->  c(x1, x2) * P(f),      c = |preimage of (x1,x2)| * #Aut(x1),

with P the group-average projection onto intertwiners over the bottom
witness.  The restricted irreps are unitary, so P is an orthogonal
projection, and the bottom witness's orthonormal basis lies in its image:
the coordinates of P(f) in that basis are those of f.  So each block is a
weighted Gram matrix, c(x1, x2) <b, f> for the entry's bottom basis
elements b (of x2) and top ones f (of x1), one product per entry.

A second, independent evaluation path (the dual path) pastes the explicit
unit/counit matrices on induced models and must agree within tolerance.  It
works one (top, bottom) witness pair at a time: the pair's transfer T
between the two pushforwards is the sum of the unit/counit pieces of the
span-map apex objects over it, and its sub-block is one contraction of T
with the stacked unit embeddings of the top basis and the counit projections
of the bottom one.  A piece depends only on its up and down homs and its
witnesses' models, so apex objects that share them share one piece.  Each
piece is the unit/counit pasting in closed form: one gather of tensor
coordinates in the bottom pushforward per coset of the top one, with no
induced model of its own.

The compositor beta_{x,x'} : Lambda(x') . Lambda(x) => Lambda(x;x') is a
``TwoMorphism`` (``composite_block_iso``), with its columns in the summand
layout of ``twovect.summand_offsets``, the one that ``hcompose_2morph``
writes; the horizontal check is its naturality.  Its comparison maps gamma
are Mackey bijections of finite sets, which ``beta_compositor`` checks
exactly, from the group tables, with no model.  Each kind of numerical check
has one routine: 2-cells compare by ``_blocks_deviation``, invertibility by
``rep._condition``, integrality by ``rep._integral``.  No span's result reads
a tolerance: one bounds only the dual path and the suite's float checks.

Outside a run, each ``lambda_span`` call computes its dims blocks and, once
read, its models afresh; a span map's equal top and bottom spans share one
result.  A run (the memo of ``groupoids``) shares dims blocks and leg
entries by leg key and dual-path pieces by their homs' value keys and
models, and keeps the linearizations of the given spans and span maps and
the compositor of two given spans; no composite's linearization.
``verify_functoriality`` opens one given its spans, its span maps and their
top and bottom spans, and runs one check per law in one loop, which gives a
failed check the disagreement its error measured, or inf.  Only the
vertical and horizontal checks build models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import islice

import numpy as np

from .errors import (
    DimensionMismatch,
    IntertwinerProjectionFailure,
    NumericalFailure,
    RankMismatch,
    SingularMap,
    SpanMismatch,
    StrictnessViolation,
)
from .groupoids import (
    _RUN,
    CommaCategory,
    Groupoid,
    Span,
    SpanMap,
    _once,
    _run_memo,
    _shared,
    compose_spans,
    horizontal_compose_spanmaps,
    identity_span,
    vertical_compose_spanmaps,
)
from .groups import GroupHom
from .rep import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    InducedRep,
    RepModel,
    _class_pairing,
    _condition,
    _counit_kernel,
    _integral,
    _unit_kernel,
    hom_dim,
    induce_rep,
    intertwiner_basis,
    irreps,
    restrict_rep,
)
from .twovect import (
    TwoBasis,
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    hcompose_2morph,
    summand_offsets,
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
    start: int  # position of its first basis element in the entry's basis
    r1: RepModel  # pullback of W1 along the left leg
    r2: RepModel  # pullback of W2 along the right leg
    basis: np.ndarray  # intertwiner basis, (rank, r2.dim, r1.dim); rank may be 0
    ind: InducedRep  # pushforward of r1 along the right leg


@dataclass
class LambdaSpanResult:
    span: Span
    map: TwoLinearMap
    witnesses: dict
    source_object: LambdaObject
    target_object: LambdaObject
    seed: int   # the irreps seed the result was built with
    # builds the per-entry witnesses' models once, on first call
    _models: object = field(repr=False)

    @cached_property
    def details(self):
        """Per entry, the ``_EntryWitness`` of each of its apex objects, with
        their models, intertwiner bases and starts in ``map.hom_bases``.
        Built on the first access of ``details`` or ``map.hom_bases``, which
        checks every entry's basis length against ``map.dims``."""
        self.map.hom_bases  # builds the models through their length check
        return self._models()


def lambda_span(x: Span, seed=DEFAULT_SEED) -> LambdaSpanResult:
    """Matrix of intertwiner spaces for a span.

    ``map.dims`` and ``witnesses`` come from characters; ``details`` and
    ``map.hom_bases`` (the models and intertwiner bases) are built on first
    access."""
    return _for_span(_once(("lambda_span", seed), (x,), lambda: _lambda_span(x, seed)), x)


def _for_span(lam, x):
    """``lam``, the result of a span equal to x, as x's: an equal span may
    have another comma and factors."""
    return lam if lam.span is x else replace(lam, span=x)


def _lambda_span(x: Span, seed) -> LambdaSpanResult:
    """The ``lambda_span`` builder."""
    src = lambda_object(x.source, seed=seed)
    tgt = lambda_object(x.target, seed=seed)
    nrow, ncol = len(tgt.basis), len(src.basis)
    dims = np.zeros((nrow, ncol), dtype=np.int64)
    witnesses = {(r, c): [] for r in range(nrow) for c in range(ncol)}
    # an apex object's dims and models depend only on its leg key; a run
    # shares both by that key
    blocks, legs = _shared("dims"), _shared("legs")
    placed = []  # per apex object: its leg key and its block's corner
    first = {}   # leg key -> the arguments of its leg entries
    # apex objects in increasing order, so each entry's witnesses ascend
    for xi in range(len(x.apex)):
        rows, cols = tgt.positions[x.right(xi)], src.positions[x.left(xi)]
        s_hom, t_hom = x.left.hom(xi), x.right.hom(xi)
        key = (s_hom.key, t_hom.key, seed)
        if key not in first:
            first[key] = (s_hom, t_hom, [w for _, w in cols], [w for _, w in rows], xi)
        if key not in blocks:
            blocks[key] = _leg_dims(*first[key])
        # an object's basis positions are consecutive
        r0, c0 = rows[0][0], cols[0][0]
        placed.append((key, r0, c0))
        dims[r0 : r0 + len(rows), c0 : c0 + len(cols)] += blocks[key]
        for r in range(r0, r0 + len(rows)):
            for c in range(c0, c0 + len(cols)):
                witnesses[(r, c)].append(xi)
    # the models close over the legs dict, not the run memo, so a memo whose
    # results hold them is still freed by reference counting
    models = cache(lambda: _entry_models(placed, first, legs, witnesses))

    def hom_bases():
        return {k: [b for w in wits for b in w.basis] for k, wits in models().items()}

    tmap = TwoLinearMap(src.basis, tgt.basis, dims, hom_bases)
    return LambdaSpanResult(x, tmap, witnesses, src, tgt, seed, models)


def _characters(table):
    """The characters of a list of irreps, one row each."""
    return np.array([w.character.values for w in table])


def _pulled_characters(table, hom: GroupHom):
    """Characters of the irreps ``table`` of hom.target pulled back along
    ``hom``: one row per irrep, one column per conjugacy class of its source."""
    reps = [c[0] for c in hom.source.classes]
    return _characters(table)[:, hom.target.class_of[hom.map[reps]]]


def _restricted_pairing(s_hom, t_hom, irreps1, irreps2):
    """<Res_s chi1, Res_t chi2> on the apex group X, for every pair of feet
    irreps: (conj B) diag(|c|/|X|) A^T over the classes c of X."""
    return _class_pairing(s_hom.source, _pulled_characters(irreps1, s_hom),
                          _pulled_characters(irreps2, t_hom))


def _induced_pairing(s_hom, t_hom, irreps1, irreps2):
    """<Ind_t Res_s chi1, chi2> on the right foot H, for every pair of feet
    irreps, with the induced character from the class map of t:
    Ind_t psi(C) = |H| / (|X| |C|) sum over classes c of X with t(c) in C
    of |c| psi(c)."""
    x, h = s_hom.source, t_hom.target
    pulled = _pulled_characters(irreps1, s_hom) * x.class_sizes
    image = h.class_of[t_hom.map[[c[0] for c in x.classes]]]
    pushed = np.zeros((len(h.classes), len(irreps1)), dtype=complex)
    np.add.at(pushed, image, pulled.T)
    pushed *= (h.order / (x.order * h.class_sizes))[:, None]
    return _class_pairing(h, pushed.T, _characters(irreps2))


def _leg_dims(s_hom, t_hom, irreps1, irreps2, xi):
    """The (k2, k1) block of intertwiner dims of an apex object with leg homs
    s_hom, t_hom, for W1 = irreps1[k1] and W2 = irreps2[k2], by two routes
    that must agree (Frobenius reciprocity): the pairing of the two
    restrictions on the apex group, and that of the pushforward with W2 on
    the right foot.  ``xi`` is the first such apex object, named in errors."""
    routes = [_integral(pairing(s_hom, t_hom, irreps1, irreps2), f" at apex object {xi}")
              for pairing in (_restricted_pairing, _induced_pairing)]
    if not np.array_equal(*routes):
        raise NumericalFailure(
            f"restricted character pairings {routes[0].tolist()} disagree with "
            f"induced multiplicities {routes[1].tolist()} at apex object {xi}"
        )
    return routes[0]


def _entry_models(placed, first, legs, witnesses):
    """Per entry (key of ``witnesses``), the ``_EntryWitness`` of each apex
    object over it, from the leg entries kept in ``legs`` by each object's
    leg key in ``placed``; ``first`` holds each key's leg-entry arguments.
    The witnesses ascend, so each one starts where the one before it ends:
    the entry's basis is theirs concatenated."""
    details = {k: [] for k in witnesses}
    for xi, (key, r0, c0) in enumerate(placed):
        if key not in legs:
            legs[key] = _leg_entries(*first[key])
        for k2, k1, _, r1, r2, basis, ind in legs[key]:
            wits = details[(r0 + k2, c0 + k1)]
            start = wits[-1].start + len(wits[-1].basis) if wits else 0
            wits.append(_EntryWitness(xi, start, r1, r2, basis, ind))
    return details


def _leg_entries(s_hom, t_hom, irreps1, irreps2, xi):
    """The entries (k2, k1, dim, s*W1, t*W2, intertwiner basis, t_*s*W1) of an
    apex object with leg homs s_hom, t_hom, for W1 = irreps1[k1] and
    W2 = irreps2[k2] the irreps of its feet's groups; ``xi`` is the first
    such apex object, named in the cross-check's error."""
    pulled2 = [(k2, w2, restrict_rep(t_hom, w2)) for k2, w2 in enumerate(irreps2)]
    entries = []
    for k1, w1 in enumerate(irreps1):
        r1 = restrict_rep(s_hom, w1)
        ind = induce_rep(t_hom, r1)
        for k2, w2, r2 in pulled2:
            # the basis's length is the character count: intertwiner_basis
            # raises RankMismatch otherwise
            basis = intertwiner_basis(r1, r2)
            d = len(basis)
            # independent route: multiplicity of W2 in the pushforward
            d_ind = hom_dim(ind.character, w2.character)
            if d != d_ind:
                raise NumericalFailure(
                    f"intertwiner count {d} disagrees with induced "
                    f"multiplicity {d_ind} at apex object {xi}"
                )
            entries.append((k2, k1, d, r1, r2, basis, ind))
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


def lambda_spanmap(y: SpanMap, seed=DEFAULT_SEED, tol=DEFAULT_TOL,
                   check=True) -> LambdaSpanMapResult:
    """Matrix of linear operators for a strict span of span maps.

    Blocks run from the intertwiner spaces of the top span to those of the
    bottom span.  An entry's block is c(x1, x2) <b, f> at each bottom basis
    element b of witness x2 and top basis element f of witness x1: P is an
    orthogonal projection whose image holds b, so <b, P f> = <b, f>, and the
    block is the entry's weighted Gram matrix.  When ``check`` is set, the
    same blocks are recomputed by pasting unit/counit matrices on induced
    models and the two answers must agree within ``tol``.  Equal top and
    bottom spans are linearized once.  Outside a run the call opens one given
    y, y.top and y.bottom, so the two share dims blocks and models by leg key.
    """
    if _RUN.get() is None:
        with _run_memo([y, y.top, y.bottom]):
            return _lambda_spanmap(y, seed, tol, check)
    res = _once(("lambda_spanmap", seed, tol, check), (y,),
                lambda: _lambda_spanmap(y, seed, tol, check))
    return res if res.spanmap is y else replace(
        res, spanmap=y, source_result=lambda_span(y.top, seed=seed),
        target_result=lambda_span(y.bottom, seed=seed))


def _lambda_spanmap(y: SpanMap, seed, tol, check) -> LambdaSpanMapResult:
    """The ``lambda_spanmap`` builder."""
    lam_top = lambda_span(y.top, seed=seed)
    lam_bot = (_for_span(lam_top, y.bottom) if y.bottom == y.top
               else lambda_span(y.bottom, seed=seed))
    exact = degroupoidify_2cell(y)
    coeffs = {(x1, x2): q for x2, row in enumerate(exact)
              for x1, q in enumerate(row) if q}
    weight = np.array(exact, dtype=float)  # [x2, x1]
    blocks = {}
    # entries without rows or columns stay zero blocks of TwoMorphism
    for (r, c), top_wits in lam_top.details.items():
        if lam_bot.map.dims[r, c] and lam_top.map.dims[r, c]:
            top, tops = _stacked(top_wits)
            bot, bots = _stacked(lam_bot.details[(r, c)])
            blocks[(r, c)] = weight[bots[:, None], tops] * (bot.conj() @ top.T)
    morphism = TwoMorphism(lam_top.map, lam_bot.map, blocks)
    if check:
        _check_dual_path(y, lam_top, lam_bot, morphism, tol=tol)
    return LambdaSpanMapResult(y, morphism, coeffs, lam_top, lam_bot)


def _stacked(wits):
    """An entry's basis, one flattened element per row in the order of its
    witnesses, and the apex object of each row."""
    sizes = [len(w.basis) for w in wits]
    basis = np.concatenate([w.basis for w in wits]).reshape(sum(sizes), -1)
    return basis, np.repeat(np.array([w.apex_idx for w in wits]), sizes)


# --- secondary evaluation path (unit/counit pasting on induced models) -----


def _dual_path(y: SpanMap, lam_top, lam_bot) -> TwoMorphism:
    """Every block of ``lambda_spanmap(y)`` by pasting the right unit along
    y.up with the left counit along y.down, as a 2-cell from ``lam_top.map``
    to ``lam_bot.map``, one witness pair at a time.

    A pair (top witness tw, bottom witness bw) of an entry, both with a
    nonempty basis, fills its sub-block only when some span-map apex object
    lies over (tw, bw).  Its transfer T, from tw's pushforward to bw's, is
    the sum of those apex objects' ``_transfer_piece``s.  A top basis element
    f embeds W2 into tw's pushforward by the unit kernel on f^dag W2(a); a
    bottom one f2 projects back by the counit kernel on W2(h) f2, divided by
    kappa = #Aut(a2) / (#Aut(x2) * dim W2).  The sub-block is the trace of
    projection . T . embedding over W2, divided by dim W2, in one contraction.
    A piece depends only on its homs and models, so each distinct one is
    built once per run memo, keyed by its models and its homs' value keys."""
    pieces = _shared("pieces")
    over = {}  # (x1, x2) -> the span-map apex objects over them
    hom_keys = []  # per apex object: its up and down homs' value keys
    for yi in range(len(y.apex)):
        over.setdefault((y.up(yi), y.down(yi)), []).append(yi)
        hom_keys.append((y.up.hom(yi).key, y.down.hom(yi).key))
    rows = [pos for pairs in lam_top.target_object.positions for pos in pairs]
    transfers = {}  # (top and bottom pushforwards, x1, x2) -> T
    blocks = {}
    for r, w2 in rows:
        for c in range(len(lam_top.source_object.basis)):
            nrows, ncols = int(lam_bot.map.dims[r, c]), int(lam_top.map.dims[r, c])
            if not (nrows and ncols):
                continue
            tops = [tw for tw in lam_top.details[(r, c)] if len(tw.basis)]
            block = np.zeros((nrows, ncols), dtype=complex)
            for bw in lam_bot.details[(r, c)]:
                partners = [(tw, yis) for tw in tops
                            if (yis := over.get((tw.apex_idx, bw.apex_idx)))]
                if not (partners and len(bw.basis)):
                    continue
                ind2, nb = bw.ind, len(bw.basis)
                kappa = ind2.group.order / (ind2.hom.source.order * w2.dim)
                # P[b]: the projection onto W2 of bw's b-th basis element
                mats = w2.matrices[:, None] @ bw.basis
                mats = mats.reshape(len(mats), nb * w2.dim, -1)
                proj = _counit_kernel(ind2, mats).reshape(nb, w2.dim, ind2.dim) / kappa
                for tw, yis in partners:
                    # E[t]: the embedding of W2 of tw's t-th basis element
                    embed = _unit_kernel(tw.ind, np.einsum(
                        "tjl,ajk->altk", tw.basis.conj(), w2.matrices)).transpose(1, 0, 2)
                    # the irreps W2 of one object share the pushforwards,
                    # so their entries share T
                    tkey = (tw.ind, ind2, tw.apex_idx, bw.apex_idx)
                    if tkey not in transfers:
                        t = np.zeros((ind2.dim, tw.ind.dim), dtype=complex)
                        for yi in yis:
                            # the models fix the homs' targets, and RepModels
                            # hash by identity: shared models give equal keys,
                            # and the run's shared leg entries keep the same
                            # models for the whole run
                            key = (hom_keys[yi], tw.r1, tw.ind, bw.r1, ind2)
                            if key not in pieces:
                                pieces[key] = _transfer_piece(
                                    y.up.hom(yi), y.down.hom(yi), *key[1:])
                            t += pieces[key]
                        transfers[tkey] = t
                    block[bw.start : bw.start + nb,
                          tw.start : tw.start + len(tw.basis)] = np.einsum(
                        "bij,jk,tki->bt", proj, transfers[tkey], embed) / w2.dim
            blocks[(r, c)] = block
    return TwoMorphism(lam_top.map, lam_bot.map, blocks)


def _transfer_piece(s_hom, t_hom, r1_top, ind_top, r1_bot, ind_bot):
    """The transfer from the top witness's pushforward
    ind_top = ind_{t1}(r1_top) to the bottom one's ind_bot = ind_{t2}(r1_bot),
    for a span-map apex object Y with up hom s_hom and down hom t_hom:

        h_i (x) C e_j  |->  (1/#Y) sum_{x in X1} h_i t1(x)^-1 (x) x.C e_j,

    on the basis of ind_top (cosets h_i, invariant basis C), with the right
    side's tensors in ind_bot.  This is the pasting of the right unit
    r1_top -> ind_s(s* r1_top), induced along t1, with the left counit
    ind_t(t* r1_bot) -> r1_bot, induced along t2.  The unit sends C e_j to
    (1/#Y) sum_x x^-1 (x) x.C e_j.  Strictness (s;t1 = t;t2 and
    s* r1_top = t* r1_bot) lets both staged inductions flatten into the one
    induction along s;t1: the flattening along t1 sends h (x) (g (x) v) to
    h t1(g) (x) v, and the inverse flattening along t2 followed by the
    induced counit sends h (x) v to h (x) v in ind_bot.  So the piece is one
    gather of tensor coordinates in ind_bot per top coset.  Raises
    NumericalFailure when either strictness equation fails."""
    t1_hom = ind_top.hom
    if s_hom.then(t1_hom) != t_hom.then(ind_bot.hom):
        raise NumericalFailure("strictness lost in composite homs")
    if not np.array_equal(restrict_rep(s_hom, r1_top).matrices,
                          restrict_rep(t_hom, r1_bot).matrices):
        raise NumericalFailure("strictness lost in restricted models")
    x1 = s_hom.target
    elts = ind_top.group.mult[ind_top.coset_reps][:, t1_hom.map[x1.inv]]
    vecs = r1_top.matrices @ ind_top.invariant_basis
    cols = [ind_bot.tensor_coords(row, vecs) for row in elts]
    return np.concatenate(cols, axis=1) / s_hom.source.order


def _check_dual_path(y, lam_top, lam_bot, morphism, tol):
    """Recompute every block by the unit/counit route (``_dual_path``) and
    raise IntertwinerProjectionFailure with the disagreement (``deviation``)
    and its worst entry, unless it agrees with ``morphism`` within ``tol``
    (NaN never does)."""
    dev, key = _blocks_deviation(_dual_path(y, lam_top, lam_bot), morphism)
    if not dev <= tol:
        raise IntertwinerProjectionFailure(
            f"closed-form and unit/counit paths disagree by {dev} "
            f"at entry ({key[0]},{key[1]})", deviation=dev
        )


# ---------------------------------------------------------------------------
# compositor


@dataclass
class GammaWitness:
    """The comparison map at one apex-object pair, judged exactly: ``defect``
    counts the fibred-product pairs that fail their equation plus the
    elements of Aut(c) not hit by exactly one orbit."""

    pair: tuple
    defect: int

    @property
    def condition_number(self):
        """1.0 when the map is a bijection of orbit bases, so a permutation
        matrix; inf otherwise."""
        return 1.0 if self.defect == 0 else float("inf")


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
        return float(max((g.defect for g in self.gammas), default=0))

    def ok(self):
        return self.dims_ok and self.max_defect == 0


def beta_compositor(x: Span, xp: Span, seed=DEFAULT_SEED) -> BetaReport:
    """Check that composition is respected, reporting failures rather than
    raising them: the matrix of the composite span must equal the integer
    product of the two matrices, and at each apex-object pair (x_o, x'_o)
    over c the comparison map gamma must be a bijection.  With H = Aut(x_o),
    K = Aut(x'_o) and F_m the fibred product at a double-coset
    representative m, gamma is the Mackey map

        (+)_m  K x_{F_m} H  ->  Aut(c),    (k, h)  |->  s'(k) m^-1 t(h).

    On the regular representation of H it sends the orbit basis of the
    inductions along the fibred-product projections to that of the induction
    along the middle leg, so it is invertible exactly when this map of finite
    sets is a bijection, which is checked from the tables alone, and the
    dims come from characters, rounded by ``rep._integral``: no tolerance
    enters.  The three spans are linearized with ``seed``, so that inside
    ``verify_functoriality`` they are the results the other checks read."""
    composite = compose_spans(x, xp)
    cat = composite.comma
    lam_x = lambda_span(x, seed=seed)
    lam_xp = lambda_span(xp, seed=seed)
    lam_c = lambda_span(composite, seed=seed)
    product = compose_2linear(lam_xp.map, lam_x.map)
    gammas = [_gamma_pair_witness(x, xp, cat, pair) for pair in sorted(cat.pair_data)]
    return BetaReport(x, xp, composite, product.dims, lam_c.map.dims, gammas)


def _gamma_pair_witness(x: Span, xp: Span, cat: CommaCategory, pair):
    """The comparison map at one apex-object pair (x_o, x'_o), from the
    tables: every pair (h, k) of each class's fibred product F_m must solve
    t(h) m = m s'(k), so that (k, h) -> s'(k) m^-1 t(h) is constant on the
    free F_m-orbits of K x H; each value it reaches must be hit |F_m| times,
    so that its fibre is one orbit; and summed over the classes, every
    element of Aut(c) must be reached by exactly one orbit."""
    a_idx, b_idx = pair
    _, _, class_ids = cat.pair_data[pair]
    t = x.right.hom(a_idx).map      # Aut(x_o) -> Aut(c)
    sp = xp.left.hom(b_idx).map     # Aut(x'_o) -> Aut(c)
    c = x.target.aut(x.right(a_idx))
    unsolved = 0
    orbits = np.zeros(c.order, dtype=np.int64)  # classes reaching each element
    uneven = np.zeros(c.order, dtype=bool)      # a fibre that is not one orbit
    for cid in class_ids:
        m = cat.classes[cid].rep
        hs, ks = cat.proj_left.hom(cid).map, cat.proj_right.hom(cid).map
        unsolved += int(np.count_nonzero(c.mult[t[hs], m] != c.mult[m, sp[ks]]))
        img = c.mult[c.mult[sp, c.inv[m]][:, None], t]  # img[k, h]
        counts = np.bincount(img.ravel(), minlength=c.order)
        reached = counts > 0
        orbits += reached
        uneven |= reached & (counts != len(hs))
    return GammaWitness(pair, unsolved + int(np.count_nonzero(uneven | (orbits != 1))))


def _beta(lam_c: LambdaSpanResult) -> TwoMorphism:
    """``composite_block_iso(lam_c)``, kept by its factors' keys, not the composite's."""
    return _once(("composite_block_iso", lam_c.seed), lam_c.span.factors,
                 lambda: composite_block_iso(lam_c))


# ---------------------------------------------------------------------------
# the compositor as a 2-cell


def composite_block_iso(lam_c: LambdaSpanResult) -> TwoMorphism:
    """The compositor beta_{x,xp} : Lambda(xp) . Lambda(x) => Lambda(x;xp), a
    ``TwoMorphism`` from ``compose_2linear`` of the factors' maps to the
    composite's.  ``lam_c`` is ``lambda_span`` of a span built by
    ``compose_spans(x, xp)``, which names x, xp and the comma category
    (``factors``, ``comma``); the factors are linearized with lam_c's seed,
    so every basis is one of that run.  A column, at
    ``summand_offsets`` of the middle label (a2,W2) in the entry, then
    indexed by (u' in xp's entry basis, u in x's), is sent at each composite
    witness (x_o, m, x'_o) with u' from x'_o and u from x_o to
    u' . W2(m^-1) . u in the witness's basis, whose rows start at the
    witness's ``start``: one Frobenius-coordinate product per witness.
    Raises SingularMap unless every block is invertible."""
    composite = lam_c.span
    cat = composite.comma
    if cat is None or composite.factors is None:
        raise SpanMismatch("lam_c does not linearize a span built by compose_spans")
    x, xp = composite.factors
    lam_x = lambda_span(x, seed=lam_c.seed)
    lam_xp = lambda_span(xp, seed=lam_c.seed)
    product = compose_2linear(lam_xp.map, lam_x.map)
    offsets = summand_offsets(lam_xp.map, lam_x.map)
    mid = lam_x.target_object.positions
    # per entry of each factor, its witnesses by apex object
    by_apex = [{k: {w.apex_idx: w for w in wits} for k, wits in lam.details.items()}
               for lam in (lam_xp, lam_x)]
    blocks = {}
    for (r, c), wits in lam_c.details.items():
        n, ncols = int(lam_c.map.dims[r, c]), int(product.dims[r, c])
        if ncols != n:
            raise DimensionMismatch(
                f"block iso at ({r},{c}) is {(n, ncols)}, expected square {n}"
            )
        if not n:
            continue
        mat = np.zeros((n, n), dtype=complex)
        for wit in wits:
            rank = len(wit.basis)
            if not rank:
                continue
            cls = cat.classes[wit.apex_idx]
            m_inv = x.target.aut(cls.c_idx).inv[cls.rep]
            rows = mat[wit.start : wit.start + rank]
            for jmid, w2 in mid[cls.c_idx]:
                pw, qw = by_apex[0][r, jmid][cls.b_idx], by_apex[1][jmid, c][cls.a_idx]
                if not (len(pw.basis) and len(qw.basis)):
                    continue
                # a view of the summand's columns as (u' in xp's entry basis, u in x's)
                o, dq = offsets[r, jmid, c], lam_x.map.dims[jmid, c]
                summand = rows[:, o : o + lam_xp.map.dims[r, jmid] * dq].reshape(rank, -1, dq)
                summand[:, pw.start : pw.start + len(pw.basis),
                        qw.start : qw.start + len(qw.basis)] = np.einsum(
                    "kab,pax,xy,qyb->kpq", wit.basis.conj(), pw.basis,
                    w2.matrices[m_inv], qw.basis)
        _condition(mat, f"block correspondence at ({r},{c}) is singular")
        blocks[(r, c)] = mat
    return TwoMorphism(product, lam_c.map, blocks)


# ---------------------------------------------------------------------------
# functoriality suite


# most composable pairs (per section) and triples that one verification run
# checks, in enumeration order
MAX_PAIRS = 64
MAX_TRIPLES = 6

# the errors by which the dual path, the compositor 2-cell and the rank
# decisions of the models they read fail a check; verify_functoriality
# records them as failed checks
_CHECK_FAILURES = (IntertwinerProjectionFailure, SingularMap, DimensionMismatch,
                   RankMismatch)


@dataclass
class SuiteConfig:
    groupoids: list
    spans: list
    spanmaps: list
    tolerance: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED


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
        """The largest deviation of any check, failed ones included, or NaN."""
        return float(np.max([r.deviation for r in self.results], initial=0.0))

    def section(self, name):
        return [r for r in self.results if r.section == name]

    def summary_lines(self):
        lines = [f"[{'pass' if r.passed else 'FAIL'}] {r.section}: {r.name} "
                 f"(deviation {r.deviation:.3e})" + (f" -- {r.note}" if r.note else "")
                 for r in self.results]
        return lines + [f"[skip] {s}" for s in self.skipped]


def verify_functoriality(config: SuiteConfig) -> FunctorialityReport:
    """Run the coherence and composition checks over a suite of spans and
    span maps; failures are reported, not raised.  One loop runs every
    section's cases, each through its law's check (``_sections``), and skips
    a case whose composite cannot be made strict.  A disagreeing dual path,
    a singular or misshapen compositor block, or an intertwiner rank that
    fails its check while the models are built (``RankMismatch``) fails its
    check, in any section, with the error's message as the note and the
    disagreement it measured as the deviation, or inf when it measured none;
    other errors, such as ``InputTooLarge``, propagate.

    Its run memo (see the module docstring) is given the spans, the span maps
    and their top and bottom spans, and lives only for the call."""
    inputs = [*config.spans, *config.spanmaps]
    inputs += [x for y in config.spanmaps for x in (y.top, y.bottom)]
    report = FunctorialityReport()
    with _run_memo(inputs):
        for section, check, cases, label in _sections(config):
            for case in cases:
                name = label.format(*case)
                try:
                    passed, dev, note = check(config, *case)
                except StrictnessViolation as exc:
                    report.skipped.append(f"{section} {name}: {exc}")
                    continue
                except _CHECK_FAILURES as exc:
                    dev = getattr(exc, "deviation", None)
                    passed, dev, note = False, float("inf") if dev is None else dev, str(exc)
                report.results.append(CheckResult(section, name, passed, dev, note))
    return report


def _sections(config: SuiteConfig):
    """Per section, in report order: its name, its law's check (suite and a
    case's indices -> (passed, deviation, note)), its cases
    (lazily, in enumeration order) and the format of a case's name."""
    spans, maps = config.spans, config.spanmaps
    compositor = _pairs(spans, lambda a, b: a.target == b.source)
    triples = ((i, j, k) for i, j in _pairs(spans, lambda a, b: a.target == b.source)
               for k, c in enumerate(spans) if spans[j].target == c.source)
    vertical = _pairs(maps, lambda a, b: a.bottom == b.top)
    horizontal = _pairs(maps, lambda a, b: a.top.target == b.top.source)
    return (("compositor", _check_compositor, islice(compositor, MAX_PAIRS),
             "span[{}] ; span[{}]"),
            ("associator", _check_associator, islice(triples, MAX_TRIPLES),
             "span[{}] ; span[{}] ; span[{}]"),
            ("unitor", _check_unitor, ((i,) for i in range(len(spans))), "span[{}]"),
            ("vertical", _check_vertical, islice(vertical, MAX_PAIRS), "map[{}] ; map[{}]"),
            ("horizontal", _check_horizontal, islice(horizontal, MAX_PAIRS),
             "map[{}] * map[{}]"))


def _check_compositor(config, i, j):
    """The composite's dims are the product's, and every gamma is a bijection."""
    rep = beta_compositor(config.spans[i], config.spans[j], seed=config.seed)
    return rep.ok(), rep.max_defect, f"max gamma condition {rep.max_condition_number:.2e}"


def _check_associator(config, i, j, k):
    """Both bracketings of the triple have equal dims."""
    spans = config.spans
    dl, dr = (lambda_span(x, seed=config.seed).map.dims
              for x in (compose_spans(compose_spans(spans[i], spans[j]), spans[k]),
                        compose_spans(spans[i], compose_spans(spans[j], spans[k]))))
    return bool(np.array_equal(dl, dr)), 0.0, ""


def _check_unitor(config, i):
    """The span composed with an identity span on either side has its dims."""
    s, seed = config.spans[i], config.seed
    dims = lambda_span(s, seed=seed).map.dims
    ok = all(np.array_equal(lambda_span(unit, seed=seed).map.dims, dims)
             for unit in (compose_spans(identity_span(s.source), s),
                          compose_spans(s, identity_span(s.target))))
    return bool(ok), 0.0, ""


def _check_vertical(config, i, j):
    """Lambda(y ; y') = Lambda(y') . Lambda(y), within 10 times the tolerance."""
    y, yp = config.spanmaps[i], config.spanmaps[j]
    lhs, first, second = (lambda_spanmap(z, seed=config.seed, tol=config.tolerance).morphism
                          for z in (vertical_compose_spanmaps(y, yp), y, yp))
    dev, _ = _blocks_deviation(lhs, vcompose_2morph(first, second))
    return dev < config.tolerance * 10, dev, ""


def _check_horizontal(config, i, j):
    """beta is natural: Lambda(y * y') . beta_top = beta_bot . (Lambda(y') o Lambda(y))."""
    y, yp = config.spanmaps[i], config.spanmaps[j]
    lam_comp, lam_yp, lam_y = (lambda_spanmap(z, seed=config.seed, tol=config.tolerance)
                               for z in (horizontal_compose_spanmaps(y, yp), yp, y))
    hcomp = hcompose_2morph(lam_yp.morphism, lam_y.morphism)
    beta_top, beta_bot = _beta(lam_comp.source_result), _beta(lam_comp.target_result)
    dev, _ = _blocks_deviation(vcompose_2morph(beta_top, lam_comp.morphism),
                               vcompose_2morph(hcomp, beta_bot))
    return dev < config.tolerance * 10, dev, ""


def _pairs(items, linked):
    """The index pairs (i, j) with linked(items[i], items[j]), lazily, in
    enumeration order."""
    return ((i, j) for i, a in enumerate(items) for j, b in enumerate(items)
            if linked(a, b))


def _blocks_deviation(a: TwoMorphism, b: TwoMorphism):
    """The worst entrywise deviation between the blocks of two parallel
    2-cells, and the (row, col) of the block where it occurs (None when no
    block has entries); inf at the first block whose shapes differ; NaN
    beats any number."""
    dev, worst = 0.0, None
    for key, blk in a.blocks.items():
        other = b.blocks[key]
        if blk.shape != other.shape:
            return float("inf"), key
        if blk.size:
            d = float(np.max(np.abs(blk - other)))
            if worst is None or d > dev or np.isnan(d):
                dev, worst = d, key
    return dev, worst
