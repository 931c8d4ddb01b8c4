"""The dual-path transfer piece built as the literal unit/counit pasting.

``linearization._transfer_piece`` evaluates the piece in closed form; the
tests compare it with this staged construction: the right unit along s,
induced along t1, and the left counit along t, induced along t2, joined
through the canonical flattenings of both staged inductions into the one
direct induction along s;t1 = t;t2.
"""

import numpy as np

from lincat.errors import ModelMismatch
from lincat.rep import (
    InducedRep,
    _counit_kernel,
    _unit_kernel,
    induce_rep,
    induced_morphism,
    restrict_rep,
)


def flatten_induction(outer: InducedRep, direct: InducedRep):
    """The canonical iso ind_f(ind_g(V)) -> ind_{f.g}(V) as a matrix.

    ``outer`` must be an induction (along f) of an InducedRep (along g), and
    ``direct`` the induction of the same base along the composite g.then(f).
    Column (i, j) is the sum over the inner cosets q of
    r_i f(r_q) (x) C_g w_{q,j}, with w_j the j-th ker(f)-invariant vector of
    ind_g V and w_{q,j} its block q.

    The dual path's transfer pieces (``linearization._transfer_piece``)
    apply this identity on tensor symbols in closed form;
    ``staged_transfer_piece`` joins its two staged inductions with it.
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


def staged_transfer_piece(s_hom, t_hom, r1_top, ind_top, r1_bot, ind_bot):
    """mor2 . flat2^-1 . flat1 . mor1 from ind_top = ind_{t1}(r1_top) to
    ind_bot = ind_{t2}(r1_bot), for a span-map apex object with up hom
    s_hom and down hom t_hom; five induced models and one solve."""
    t1_hom, t2_hom = ind_top.hom, ind_bot.hom
    v_y = restrict_rep(s_hom, r1_top)
    ind_s = induce_rep(s_hom, v_y)
    staged1 = induce_rep(t1_hom, ind_s)
    flat1 = flatten_induction(staged1, induce_rep(s_hom.then(t1_hom), v_y))
    mor1 = induced_morphism(ind_top, staged1, _unit_kernel(ind_s, r1_top.matrices))
    res_t = restrict_rep(t_hom, r1_bot)
    ind_t = induce_rep(t_hom, res_t)
    staged2 = induce_rep(t2_hom, ind_t)
    flat2 = flatten_induction(staged2, induce_rep(t_hom.then(t2_hom), res_t))
    mor2 = induced_morphism(staged2, ind_bot, _counit_kernel(ind_t, r1_bot.matrices))
    return mor2 @ np.linalg.solve(flat2, flat1) @ mor1
