"""Characters, irreducibles, induction, and the ambidextrous adjunction.

Every representation is an explicit stack of matrices, so all the classical
statements here are checked numerically as they are printed.
"""

import numpy as np

from lincat import (
    hom_dim,
    induce_rep,
    irreps,
    nakayama,
    regular_rep,
    restrict_rep,
    subgroup_embedding,
    symmetric_group,
    trivial_rep,
    verify_zigzag,
)

s3 = symmetric_group(3)
z2, incl = subgroup_embedding(s3, [0, 2], name="Z2")

print("irreducible representations of S3 (seeded, deterministic order):")
for k, r in enumerate(irreps(s3)):
    vals = np.round(r.character.values.real, 3)
    print(f"  irrep {k}: dim {r.dim}, character {vals}")

print()
print("induction of the trivial Z2-representation up to S3:")
ind = induce_rep(incl, trivial_rep(z2))
print(f"  dimension {ind.dim}: coset representatives {ind.coset_reps.tolist()}, "
      f"block dimension {ind.block_dim}")
for k, r in enumerate(irreps(s3)):
    m = hom_dim(ind.character, r.character)
    print(f"  multiplicity of irrep {k} (dim {r.dim}): {m}")

print()
print("Frobenius reciprocity across the inclusion, checked exactly:")
for v in irreps(z2):
    for w in irreps(s3):
        up = hom_dim(induce_rep(incl, v).character, w.character)
        down = hom_dim(v.character, restrict_rep(incl, w).character)
        assert up == down
        print(f"  <Ind v, w> = <v, Res w> = {up}")

print()
print("the exterior trace map identifies the two models of induction:")
n, cond = nakayama(incl, trivial_rep(z2))
print(f"  a {n.shape[0]}x{n.shape[1]} matrix, condition number {cond:.3f}")

print()
print("triangle identities of both adjunctions on probe representations:")
probes = [trivial_rep(z2), regular_rep(z2), trivial_rep(s3), regular_rep(s3)]
report = verify_zigzag(incl, probes)
print(f"  worst deviation from the identity: {report.max_deviation:.2e}")
assert report.ok()
