"""Groupoids, functors, and weak pullbacks.

Builds a few skeletal groupoids, measures them with the exact rational
cardinality, and walks through a weak pullback whose isomorphism classes are
double cosets.
"""

from fractions import Fraction

from lincat import (
    Groupoid,
    GroupoidFunctor,
    comma_category,
    compose_spans,
    cyclic_group,
    groupoid_cardinality,
    identity_span,
    one_object_groupoid,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
)
from lincat.suites import fig1_span

print("=" * 70)
print("Groupoid cardinality is a rational-valued size: sum of 1/#Aut")
print("=" * 70)

mixed = Groupoid(
    [("point", trivial_group()), ("half", cyclic_group(2)), ("sixth", symmetric_group(3))]
)
for name, aut in mixed.objects:
    print(f"  object {name!r} with automorphism group of order {aut.order}")
card = groupoid_cardinality(mixed)
print(f"cardinality = 1 + 1/2 + 1/6 = {card}")
assert card == Fraction(5, 3)

print()
print("=" * 70)
print("Weak pullback of B(Z2) -> B(S3) <- B(Z2): double cosets appear")
print("=" * 70)

s3 = symmetric_group(3)
z2, incl = subgroup_embedding(s3, [0, 2], name="Z2")  # <(12)> inside S3
bz2 = one_object_groupoid(z2)
bs3 = one_object_groupoid(s3)
leg = GroupoidFunctor(bz2, bs3, [0], [incl])

apex = comma_category(leg, leg).groupoid
print(f"the pullback has {len(apex)} isomorphism classes:")
for i in range(len(apex)):
    print(f"  class {apex.names[i]} with automorphism group of order {apex.aut(i).order}")
print(f"its cardinality {groupoid_cardinality(apex)} equals |S3|/(|Z2||Z2|) = 6/4")

print()
print("=" * 70)
print("Spans compose by weak pullback")
print("=" * 70)

fig1 = fig1_span()
print(f"a span of three points over two points with {len(fig1.apex)} strands")
unit = compose_spans(identity_span(fig1.source), fig1)
print(f"composing with the identity span keeps {len(unit.apex)} strands")
