"""Matrix calculus for 2-vector spaces.

2-linear maps are integer matrices of hom-space dimensions; 2-morphisms are
block matrices of linear maps.  Composition and the dagger both reduce to
familiar index gymnastics.
"""

import numpy as np

from lincat import (
    TwoBasis,
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    dagger,
    hcompose_2morph,
    vcompose_2morph,
)

Y = TwoBasis([("y1", 0, 1), ("y2", 0, 1), ("y3", 0, 1)])
Z = TwoBasis([("z1", 0, 1), ("z2", 0, 1)])
T = TwoLinearMap(Y, Z, [[1, 1, 0], [0, 1, 1]])

print("a 2-linear map is a matrix of dimensions:")
print(T.dims)
print("its dagger is the transpose with domain and codomain swapped:")
print(dagger(T).dims)
print("composing with the dagger multiplies the integer matrices:")
print(compose_2linear(T, dagger(T)).dims)

print()
print("2-morphisms compose vertically blockwise and horizontally by kron:")
one = TwoBasis([("*", 0, 1)])
unit = TwoLinearMap(one, one, [[1]])
half = TwoMorphism(unit, unit, {(0, 0): np.array([[0.5]])})
third = TwoMorphism(unit, unit, {(0, 0): np.array([[1 / 3]])})
print("  vertical:", vcompose_2morph(half, third).blocks[(0, 0)][0, 0])
print("  horizontal:", hcompose_2morph(half, third).blocks[(0, 0)][0, 0])

