"""lincat: 2-linearization of spans of essentially finite groupoids.

The package computes, for skeletal finite groupoids, the 2-vector space of
(object, irrep) basis labels; for spans of groupoids, matrices of intertwiner
spaces; and for strict spans of span maps, matrices of linear operators --
together with the supporting representation theory (induction and restriction
along arbitrary homomorphisms, intertwiner bases, the exterior trace map and
the four unit/counit transformations) and verification suites for
composition, coherence, and the groupoidification limit.
"""

from fractions import Fraction as Rational

from .errors import (
    AxiomViolation,
    BasisMismatch,
    DimensionMismatch,
    GroupMismatch,
    IndexOutOfRange,
    InputTooLarge,
    IntertwinerProjectionFailure,
    LincatError,
    ModelMismatch,
    NonIntegralMultiplicity,
    NumericalFailure,
    RankMismatch,
    SchemaError,
    ShapeMismatch,
    SingularMap,
    SpanMismatch,
    StrictnessViolation,
    TargetMismatch,
    UnresolvedReference,
)
from .groups import (
    FinGroup,
    GroupHom,
    all_homs,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    group_from_permutations,
    identity_hom,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
    trivial_hom,
    validate_group,
)
from .groupoids import (
    Groupoid,
    GroupoidFunctor,
    Span,
    SpanMap,
    comma_category,
    compose_spans,
    discrete_groupoid,
    disjoint_union,
    groupoid_cardinality,
    horizontal_compose_spanmaps,
    identity_span,
    one_object_groupoid,
    reverse_span,
    terminal_groupoid,
    vertical_compose_spanmaps,
)
from .rep import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    Character,
    InducedRep,
    Irrep,
    RepModel,
    character_inner,
    eps_L,
    eps_R,
    eta_L,
    eta_R,
    hom_dim,
    induce_rep,
    intertwiner_basis,
    irreps,
    nakayama,
    regular_rep,
    restrict_rep,
    trivial_rep,
    verify_zigzag,
)
from .twovect import (
    TwoBasis,
    TwoLinearMap,
    TwoMorphism,
    compose_2linear,
    dagger,
    hcompose_2morph,
    vcompose_2morph,
)
from .linearization import (
    BetaReport,
    FunctorialityReport,
    LambdaObject,
    LambdaSpanMapResult,
    LambdaSpanResult,
    SuiteConfig,
    beta_compositor,
    composite_block_iso,
    degroupoidify,
    degroupoidify_2cell,
    lambda_object,
    lambda_span,
    lambda_spanmap,
    verify_functoriality,
)
from .documents import Document, parse, serialize
from .suites import default_suite, fig1_span, random_suite, standard_groups, standard_homs

__version__ = "0.1.0"
