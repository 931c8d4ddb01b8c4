"""Exception hierarchy shared by all lincat modules."""


class LincatError(Exception):
    """Base class for all errors raised by lincat."""


class AxiomViolation(LincatError):
    """A raw multiplication table fails one of the group axioms.

    ``kind`` is one of ``"identity"``, ``"inverse"``, ``"associativity"``;
    ``witness`` holds the offending indices.
    """

    def __init__(self, kind, witness, message=None):
        self.kind = kind
        self.witness = tuple(witness)
        super().__init__(message or f"group axiom violated ({kind}) at {self.witness}")


class GroupMismatch(LincatError):
    """Two objects that must share a group do not."""


class TargetMismatch(LincatError):
    """Functors or spans are not composable over the required groupoid."""


class SpanMismatch(LincatError):
    """Span maps are not composable (middle spans or feet disagree)."""


class StrictnessViolation(LincatError):
    """A span map (or composite of span maps) cannot be made to commute strictly."""


class IndexOutOfRange(LincatError):
    """An index does not exist in what it refers to: an object index in its
    groupoid, or the points of a permutation generator, which must be a
    permutation of 0..n-1 for its degree n."""


class NumericalFailure(LincatError):
    """A numerical decomposition did not converge to the requested tolerance."""


class NonIntegralMultiplicity(LincatError):
    """A character inner product is not within tolerance of an integer."""


class RankMismatch(LincatError):
    """Numeric rank of an intertwiner space disagrees with the character count."""


class SingularMap(LincatError):
    """A map that must be invertible is numerically singular."""


class ModelMismatch(LincatError):
    """A representation model is incompatible with the homomorphism it is used with."""


class BasisMismatch(LincatError):
    """Two 2-linear maps are not composable (bases disagree)."""


class ShapeMismatch(LincatError):
    """Blocks of 2-morphisms have inconsistent shapes for the requested composition."""


class DimensionMismatch(LincatError):
    """A dimension bookkeeping identity failed (an internal check, not an input error)."""


class IntertwinerProjectionFailure(LincatError):
    """The two evaluation routes for a 2-morphism disagree beyond tolerance;
    ``deviation`` is their measured disagreement (None when not measured)."""

    def __init__(self, message, deviation=None):
        self.deviation = deviation
        super().__init__(message)


class InputTooLarge(LincatError):
    """An input would need more memory than the library allows for one array."""


class SchemaError(LincatError):
    """A document does not validate against its schema."""

    def __init__(self, message, path=None):
        self.path = list(path) if path is not None else []
        where = "/".join(str(p) for p in self.path)
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))


class UnresolvedReference(LincatError):
    """A document refers to a named entity that is not defined."""
