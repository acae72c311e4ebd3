"""Exception types shared across the package, and the base of its frozen
value types. Each library error declares the `clauses` label of the
statement its check enforces and the `locus` it reports; the input errors
`ParseError` and `RankMismatch` carry no clause. An error that only says a
search bound was too small is `bound_relative`.
"""
from . import clauses


class Frozen:
    """Base of the immutable value types: assignment is refused, so each
    constructor sets its slots with `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class NctoricError(Exception):
    """Base class for all library errors."""

    clause = None
    locus = "input"
    bound_relative = False


class ParseError(NctoricError):
    """Malformed input file or literal."""


class RankMismatch(NctoricError):
    """Words or elements of different ranks were combined."""


class NonPrimitiveRay(NctoricError):
    clause = clauses.FAN_PRIMITIVE


class NotIndexOne(NctoricError):
    clause = clauses.FAN_INDEX_ONE


class MissingReferenceCone(NctoricError):
    clause = clauses.FAN_REFERENCE


class NotAFan(NctoricError):
    clause = clauses.FAN_SEPARATION


class NoPositivityFunctional(NctoricError):
    clause = clauses.ADMISSIBLE_SURJECTIVE


class BadLift(NctoricError):
    clause = clauses.BUILD_SYSTEM


class ExtraOutsideDualCone(NctoricError):
    clause = clauses.AUGMENTATION


class MaximalChartTouched(NctoricError):
    clause = clauses.SOFTENING


class UnboundedPolytope(NctoricError):
    clause = clauses.POLYTOPE


class NotASection(NctoricError):
    clause = clauses.SECTION_EXTEND


class MismatchedSystems(NctoricError):
    clause = clauses.SUBSCHEME


class TargetExceedsBound(NctoricError):
    clause = clauses.SUBSCHEME
    locus = "target"
    bound_relative = True


class NotIdempotent(NctoricError):
    clause = clauses.IDEM_STRONG


class CandidateNotUnit(NctoricError):
    clause = clauses.GLUING_ISOM


class MismatchedFans(NctoricError):
    clause = clauses.GLUING_ISOM


class MorphismInvalid(NctoricError):
    clause = clauses.MORPHISM_GLUING


class PatternIncomplete(NctoricError):
    clause = clauses.MATRIX_MODEL
