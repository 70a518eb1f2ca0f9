"""Exception types raised by the engine.

Every error that a caller can reasonably recover from gets its own class;
plain ValueError is reserved for programming mistakes (bad shapes, wrong
algebra, malformed input data).
"""


class QuiverhomError(Exception):
    """Base class for all engine errors."""


class BoundExceeded(QuiverhomError):
    """A bound cut the computation off before it decided, e.g. no
    truncation level closed the algebra below the requested cap, or a
    dimension cut off at a floor cannot settle a comparison; bound is the
    cap or the floor that the computation reached."""

    def __init__(self, message, bound):
        self.bound = bound
        super().__init__(message)


class InvalidSeries(QuiverhomError):
    """An admissible-sequence condition on a Nakayama series failed."""


class InvalidParameters(QuiverhomError):
    """Family parameters outside the documented range."""


class QuotientCollapse(QuiverhomError):
    """Quotient by an idempotent ideal left nothing."""


class ZeroModule(QuiverhomError):
    """Operation needs a nonzero module."""


class DecompositionInconclusive(QuiverhomError):
    """decompose found no splitting endomorphism, and End(M)/rad is not
    commutative, so no indecomposability certificate applies."""


class NotGeneratorCogenerator(QuiverhomError):
    """Module does not contain every projective and injective as a summand."""


class NotApplicable(QuiverhomError):
    """Hypotheses of the requested check do not hold."""


class DecomposableInput(NotApplicable):
    """Operation defined only for indecomposable modules."""


class DominantDimensionZero(QuiverhomError):
    """No faithful projective-injective exists (dominant dimension 0)."""


class NotGorensteinCertified(QuiverhomError):
    """Operation needs a finite two-sided self-injective dimension, and a
    side is certified infinite."""


class NotAuslanderGorenstein(QuiverhomError):
    """Operation needs dominant dimension equal to Gorenstein dimension >= 2."""


class PreconditionFailed(QuiverhomError):
    """A documented precondition of a construction does not hold."""


class NotStratified(QuiverhomError):
    """Algebra is not standardly stratified for the given order."""


class CertificateFailure(QuiverhomError):
    """A constructed object failed its own certification."""


class TooManyVertices(QuiverhomError):
    """Exhaustive order search rejected (factorial blowup guard)."""


class NotTilting(QuiverhomError):
    """Candidate failed a tilting condition; message names the first one."""


class ProjectiveInput(QuiverhomError):
    """Operation defined only for nonprojective modules."""


class NotInSubcategory(QuiverhomError):
    """Module lies outside the requested dominant-dimension subcategory."""


class ExtProjective(QuiverhomError):
    """Module is relatively projective; no almost split sequence ends in it."""


class UniquenessViolation(QuiverhomError):
    """The predicted unique summand with nonvanishing Ext is not unique."""


class ParseError(QuiverhomError):
    """DSL syntax error with position information."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %s: %s" % (line, message) if col is None else \
                "line %s, col %s: %s" % (line, col, message)
        super().__init__(message)


class UnknownExampleId(QuiverhomError):
    """verify-paper id not in the registry."""
