"""Exception hierarchy.

Validation errors mean the input object is malformed; precondition errors mean
the input is well-formed but outside the mathematical scope of the requested
operation; hypothesis errors mean a structural hypothesis that the duality
construction needs was checked and found false; a numerical breakdown means
the input is in scope but double precision cannot resolve the answer.
"""


class SSDualError(Exception):
    """Base class for all library errors."""


class ValidationError(SSDualError):
    """Malformed input (shapes, signs, normalization)."""


class NonStochastic(ValidationError):
    """Matrix rows do not sum to one (or generator rows to zero) within tolerance,
    or entries fall outside the admissible range."""


class TargetNotAccessible(ValidationError):
    """The target state cannot be reached from some initial state with positive
    probability."""


class PreconditionError(SSDualError):
    """Input is valid but outside the operation's mathematical scope."""


class ZeroSuperdiagonal(PreconditionError):
    """A skip-free analysis route requires every upward rate p(i, i+1) > 0."""


class NotErgodic(PreconditionError):
    """Operation requires an irreducible aperiodic chain."""


class SingularSystem(PreconditionError):
    """A linear system that should be invertible is numerically singular."""


class ThetaTooSmall(PreconditionError):
    """Uniformization rate below the largest diagonal rate magnitude."""


class EigenFailure(PreconditionError):
    """Eigenvalue extraction did not produce the structure the chain class
    guarantees (e.g. no unique unit eigenvalue)."""


class PoleAtU(PreconditionError):
    """Generating function evaluated at (or too close to) a pole 1/theta_j."""


class ImaginaryResidue(PreconditionError):
    """A probability computed through complex arithmetic retained an imaginary
    part above tolerance."""


class HypothesisFailed(SSDualError):
    """A structural hypothesis of the duality construction is false for this
    input; the construction would not carry probabilistic meaning."""


class MonotoneHypothesisFails(HypothesisFailed):
    """The time reversal is not stochastically monotone (or the separation
    minimizer is not the target state), so the strong stationary construction
    does not apply."""


class NotStochasticLink(HypothesisFailed):
    """The link (or modified dual) has negative or complex entries, so no
    sample-path coupling exists."""


class NumericalBreakdown(SSDualError):
    """The chain is in scope but double precision cannot resolve what it needs
    (e.g. a reachable target whose slowest mode rounds to the unit eigenvalue)."""


class InsufficientSamples(SSDualError):
    """Too few traces for the requested statistical gate."""


class HorizonExceeded(SSDualError):
    """A horizon search passed the hard cap without reaching its target."""
