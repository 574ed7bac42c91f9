"""Exception hierarchy shared across the package."""


class PolicyPathsError(Exception):
    """Base class for all errors raised by this package."""


class PropertyViolation(PolicyPathsError):
    """Marker base of the errors that mean a certified property failed.

    The command line exits with code 2 for these only; every other error
    is operational (exit code 1).
    """


class NonConvergence(PolicyPathsError):
    """A stationary solve failed: the chain is not ergodic, or the balance
    residual misses its tolerance.  ``chain`` is the flat index of the
    failing chain in its stack (0 for a single chain)."""

    chain = 0


class ZeroStateMass(PolicyPathsError):
    """A state-action table has zero total mass in some state."""


class CapExceeded(PolicyPathsError):
    """An enumeration or instance size exceeds the configured cap."""


class BoundViolated(PropertyViolation):
    """A certified value lower bound failed at some sample point."""

    def __init__(self, message, alpha=None, reward_index=None):
        super().__init__(message)
        self.alpha = alpha
        self.reward_index = reward_index


class NonPositiveEntry(PolicyPathsError):
    """A matrix that must be strictly positive has a nonpositive entry."""


class ShapeMismatch(PolicyPathsError):
    """Array shapes disagree with the declared architecture."""


class RankDeficient(PolicyPathsError):
    """A matrix required to be full rank is rank deficient."""


class NonPositivePolicy(PolicyPathsError):
    """A policy required to be strictly positive has a zero entry."""


class PolicyFloorViolated(PolicyPathsError):
    """A policy entry lies below the softmax positivity floor."""


class OutputDrift(PropertyViolation):
    """An output-preserving segment drifted beyond its tolerance."""


class RestorationStalled(PolicyPathsError):
    """Rank restoration hit its rewiring retry cap."""


class SwapFailed(PolicyPathsError):
    """First-layer swap staging could not find a usable neuron split."""


class PathStalled(PolicyPathsError):
    """Full-rank matrix path construction exhausted its retry budget."""


class RepairUnavailable(PolicyPathsError):
    """A deficient layer admits no output-preserving kernel perturbation."""


class Infeasible(PolicyPathsError):
    """A constraint system has no feasible point."""


class Unbounded(PolicyPathsError):
    """A linear program is unbounded."""


class AnchorInvalid(PolicyPathsError):
    """The supplied anchor is not a fixed point of the attack projection."""


class LpFailure(PolicyPathsError):
    """The linear-program solver reported a failure."""


class CrossCheckMismatch(PropertyViolation):
    """Two independent solvers disagree beyond the allowed tolerance."""


class IterationCap(PolicyPathsError):
    """An iterative routine hit its iteration cap."""


class OutOfDomain(PolicyPathsError):
    """A point lies outside the declared domain of a scalar field."""
