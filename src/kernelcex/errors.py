"""Exception types shared across the package."""


class KernelCexError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(KernelCexError):
    """A matrix violates Hermitian symmetry beyond the allowed tolerance."""


class SolverError(KernelCexError):
    """The underlying eigenvalue solver failed to converge."""


class DimensionMismatch(KernelCexError):
    """Vector or matrix dimensions are incompatible."""


class SpaceMismatch(KernelCexError):
    """A point or map does not belong to the expected space."""


class WrongSpaceKind(KernelCexError):
    """The operation requires a different kind of space."""


class TooManyPoints(KernelCexError):
    """More distinct points were requested than the space contains."""


class DuplicatePoints(KernelCexError):
    """A point list that must be pairwise distinct contains duplicates."""


class PeriodicityDetected(KernelCexError):
    """The map revisits a point, so no orbit decomposition exists."""


class InjectivityViolation(KernelCexError):
    """Two distinct points share an image under the map."""


class ZeroVector(KernelCexError):
    """A projection direction must be nonzero."""


class MissingAdjoint(KernelCexError):
    """The map carries no involution partner."""


class OriginNotFixed(KernelCexError):
    """The shifted construction needs a map that fixes its origin."""


class BadDimensions(KernelCexError):
    """Embedding target size is incompatible with the source kernel."""


class WitnessFailed(KernelCexError):
    """The analytic degeneracy witness did not annihilate the Gram form."""


class WrongLength(KernelCexError):
    """A value table does not match the group order."""


class TooLarge(KernelCexError):
    """The dense Gram matrix would exceed the supported size."""


class ConfigError(KernelCexError):
    """A suite configuration is invalid; the message names the field."""


class NonFiniteValue(KernelCexError):
    """A point, matrix or kernel value holds NaN or an infinity."""
