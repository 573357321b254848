"""Exception hierarchy shared by all dcopt modules."""


class DcoptError(Exception):
    """Base class for all library errors."""


class ConfigError(DcoptError):
    """Malformed or inconsistent run configuration."""


class InvalidTopology(DcoptError):
    """Agent count incompatible with the requested topology."""


class DisconnectedGraph(DcoptError):
    """No connected graph could be produced."""


class NumericalFailure(DcoptError):
    """An eigendecomposition or identity residual exceeded tolerance."""


class OutOfRange(DcoptError):
    """A scalar parameter is outside its admissible interval."""


class IncompatibleContracts(DcoptError):
    """Composition inputs are not of the expected contract classes."""


class WrongClass(DcoptError):
    """Verifier called with a contract of the wrong class."""


class DimensionMismatch(DcoptError):
    """Vector dimension incompatible with compressor parameters."""


class IndexOutOfRange(DcoptError, IndexError):
    """Agent index outside [0, n)."""


class SingularSystem(DcoptError):
    """Aggregate normal matrix is rank deficient."""


class InvalidScale(DcoptError):
    """Initial scaling s0 violates the local-class lower bound."""


class NonFiniteState(DcoptError):
    """State became non-finite; parameters are outside the stable range."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class InfeasibleParams(DcoptError):
    """A theoretical-mode parameter constraint is violated."""


class DegenerateSeries(DcoptError):
    """Rate fit input has too few points or nonpositive values."""
