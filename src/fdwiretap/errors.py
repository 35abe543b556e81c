"""Exception types shared across the package."""


class FdWiretapError(Exception):
    """Base class for all package errors."""


class NonPositiveDefinite(FdWiretapError):
    """A matrix that must be positive definite failed a factorization."""


class DimensionMismatch(FdWiretapError):
    """Matrix dimensions are inconsistent with the system parameters."""


class WrongDimension(FdWiretapError):
    """An operation restricted to a specific antenna configuration was
    called with an incompatible one."""


class DegenerateChannel(FdWiretapError):
    """Both the desired and undesired channels are zero; no beam direction
    can be derived."""


class InfeasibleStart(FdWiretapError):
    """The initial point handed to the solver violates the constraints."""


class ConfigError(FdWiretapError, ValueError):
    """An input value is invalid; the message names the field."""


class UnknownStrategy(ConfigError):
    """A strategy identifier is not in the recognized set."""
