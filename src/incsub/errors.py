"""Exception types shared across the package."""


class IncsubError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(IncsubError):
    """A vector or matrix has the wrong dimension for the operation."""


class NonFiniteError(IncsubError):
    """A NaN or infinity showed up where only finite values are allowed."""


class SchemeViolationError(IncsubError):
    """A transition matrix violates the probability-scheme contract."""


class TopologyError(IncsubError):
    """A topology sequence fails a structural requirement."""


class CertificateError(IncsubError):
    """An optimum certificate is inconsistent with the objective."""


class ConfigError(IncsubError):
    """An experiment configuration is invalid.

    ``field`` holds the dotted path of the offending entry, when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
