"""Exception types shared across the package."""


class LabelNoiseError(Exception):
    """Base class for all package errors."""


class DomainError(LabelNoiseError, ValueError):
    """An argument violates a mathematical precondition (zero norm, bad label...)."""


class ConfigurationError(LabelNoiseError, ValueError):
    """A configuration value or combination is invalid or infeasible."""


class ParseError(LabelNoiseError, ValueError):
    """A file could not be parsed; the message locates the fault in it."""


class ValidationError(LabelNoiseError, ValueError):
    """Parsed data violates a structural invariant."""


class InternalError(LabelNoiseError, RuntimeError):
    """An internal consistency check failed (indicates a bug, not bad input)."""


class DivergenceError(LabelNoiseError, RuntimeError):
    """Training produced a non-finite loss, gradient, or parameter."""
