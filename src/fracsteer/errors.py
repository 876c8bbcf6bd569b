"""Exception hierarchy shared across the toolkit.

Config-shaped failures (bad parameters, bad files, off-grid times) map to
CLI exit code 2; numerical failures (non-convergence, evaluation breakdown)
map to exit code 3.
"""

from __future__ import annotations


class FracsteerError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FracsteerError):
    """A configuration file, descriptor or parameter is malformed, out of
    range or inconsistent."""


class DomainError(FracsteerError):
    """A time, index or anchor falls outside the solved/valid domain."""


class EvaluationError(FracsteerError):
    """A numerical kernel failed to converge; carries the regime used."""

    def __init__(self, message: str, regime: str = "unknown"):
        super().__init__(f"{message} [regime={regime}]")
        self.regime = regime


class ConvergenceError(FracsteerError):
    """An iteration exhausted its budget; carries the residual history."""

    def __init__(self, message: str, residuals=None, last_iterate=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []
        self.last_iterate = last_iterate
