"""Exception types shared across the engine.

The CLI maps these onto exit codes: scenario parse problems -> 2,
scenario validation problems -> 1, runtime numerical problems -> 3.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class RangeError(EngineError, ValueError):
    """A coordinate or unit value lies outside its admissible range."""


class EmptyEvidenceError(EngineError):
    """An evidence set carries zero total probability."""


class EmptyTrustError(EngineError):
    """All trust degrees are zero, so they cannot be normalised."""


class ConfigError(EngineError, ValueError):
    """Configuration values (blend coefficients, scheme names) are invalid."""


class ShapeError(EngineError, ValueError):
    """Matrix or vector dimensions do not match."""


class OracleScopeError(EngineError, ValueError):
    """The brute-force oracle was asked for a size or step it does not cover."""


class NumericalError(EngineError):
    """A numerical routine could not produce a trustworthy result."""


class ScenarioParseError(EngineError):
    """The scenario file is not syntactically readable."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(EngineError):
    """The scenario parsed but violates the documented contract."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("scenario validation failed:\n" + "\n".join(self.violations))
