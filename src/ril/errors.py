"""Exception types shared across the package."""

from __future__ import annotations


class ContractError(ValueError):
    """An input violates a documented precondition.

    Carries the list of violations so callers (and the CLI) can report
    all of them at once instead of failing on the first.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = list(violations or [])


class MdpFormatError(ContractError):
    """Raised when an MDP document fails structural validation."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its stopping rule.

    Attributes:
        residual: last observed update or Bellman residual.
        iterations: number of improvement steps or sweeps performed.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EnumerationCapError(RuntimeError):
    """Enumerating fragments or lassos would exceed the configured cap."""
