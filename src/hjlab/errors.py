"""Shared exception types.

Precondition failures (caller handed in data that violates a documented
assumption) are distinguished from structural failures (a claimed structure
that does not hold, such as a clean stationary law) and solver failures
(iteration did not reach the residual target).  Quantitative check failures are never exceptions;
they come back as report objects with passed=False.
"""

from __future__ import annotations


class HJLabError(Exception):
    pass


class PreconditionError(HJLabError):
    pass


class StructuralError(HJLabError):
    pass


class SolverError(HJLabError):
    """An iteration that did not reach its residual target; iterations counts
    the steps it spent first, so callers that recover can still report them."""

    def __init__(self, message: str = "", iterations: int = 0):
        super().__init__(message)
        self.iterations = iterations


class ConfigError(HJLabError):
    pass
