"""Exception types shared across the package, and its three input rules.

Every layer checks its input with ``_integer`` (sizes, budgets and seeds;
``bool`` and floats, even integral ones, are refused), ``_positive``
(weights and tolerances must be positive and finite) or ``_finite`` (arrays
hold no NaN or infinity); each raises ``ValueError`` naming the argument.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge within its iteration budget.

    The partially-converged result is attached so callers can inspect or
    reuse it.

    Attributes
    ----------
    best : object
        Best estimate available when the iteration budget ran out.  A float
        for spectral-norm estimation, an ``InnerSolution`` for the penalty
        inner problem.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message, best=None, iterations=0):
        super().__init__(message)
        self.best = best
        self.iterations = iterations


def _integer(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not ``bool``, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name}: expected integers of at least {least}, got {value!r}")
    return int(value)


def _positive(value, name: str) -> None:
    """Refuse a ``value`` that is not positive and finite (NaN included)."""
    if not (0 < value < np.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _finite(a, name: str) -> np.ndarray:
    """``a`` as an array, checked to hold no NaN or infinity."""
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite (it holds a NaN or an infinity)")
    return a
