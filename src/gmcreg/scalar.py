"""Scalar penalties and threshold functions.

Huber and minimax-concave (MC) penalties, their scaled variants, the soft
and firm threshold functions, the scalar convexity condition, and the
closed-form minimizer of the MC-regularized least-squares cost, scalar
(``scalar_minimize``) and separable (``diagonal_solve``).  Both minimizers
and ``firm`` share one threshold function.

All functions are pure and vectorize over numpy arrays; the penalties and
thresholds give scalars for scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import _finite, _positive


@dataclass(frozen=True)
class ScalarPenaltyParams:
    """Parameters of the scalar cost 0.5*(y - a*x)^2 + lam * mc_b(x).

    ``b`` scales the MC penalty (only b**2 enters, so the sign of ``b`` is
    irrelevant), ``lam`` is the regularization weight, ``a`` the data-fit
    coefficient.
    """

    b: float
    lam: float
    a: float

    def __post_init__(self):
        _positive(self.lam, "lam")
        _finite((self.b, self.a), "b and a")


@dataclass(frozen=True)
class FirmParams:
    """Thresholds of the firm threshold function; requires finite mu > lam > 0.

    ``lam`` and ``mu`` may be equal-shaped arrays for element-wise
    thresholding.
    """

    lam: object
    mu: object

    def __post_init__(self):
        lam = np.asarray(self.lam)
        mu = np.asarray(self.mu)
        if not np.all(lam > 0):
            raise ValueError("lam must be positive")
        if not np.all((mu > lam) & (mu < np.inf)):
            raise ValueError("mu must be finite and strictly greater than lam")


def _maybe_scalar(out, x):
    return out[()] if np.ndim(x) == 0 else out


def soft(y, lam):
    """Soft threshold with threshold ``lam >= 0``.

    Real input: 0 on ``|y| <= lam``, else ``(|y| - lam) * sign(y)``.
    Complex input shrinks the modulus, preserving phase:
    ``(1 - lam/|y|) * y`` on ``|y| > lam``, else 0.
    """
    lam = np.asarray(lam)
    if not np.all(lam >= 0):
        raise ValueError("threshold lam must be non-negative")
    y_arr = np.asarray(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _shrink(y_arr, lam)
    return _maybe_scalar(out, y)


def _shrink(y, thr):
    """``soft`` without its checks, for the solver loop.

    ``thr`` broadcasts against ``y``, e.g. (blocks, 1, k) thresholds for a
    (blocks, N, k) block.  A NaN stays NaN, so the solver can see it.  A complex zero
    divides by zero in the branch ``np.where`` discards, so callers silence
    that warning with ``np.errstate``.
    """
    a = np.abs(y)
    if np.iscomplexobj(y):
        return np.where(a <= thr, 0.0 + 0.0j, (1.0 - thr / a) * y)
    return np.where(a <= thr, 0.0, (a - thr) * np.sign(y))


def huber(x):
    """Huber function: 0.5*x**2 on |x| <= 1, |x| - 0.5 beyond."""
    return scaled_huber(x, 1.0)


def scaled_huber(x, b):
    """Scaled Huber function ``huber(b**2 * x) / b**2``; identically 0 at b = 0.

    Equals ``0.5 * b**2 * x**2`` on ``|x| <= 1/b**2`` and ``|x| - 0.5/b**2``
    beyond.  Only ``b**2`` enters, so negative ``b`` is fine; NaN is not.
    Where ``b**2`` overflows it is the b -> inf limit ``|x|``.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    b2 = float(b) * float(b)
    if np.isnan(b2):
        raise ValueError("b must not be NaN")
    if b2 == 0.0:
        out = np.zeros_like(x_arr)
    elif b2 == np.inf:
        out = np.abs(x_arr)
    else:
        out = np.where(
            np.abs(x_arr) <= 1.0 / b2,
            0.5 * b2 * x_arr * x_arr,
            np.abs(x_arr) - 0.5 / b2,
        )
    return _maybe_scalar(out, x)


def scaled_mc(x, b):
    """Scaled MC penalty: ``|x| - scaled_huber(x, b)``.

    Rises like ``|x| - 0.5*b**2*x**2`` near zero and saturates at
    ``0.5/b**2``; reduces to ``|x|`` when b = 0, and to 0 where ``b**2``
    overflows.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.abs(x_arr) - scaled_huber(x_arr, b)
    return _maybe_scalar(out, x)


def firm(y, params: FirmParams):
    """Firm threshold: dead zone below lam, identity above mu, linear between.

    0 on ``|y| <= lam``; ``mu*(|y| - lam)/(mu - lam) * sign(y)`` on
    ``lam <= |y| <= mu``; ``y`` on ``|y| >= mu``.  Interpolates between soft
    (mu -> inf) and hard (mu -> lam) thresholding.
    """
    y_arr = np.asarray(y)
    if np.iscomplexobj(y_arr):
        raise TypeError("firm threshold is defined for real inputs")
    out = _firm(y_arr, np.asarray(params.lam, dtype=np.float64),
                np.asarray(params.mu, dtype=np.float64))
    return _maybe_scalar(out, y)


def _firm(y, lam, mu):
    """``firm`` without its checks, and with both of its limits.

    Soft thresholding where ``mu`` is infinite, hard thresholding where
    ``mu <= lam``, the firm formula in between.  The discarded side of each
    ``np.where`` divides by zero or takes inf/inf, hence the ``errstate``.
    """
    a = np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = np.where(mu == np.inf, a - lam, mu * (a - lam) / (mu - lam)) * np.sign(y)
    return np.where(a <= lam, 0.0, np.where(a >= mu, y, mid))


def scalar_convexity_holds(params: ScalarPenaltyParams) -> bool:
    """Whether 0.5*(y - a*x)^2 + lam*mc_b(x) is convex in x: b**2 <= a**2/lam."""
    return bool(params.b**2 <= params.a**2 / params.lam)


def scalar_minimize(y: float, params: ScalarPenaltyParams) -> float:
    """Global minimizer of ``0.5*(y - a*x)**2 + lam * scaled_mc(x, b)``.

    Requires ``a > 0`` and the convexity condition ``b**2 <= a**2/lam``;
    the minimizer is then ``firm(y/a; lam/a**2, 1/b**2)``.  At ``b = 0`` the
    penalty is ``lam*|x|`` and the minimizer is the soft threshold, as it is
    when ``1/b**2`` overflows (the b -> 0 limit); on the
    convexity boundary ``b**2 == a**2/lam`` the firm threshold degenerates
    to a hard threshold.
    """
    _positive(params.a, "a")
    if not scalar_convexity_holds(params):
        raise ValueError(
            "convexity condition b**2 <= a**2/lam violated; "
            "the firm-threshold formula would not give the minimizer"
        )
    a2 = params.a * params.a
    b2 = params.b * params.b
    mu = 1.0 / b2 if b2 else np.inf  # inf also where 1/b**2 overflows
    return float(_firm(y / params.a, params.lam / a2, mu))


def diagonal_solve(alphas, aty, lam: float, gamma: float) -> np.ndarray:
    """Closed-form minimizer when A^T A = diag(alphas**2) with alphas > 0.

    Element-wise firm thresholding
    ``firm(aty_n/alpha_n^2; lam/alpha_n^2, lam/(gamma*alpha_n^2))`` for
    ``0 < gamma < 1``; soft thresholding at ``gamma = 0``, and where the
    upper threshold overflows (its mu -> inf limit); the hard-threshold
    limit at ``gamma = 1`` (where the firm thresholds coincide).  Both
    arrays must be real and finite (``ValueError`` otherwise).
    """
    if np.iscomplexobj(alphas) or np.iscomplexobj(aty):
        raise ValueError("alphas and aty must be real")
    alphas = _finite(np.asarray(alphas, dtype=np.float64), "alphas")
    aty = _finite(np.asarray(aty, dtype=np.float64), "aty")
    if alphas.shape != aty.shape:
        raise ValueError("alphas and aty must have the same shape")
    if not np.all(alphas > 0):
        raise ValueError("alphas must be positive")
    _positive(lam, "lam")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    a2 = alphas * alphas
    with np.errstate(over="ignore", divide="ignore"):
        mu = lam / (gamma * a2)  # inf at gamma = 0, or when a tiny gamma overflows it
    return _firm(aty / a2, lam / a2, mu)
