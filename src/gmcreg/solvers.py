"""Forward-backward saddle-point solver for GMC-regularized least squares.

Minimizes ``F(x) = 0.5*||y - A x||_2^2 + lam * gmc_B(x)`` with
``B = sqrt(gamma/lam) * A``, which keeps F convex for ``gamma < 1``.  The
problem is recast as a saddle-point problem in the pair (x, v) and solved by
forward-backward splitting; each iteration costs two applications of A and
two of its adjoint plus soft thresholding:

    rho  = max(1, gamma/(1-gamma)) * ||A^T A||_2
    mu   in (0, 2/rho)
    w    = x - mu * A^T( A(x + gamma*(v - x)) - y )
    u    = v - mu * gamma * A^T( A(v - x) )
    x'   = soft(w, mu*lam)
    v'   = soft(u, mu*lam)

At ``gamma = 0`` this is exactly the classic iterative shrinkage /
thresholding algorithm (ISTA) for the l1-regularized problem: v stays zero,
so the kernel shared by ``gmc_solve`` and ``ista_solve`` skips its block and
applies A and its adjoint once each per iteration.  For complex operators
the adjoint is the conjugate transpose and soft thresholding shrinks moduli.

Solvers hold no hidden state: identical inputs and configuration produce
bit-identical iterate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .operators import COMPLEX, LinearOperator, estimate_gram_norm
from .penalties import build_b_from_a, eval_gmc_many
from .scalar import FirmParams, firm, soft


@dataclass(frozen=True)
class SolveConfig:
    """Configuration of the saddle-point solver.

    ``gamma`` in [0, 1) controls penalty non-convexity (0 gives plain l1;
    1 is excluded because the forward step loses cocoercivity there).
    ``mu`` overrides the automatic step size ``1.9/rho`` and must stay in
    the open interval (0, 2/rho).  ``tol`` is the sup-norm iterate-change
    stopping threshold applied to both blocks.
    """

    lam: float
    gamma: float = 0.0
    mu: Optional[float] = None
    max_iter: int = 100_000
    tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.lam < np.inf):
            raise ValueError("lam must be positive and finite")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1); gamma = 1 breaks the step-size bound")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.mu is not None and not (self.mu > 0):
            raise ValueError("mu must be positive when given")


@dataclass(frozen=True)
class SaddleState:
    """One iterate of the saddle-point iteration (primal x, auxiliary v)."""

    x: np.ndarray
    v: np.ndarray
    iter: int
    delta: float


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome; ``converged`` means the final ``delta <= tol``."""

    x_star: np.ndarray
    v_star: np.ndarray
    iterations: int
    converged: bool
    delta: float
    cost_trace: Optional[np.ndarray] = None


def _step_size(cfg: SolveConfig, gram: float) -> float:
    if gram <= 0:
        raise ValueError("operator Gram norm must be positive")
    rho = max(1.0, cfg.gamma / (1.0 - cfg.gamma)) * gram
    if cfg.mu is None:
        return 1.9 / rho
    if not (0.0 < cfg.mu < 2.0 / rho):
        raise ValueError(f"mu must lie in (0, {2.0 / rho}) for this operator, got {cfg.mu}")
    return cfg.mu


def gmc_solve(
    a_op: LinearOperator,
    y,
    cfg: SolveConfig,
    callback: Optional[Callable[[SaddleState], None]] = None,
    compute_cost_trace: bool = False,
) -> SolveReport:
    """Minimize ``0.5*||y - A x||^2 + lam * gmc_B(x)`` with B built from A.

    Runs the forward-backward saddle-point iteration from x = v = 0 until
    the larger of the two block changes drops below ``cfg.tol``.  Hitting
    ``max_iter`` is reported via ``converged=False``, not an exception; a
    NaN or infinite entry in ``y`` raises ``ValueError``.

    ``callback`` receives each ``SaddleState`` after it is formed.  With
    ``compute_cost_trace`` the full objective is evaluated at every primal
    iterate after the loop finishes (the inner penalty minimization is too
    costly for the hot loop).
    """
    return _forward_backward(a_op, y, cfg, callback, compute_cost_trace)


def ista_solve(
    a_op: LinearOperator,
    y,
    lam: float,
    cfg: Optional[SolveConfig] = None,
    callback: Optional[Callable[[SaddleState], None]] = None,
    compute_cost_trace: bool = False,
) -> SolveReport:
    """Classic ISTA for ``0.5*||y - A x||^2 + lam*||x||_1``.

    ``x' = soft(x - mu*A^T(A x - y), mu*lam)`` with ``mu = 1.9/||A^T A||_2``
    unless overridden via ``cfg.mu``.  This is ``gmc_solve`` at
    ``gamma = 0`` by construction: both run the same kernel, which at
    ``gamma = 0`` applies A and its adjoint once each per iteration and
    holds v at zero.  ``lam`` takes precedence over ``cfg.lam``;
    ``cfg.gamma`` is ignored.
    """
    cfg = SolveConfig(lam=lam) if cfg is None else replace(cfg, lam=lam, gamma=0.0)
    return _forward_backward(a_op, y, cfg, callback, compute_cost_trace)


def _forward_backward(
    a_op: LinearOperator,
    y,
    cfg: SolveConfig,
    callback: Optional[Callable[[SaddleState], None]],
    compute_cost_trace: bool,
) -> SolveReport:
    y = np.asarray(y)
    if y.shape != (a_op.codomain_dim,):
        raise ValueError(f"y must have length {a_op.codomain_dim}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite (it holds a NaN or an infinity)")
    mu = _step_size(cfg, estimate_gram_norm(a_op))
    dtype = np.complex128 if (a_op.field == COMPLEX or np.iscomplexobj(y)) else np.float64
    x = np.zeros(a_op.domain_dim, dtype=dtype)
    v = np.zeros(a_op.domain_dim, dtype=dtype)
    gamma, lam = cfg.gamma, cfg.lam
    xs = [x.copy()] if compute_cost_trace else None
    iterations = 0
    delta = np.inf
    converged = False
    for i in range(cfg.max_iter):
        if gamma == 0.0:
            # ISTA, exactly: x + 0*(v - x) == x and the v block stays 0.0
            x_next = soft(x - mu * a_op.adjoint(a_op.forward(x) - y), mu * lam)
            delta = float(np.max(np.abs(x_next - x), initial=0.0))
        else:
            w = x - mu * a_op.adjoint(a_op.forward(x + gamma * (v - x)) - y)
            u = v - mu * gamma * a_op.adjoint(a_op.forward(v - x))
            x_next = soft(w, mu * lam)
            v_next = soft(u, mu * lam)
            delta = max(
                float(np.max(np.abs(x_next - x), initial=0.0)),
                float(np.max(np.abs(v_next - v), initial=0.0)),
            )
            v = v_next
        x = x_next
        iterations = i + 1
        if callback is not None:
            callback(SaddleState(x=x, v=v, iter=iterations, delta=delta))
        if xs is not None:
            xs.append(x.copy())
        if delta <= cfg.tol:
            converged = True
            break
    trace = None
    if xs is not None:
        trace = cost_value_many(a_op, y, lam, gamma, np.stack(xs, axis=1))
    return SolveReport(
        x_star=x,
        v_star=v,
        iterations=iterations,
        converged=converged,
        delta=delta,
        cost_trace=trace,
    )


def diagonal_solve(alphas, aty, lam: float, gamma: float) -> np.ndarray:
    """Closed-form minimizer when A^T A = diag(alphas**2) with alphas > 0.

    Element-wise firm thresholding
    ``firm(aty_n/alpha_n^2; lam/alpha_n^2, lam/(gamma*alpha_n^2))`` for
    ``0 < gamma < 1``; soft thresholding at ``gamma = 0``; the hard-threshold
    limit at ``gamma = 1`` (where the firm thresholds coincide).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    aty = np.asarray(aty, dtype=np.float64)
    if alphas.shape != aty.shape:
        raise ValueError("alphas and aty must have the same shape")
    if not np.all(alphas > 0):
        raise ValueError("alphas must be positive")
    if not (lam > 0):
        raise ValueError("lam must be positive")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    a2 = alphas * alphas
    t = aty / a2
    thr = lam / a2
    if gamma == 0.0:
        return np.asarray(soft(t, thr))
    if gamma == 1.0:
        return np.where(np.abs(t) <= thr, 0.0, t)
    return np.asarray(firm(t, FirmParams(lam=thr, mu=lam / (gamma * a2))))


def cost_value(a_op: LinearOperator, y, lam: float, gamma: float, x) -> float:
    """Objective value ``0.5*||y - A x||^2 + lam * gmc_B(x)``, B from A.

    ``gamma = 0`` reduces to the l1 objective (no inner solve needed).
    """
    xs = np.asarray(x)[:, None]
    return float(cost_value_many(a_op, y, lam, gamma, xs)[0])


def cost_value_many(a_op: LinearOperator, y, lam: float, gamma: float, xs) -> np.ndarray:
    """Objective values for the columns of ``xs`` (one inner solve, batched).

    The penalty comes from ``build_b_from_a``, so its inner solve runs to
    tolerance 1e-10 within 100 000 iterations.
    """
    xs = np.asarray(xs)
    y = np.asarray(y)
    r = a_op.forward_multi(xs) - y[:, None]
    data = 0.5 * np.sum(np.abs(r) ** 2, axis=0)
    if gamma == 0.0:
        return data + lam * np.sum(np.abs(xs), axis=0)
    pen = build_b_from_a(a_op, lam, gamma)
    return data + lam * eval_gmc_many(pen, xs)


def debias_on_support(a_op: LinearOperator, y, x) -> np.ndarray:
    """Re-fit the nonzero entries of ``x`` by unregularized least squares.

    The support is ``|x_n| > 1e-8``; the corresponding columns of A are
    materialized by applying the operator to basis vectors and the restricted
    normal equations are solved (least-norm if singular).  Entries off the
    support stay zero.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    support = np.flatnonzero(np.abs(x) > 1e-8)
    out = np.zeros(x.shape, dtype=np.result_type(x.dtype, a_op.dtype))
    if support.size == 0:
        return out
    basis = np.zeros((a_op.domain_dim, support.size), dtype=a_op.dtype)
    basis[support, np.arange(support.size)] = 1.0
    cols = a_op.forward_multi(basis)
    gram = cols.conj().T @ cols
    rhs = cols.conj().T @ y
    sol, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    out[support] = sol
    return out
