"""Forward-backward saddle-point solver for GMC-regularized least squares.

Minimizes ``F(x) = 0.5*||y - A x||_2^2 + lam * gmc_B(x)`` with
``B = sqrt(gamma/lam) * A``, which keeps F convex for ``gamma < 1``.  The
problem is recast as a saddle-point problem in the pair (x, v) and solved by
forward-backward splitting.  One step T from a point (p, q) costs two
applications of A and two of its adjoint plus soft thresholding:

    rho  = max(1, gamma/(1-gamma)) * ||A^T A||_2
    mu   in (0, 2/rho)
    w    = p - mu * A^T( A(p + gamma*(q - p)) - y )
    u    = q - mu * gamma * A^T( A(q - p) )
    T(p, q) = (soft(w, mu*lam), soft(u, mu*lam))

with change ``delta = max(|x' - p|_inf, |v' - q|_inf)`` for ``(x', v') =
T(p, q)``.  At ``gamma > 0`` each iteration is inertial forward-backward
(Lorenz & Pock, 2015) with a fixed ``alpha = 0.5`` and a guard:

    (p, q)  = (x, v) + alpha * ((x, v) - (x_prev, v_prev))
    (x', v') = T(p, q)
    if delta > the previous iteration's delta:  (x', v') = T(x, v)

(x_prev, v_prev) = (x, v) on the first iteration, so it is a plain step.
A step from the extrapolated point that changes more than the last step
did is discarded and retaken from (x, v) in the same iteration; ``delta``
is the change of the step kept.  Without the guard alpha = 0.5 can
diverge.  On the reference DFT-frame sweep the guarded iteration takes
0.55 times the iterations of plain forward-backward.

At ``gamma = 0`` the kernel runs the classic iterative shrinkage /
thresholding algorithm (ISTA) for the l1-regularized problem, without
inertia: v stays zero, so the kernel carries x alone and applies A and its
adjoint once each per iteration.  For complex operators the adjoint is the
conjugate transpose and soft thresholding shrinks moduli.

One kernel iterates an (N, k) block of independent problems on a single
operator, each column with its own ``lam``.  ``solve_many`` hands it k
columns; ``gmc_solve`` and ``ista_solve`` are its k = 1 case, bit-identical
to a one-vector loop.  A column is written out when it converges or runs
out of budget, after the same number of iterations as its solo solve.  On
the FFT-applied frames its iterates equal the solo solve's bit for bit; on
a dense operator they differ only by the rounding of a matrix-matrix
against a matrix-vector product.  The block drops its written-out columns
once they make up a quarter of it.  The step size comes from the
operator's ``gram_norm``: exact for dense matrices and the frames; only
other subclasses use a power-iteration estimate.  The penalties module
runs the generalized-Huber inner problem on the same kernel, and holds
the objective ``cost_value``.  An iterate that turns NaN raises
``FloatingPointError``.

Solvers hold no hidden state: identical inputs and configuration produce
bit-identical iterate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import COMPLEX, LinearOperator
from .scalar import FirmParams, _shrink, firm, soft

# inertia alpha of the gamma > 0 iteration, guarded by step rejection
_INERTIA = 0.5

# the block drops its retired columns once they make up a quarter of it
_COMPACT_AT = 0.75


@dataclass(frozen=True)
class SolveConfig:
    """Configuration of the saddle-point solver.

    ``gamma`` in [0, 1) controls penalty non-convexity (0 gives plain l1;
    1 is excluded because the forward step loses cocoercivity there).
    ``mu`` overrides the automatic step size ``1.9/rho`` and must stay in
    the open interval (0, 2/rho).  ``tol`` bounds the sup-norm change, over
    both blocks, of the last step taken: the solve stops once a step moves
    no entry by more than ``tol``.
    """

    lam: float
    gamma: float = 0.0
    mu: Optional[float] = None
    max_iter: int = 100_000
    tol: float = 1e-9

    def __post_init__(self):
        if not (0 < self.lam < np.inf):
            raise ValueError("lambda must be positive and finite")
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
) -> SolveReport:
    """Minimize ``0.5*||y - A x||^2 + lam * gmc_B(x)`` with B built from A.

    Runs the forward-backward saddle-point iteration from x = v = 0 until
    the larger of the two block changes drops below ``cfg.tol``.  Hitting
    ``max_iter`` is reported via ``converged=False``, not an exception; a
    NaN or infinite entry in ``y`` raises ``ValueError``, and an iterate
    that turns NaN raises ``FloatingPointError``.

    ``callback`` receives each ``SaddleState`` after it is formed, with
    numpy's divide and invalid warnings off, as in the loop.
    """
    return _solve_one(a_op, y, cfg, callback)


def ista_solve(
    a_op: LinearOperator,
    y,
    lam: float,
    cfg: Optional[SolveConfig] = None,
    callback: Optional[Callable[[SaddleState], None]] = None,
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
    return _solve_one(a_op, y, cfg, callback)


def solve_many(a_op: LinearOperator, ys, cfgs: Sequence[SolveConfig]) -> tuple[SolveReport, ...]:
    """``gmc_solve(a_op, ys[:, j], cfgs[j])`` for every column j, as one block.

    ``ys`` is (M, k) and ``cfgs`` holds k configurations that may differ in
    ``lam`` only: they must agree on ``gamma``, ``mu``, ``tol`` and
    ``max_iter``.  The Gram norm is taken once for the block, and each
    iteration applies A and its adjoint to all live columns at once.  A
    column stops at its own tolerance or budget, with the iteration count
    of its solo solve.  Its iterates equal the solo solve's bit for bit on
    the DFT and STFT frames; on a dense operator they match up to the
    rounding of a matrix-matrix against a matrix-vector product.
    """
    ys = np.asarray(ys)
    cfgs = tuple(cfgs)
    if ys.shape != (a_op.codomain_dim, len(cfgs)):
        raise ValueError(
            f"ys must have shape ({a_op.codomain_dim}, {len(cfgs)}) for {len(cfgs)} cfgs, "
            f"got {ys.shape}"
        )
    if not cfgs:
        raise ValueError("solve_many needs at least one column")
    if len({(c.gamma, c.mu, c.tol, c.max_iter) for c in cfgs}) != 1:
        raise ValueError("cfgs must agree on gamma, mu, tol and max_iter")
    return _solve_block(a_op, ys, cfgs)


def _solve_one(a_op, y, cfg, callback) -> SolveReport:
    y = np.asarray(y)
    if y.shape != (a_op.codomain_dim,):
        raise ValueError(f"y must have length {a_op.codomain_dim}, got shape {y.shape}")
    (report,) = _solve_block(a_op, y[:, None], (cfg,), callback)
    return report


def _solve_block(a_op, ys, cfgs, callback=None) -> tuple[SolveReport, ...]:
    """One kernel run for ``cfgs``, which share everything but ``lam``."""
    cfg = cfgs[0]
    mu = _step_size(cfg, a_op.gram_norm())
    lams = [c.lam for c in cfgs]
    z, iterations, delta = _forward_backward(
        a_op, ys, mu, lams, cfg.gamma, cfg.tol, cfg.max_iter, callback
    )
    x, v = z if len(z) == 2 else (z[0], np.zeros_like(z[0]))
    return tuple(
        SolveReport(
            x_star=x[:, j].copy(),
            v_star=v[:, j].copy(),
            iterations=int(iterations[j]),
            converged=bool(delta[j] <= cfg.tol),
            delta=float(delta[j]),
        )
        for j in range(len(cfgs))
    )


def _forward_backward(a_op, ys, mu, lams, gamma, tol, max_iter, callback=None):
    """Iterate the (N, k) block of problems ``ys[:, j]`` with weights ``lams[j]``.

    Step ``mu``, ``gamma``, ``tol`` and ``max_iter`` are shared.  The
    iterate z is the pair (x, v), shape (2, N, k), at ``gamma > 0`` and x
    alone, (1, N, k), at ``gamma = 0``.  At ``gamma > 0`` each column steps
    from its extrapolated point and falls back to a plain step when that one
    changes more than its last step did (see the module docstring).  A
    column whose change drops to ``tol``, or whose budget runs out, is
    written out and retired; the block drops its retired columns once they
    are a quarter of it.  The callback follows column 0; only single solves
    pass one.  Returns ``(z, iterations, delta)``: the final z, and per
    column the iteration count and the last change.  A NaN change raises
    ``FloatingPointError``.
    """
    if not np.all(np.isfinite(ys)):
        raise ValueError("y must be finite (it holds a NaN or an infinity)")
    k = ys.shape[1]
    dtype = np.complex128 if (a_op.field == COMPLEX or np.iscomplexobj(ys)) else np.float64
    z = np.zeros((1 if gamma == 0.0 else 2, a_op.domain_dim, k), dtype=dtype)
    z_out = np.empty_like(z)
    iterations = np.zeros(k, dtype=np.int64)
    deltas = np.zeros(k)
    thr = mu * np.array([lams], dtype=np.float64)
    live = np.arange(k)  # original index of each block column
    active = np.ones(k, dtype=bool)  # block columns not yet written out
    # inertial state: z_prev = z makes the first step plain; a retired
    # column's alpha is 0, so it runs plain steps until the block drops it
    z_prev, last = z, np.full(k, np.inf)
    alpha = np.full((1, k), _INERTIA)
    # _shrink divides by |w| in the branch np.where discards
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, max_iter + 1):
            if gamma == 0.0:
                z, delta = _saddle_step(a_op, z, ys, mu, gamma, thr)
            else:
                z_next, delta = _saddle_step(a_op, z + alpha * (z - z_prev), ys, mu, gamma, thr)
                redo = active & (delta > last)
                if redo.any():
                    z_next[..., redo], delta[redo] = _saddle_step(
                        a_op, z[..., redo], ys[:, redo], mu, gamma, thr[:, redo]
                    )
                z_prev, z, last = z, z_next, delta
            if np.isnan(delta).any():
                raise FloatingPointError(f"an iterate turned NaN at iteration {i}")
            if callback is not None:
                v = z[1, :, 0] if gamma else np.zeros_like(z[0, :, 0])
                callback(SaddleState(x=z[0, :, 0], v=v, iter=i, delta=float(delta[0])))
            done = active & ((delta <= tol) | (i == max_iter))
            if not done.any():
                continue
            cols = live[done]
            z_out[..., cols] = z[..., done]
            iterations[cols], deltas[cols] = i, delta[done]
            active &= ~done
            alpha[:, done] = 0.0
            n_live = np.count_nonzero(active)
            if n_live == 0:
                break
            if n_live <= _COMPACT_AT * active.size:
                z, z_prev, ys, thr, alpha, live, last = (
                    a[..., active] for a in (z, z_prev, ys, thr, alpha, live, last)
                )
                active = active[active]
    return z_out, iterations, deltas


def _saddle_step(a_op, z, ys, mu, gamma, thr):
    """One forward-backward step from the columns of ``z``: ``(z_next, delta)``."""
    x = z[0]
    if gamma == 0.0:
        # ISTA, exactly: x + 0*(v - x) == x and the v block stays 0.0
        w = (x - mu * a_op.adjoint_multi(a_op.forward_multi(x) - ys))[None]
    else:
        d = z[1] - x
        w = np.stack((x - mu * a_op.adjoint_multi(a_op.forward_multi(x + gamma * d) - ys),
                      z[1] - mu * gamma * a_op.adjoint_multi(a_op.forward_multi(d))))
    z_next = _shrink(w, thr)
    return z_next, np.max(np.abs(z_next - z), axis=(0, 1), initial=0.0)


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


def debias_on_support(a_op: LinearOperator, y, x) -> np.ndarray:
    """Re-fit the nonzero entries of ``x`` by unregularized least squares.

    The support is ``|x_n| > 1e-8``; the corresponding columns of A are
    materialized by applying the operator to basis vectors and the restricted
    normal equations are solved (least-norm if singular).  Entries off the
    support stay zero.  ``x`` must have the operator's domain length and
    ``y`` its codomain length (``ValueError`` otherwise).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != (a_op.domain_dim,) or y.shape != (a_op.codomain_dim,):
        raise ValueError(
            f"need x of shape ({a_op.domain_dim},) and y of shape ({a_op.codomain_dim},),"
            f" got {x.shape} and {y.shape}"
        )
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
