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
T(p, q)``.  At ``gamma = 0`` v stays zero and T is the iterative shrinkage /
thresholding (ISTA) step of the l1-regularized problem, so the kernel
carries x alone and applies A and its adjoint once each per step.  For
complex operators the adjoint is the conjugate transpose and soft
thresholding shrinks moduli.

At every ``gamma`` the kernel runs safeguarded type-II Anderson
acceleration of T, which applies to any nonexpansive fixed-point map
(Walker & Ni, SIAM J. Numer. Anal. 2011; Zhang, O'Donoghue & Boyd, SIAM J.
Optim. 2020).  Each column has a current point z with residual
f = T(z) - z, and remembers its last m = 10 steps between points (fewer
when a column holds fewer than ten floats): the changes dF of f and dG of
T(z).  The next point to try is

    z_aa = T(z) - dG c,   (dF^T dF + 1e-10 * trace(dF^T dF) * I) c = dF^T f

and it is kept when ``||T(z_aa) - z_aa||_2 < ||f||_2``.  Otherwise the
column steps to T(z) in the same iteration, an extra application of T,
and clears its history.  The first step is the plain step from 0.  A solve
returns T(z) of its last point, with ``delta = ||T(z) - z||_inf`` its
change.  On the reference DFT-frame sweep this takes 0.12 times the
iterations of plain forward-backward for GMC, plus 10 % extra applications
of T, and 0.19 times those of plain ISTA for l1.

A real signal on a DFT frame runs on the half spectrum.  From x = v = 0
every iterate is then Hermitian, ``x[N - n] == conj(x[n])``, and so is
every Anderson point, whose coefficients are real.  The kernel carries
h = x[0..N/2] only and applies the frame by real FFTs.  The Anderson
inner products (the squared norms and the Gram rows) weight each entry of
h by the number of entries of x it stands for, 1 for x[0] (and x[N/2] at
even N) and 2 for the rest, so they equal the full ones; the sup-norm
change, the shrink and the combination need no weights.  The answer is
expanded to the full Hermitian x when the solve returns.  Complex
signals, dense operators and the STFT frame run on the full coefficients.

One kernel iterates an (N, k) block of independent problems on a single
operator, each column with its own ``lam``.  ``solve_many`` hands it k
columns; ``gmc_solve`` and ``ista_solve`` are its k = 1 case, bit-identical
to a one-vector loop.  A column is written out when it converges or runs
out of budget.  On the FFT-applied frames its iterates equal the solo
solve's bit for bit, Anderson steps included: every inner product of the
history sums one column in the same order at any k.  On a dense operator
a block applies A as a matrix-matrix product and a solo solve as a
matrix-vector product, and the Anderson steps can amplify that rounding
difference, so the column can stop at another iteration and point within
its tolerance.  A written-out column leaves the block in the same
iteration, so it costs no further T or history work.  The step size comes
from the operator's ``gram_norm``, which every operator declares, never
from a power-iteration estimate.
The penalties module runs the generalized-Huber inner problem on the same
kernel, and holds the objective ``cost_value``.  An iterate that turns NaN
raises ``FloatingPointError``.

Solvers hold no hidden state: identical inputs and configuration produce
bit-identical iterate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .operators import COMPLEX, DftFrameOperator, LinearOperator
from .scalar import FirmParams, _shrink, firm, soft

# Anderson memory: steps each column extrapolates from.  On the reference sweep
# 10 steps take 0.58 times the GMC column-iterations of 5, each about 1.3 times
# as costly
_MEMORY = 10

# ridge of the Anderson normal equations, relative to their trace
_RIDGE = 1e-10


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

    ``callback`` receives each ``SaddleState`` after it is formed: T of
    the iteration's accepted point, as copies, with its change ``delta``.
    It runs with numpy's divide and invalid warnings off, as in the loop.
    """
    return _solve_one(a_op, y, cfg, callback)


def ista_solve(
    a_op: LinearOperator,
    y,
    lam: float,
    cfg: Optional[SolveConfig] = None,
    callback: Optional[Callable[[SaddleState], None]] = None,
) -> SolveReport:
    """Accelerated ISTA for ``0.5*||y - A x||^2 + lam*||x||_1``.

    The safeguarded Anderson iteration (see the module docstring) of the
    ISTA step ``T(x) = soft(x - mu*A^T(A x - y), mu*lam)`` with
    ``mu = 1.9/||A^T A||_2`` unless overridden via ``cfg.mu``.  This is
    ``gmc_solve`` at ``gamma = 0`` by construction: both run the same
    kernel, which at ``gamma = 0`` applies A and its adjoint once each per
    step and holds v at zero.  ``lam`` takes precedence over ``cfg.lam``;
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
    column stops at its own tolerance or budget.  On the DFT and STFT
    frames its iterates and iteration count equal the solo solve's bit for
    bit.  On a dense operator a matrix-matrix product rounds differently
    from a matrix-vector product, and the Anderson steps can amplify that
    up to the tolerance scale (see the module docstring).
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
    """One kernel run for ``cfgs``, which share everything but ``lam``.

    A real block on a DFT frame runs on the half spectrum (see the module
    docstring).  ``full`` turns a kernel block into full-length (x, v), v
    zero at ``gamma = 0``, for the reports and the callback states alike.
    """
    cfg = cfgs[0]
    mu = _step_size(cfg, a_op.gram_norm())
    lams = [c.lam for c in cfgs]
    op, weights, expand = a_op, None, np.asarray
    if isinstance(a_op, DftFrameOperator) and not np.iscomplexobj(ys):
        op = a_op._real_form()
        weights, expand = op.weights, op.expand

    def full(g):
        x = expand(g[0])
        return x, (expand(g[1]) if len(g) == 2 else np.zeros_like(x))

    track = None
    if callback is not None:

        def track(i, g, delta):
            x, v = full(g)
            callback(SaddleState(x=x.copy(), v=v.copy(), iter=i, delta=float(delta)))

    g, iterations, delta = _forward_backward(
        op, ys, mu, lams, cfg.gamma, cfg.tol, cfg.max_iter, track, weights
    )
    x, v = full(g)
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


def _forward_backward(a_op, ys, mu, lams, gamma, tol, max_iter, callback=None, weights=None):
    """Iterate the (N, k) block of problems ``ys[:, j]`` with weights ``lams[j]``.

    Step ``mu``, ``gamma``, ``tol`` and ``max_iter`` are shared.  The block
    g holds T of each column's current point: the pair (x, v), shape
    (2, N, k), at ``gamma > 0`` and x alone, (1, N, k), at ``gamma = 0``.
    Each iteration is one accepted step per column, ``_Anderson``'s
    safeguarded step (see the module docstring).  A column whose change
    drops to ``tol``, or whose budget runs out, is written out and leaves
    the block in the same iteration.  ``callback(i, g[..., 0], delta[0])``
    follows column 0, with a view into the block; only single solves pass
    one.  ``weights``, one per entry of a column, weight the inner products
    of the Anderson history (see ``_Anderson``).
    Returns ``(g, iterations, delta)``: the final g, and per column the
    iteration count and the last change.  A NaN change raises
    ``FloatingPointError``.
    """
    if not np.all(np.isfinite(ys)):
        raise ValueError("y must be finite (it holds a NaN or an infinity)")
    k = ys.shape[1]
    dtype = np.complex128 if (a_op.field == COMPLEX or np.iscomplexobj(ys)) else np.float64
    g = np.zeros((1 if gamma == 0.0 else 2, a_op.domain_dim, k), dtype=dtype)
    out = np.zeros_like(g)  # each column's final g, written when it retires
    iterations = np.zeros(k, dtype=np.int64)
    deltas = np.zeros(k)
    thr = mu * np.array([lams], dtype=np.float64)
    live = np.arange(k)  # original index of each block column
    anderson = _Anderson(g, _MEMORY, weights)

    def apply(z, cols):
        return _saddle_step(a_op, z, ys[:, cols], mu, gamma, thr[:, cols])

    # _shrink divides by |w| in the branch np.where discards
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, max_iter + 1):
            g, delta = anderson.step(g, apply)
            if np.isnan(delta).any():
                raise FloatingPointError(f"an iterate turned NaN at iteration {i}")
            if callback is not None:
                callback(i, g[..., 0], delta[0])
            done = (delta <= tol) | (i == max_iter)
            if not done.any():
                continue
            cols = live[done]
            out[..., cols] = g[..., done]
            iterations[cols], deltas[cols] = i, delta[done]
            if done.all():
                break
            keep = ~done
            g, ys, thr, live = (a[..., keep] for a in (g, ys, thr, live))
            anderson.compact(keep)
    return out, iterations, deltas


def _saddle_step(a_op, z, ys, mu, gamma, thr):
    """T of the columns of ``z``: one forward-backward step from each."""
    x = z[0]
    if gamma == 0.0:
        # ISTA, exactly: x + 0*(v - x) == x and the v block stays 0.0
        w = (x - mu * a_op.adjoint_multi(a_op.forward_multi(x) - ys))[None]
    else:
        d = z[1] - x
        w = np.stack((x - mu * a_op.adjoint_multi(a_op.forward_multi(x + gamma * d) - ys),
                      z[1] - mu * gamma * a_op.adjoint_multi(a_op.forward_multi(d))))
    return _shrink(w, thr)


class _Anderson:
    """Safeguarded type-II Anderson acceleration of T on a (1 or 2, N, k) block.

    Each column keeps its last ``m`` steps between accepted points z, or as
    many as a row has floats if that is fewer: the change dF of the
    residual f = T(z) - z and dG of T(z), flattened to real rows (complex
    entries as (re, im) pairs) in ring slots that all columns share, with
    ``gram`` = dF^T dF, which gains one row per step, and ``rhs`` = dF^T f,
    which moves by that row.  ``valid`` marks the slots of each column's
    current history.  Clearing a history zeroes its ``gram`` and ``rhs``
    and unmarks its slots, whose stale steps then stay out of every new
    Gram row; their Anderson coefficients solve to zero, so they add
    nothing to the extrapolation either.  The history and one row buffer,
    which holds each column's point and then its residual, are allocated
    once per block.  With ``weights``, the Gram rows and squared
    norms are weighted sums over the entries of a column; the sup-norm
    change and the extrapolation stay unweighted.

    The products with the history are einsums over whole (k, m, width)
    slot stacks, and squared norms sum whole rows: for those shapes a
    column's summation order does not depend on k, so a block column gets
    the bits of its solo solve.
    """

    def __init__(self, g, m, weights=None):
        blocks, n, k = g.shape
        self.dtype, self.shape = g.dtype, (blocks, n)
        width = g[..., 0].size * g.itemsize // 8  # float64s per column
        m = min(m, width)  # more changes than a row has floats are linearly dependent
        # the weight of each float of a row: entries are (blocks, n), each of
        # itemsize // 8 floats
        self.w = None if weights is None else np.repeat(np.tile(weights, blocks), g.itemsize // 8)
        self.df = np.zeros((k, m, width))
        self.dg = np.zeros((k, m, width))
        self.gram = np.zeros((k, m, m))
        self.rhs = np.zeros((k, m))
        self.valid = np.zeros((k, m), dtype=bool)
        self.eye = np.eye(m)
        self.f = np.zeros((k, width))  # rows of the residual at each current point
        self.norm2 = np.zeros(k)  # and their squared 2-norms
        self.slot = -1  # the next slot to fill; -1 before the first point
        self._view_rows()

    def _view_rows(self):
        """(k, blocks, N) and (blocks, N, k) complex views of the row buffer."""
        self.f_cols = self.f.view(self.dtype).reshape(len(self.f), *self.shape)
        self.f_block = self.f_cols.transpose(1, 2, 0)

    def _norms(self, f):
        """Squared 2-norms and sup-norms of the residual rows ``f``."""
        f2 = f * f if self.w is None else f * f * self.w
        return (np.add.reduce(f2, axis=1),
                np.maximum.reduce(np.abs(f.view(self.dtype)), axis=1, initial=0.0))

    def _extrapolate(self, g):
        """Write each column's next point to try into the row buffer.

        The coefficients c solve ``(gram + ridge*I) c = rhs`` with a ridge of
        ``_RIDGE * trace(gram)``; the point is ``g - dG c``.  Columns with
        no recorded change of f try ``g`` itself.  Returns where the point
        is an Anderson point.
        """
        trace = self.gram.trace(axis1=1, axis2=2)
        use = trace > 0.0
        zc, gc = self.f_cols, g.transpose(2, 0, 1)
        if use.any():
            ridge = np.where(use, _RIDGE * trace, 1.0)
            h = self.gram + ridge[:, None, None] * self.eye
            coef = np.linalg.solve(h, self.rhs[..., None])[..., 0]
            np.einsum("km,kmw->kw", coef, self.dg, out=self.f)
            np.subtract(gc, zc, out=zc)
        if not use.all():
            zc[~use] = gc[~use]
        return use

    def step(self, g, apply):
        """One accepted step from the current points, whose T is ``g``.

        ``apply(z, cols)`` is T of ``z`` for the block columns ``cols``.  A
        column keeps its Anderson point when the residual there has a
        smaller 2-norm than at its current point.  Otherwise it steps from
        ``g`` and clears its history, which then starts from that step.
        Returns T of the new points and their sup-norm changes.
        """
        s = self.slot
        if s >= 0:  # the extrapolation reads no dF: park the old residual in slot s
            self.df[:, s] = self.f
        use = self._extrapolate(g)
        f, fc = self.f, self.f_cols
        g_next = apply(self.f_block, slice(None))
        gc, g_nextc = g.transpose(2, 0, 1), g_next.transpose(2, 0, 1)
        np.subtract(g_nextc, fc, out=fc)  # the buffer now holds the residual
        norm2, delta = self._norms(f)
        redo = use & ~(norm2 < self.norm2)
        if redo.any():
            g_next[..., redo] = apply(g[..., redo], redo)
            fc[redo] = g_nextc[redo] - gc[redo]
            norm2[redo], delta[redo] = self._norms(f[redo])
            self.gram[redo] = self.rhs[redo] = 0.0
            self.valid[redo] = False
        if s >= 0:
            self.valid[:, s] = True
            df = np.subtract(f, self.df[:, s], out=self.df[:, s])
            np.subtract(g_nextc, gc, out=self.dg[:, s].view(self.dtype).reshape(fc.shape))
            row = np.einsum("kmw,kw->km", self.df, df if self.w is None else df * self.w)
            row = np.where(self.valid, row, 0.0)
            self.gram[:, s, :] = self.gram[:, :, s] = row
            self.rhs += row  # dF^T f moves by dF^T df
            # df^T f from the norms: |f|^2 = |f_old|^2 + 2 df^T f - |df|^2
            self.rhs[:, s] = 0.5 * (norm2 - self.norm2 + row[:, s])
        self.slot = (s + 1) % len(self.eye)
        self.norm2 = norm2
        return g_next, delta

    def compact(self, keep):
        """Move the kept columns to the front, in place, and drop the rest."""
        n = np.count_nonzero(keep)
        first = np.argmin(keep)  # the columns before the first dropped one stay put
        for name in ("df", "dg", "gram", "rhs", "valid", "f", "norm2"):
            a = getattr(self, name)
            a[first:n] = a[first:][keep[first:]]
            setattr(self, name, a[:n])
        self._view_rows()


def diagonal_solve(alphas, aty, lam: float, gamma: float) -> np.ndarray:
    """Closed-form minimizer when A^T A = diag(alphas**2) with alphas > 0.

    Element-wise firm thresholding
    ``firm(aty_n/alpha_n^2; lam/alpha_n^2, lam/(gamma*alpha_n^2))`` for
    ``0 < gamma < 1``; soft thresholding at ``gamma = 0``, and where the
    upper threshold overflows (its mu -> inf limit); the hard-threshold
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
    if gamma == 1.0:
        return np.where(np.abs(t) <= thr, 0.0, t)
    out = np.asarray(soft(t, thr))
    with np.errstate(over="ignore", divide="ignore"):
        mu = lam / (gamma * a2)  # inf at gamma = 0, or when a tiny gamma overflows it
    firm_part = np.isfinite(mu)
    if firm_part.any():
        out[firm_part] = firm(t[firm_part], FirmParams(lam=thr[firm_part], mu=mu[firm_part]))
    return out


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
