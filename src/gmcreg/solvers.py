"""Forward-backward saddle-point solver for GMC-regularized least squares.

Minimizes ``F(x) = 0.5*||y - A x||_2^2 + lam * gmc_B(x)`` with
``B = sqrt(gamma/lam) * A``, which keeps F convex for ``gamma < 1``.  The
problem is recast as a saddle-point problem in the pair (x, v) and solved by
primal-dual forward-backward splitting.  One step T from a point (p, q)
costs two applications of A and two of its adjoint plus soft thresholding:

    g     = ||A^T A||_2
    mu    = 1.9/g
    sigma = 1.9/(gamma*g*(1 + 4*gamma*g/(2/mu - (1-gamma)*g)))
    x'    = soft(p - mu * A^T( A(p + gamma*(q - p)) - y ), mu*lam)
    v'    = soft(q - sigma*gamma * A^T( A(q - (2x' - p)) ), sigma*lam)
    T(p, q) = (x', v')

with change ``delta = max(|x' - p|_inf, |v' - q|_inf)``.  x steps at mu
and v at sigma, each soft threshold is its block's step times lam, and
v's gradient ``gamma*A^T A(q - xbar)`` reads the extrapolated ``xbar = 2x'
- p``.  That makes T forward-backward in the non-diagonal metric

    ||(x, v)||_P^2 = ||x||^2/mu + ||v||^2/sigma - 2*gamma*Re<x, A^T A v>

(Condat, JOTA 2013; Vu, Adv. Comput. Math. 2013), within the framework of
Combettes & Vu (Optimization 2014): P absorbs the skew part of the saddle
operator, and what is left, ``C = diag((1-gamma) A^T A, gamma A^T A)``, is
cocoercive.  T is nonexpansive in P when P > 0 and 2P - C > 0.  On an
eigenvalue e of A^T A, 2P - C acts as the 2x2 matrix ``[[2/mu -
(1-gamma)*e, -2*gamma*e], [-2*gamma*e, 2/sigma - gamma*e]]``, which is
positive definite, and then so is P, when ``2/sigma > gamma*e +
4*gamma^2*e^2/(2/mu - (1-gamma)*e)``.  That bound is tightest at e = g,
and sigma is 0.95 of it there.  mu is 1.9/g at every gamma, so the l1
stage is exactly ISTA.  v's gradient step ``sigma*gamma*g`` is 1.9 as
gamma -> 0 and about 0.4 from gamma = 0.3 up.

At ``gamma = 0`` v stays zero and T is the iterative shrinkage /
thresholding (ISTA) step of the l1-regularized problem, so the kernel
carries x alone and applies A and its adjoint once each per step.  For
complex operators the adjoint is the conjugate transpose and soft
thresholding shrinks moduli.

A solve at ``gamma > 0`` runs in two stages on one block: the l1 solve
(``gamma = 0``) from 0, then the GMC solve from x = v = its answer, each
under the same ``tol`` and ``max_iter``.  This is continuation in gamma,
much as Hale, Yin & Zhang (SIAM J. Optim. 2008) continue in lam.  A
report's ``iterations``, ``converged`` and ``delta``, and the callback,
cover the GMC stage.

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
and clears its history.  The first step is the plain step from the
stage's start.  A solve returns T(z) of its last point, with ``delta =
||T(z) - z||_inf`` its change.  At ``gamma > 0`` the 2-norms and the
inner products weigh each float of v mu/sigma times one of x, as the
diagonal of P does; P's own norm would need another product with A.

A real signal runs on the operator's real form (``_real_form()``), which
is the operator itself except on the DFT frame.  There, from x = v = 0,
and so from the l1 answer, every iterate is Hermitian, ``x[N - n] ==
conj(x[n])``, and so is every Anderson point, whose coefficients are
real.  The form carries h = x[0..N/2] only and applies the frame by real
FFTs; its ``weights`` count each entry of h as the number of entries of x
it stands for, 1 for x[0] (and x[N/2] at even N) and 2 for the rest, so
the Anderson inner products (the squared norms and the Gram rows) equal
the full ones.  The sup-norm change, the shrink and the combination need
no weights.  Both stages run on the form, the GMC stage from the l1
stage's block as it stands, and the reports expand it to the domain.
Complex signals run on the operator itself.

One kernel iterates an (N, k) block of independent problems on a single
operator, each column with its own ``lam``.  ``solve_many`` hands it k
columns; ``gmc_solve`` and ``ista_solve`` are its k = 1 case, bit-identical
to a one-vector loop.  A column is written out when it converges or runs
out of budget.  Its iterates equal the solo solve's bit for bit, Anderson
steps included, on every operator: the frames transform each column on
its own, a dense operator multiplies each column on its own, and
every inner product of the history sums one column in the same order at
any k.  A written-out column leaves the block in the same
iteration, so it costs no further T or history work.  The steps come
from the operator's declared ``gram_norm``, never a power-iteration
estimate.  The penalties module runs the generalized-Huber
inner problem on the same kernel, and holds the objective ``cost_value``.
An iterate that turns NaN raises ``FloatingPointError``.

Solvers hold no hidden state: identical inputs and configuration produce
bit-identical iterate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import _finite, _integer, _positive
from .operators import COMPLEX, LinearOperator
from .scalar import _shrink

# Anderson memory: steps each column extrapolates from
_MEMORY = 10

# ridge of the Anderson normal equations, relative to their trace
_RIDGE = 1e-10


@dataclass(frozen=True)
class SolveConfig:
    """Configuration of the saddle-point solver.

    ``gamma`` in [0, 1) controls penalty non-convexity (0 gives plain l1;
    at 1 the x-block of the saddle operator loses its cocoercive part
    (1-gamma)*A^T A).  The steps are always x at ``1.9/||A^T A||_2`` and v
    at 0.95 of the largest step that keeps the primal-dual step
    nonexpansive in its metric P, given that x-step (see the module
    docstring).  ``tol`` bounds the sup-norm
    change, over both blocks, of the last step taken: a stage stops once a
    step moves no entry by more than ``tol``, or after ``max_iter`` steps.
    At ``gamma > 0`` the l1 stage and the GMC stage each get that budget.
    ``lam`` and ``tol`` must be positive and finite, ``max_iter`` an
    integer of at least 1 (``ValueError`` otherwise).
    """

    lam: float
    gamma: float = 0.0
    max_iter: int = 100_000
    tol: float = 1e-9

    def __post_init__(self):
        _positive(self.lam, "lambda")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        _positive(self.tol, "tol")
        _integer(self.max_iter, "max_iter")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome; ``converged`` means the final ``delta <= tol``.

    At ``gamma > 0`` ``iterations``, ``converged`` and ``delta`` are the GMC
    stage's, after the l1 solve it starts from (see the module docstring).
    """

    x_star: np.ndarray
    v_star: np.ndarray
    iterations: int
    converged: bool
    delta: float


def gmc_solve(
    a_op: LinearOperator,
    y,
    cfg: SolveConfig,
    callback: Optional[Callable[[SolveReport], None]] = None,
) -> SolveReport:
    """Minimize ``0.5*||y - A x||^2 + lam * gmc_B(x)`` with B built from A.

    At ``gamma > 0`` it first runs ``ista_solve`` under ``cfg`` (the l1
    stage), then the primal-dual forward-backward saddle-point iteration,
    whose v-update reads the extrapolated ``2x' - x``, from x = v = that
    answer (the GMC stage) until the larger of the two block changes drops
    below ``cfg.tol``; at ``gamma = 0`` it is ``ista_solve``.
    Hitting ``max_iter`` is reported via ``converged=False``, not an
    exception; a NaN or infinite entry in ``y`` raises ``ValueError``, and
    an iterate that turns NaN raises ``FloatingPointError``.  The report's
    ``iterations`` count the GMC stage.

    ``callback`` receives, after each GMC-stage iteration, the
    ``SolveReport`` the solve would return if it stopped there: T of the
    iteration's accepted point, as copies, with its change ``delta``.  It runs with numpy's
    divide and invalid warnings off, as in the loop.
    """
    return _solve_one(a_op, y, cfg, callback)


def ista_solve(
    a_op: LinearOperator,
    y,
    lam: float,
    cfg: Optional[SolveConfig] = None,
    callback: Optional[Callable[[SolveReport], None]] = None,
) -> SolveReport:
    """Accelerated ISTA for ``0.5*||y - A x||^2 + lam*||x||_1``.

    The safeguarded Anderson iteration (see the module docstring) of the
    ISTA step ``T(x) = soft(x - mu*A^T(A x - y), mu*lam)`` with
    ``mu = 1.9/||A^T A||_2``.  This is ``gmc_solve`` at ``gamma = 0`` by
    construction: both run the same kernel, which at ``gamma = 0`` applies
    A and its adjoint once each per step and holds v at zero.  ``lam``
    takes precedence over ``cfg.lam``; ``cfg.gamma`` is ignored.
    """
    cfg = SolveConfig(lam=lam) if cfg is None else replace(cfg, lam=lam, gamma=0.0)
    return _solve_one(a_op, y, cfg, callback)


def solve_many(a_op: LinearOperator, ys, cfgs: Sequence[SolveConfig]) -> tuple[SolveReport, ...]:
    """``gmc_solve(a_op, ys[:, j], cfgs[j])`` for every column j, as one block.

    ``ys`` is (M, k) and ``cfgs`` holds k configurations that may differ in
    ``lam`` only: they must agree on ``gamma``, ``tol`` and ``max_iter``.
    At ``gamma > 0`` the l1 stage runs as one block and the GMC stage as
    another, started from its answers.  Each iteration applies A and its
    adjoint to all live columns at once.  A column stops at its own
    tolerance or budget.  On every operator its iterates and iteration
    count equal the solo solve's bit for bit (see the module docstring).
    """
    return _l1_and_gmc(a_op, ys, cfgs)[1]


def _solve_one(a_op, y, cfg, callback) -> SolveReport:
    y = np.asarray(y)
    if y.shape != (a_op.codomain_dim,):
        raise ValueError(f"y must have length {a_op.codomain_dim}, got shape {y.shape}")
    (report,) = _l1_and_gmc(a_op, y[:, None], [cfg], callback)[1]
    return report


def _l1_and_gmc(a_op, ys, cfgs, callback=None):
    """``solve_many``'s reports at ``gamma = 0`` and at the cfgs' ``gamma``.

    Checks the block as ``solve_many`` documents and runs, on ``a_op``'s
    ``_real_form()`` for real data and on ``a_op`` else, the l1 block and,
    at ``gamma > 0``, the GMC block started from its x in that form's
    coordinates, both under the shared ``tol`` and ``max_iter``.
    ``callback`` sees the last stage only.  At ``gamma = 0`` both entries
    are the l1 reports.
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
    if len({(c.gamma, c.tol, c.max_iter) for c in cfgs}) != 1:
        raise ValueError("cfgs must agree on gamma, tol and max_iter")
    cfg, lams = cfgs[0], [c.lam for c in cfgs]
    op = a_op if np.iscomplexobj(ys) else a_op._real_form()
    if cfg.gamma == 0.0:
        l1 = _reports(op, cfg.tol, *_solve_block(op, ys, lams, cfg, callback))
        return l1, l1
    l1 = _solve_block(op, ys, lams, replace(cfg, gamma=0.0))
    gmc = _solve_block(op, ys, lams, cfg, callback, start=l1[0][0])
    return _reports(op, cfg.tol, *l1), _reports(op, cfg.tol, *gmc)


def _reports(op, tol, g, iterations, delta) -> tuple[SolveReport, ...]:
    """One ``SolveReport`` per column of a ``_solve_block`` block ``g``, expanded by ``op``."""
    x = op.expand(g[0])
    v = op.expand(g[1]) if len(g) == 2 else np.zeros_like(x)
    return tuple(
        SolveReport(
            x_star=x[:, j].copy(),
            v_star=v[:, j].copy(),
            iterations=int(iterations[j]),
            converged=bool(delta[j] <= tol),
            delta=float(delta[j]),
        )
        for j in range(x.shape[1])
    )


def _solve_block(op, ys, lams, cfg, callback=None, start=None):
    """Iterate the (N, k) block of problems ``ys[:, j]`` with weights ``lams[j]``.

    ``op`` is an operator or its ``_real_form()``, whose ``weights`` weigh
    the Anderson inner products.  ``cfg`` gives the shared ``gamma``,
    ``tol`` and ``max_iter``; its ``lam`` is not read.  The steps are
    ``_steps`` of ``op.gram_norm()`` (see the module docstring).  The block
    g holds T of each column's current point: the pair (x, v), shape (2, N,
    k), at ``gamma > 0`` and x alone, (1, N, k), at ``gamma = 0``.  The
    first point is x = v = ``start``, an (N, k) block, or 0 without one.
    Each iteration is one accepted step per column, ``_Anderson``'s
    safeguarded step (see the module docstring).  A column whose change
    drops to ``tol``, or whose budget runs out, is written out and leaves
    the block in the same iteration.  ``callback`` receives column 0's
    ``SolveReport`` each iteration; only single solves pass one.  Returns
    each column's final g in ``op``'s coordinates, and per column the
    iteration count and last change; a NaN change raises
    ``FloatingPointError``.
    """
    gram = op.gram_norm()
    _positive(gram, "operator Gram norm")
    _finite(ys, "y")
    gamma = cfg.gamma
    steps = np.array(_steps(gram, gamma))
    k = ys.shape[1]
    dtype = np.complex128 if (op.field == COMPLEX or np.iscomplexobj(ys)) else np.float64
    g = np.zeros((len(steps), op.domain_dim, k), dtype=dtype)
    if start is not None:
        g[:] = start
    out = np.zeros_like(g)  # each column's final g, written when it retires
    iterations = np.zeros(k, dtype=np.int64)
    deltas = np.zeros(k)
    thr = steps[:, None, None] * np.array(lams, dtype=np.float64)  # (blocks, 1, k)
    live = np.arange(k)  # original index of each block column
    # the Anderson norms weigh each block by the inverse of its step, as
    # the diagonal of the metric P does, relative to x's
    anderson = _Anderson(g, op.weights, steps[0] / steps)

    def apply(z, cols):
        return _saddle_step(op, z, ys[:, cols], steps, gamma, thr[..., cols])

    # _shrink divides by |w| in the branch np.where discards
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, cfg.max_iter + 1):
            g, delta = anderson.step(g, apply)
            if np.isnan(delta).any():
                raise FloatingPointError(f"an iterate turned NaN at iteration {i}")
            if callback is not None:
                callback(*_reports(op, cfg.tol, g[..., :1], [i], delta))
            done = (delta <= cfg.tol) | (i == cfg.max_iter)
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


def _steps(gram, gamma):
    """The x-step mu and, at ``gamma > 0``, the v-step sigma at ``||A^H A||_2 = gram``.

    mu is ``1.9/gram`` at every gamma; sigma is 0.95 of the largest v-step
    that keeps 2P - C > 0 with that mu (see the module docstring).
    """
    mu = 1.9 / gram
    if gamma == 0.0:
        return (mu,)
    slack = 2.0 / mu - (1.0 - gamma) * gram  # the x entry of 2P - C at g = gram
    return mu, 1.9 / (gamma * gram * (1.0 + 4.0 * gamma * gram / slack))


def _saddle_step(a_op, z, ys, steps, gamma, thr):
    """T of the columns of ``z``: one primal-dual forward-backward step from each.

    ``steps`` holds the x-step mu and, at ``gamma > 0``, the v-step sigma;
    ``thr`` holds the (blocks, 1, k) thresholds.  x steps first; v's
    gradient ``gamma*A^H A(v - xbar)`` then reads the extrapolated ``xbar =
    2x' - x``.
    """
    x, mu = z[0], steps[0]
    if gamma == 0.0:
        # ISTA, exactly: the v block is not carried
        return _shrink((x - mu * a_op.adjoint_multi(a_op.forward_multi(x) - ys))[None], thr)
    v = z[1]
    x_next = _shrink(x - mu * a_op.adjoint_multi(a_op.forward_multi(x + gamma * (v - x)) - ys),
                     thr[0])
    d = v - (2.0 * x_next - x)
    v_next = _shrink(v - steps[1] * gamma * a_op.adjoint_multi(a_op.forward_multi(d)), thr[1])
    return np.stack((x_next, v_next))


class _Anderson:
    """Safeguarded type-II Anderson acceleration of T on a (1 or 2, N, k) block.

    Each column keeps its last ``_MEMORY`` steps between accepted points z,
    or as many as a row has floats if that is fewer: the change dF of the
    residual f = T(z) - z and dG of T(z), flattened to real rows (complex
    entries as (re, im) pairs) in ring slots that all columns share, with
    ``gram`` = dF^T dF, which gains one row per step, and ``rhs`` = dF^T f,
    which moves by that row.  ``valid`` marks the slots of each column's
    current history.  Clearing a history zeroes its ``gram`` and ``rhs``
    and unmarks its slots, whose stale steps then stay out of every new
    Gram row; their Anderson coefficients solve to zero, so they add
    nothing to the extrapolation either.  The history and one (k, blocks,
    N) buffer ``z``, which holds each column's point and then its residual,
    are allocated once per block; ``step`` views ``z`` as real rows.  The
    Gram rows and squared norms are weighted sums over the entries of a
    column: an entry counts its ``weights`` entry (1 without them) times
    its block's ``scales`` entry.  The sup-norm change and the
    extrapolation stay unweighted.

    The products with the history are einsums over whole (k, m, width)
    slot stacks, and squared norms sum whole rows: for those shapes a
    column's summation order does not depend on k, so a block column gets
    the bits of its solo solve.
    """

    def __init__(self, g, weights, scales):
        blocks, n, k = g.shape
        width = g[..., 0].size * g.itemsize // 8  # float64s per column
        m = min(_MEMORY, width)  # more changes than a row has floats are linearly dependent
        # the weight of each float of a row: entries are (blocks, n), each of
        # itemsize // 8 floats, and block b's entries count scales[b] times
        entry = np.ones(n) if weights is None else weights
        self.w = np.repeat(np.concatenate([entry * s for s in scales]), g.itemsize // 8)
        self.df = np.zeros((k, m, width))
        self.dg = np.zeros((k, m, width))
        self.gram = np.zeros((k, m, m))
        self.rhs = np.zeros((k, m))
        self.valid = np.zeros((k, m), dtype=bool)
        self.eye = np.eye(m)
        self.z = np.zeros((k, blocks, n), dtype=g.dtype)
        self.norm2 = np.zeros(k)  # squared 2-norms of the residuals
        self.slot = -1  # the next slot to fill; -1 before the first point

    def _norms(self, f):
        """Squared 2-norms and sup-norms of the residual rows ``f``."""
        return (np.add.reduce(f * f * self.w, axis=1),
                np.maximum.reduce(np.abs(f.view(self.z.dtype)), axis=1, initial=0.0))

    def _extrapolate(self, g, rows):
        """Write each column's next point to try into ``z``, whose real view is ``rows``.

        The coefficients c solve ``(gram + ridge*I) c = rhs`` with a ridge of
        ``_RIDGE * trace(gram)``; the point is ``g - dG c``.  A column with no
        recorded change of f has zero ``gram`` and ``rhs`` and a ridge of 1,
        so c = 0 and its point is ``g`` itself: T writes its zeros as +0.0,
        so no sign bit flips.  Returns where the point is an Anderson point.
        """
        trace = self.gram.trace(axis1=1, axis2=2)
        use = trace > 0.0
        h = self.gram + np.where(use, _RIDGE * trace, 1.0)[:, None, None] * self.eye
        coef = np.linalg.solve(h, self.rhs[..., None])[..., 0]
        np.einsum("km,kmw->kw", coef, self.dg, out=rows)
        np.subtract(g.transpose(2, 0, 1), self.z, out=self.z)
        return use

    def step(self, g, apply):
        """One accepted step from the current points, whose T is ``g``.

        ``apply(z, cols)`` is T of ``z`` for the block columns ``cols``.  A
        column keeps its Anderson point when the residual there has a
        smaller 2-norm than at its current point.  Otherwise it steps from
        ``g`` and clears its history, which then starts from that step.
        Returns T of the new points and their sup-norm changes.
        """
        s, z = self.slot, self.z
        f = z.reshape(len(z), -1).view(np.float64)  # z as real rows, a view
        if s >= 0:  # the extrapolation reads no dF: park the old residual in slot s
            self.df[:, s] = f
        use = self._extrapolate(g, f)
        g_next = apply(z.transpose(1, 2, 0), slice(None))
        gc, g_nextc = g.transpose(2, 0, 1), g_next.transpose(2, 0, 1)
        np.subtract(g_nextc, z, out=z)  # the buffer now holds the residual
        norm2, delta = self._norms(f)
        redo = use & ~(norm2 < self.norm2)
        if redo.any():
            g_next[..., redo] = apply(g[..., redo], redo)
            z[redo] = g_nextc[redo] - gc[redo]
            norm2[redo], delta[redo] = self._norms(f[redo])
            self.gram[redo] = self.rhs[redo] = 0.0
            self.valid[redo] = False
        if s >= 0:
            self.valid[:, s] = True
            df = np.subtract(f, self.df[:, s], out=self.df[:, s])
            np.subtract(g_nextc, gc, out=self.dg[:, s].view(z.dtype).reshape(z.shape))
            row = np.einsum("kmw,kw->km", self.df, df * self.w)
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
        for name in ("df", "dg", "gram", "rhs", "valid", "z", "norm2"):
            a = getattr(self, name)
            a[first:n] = a[first:][keep[first:]]
            setattr(self, name, a[:n])


def debias_on_support(a_op: LinearOperator, y, x) -> np.ndarray:
    """Re-fit the nonzero entries of ``x`` by unregularized least squares.

    The support is ``|x_n| > 1e-8``; the corresponding columns of A are
    materialized by applying the operator to basis vectors and the restricted
    normal equations are solved (least-norm if singular).  Entries off the
    support stay zero.  ``x`` must have the operator's domain length and
    ``y`` its codomain length, and both must be finite (``ValueError``
    otherwise).
    """
    x = _finite(x, "x")
    y = _finite(y, "y")
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
