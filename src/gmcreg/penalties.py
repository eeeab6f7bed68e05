"""Generalized Huber function and GMC penalty.

The generalized Huber function of a matrix B is the infimal convolution of
the l1 norm with ``0.5 * ||B . ||_2^2``:

    gen_huber_B(x) = min_v  ||v||_1 + 0.5 * ||B (x - v)||_2^2

It is convex, differentiable, depends on B only through B^T B, and sits
between 0 and ``||x||_1``.  The GMC penalty is its complement,

    gmc_B(x) = ||x||_1 - gen_huber_B(x),

a non-convex sparsity penalty that keeps a least-squares cost convex when
B^T B is dominated by the Gram matrix of the data operator (see
``build_b_from_a`` and the solvers module).

There is no closed form for the inner minimum.  It is the l1
least-squares problem on B with data ``B x`` and weight 1, so it is
``ista_solve`` on B, with the step ``1.9/||B^T B||_2`` of every solve taken
from the norm B declares.
``cost_value`` adds the data fit to the penalty to give the objective the
solvers minimize.  Penalty objects are immutable and evaluation is pure, so
they can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, _finite, _integer, _positive
from .operators import COMPLEX, LinearOperator, ScaledOperator
from .solvers import SolveConfig, _solve_block


@dataclass(frozen=True)
class GmcPenalty:
    """A generalized Huber / GMC penalty parameterized by the operator B.

    ``inner_tol`` is the sup-norm fixed-point tolerance of the inner
    shrinkage iteration, positive and finite, and ``inner_max_iter`` its
    iteration budget, an integer of at least 1 (``ValueError`` otherwise).
    Every inner solve steps from the squared spectral norm
    ``b_op.gram_norm()``; construction asks for it, so an operator that
    declares none fails there.  At 0 the inner minimum is 0 without a solve.
    """

    b_op: LinearOperator
    inner_tol: float = 1e-10
    inner_max_iter: int = 100_000

    def __post_init__(self):
        _positive(self.inner_tol, "inner_tol")
        _integer(self.inner_max_iter, "inner_max_iter")
        self.b_op.gram_norm()

    @property
    def domain_dim(self) -> int:
        return self.b_op.domain_dim


@dataclass(frozen=True)
class InnerSolution:
    """Result of the inner minimization defining the generalized Huber value.

    ``v_star`` attains the minimum, ``value`` is the generalized Huber value
    at the queried point, ``residual`` the final sup-norm fixed-point change.
    When ``v_star`` holds one column per query point (a batched solve that
    ran out of iterations), ``value`` is the matching per-column array.
    """

    v_star: np.ndarray
    value: float | np.ndarray
    iterations: int
    residual: float


def build_b_from_a(a_op: LinearOperator, lam: float, gamma: float) -> GmcPenalty:
    """Construct the penalty with B = sqrt(gamma/lam) * A.

    Then B^T B = (gamma/lam) A^T A, and for ``0 <= gamma <= 1`` the combined
    cost ``0.5*||y - A x||^2 + lam * gmc_B(x)`` is convex.  ``gamma`` outside
    [0, 1] is rejected because that guarantee is lost.  The inner solve keeps
    ``GmcPenalty``'s defaults: tolerance 1e-10, 100 000 iterations.
    """
    _positive(lam, "lam")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1] to preserve cost convexity")
    scale = np.sqrt(gamma / lam)
    return GmcPenalty(ScaledOperator(a_op, scale))


def _as_columns(pen: GmcPenalty, x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != pen.domain_dim or x.shape[1] == 0:
        raise ValueError(f"expected vectors of length {pen.domain_dim}, got shape {x.shape}")
    _finite(x, "x")
    dtype = np.complex128 if (pen.b_op.field == COMPLEX or np.iscomplexobj(x)) else np.float64
    return x.astype(dtype)


def _as_vector(pen: GmcPenalty, x, name: str) -> np.ndarray:
    xs = _as_columns(pen, x)
    if xs.shape[1] != 1:
        raise ValueError(f"{name} takes a single vector, got shape {np.shape(x)}")
    return xs[:, 0]


def _inner_solve(pen: GmcPenalty, xs: np.ndarray, single: bool = False):
    """min_v ||v||_1 + 0.5*||B(x - v)||^2 for every column x of ``xs``.

    One block run of ``ista_solve`` on B with data ``B x`` and weight 1; a
    single column gets its bits.  Its safeguard keeps an extrapolated point
    only where the residual norm shrinks, so the objective need not
    decrease monotonically; each column stops at its own tolerance.
    Returns (v, values, iterations, residual), the last two the largest
    over the columns.  The ``ConvergenceError`` payload holds one column
    per query point, or the 1-D vector and a float when ``single``.
    """
    if pen.b_op.gram_norm() == 0.0:
        # B = 0: the minimum is 0 at v = 0
        return np.zeros_like(xs), np.zeros(xs.shape[1]), 0, 0.0
    cfg = SolveConfig(1.0, tol=pen.inner_tol, max_iter=pen.inner_max_iter)
    bx, ones = pen.b_op.forward_multi(xs), np.ones(xs.shape[1])
    (v,), iters, resids = _solve_block(pen.b_op, bx, ones, cfg)
    values, resid = _inner_values(pen, xs, v), float(resids.max())
    if resid <= pen.inner_tol:
        return v, values, int(iters.max()), resid
    raise ConvergenceError(
        f"inner shrinkage iteration did not reach tol={pen.inner_tol} "
        f"in {pen.inner_max_iter} iterations",
        best=InnerSolution(
            v_star=v[:, 0] if single else v,
            value=float(values[0]) if single else values,
            iterations=pen.inner_max_iter,
            residual=resid,
        ),
        iterations=pen.inner_max_iter,
    )


def _inner_values(pen: GmcPenalty, xs, v) -> np.ndarray:
    r = pen.b_op.forward_multi(xs - v)
    return np.sum(np.abs(v), axis=0) + 0.5 * np.sum(np.abs(r) ** 2, axis=0)


def eval_generalized_huber(pen: GmcPenalty, x) -> InnerSolution:
    """Evaluate the generalized Huber function at ``x`` via the inner problem.

    Raises ``ConvergenceError`` (with the best iterate attached) if the inner
    iteration budget is exhausted.
    """
    x = _as_vector(pen, x, "eval_generalized_huber")
    v, values, iters, resid = _inner_solve(pen, x[:, None], single=True)
    return InnerSolution(
        v_star=v[:, 0], value=float(values[0]), iterations=iters, residual=resid
    )


def eval_generalized_huber_many(pen: GmcPenalty, xs) -> tuple[np.ndarray, np.ndarray]:
    """Batched generalized Huber values for the columns of ``xs``.

    Returns ``(v_star, values)`` with matching column layout.  The iteration
    runs until every column meets the tolerance.
    """
    cols = _as_columns(pen, xs)
    v, values, _, _ = _inner_solve(pen, cols)
    return v, values


def grad_generalized_huber(pen: GmcPenalty, x) -> np.ndarray:
    """Gradient of the generalized Huber function: B^T B (x - v_star).

    Every entry has magnitude at most 1.
    """
    x = _as_vector(pen, x, "grad_generalized_huber")
    sol = eval_generalized_huber(pen, x)
    return pen.b_op.adjoint(pen.b_op.forward(x - sol.v_star))


def eval_gmc(pen: GmcPenalty, x) -> float:
    """GMC penalty value ``||x||_1 - gen_huber(x)``; lies in [0, ||x||_1]."""
    x = _as_vector(pen, x, "eval_gmc")
    sol = eval_generalized_huber(pen, x)
    return float(np.sum(np.abs(x)) - sol.value)


def eval_gmc_many(pen: GmcPenalty, xs) -> np.ndarray:
    """Batched GMC penalty values for the columns of ``xs``."""
    cols = _as_columns(pen, xs)
    _, values = eval_generalized_huber_many(pen, cols)
    return np.sum(np.abs(cols), axis=0) - values


def in_quadratic_region(pen: GmcPenalty, x) -> bool:
    """Whether ``||B^T B x||_inf <= 1``.

    On this region the generalized Huber function equals
    ``0.5 * ||B x||_2^2`` and the GMC penalty equals
    ``||x||_1 - 0.5 * ||B x||_2^2``.
    """
    g = pen.b_op.adjoint(pen.b_op.forward(_as_vector(pen, x, "in_quadratic_region")))
    return bool(np.max(np.abs(g)) <= 1.0)


def cost_value(a_op: LinearOperator, y, lam: float, gamma: float, x) -> float:
    """Objective value ``0.5*||y - A x||^2 + lam * gmc_B(x)``, B from A.

    ``gamma = 0`` reduces to the l1 objective (no inner solve needed).  ``x``
    must be one vector (``ValueError`` otherwise).
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"expected vectors of length {a_op.domain_dim}, got shape {x.shape}")
    return float(cost_value_many(a_op, y, lam, gamma, x[:, None])[0])


def cost_value_many(a_op: LinearOperator, y, lam: float, gamma: float, xs) -> np.ndarray:
    """Objective values for the columns of ``xs`` (one inner solve, batched).

    The penalty comes from ``build_b_from_a``, so its inner solve runs to
    tolerance 1e-10 within 100 000 iterations.  ``y`` must be a finite
    vector of length ``a_op.codomain_dim``, ``xs`` finite with at least
    one column and ``lam`` positive and finite (``ValueError`` otherwise),
    whatever ``gamma``.
    """
    y = np.asarray(y)
    if y.shape != (a_op.codomain_dim,):
        raise ValueError(f"y must have shape ({a_op.codomain_dim},), got {y.shape}")
    _finite(y, "y")
    _positive(lam, "lam")
    xs = np.asarray(xs)
    if xs.size == 0:
        raise ValueError(f"expected vectors of length {a_op.domain_dim}, got shape {xs.shape}")
    _finite(xs, "x")
    r = a_op.forward_multi(xs) - y[:, None]
    data = 0.5 * np.sum(np.abs(r) ** 2, axis=0)
    return data + lam * eval_gmc_many(build_b_from_a(a_op, lam, gamma), xs)
