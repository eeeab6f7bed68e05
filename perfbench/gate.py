"""Correctness gate shared by every workload, and the gate's self-test.

A returned pair ``(x_star, v_star)`` passes when one forward-backward step of
the saddle-point iteration, computed here from the public operator methods
and ``gmcreg.scalar.soft``, moves no entry by more than ``GATE_MULTIPLE``
times the tolerance the caller asked the solve for.  A fixed point of the
forward-backward map is a fixed point for every step size in ``(0, 2/rho)``,
so the gate does not depend on the step size the solver picked.
"""

from __future__ import annotations

import numpy as np

import gmcreg as G

# The solver stops once a step moves no entry by more than ``tol``; on every
# DFT and STFT solve measured the next step moved at most 1.0 * tol.  A zeroed
# coefficient, or a solve stopped at a tolerance over 3x looser, fails.
GATE_MULTIPLE = 3.0


class Tally:
    """Ops attempted and ops failed; ``failed_frac`` is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, units: int = 1, reason: str = "") -> None:
        self.attempted += units
        if not ok:
            self.failed += units
            self.reasons.append(reason)

    def fail_units(self, units: int, reason: str) -> None:
        """Mark ``units`` already-attempted ops as failed."""
        self.failed += units
        self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Gate:
    """Forward-backward fixed-point check; caches one Gram norm per operator."""

    def __init__(self):
        self._gram: dict[int, tuple[object, float]] = {}

    def _gram_norm(self, op) -> float:
        hit = self._gram.get(id(op))
        if hit is None or hit[0] is not op:
            hit = (op, G.estimate_gram_norm(op))
            self._gram[id(op)] = hit
        return hit[1]

    def step(self, op, y, lam: float, gamma: float, x, v):
        """One forward-backward step of the saddle-point iteration from ``(x, v)``."""
        rho = max(1.0, gamma / (1.0 - gamma)) * self._gram_norm(op)
        mu = 1.9 / rho
        w = x - mu * op.adjoint(op.forward(x + gamma * (v - x)) - y)
        u = v - mu * gamma * op.adjoint(op.forward(v - x))
        return G.soft(w, mu * lam), G.soft(u, mu * lam)

    def step_change(self, op, y, lam: float, gamma: float, x, v) -> float:
        """Sup-norm change of one forward-backward step from ``(x, v)``."""
        x1, v1 = self.step(op, np.asarray(y), lam, gamma, x, v)
        return max(float(np.max(np.abs(x1 - x))), float(np.max(np.abs(v1 - v))))

    def check(self, op, y, lam, gamma, x, v, tol) -> tuple[bool, str]:
        x = np.asarray(x)
        v = np.zeros_like(x) if v is None else np.asarray(v)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            return False, "non-finite solution"
        change = self.step_change(op, y, lam, gamma, x, v)
        if not change <= GATE_MULTIPLE * tol:
            return False, f"forward-backward step moves {change:.3g} > {GATE_MULTIPLE:g} * tol {tol:g}"
        return True, ""


    def check_inner(self, b_op, xs, v, tol) -> tuple[bool, str]:
        """One shrinkage step of the generalized-Huber inner problem from ``v``.

        ``min_v ||v||_1 + 0.5*||B(x - v)||^2`` for every column of ``xs``,
        with step ``1/||B^T B||``.
        """
        step = 1.0 / self._gram_norm(b_op)
        grad = b_op.adjoint_multi(b_op.forward_multi(v - xs))
        change = float(np.max(np.abs(G.soft(v - step * grad, step) - v)))
        if not change <= GATE_MULTIPLE * tol:
            return False, f"shrinkage step moves {change:.3g} > {GATE_MULTIPLE:g} * tol {tol:g}"
        return True, ""


def self_test() -> None:
    """Show that the gate counts a perturbed answer and a loose solve as failed.

    Uses the identity operator, where the minimizer is known in closed form
    (the firm threshold of ``y``), so the test does not rest on the solver
    under test.  Raises ``AssertionError`` when the gate lets either bad
    answer through, or rejects the exact one.
    """
    rng = np.random.default_rng(0x5E1F)
    n, lam, gamma, tol = 64, 1.0, 0.8, 1e-6
    eye = G.DenseOperator(np.eye(n))
    y = 3.0 * rng.standard_normal(n)
    mag, knee = np.abs(y), lam / gamma
    exact = np.where(mag <= lam, 0.0,
                     np.where(mag >= knee, y, np.sign(y) * knee * (mag - lam) / (knee - lam)))
    exact_v = np.sign(exact) * np.maximum(np.abs(exact) - knee, 0.0)
    zeroed = exact.copy()
    zeroed[int(np.argmax(np.abs(zeroed)))] = 0.0
    gate, tally = Gate(), Tally()
    loose_x = loose_v = np.zeros(n)
    while True:  # the iteration stopped at tol 1e-2 instead of 1e-6
        x1, v1 = gate.step(eye, y, lam, gamma, loose_x, loose_v)
        done = max(np.max(np.abs(x1 - loose_x)), np.max(np.abs(v1 - loose_v))) <= 1e-2
        loose_x, loose_v = x1, v1
        if done:
            break
    for x, v in ((exact, exact_v), (zeroed, exact_v), (loose_x, loose_v)):
        ok, why = gate.check(eye, y, lam, gamma, x, v, tol)
        tally.record(ok, 1, why)
    assert tally.attempted == 3 and tally.failed == 2, (
        f"gate self-test: expected 2 of 3 failed, got {tally.failed} ({tally.reasons})"
    )
    assert gate.check(eye, y, lam, gamma, exact, exact_v, tol)[0]
