import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmcreg.solvers
from gmcreg import (
    DenseOperator,
    DftFrameOperator,
    GmcPenalty,
    LinearOperator,
    SolveConfig,
    cost_value,
    cost_value_many,
    debias_on_support,
    diagonal_solve,
    estimate_gram_norm,
    gmc_solve,
    ista_solve,
    scalar_minimize,
    ScalarPenaltyParams,
    StftFrameOperator,
    eval_generalized_huber,
    solve_many,
)

from _oracles import (
    dense_gram_lambda_max,
    dense_saddle_step,
    dft_frame_entries,
    dense_saddle_steps,
    grid_argmin_scalar_cost,
)


def random_instance(rng, m, n):
    a = DenseOperator(rng.normal(size=(m, n)))
    y = rng.normal(size=m)
    return a, y


class TestConfig:
    def test_gamma_one_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(lam=1.0, gamma=1.0)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            SolveConfig(lam=1.0, tol=0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_lam_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError):
            SolveConfig(lam=lam)

    def test_mu_out_of_range(self):
        a = DenseOperator(np.eye(2))
        cfg = SolveConfig(lam=1.0, gamma=0.0, mu=3.0)  # 2/rho = 2 here
        with pytest.raises(ValueError):
            gmc_solve(a, np.ones(2), cfg)


class TestGmcSolve:
    def test_identity_soft_threshold(self):
        rep = gmc_solve(DenseOperator(np.eye(2)), np.array([3.0, 0.5]), SolveConfig(lam=1.0))
        assert np.allclose(rep.x_star, [2.0, 0.0], atol=1e-8)
        assert rep.converged

    def test_diagonal_matches_firm(self):
        a = DenseOperator(np.diag([1.0, 2.0]))
        y = np.array([3.0, 1.0])
        rep = gmc_solve(a, y, SolveConfig(lam=1.0, gamma=0.5))
        ref = diagonal_solve(np.array([1.0, 2.0]), a.adjoint(y), 1.0, 0.5)
        assert np.allclose(rep.x_star, ref, atol=1e-7)

    def test_matches_long_reference_run_and_local_optimality(self):
        rng = np.random.default_rng(42)
        a = DenseOperator(rng.normal(size=(4, 6)))
        y = rng.normal(size=4)
        cfg = SolveConfig(lam=0.5, gamma=0.8)
        rep = gmc_solve(a, y, cfg)
        ref = gmc_solve(a, y, SolveConfig(lam=0.5, gamma=0.8, tol=1e-14, max_iter=10_000_000))
        assert ref.converged
        assert np.max(np.abs(rep.x_star - ref.x_star)) <= 1e-6
        f_star = cost_value(a, y, 0.5, 0.8, rep.x_star)
        deltas = rng.normal(size=(6, 300))
        deltas *= 0.01 * rng.uniform(0, 1, size=300) / np.linalg.norm(deltas, axis=0)
        probes = cost_value_many(a, y, 0.5, 0.8, rep.x_star[:, None] + deltas)
        assert np.all(f_star <= probes + 1e-9)

    def test_saddle_optimality_conditions(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
            a, y = random_instance(rng, m, n)
            lam, gamma = 0.6, 0.7
            rep = gmc_solve(a, y, SolveConfig(lam=lam, gamma=gamma, tol=1e-10))
            assert rep.converged
            x, v = rep.x_star, rep.v_star
            gram = a.entries.T @ a.entries
            c = a.entries.T @ (a.entries @ x - y) - gamma * gram @ (x - v)
            d = gamma * gram @ (x - v)
            assert np.max(np.abs(c)) <= lam + 1e-6
            assert np.max(np.abs(d)) <= lam + 1e-6
            nz = np.abs(x) > 1e-7
            if nz.any():
                assert np.max(np.abs(c[nz] + lam * np.sign(x[nz]))) <= 1e-6
            nzv = np.abs(v) > 1e-7
            if nzv.any():
                assert np.max(np.abs(d[nzv] - lam * np.sign(v[nzv]))) <= 1e-6

    def test_cost_trace_converges_to_minimum(self):
        # The saddle iteration is not a descent method on the primal cost:
        # the forward operator is non-symmetric, so F(x_i) can rise during
        # the transient (the rise below is cross-checked against an
        # independent convex solver in development).  What does hold is that
        # the converged cost undercuts everything the transient visited.
        rng = np.random.default_rng(6)
        saw_transient_rise = False
        for gamma in (0.5, 0.8):
            for _ in range(5):
                a, y = random_instance(rng, 6, 8)
                xs = [np.zeros(8)]
                head = gmc_solve(
                    a, y, SolveConfig(lam=0.4, gamma=gamma, max_iter=300, tol=1e-300),
                    callback=lambda s: xs.append(s.x.copy()),
                )
                trace = cost_value_many(a, y, 0.4, gamma, np.stack(xs, axis=1))
                assert trace is not None and trace.shape[0] == head.iterations + 1
                saw_transient_rise |= bool(np.any(np.diff(trace) > 1e-9))
                full = gmc_solve(a, y, SolveConfig(lam=0.4, gamma=gamma, tol=1e-10))
                assert full.converged
                f_final = cost_value(a, y, 0.4, gamma, full.x_star)
                assert f_final <= np.min(trace) + 1e-9
        assert saw_transient_rise

    def test_deterministic_iterates(self):
        rng = np.random.default_rng(7)
        a, y = random_instance(rng, 5, 9)
        cfg = SolveConfig(lam=0.5, gamma=0.6, max_iter=50, tol=1e-300)
        runs = []
        for _ in range(2):
            xs = []
            gmc_solve(a, y, cfg, callback=lambda s: xs.append(s.x.copy()))
            runs.append(xs)
        assert all(np.array_equal(p, q) for p, q in zip(*runs))

    def test_max_iter_reports_not_converged(self):
        rng = np.random.default_rng(8)
        a, y = random_instance(rng, 5, 9)
        rep = gmc_solve(a, y, SolveConfig(lam=0.1, gamma=0.5, max_iter=3))
        assert not rep.converged
        assert rep.iterations == 3


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_both_solvers_raise(self, bad):
        rng = np.random.default_rng(13)
        a, y = random_instance(rng, 5, 8)
        y[2] = bad
        with pytest.raises(ValueError, match="finite"):
            gmc_solve(a, y, SolveConfig(lam=0.5, gamma=0.5))
        with pytest.raises(ValueError, match="finite"):
            ista_solve(a, y, 0.5)

    def test_complex_nan_raises(self):
        y = np.ones(16, dtype=complex)
        y[0] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="finite"):
            gmc_solve(DftFrameOperator(16, 32), y, SolveConfig(lam=0.5))


class _NanAdjointIdentity(LinearOperator):
    """The 3x3 identity, except that its adjoint emits NaN where |y| > 1.5."""

    def __init__(self):
        super().__init__(3, 3, "real")

    def forward_multi(self, x):
        return x

    def adjoint_multi(self, y):
        return np.where(np.abs(y) > 1.5, np.nan, y)

    def gram_norm(self):
        return 1.0


class TestNanIterate:
    """An operator that emits NaN fails loudly instead of ending at x = 0."""

    Y = np.array([3.0, 0.1, -1.0])  # the true l1 answer at lam 0.2 is (2.8, 0, -0.8)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda op, y: ista_solve(op, y, 0.2),
            lambda op, y: gmc_solve(op, y, SolveConfig(lam=0.2, gamma=0.5)),
            lambda op, y: solve_many(op, np.stack([y, y], axis=1), [SolveConfig(lam=0.2)] * 2),
            lambda op, y: eval_generalized_huber(GmcPenalty(op), y),
        ],
        ids=["ista_solve", "gmc_solve", "solve_many", "eval_generalized_huber"],
    )
    def test_raises_floating_point_error(self, solve):
        with pytest.raises(FloatingPointError, match="NaN"):
            solve(_NanAdjointIdentity(), self.Y)


class TestDenseOracle:
    """``gmc_solve`` against the dense saddle recurrence, bit for bit.

    At every ``gamma`` that is the safeguarded Anderson recurrence with the
    kernel's memory ``_MEMORY``; at ``gamma = 0`` it carries x alone.
    """

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_iterates_match_dense_recurrence(self, gamma, field):
        rng = np.random.default_rng(14)
        entries = rng.normal(size=(6, 9))
        y = rng.normal(size=6)
        if field == "complex":
            entries = entries + 1j * rng.normal(size=(6, 9))
            y = y + 1j * rng.normal(size=6)
        lam = 0.3
        mu = 1.0 / (max(1.0, gamma / (1.0 - gamma)) * dense_gram_lambda_max(entries))
        cfg = SolveConfig(lam=lam, gamma=gamma, mu=mu, tol=1e-300, max_iter=150)
        states = []
        gmc_solve(DenseOperator(entries), y, cfg, callback=states.append)
        expected = dense_saddle_steps(entries, y, lam, gamma, mu, gmcreg.solvers._MEMORY)
        assert len(states) == 150 or states[-1].delta == 0.0
        for s, (x, v, delta) in zip(states, expected):
            assert s.x.tobytes() == x.tobytes()
            assert s.v.tobytes() == v.tobytes()
            assert s.delta == delta


class TestInertialStability:
    """The safeguarded Anderson iteration against plain forward-backward."""

    TOL = 1e-10

    @pytest.mark.parametrize("l1", [False, True], ids=["gmc", "l1"])
    def test_peak_and_iterations_against_plain(self, l1):
        # Random dense instances from the small and the criterion-5 families,
        # real and complex, solved to 1e-10 at the same step, at their drawn
        # gamma or, for l1, at gamma = 0.  No instance may take more than 1.1
        # times the plain iterations, or peak above twice the plain iterates;
        # all of them together take at most 0.7 times the plain iterations.
        rng = np.random.default_rng(23)
        ours, plains = [], []
        for trial in range(32):
            if trial % 4 < 2:
                m, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
                entries, y = rng.normal(size=(m, n)), rng.normal(size=m)
            else:
                m, n = int(rng.integers(8, 31)), int(rng.integers(5, 31))
                entries, y = rng.normal(size=(m, n)) / np.sqrt(m), rng.normal(size=m)
            if trial % 2:
                entries = entries + 1j * rng.normal(size=(m, n)) / np.sqrt(m)
                y = y + 1j * rng.normal(size=m)
            lam, gamma = rng.uniform(0.2, 0.8), rng.uniform(0.3, 0.9)
            if l1:
                gamma = 0.0
            mu = 1.9 / (max(1.0, gamma / (1.0 - gamma)) * dense_gram_lambda_max(entries))
            peak = [0.0]

            def track(s):
                peak[0] = max(peak[0], np.max(np.abs(s.x)), np.max(np.abs(s.v)))

            cfg = SolveConfig(lam=lam, gamma=gamma, mu=mu, tol=self.TOL)
            rep = gmc_solve(DenseOperator(entries), y, cfg, callback=track)
            assert rep.converged
            plain_iters, plain_peak = plain_run(entries, y, lam, gamma, mu, self.TOL)
            assert peak[0] <= 2.0 * plain_peak
            assert rep.iterations <= 1.1 * plain_iters
            ours.append(rep.iterations)
            plains.append(plain_iters)
        assert sum(ours) <= 0.7 * sum(plains)


def plain_run(entries, y, lam, gamma, mu, tol):
    """Iterations and peak entry modulus of plain forward-backward to ``tol``."""
    peak = 0.0
    for iters, (x, v, delta) in enumerate(dense_saddle_steps(entries, y, lam, gamma, mu), start=1):
        peak = max(peak, np.max(np.abs(x)), np.max(np.abs(v)))
        if delta <= tol:
            return iters, peak


def fixed_point_change(entries, y, lam, gamma, rep):
    """Sup-norm change of one plain forward-backward step from ``rep``'s answer."""
    mu = 1.9 / (max(1.0, gamma / (1.0 - gamma)) * dense_gram_lambda_max(entries))
    x, v = dense_saddle_step(entries, y, lam, gamma, mu, rep.x_star, rep.v_star)
    return max(np.max(np.abs(x - rep.x_star)), np.max(np.abs(v - rep.v_star)))


@st.composite
def dense_gmc_problems(draw, columns=1):
    """A small random real or complex dense instance: (entries, ys, lams, gamma)."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries, ys = rng.normal(size=(m, n)), rng.normal(size=(m, columns))
    if draw(st.booleans()):
        entries = entries + 1j * rng.normal(size=(m, n))
        ys = ys + 1j * rng.normal(size=(m, columns))
    lams = [draw(st.floats(0.1, 1.0)) for _ in range(columns)]
    return entries, ys, lams, draw(st.floats(0.3, 0.9, exclude_max=True))


class TestAndersonProperties:
    """The gamma > 0 kernel on small random operators: dense, real and complex, and DFT frames."""

    TOL = 1e-10

    @given(dense_gmc_problems())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_converged_solve_is_a_fixed_point(self, problem):
        entries, ys, (lam,), gamma = problem
        rep = gmc_solve(DenseOperator(entries), ys[:, 0], SolveConfig(lam, gamma, tol=self.TOL))
        assert rep.converged
        assert fixed_point_change(entries, ys[:, 0], lam, gamma, rep) <= 3 * self.TOL

    @given(dense_gmc_problems(columns=3))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_block_columns_are_fixed_points(self, problem):
        # A block applies A as one matrix-matrix product, a solo solve as a
        # matrix-vector product.  The Anderson steps can amplify that
        # rounding difference up to the tolerance scale, so on a dense
        # operator a column is held to the solo solve's fixed-point test,
        # not to its bits (those are pinned on the frames below).
        entries, ys, lams, gamma = problem
        cfgs = [SolveConfig(lam, gamma, tol=self.TOL) for lam in lams]
        for j, rep in enumerate(solve_many(DenseOperator(entries), ys, cfgs)):
            assert rep.converged
            assert fixed_point_change(entries, ys[:, j], lams[j], gamma, rep) <= 3 * self.TOL

    @given(st.integers(4, 40), st.integers(0, 40), st.integers(0, 2**32 - 1),
           st.floats(0.3, 0.9, exclude_max=True), st.booleans())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_block_matches_solo_solves_on_frames(self, m, extra, seed, gamma, complex_y):
        op = DftFrameOperator(m, m + extra)
        rng = np.random.default_rng(seed)
        ys = rng.normal(size=(m, 3)) + (1j * rng.normal(size=(m, 3)) if complex_y else 0.0)
        cfgs = [SolveConfig(lam, gamma, tol=1e-8) for lam in rng.uniform(0.1, 1.0, size=3)]
        for j, rep in enumerate(solve_many(op, ys, cfgs)):
            solo = gmc_solve(op, ys[:, j], cfgs[j])
            assert rep.iterations == solo.iterations
            assert rep.x_star.tobytes() == solo.x_star.tobytes()
            assert rep.v_star.tobytes() == solo.v_star.tobytes()

    @given(dense_gmc_problems())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_peak_at_most_twice_plain(self, problem):
        entries, ys, (lam,), gamma = problem
        mu = 1.9 / (max(1.0, gamma / (1.0 - gamma)) * dense_gram_lambda_max(entries))
        peak = [0.0]

        def track(s):
            peak[0] = max(peak[0], np.max(np.abs(s.x)), np.max(np.abs(s.v)))

        cfg = SolveConfig(lam, gamma, mu=mu, tol=self.TOL)
        assert gmc_solve(DenseOperator(entries), ys[:, 0], cfg, callback=track).converged
        assert peak[0] <= 2.0 * plain_run(entries, ys[:, 0], lam, gamma, mu, self.TOL)[1]


def assert_v_is_zero(rep):
    """At gamma = 0 the kernel carries no v block; v_star is zeros shaped like x."""
    assert rep.v_star.shape == rep.x_star.shape
    assert rep.v_star.dtype == rep.x_star.dtype
    assert not np.any(rep.v_star)


def _block_problem(kind):
    """An operator and a (M, 4) block whose column 0 is zero."""
    rng = np.random.default_rng(18)
    entries = rng.normal(size=(6, 9))
    if kind == "dft":
        op = DftFrameOperator(20, 48)
    elif kind == "stft":
        op = StftFrameOperator(90, 16)
    elif kind == "dense_real":
        op = DenseOperator(entries)
    else:
        op = DenseOperator(entries + 1j * rng.normal(size=(6, 9)))
    ys = rng.normal(size=(op.codomain_dim, 4))
    if kind == "dense_complex":
        ys = ys + 1j * rng.normal(size=ys.shape)
    ys[:, 0] = 0.0
    return op, ys


class TestSolveMany:
    """Each ``solve_many`` column against its solo ``gmc_solve``."""

    LAMS = (0.5, 0.2, 0.6, 0.35)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize(
        "kind", ["dense_real", "dense_complex", "dense_complex_real_y", "dft", "stft"]
    )
    def test_columns_match_solo_solves(self, kind, gamma):
        op, ys = _block_problem(kind)
        budgets = [
            gmc_solve(op, ys[:, j], SolveConfig(lam=lam, gamma=gamma, tol=1e-8)).iterations
            for j, lam in enumerate(self.LAMS)
        ]
        # the slowest column runs out of budget while the others converge
        max_iter = max(budgets) - 1
        cfgs = [SolveConfig(lam=lam, gamma=gamma, tol=1e-8, max_iter=max_iter) for lam in self.LAMS]
        reports = solve_many(op, ys, cfgs)
        solos = [gmc_solve(op, ys[:, j], cfg) for j, cfg in enumerate(cfgs)]
        assert reports[0].iterations == 1 and reports[0].converged
        assert not all(r.converged for r in reports)
        assert sum(r.converged for r in reports) >= 2
        for j, (rep, solo) in enumerate(zip(reports, solos)):
            assert rep.iterations == solo.iterations
            assert rep.converged == solo.converged
            assert rep.x_star.shape == solo.x_star.shape
            if kind in ("stft", "dft"):  # per-column FFTs: the very same arithmetic
                assert rep.x_star.tobytes() == solo.x_star.tobytes()
                assert rep.v_star.tobytes() == solo.v_star.tobytes()
            elif gamma > 0 and kind in ("dense_real", "dense_complex"):
                # matrix-matrix and matrix-vector products round differently,
                # and here the Anderson steps amplify that past 1e-12 (see
                # TestAndersonProperties): a converged column is held to the
                # fixed-point test, a column stopped by its budget to its solo
                # answer within the tolerance
                if rep.converged:
                    change = fixed_point_change(op.entries, ys[:, j], self.LAMS[j], gamma, rep)
                    assert change <= 3 * 1e-8
                else:
                    assert np.max(np.abs(rep.x_star - solo.x_star)) <= 1e-8
                    assert np.max(np.abs(rep.v_star - solo.v_star)) <= 1e-8
            else:
                assert np.max(np.abs(rep.x_star - solo.x_star)) <= 1e-12
                assert np.max(np.abs(rep.v_star - solo.v_star)) <= 1e-12
            if gamma == 0.0:
                assert_v_is_zero(rep)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_retired_column_costs_no_more_t(self, monkeypatch, gamma):
        rng = np.random.default_rng(18)
        op = DftFrameOperator(20, 48)
        ys = rng.normal(size=(20, 8))
        ys[:, 0] = 0.0  # T(0) = 0: column 0 is written out at iteration 1
        widths = []
        step = gmcreg.solvers._saddle_step

        def counting(a_op, z, *args):
            widths.append(z.shape[-1])
            return step(a_op, z, *args)

        monkeypatch.setattr(gmcreg.solvers, "_saddle_step", counting)
        reports = solve_many(op, ys, [SolveConfig(lam=0.3, gamma=gamma)] * 8)
        assert reports[0].iterations == 1
        assert min(r.iterations for r in reports[1:]) > 1
        assert widths[0] == 8
        assert max(widths[1:]) == 7

    @pytest.mark.parametrize(
        "other",
        [
            SolveConfig(lam=0.5, gamma=0.5),
            SolveConfig(lam=0.5, tol=1e-6),
            SolveConfig(lam=0.5, max_iter=10),
            SolveConfig(lam=0.5, mu=0.01),
        ],
    )
    def test_cfgs_must_agree(self, other):
        op, ys = _block_problem("dense_real")
        cfgs = [SolveConfig(lam=0.5)] * 3 + [other]
        with pytest.raises(ValueError, match="agree"):
            solve_many(op, ys, cfgs)

    def test_bad_blocks_rejected(self):
        op, ys = _block_problem("dense_real")
        cfgs = [SolveConfig(lam=0.5)] * 4
        for bad in (ys[:, 0], ys[:-1], ys[:, :3]):
            with pytest.raises(ValueError, match="shape"):
                solve_many(op, bad, cfgs)
        ys[3, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_many(op, ys, cfgs)
        with pytest.raises(ValueError, match="at least one"):
            solve_many(op, np.zeros((op.codomain_dim, 0)), [])


class TestHalfSpectrumSolves:
    """Real signals on a DFT frame run on the half spectrum.

    The answer is held to the full path, which the same signal cast to
    complex takes, and to exact Hermitian symmetry.
    """

    TOL = 1e-10
    # (m, n, gamma); the gamma = 0 (l1) cases are marked in their ids
    CASES = [pytest.param(m, n, gamma, id=f"{m}-{n}" + ("-l1" if gamma == 0.0 else ""))
             for gamma in (0.7, 0.0) for m, n in ((20, 48), (13, 31))]

    @staticmethod
    def _problem(m, n):
        rng = np.random.default_rng(m * n)
        return DftFrameOperator(m, n), rng.normal(size=m)

    @pytest.mark.parametrize("m,n,gamma", CASES)
    def test_gmc_answer_is_a_fixed_point(self, m, n, gamma):
        op, y = self._problem(m, n)
        rep = gmc_solve(op, y, SolveConfig(lam=0.3, gamma=gamma, tol=self.TOL))
        assert rep.converged
        assert fixed_point_change(dft_frame_entries(m, n), y, 0.3, gamma, rep) <= 3 * self.TOL
        if gamma == 0.0:
            assert_v_is_zero(rep)

    @pytest.mark.parametrize("m,n,gamma", CASES)
    def test_gmc_iterates_follow_full_path(self, m, n, gamma):
        # the weighted inner products give the Anderson steps of the full
        # path up to rounding, which the iteration amplifies only slowly;
        # the tolerance lets both paths run all 40 steps
        op, y = self._problem(m, n)
        cfg = SolveConfig(lam=0.3, gamma=gamma, tol=1e-300, max_iter=40)
        half, full = [], []
        gmc_solve(op, y, cfg, callback=half.append)
        gmc_solve(op, y.astype(complex), cfg, callback=full.append)
        assert len(half) == len(full) == 40
        for s, t in zip(half, full):
            assert np.max(np.abs(s.x - t.x)) <= 1e-9 and np.max(np.abs(s.v - t.v)) <= 1e-9

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    @pytest.mark.parametrize("m,n", [(20, 48), (13, 31)])
    def test_answer_is_hermitian(self, m, n, gamma):
        op, y = self._problem(m, n)
        rep = gmc_solve(op, y, SolveConfig(lam=0.3, gamma=gamma, tol=self.TOL))
        mirror = (n - np.arange(n)) % n
        for z in (rep.x_star, rep.v_star):
            assert z.shape == (n,) and z.dtype == np.complex128
            assert np.array_equal(z[mirror], np.conj(z))  # DC (and Nyquist) included
            assert z[0].imag == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    def test_callback_sees_full_length_and_changes_no_bit(self, gamma):
        op, y = self._problem(20, 48)
        cfg = SolveConfig(lam=0.3, gamma=gamma, tol=1e-8)
        states = []
        with_cb = gmc_solve(op, y, cfg, callback=states.append)
        without = gmc_solve(op, y, cfg)
        assert len(states) == with_cb.iterations == without.iterations
        for s in states:
            assert s.x.shape == s.v.shape == (48,)
        last = states[-1]
        for a, b in ((with_cb.x_star, without.x_star), (with_cb.v_star, without.v_star),
                     (last.x, without.x_star), (last.v, without.v_star)):
            assert a.tobytes() == b.tobytes()
        assert last.delta == without.delta == with_cb.delta


class TestIsta:
    def test_identity_case(self):
        rep = ista_solve(DenseOperator(np.eye(2)), np.array([3.0, 0.5]), 1.0)
        assert np.allclose(rep.x_star, [2.0, 0.0], atol=1e-8)
        assert_v_is_zero(rep)

    def test_bit_identical_to_gamma_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            a, y = random_instance(rng, 5, 8)
            cfg = SolveConfig(lam=0.3, gamma=0.0, tol=1e-300, max_iter=200)
            xs_g, xs_i = [], []
            gmc_solve(a, y, cfg, callback=lambda s: xs_g.append(s.x.copy()))
            rep = ista_solve(a, y, 0.3, cfg, callback=lambda s: xs_i.append(s.x.copy()))
            assert_v_is_zero(rep)
            assert len(xs_g) == len(xs_i)
            assert all(np.array_equal(p, q) for p, q in zip(xs_g, xs_i))

    def test_complex_frame_bit_identical(self):
        rng = np.random.default_rng(10)
        a = DftFrameOperator(16, 32)
        y = rng.normal(size=16)
        cfg = SolveConfig(lam=0.2, gamma=0.0, tol=1e-300, max_iter=100)
        xs_g, xs_i = [], []
        gmc_solve(a, y, cfg, callback=lambda s: xs_g.append(s.x.copy()))
        rep = ista_solve(a, y, 0.2, cfg, callback=lambda s: xs_i.append(s.x.copy()))
        assert_v_is_zero(rep)
        assert all(np.array_equal(p, q) for p, q in zip(xs_g, xs_i))


class TestDiagonalSolve:
    def test_gamma_zero_is_soft(self):
        out = diagonal_solve(np.ones(3), np.array([0.5, 1.5, -5.0]), 1.0, 0.0)
        assert np.allclose(out, [0.0, 0.5, -4.0])

    def test_firm_example(self):
        out = diagonal_solve(np.ones(3), np.array([0.5, 1.5, 5.0]), 1.0, 0.5)
        assert np.allclose(out, [0.0, 1.0, 5.0])

    def test_scalar_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            alpha = rng.uniform(0.5, 2.0)
            lam = rng.uniform(0.2, 1.5)
            gamma = rng.uniform(0.1, 0.99)
            y = rng.uniform(-4.0, 4.0)
            out = diagonal_solve(np.array([alpha]), np.array([alpha * y]), lam, gamma)
            b = alpha * np.sqrt(gamma / lam)
            ref = scalar_minimize(y, ScalarPenaltyParams(b=b, lam=lam, a=alpha))
            assert out[0] == pytest.approx(ref, abs=1e-12)

    def test_gamma_one_hard_threshold(self):
        out = diagonal_solve(np.ones(3), np.array([0.5, 1.5, -2.0]), 1.0, 1.0)
        assert np.allclose(out, [0.0, 1.5, -2.0])

    def test_against_per_coordinate_grid_oracle(self):
        rng = np.random.default_rng(12)
        for gamma in (0.3, 0.7, 1.0):
            alphas = rng.uniform(0.5, 2.0, size=4)
            aty = rng.uniform(-4.0, 4.0, size=4) * alphas**2
            lam = 0.8
            out = diagonal_solve(alphas, aty, lam, gamma)
            for i in range(4):
                b = alphas[i] * np.sqrt(gamma / lam)
                ref = grid_argmin_scalar_cost(
                    aty[i] / alphas[i], alphas[i], lam, b, lo=-6.0, hi=6.0, step=1e-4
                )
                assert out[i] == pytest.approx(ref, abs=1e-3)

    def test_overflowing_upper_threshold_is_soft(self):
        # lam/(gamma*alpha^2) overflows to inf: the mu -> inf limit, soft thresholding
        with np.errstate(all="raise"):
            out = diagonal_solve(np.ones(2), np.array([0.5, 2.0]), 1.0, 5e-324)
        assert np.array_equal(out, [0.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            diagonal_solve(np.array([0.0, 1.0]), np.zeros(2), 1.0, 0.5)
        with pytest.raises(ValueError):
            diagonal_solve(np.ones(2), np.zeros(2), 1.0, 1.5)


class TestCostValue:
    def test_zero_point(self):
        rng = np.random.default_rng(13)
        a, y = random_instance(rng, 4, 6)
        assert cost_value(a, y, 1.0, 0.7, np.zeros(6)) == pytest.approx(
            0.5 * float(y @ y)
        )

    def test_gamma_zero_is_l1_cost(self):
        rng = np.random.default_rng(14)
        a, y = random_instance(rng, 4, 6)
        x = rng.normal(size=6)
        expected = 0.5 * np.sum((y - a.entries @ x) ** 2) + 0.8 * np.sum(np.abs(x))
        assert cost_value(a, y, 0.8, 0.0, x) == pytest.approx(expected)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a, y = random_instance(rng, int(rng.integers(2, 6)), n)
            lam = rng.uniform(0.2, 1.5)
            gamma = rng.uniform(0.0, 1.0)
            x = rng.normal(size=n) * 2
            z = rng.normal(size=n) * 2
            fx, fz, fm = cost_value_many(
                a, y, lam, gamma, np.stack([x, z, (x + z) / 2], axis=1)
            )
            assert fm <= (fx + fz) / 2 + 1e-8

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize(
        "y", [[1.0], np.ones(4), np.ones((3, 1)), np.ones((1, 3))], ids=["len1", "len4", "col", "row"]
    )
    def test_wrong_shape_y_rejected(self, y, gamma):
        a = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            cost_value(a, y, 0.5, gamma, np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            cost_value_many(a, y, 0.5, gamma, np.zeros((3, 2)))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_rejected(self, bad, gamma):
        a = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="y must be finite"):
            cost_value(a, [1.0, bad, 0.0], 0.5, gamma, np.zeros(3))
        with pytest.raises(ValueError, match="y must be finite"):
            cost_value_many(a, [1.0, bad, 0.0], 0.5, gamma, np.zeros((3, 2)))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, bad, gamma):
        a = DenseOperator(np.eye(3))
        xs = np.zeros((3, 2))
        xs[1, 1] = bad
        with pytest.raises(ValueError, match="x must be finite"):
            cost_value_many(a, np.ones(3), 0.5, gamma, xs)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @pytest.mark.parametrize("lam", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_lam_rejected(self, lam, gamma):
        a = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="lam"):
            cost_value(a, np.ones(3), lam, gamma, np.ones(3))
        with pytest.raises(ValueError, match="lam"):
            cost_value_many(a, np.ones(3), lam, gamma, np.ones((3, 2)))


class TestDebias:
    def test_refits_support_exactly(self):
        rng = np.random.default_rng(16)
        a = DenseOperator(rng.normal(size=(8, 5)))
        x_true = np.array([1.5, 0.0, -2.0, 0.0, 0.0])
        y = a.entries @ x_true
        x_biased = x_true * 0.7
        out = debias_on_support(a, y, x_biased)
        assert np.allclose(out, x_true, atol=1e-10)

    def test_empty_support(self):
        a = DenseOperator(np.eye(3))
        out = debias_on_support(a, np.ones(3), np.zeros(3))
        assert np.all(out == 0.0)

    def test_preserves_zero_pattern(self):
        rng = np.random.default_rng(17)
        a = DenseOperator(rng.normal(size=(6, 4)))
        x = np.array([0.0, 1.0, 0.0, -1.0])
        out = debias_on_support(a, rng.normal(size=6), x)
        assert out[0] == 0.0 and out[2] == 0.0

    @pytest.mark.parametrize("x_len,y_len", [(10, 100), (256, 10)])
    def test_wrong_length_raises(self, x_len, y_len):
        with pytest.raises(ValueError, match="need x of shape"):
            debias_on_support(DftFrameOperator(100, 256), np.ones(y_len), np.ones(x_len))
