import numpy as np
import pytest

from gmcreg import (
    DenseOperator,
    DftFrameOperator,
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
    solve_many,
)

from _oracles import dense_gram_lambda_max, dense_saddle_iterates, grid_argmin_scalar_cost


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
                head = gmc_solve(
                    a, y, SolveConfig(lam=0.4, gamma=gamma, max_iter=300, tol=1e-300),
                    compute_cost_trace=True,
                )
                trace = head.cost_trace
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


class TestDenseOracle:
    """``gmc_solve`` against the dense two-block recurrence, bit for bit."""

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
        expected = dense_saddle_iterates(entries, y, lam, gamma, mu, len(states))
        assert len(states) == 150 or states[-1].delta == 0.0
        for s, (x, v) in zip(states, expected):
            assert s.x.tobytes() == x.tobytes()
            assert s.v.tobytes() == v.tobytes()


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
        for rep, solo in zip(reports, solos):
            assert rep.iterations == solo.iterations
            assert rep.converged == solo.converged
            assert rep.x_star.shape == solo.x_star.shape
            if kind == "stft":  # per-column operator: the very same arithmetic
                assert rep.x_star.tobytes() == solo.x_star.tobytes()
                assert rep.v_star.tobytes() == solo.v_star.tobytes()
            else:
                assert np.max(np.abs(rep.x_star - solo.x_star)) <= 1e-12
                assert np.max(np.abs(rep.v_star - solo.v_star)) <= 1e-12

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


class TestIsta:
    def test_identity_case(self):
        rep = ista_solve(DenseOperator(np.eye(2)), np.array([3.0, 0.5]), 1.0)
        assert np.allclose(rep.x_star, [2.0, 0.0], atol=1e-8)

    def test_bit_identical_to_gamma_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            a, y = random_instance(rng, 5, 8)
            cfg = SolveConfig(lam=0.3, gamma=0.0, tol=1e-300, max_iter=200)
            xs_g, xs_i = [], []
            gmc_solve(a, y, cfg, callback=lambda s: xs_g.append(s.x.copy()))
            ista_solve(a, y, 0.3, cfg, callback=lambda s: xs_i.append(s.x.copy()))
            assert len(xs_g) == len(xs_i)
            assert all(np.array_equal(p, q) for p, q in zip(xs_g, xs_i))

    def test_complex_frame_bit_identical(self):
        rng = np.random.default_rng(10)
        a = DftFrameOperator(16, 32)
        y = rng.normal(size=16)
        cfg = SolveConfig(lam=0.2, gamma=0.0, tol=1e-300, max_iter=100)
        xs_g, xs_i = [], []
        gmc_solve(a, y, cfg, callback=lambda s: xs_g.append(s.x.copy()))
        ista_solve(a, y, 0.2, cfg, callback=lambda s: xs_i.append(s.x.copy()))
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
