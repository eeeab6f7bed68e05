from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from gmcreg import (
    ConvergenceError,
    DenseOperator,
    GmcPenalty,
    ScaledOperator,
    SolveConfig,
    build_b_from_a,
    cost_value_many,
    eval_generalized_huber,
    eval_generalized_huber_many,
    eval_gmc,
    eval_gmc_many,
    grad_generalized_huber,
    in_quadratic_region,
    ista_solve,
    scaled_huber,
    scaled_mc,
)

from _oracles import grid_min_gen_huber, psd_factor


def random_penalty(rng, n, m=None, inner_tol=1e-10):
    m = m or int(rng.integers(1, n + 2))
    b = DenseOperator(rng.normal(size=(m, n)))
    return GmcPenalty(b, inner_tol=inner_tol)


class TestValue:
    def test_zero_operator(self):
        pen = GmcPenalty(DenseOperator(np.zeros((2, 3))))
        x = np.array([1.0, -2.0, 0.5])
        sol = eval_generalized_huber(pen, x)
        assert sol.value == 0.0
        assert np.all(sol.v_star == 0.0)
        assert eval_gmc(pen, x) == pytest.approx(3.5)

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_scalar_reduction(self, b):
        pen = GmcPenalty(DenseOperator([[b]]))
        for x in np.linspace(-3.0, 3.0, 31):
            sol = eval_generalized_huber(pen, np.array([x]))
            assert sol.value == pytest.approx(scaled_huber(x, b), abs=1e-9)

    def test_diagonal_additivity(self):
        pen = GmcPenalty(DenseOperator(np.diag([1.0, 2.0])))
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.normal(size=2) * 2.0
            sol = eval_generalized_huber(pen, x)
            ref = scaled_huber(x[0], 1.0) + scaled_huber(x[1], 2.0)
            assert sol.value == pytest.approx(ref, abs=1e-9)

    def test_diagonal_gmc_additivity(self):
        pen = GmcPenalty(DenseOperator(np.diag([0.7, 1.3])))
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.normal(size=2) * 2.0
            ref = scaled_mc(x[0], 0.7) + scaled_mc(x[1], 1.3)
            assert eval_gmc(pen, x) == pytest.approx(ref, abs=1e-9)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            pen = random_penalty(rng, n)
            x = rng.normal(size=n) * 3.0
            val = eval_generalized_huber(pen, x).value
            l1 = np.sum(np.abs(x))
            assert -1e-12 <= val <= l1 + 1e-9
            g = eval_gmc(pen, x)
            assert -1e-9 <= g <= l1 + 1e-9

    def test_quadratic_region_equality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            pen = random_penalty(rng, n)
            x = rng.normal(size=n)
            g = pen.b_op.adjoint(pen.b_op.forward(x))
            scale = np.max(np.abs(g))
            if scale > 0:
                x = x * (0.9 / scale)
            assert in_quadratic_region(pen, x)
            bx = pen.b_op.forward(x)
            assert eval_generalized_huber(pen, x).value == pytest.approx(
                0.5 * float(np.sum(bx * bx)), abs=1e-6
            )

    def test_in_quadratic_region_examples(self):
        pen = GmcPenalty(DenseOperator(np.eye(2)))
        assert in_quadratic_region(pen, np.zeros(2))
        assert in_quadratic_region(pen, np.array([0.5, -0.9]))
        assert not in_quadratic_region(pen, np.array([1.5, 0.0]))

    def test_depends_only_on_gram(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            b = rng.normal(size=(int(rng.integers(1, 4)), n))
            c = psd_factor(b.T @ b)
            pen_b = GmcPenalty(DenseOperator(b))
            pen_c = GmcPenalty(DenseOperator(c))
            x = rng.normal(size=n) * 2.0
            assert eval_generalized_huber(pen_b, x).value == pytest.approx(
                eval_generalized_huber(pen_c, x).value, abs=1e-6
            )

    def test_upper_envelope(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            pen = random_penalty(rng, n)
            alpha = np.sqrt(pen.b_op.gram_norm())
            x = rng.normal(size=n) * 2.0
            val = eval_generalized_huber(pen, x).value
            envelope = np.sum(scaled_huber(x, alpha))
            assert val <= envelope + 1e-6

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            pen = random_penalty(rng, n)
            x = rng.normal(size=n) * 2.0
            z = rng.normal(size=n) * 2.0
            vx = eval_generalized_huber(pen, x).value
            vz = eval_generalized_huber(pen, z).value
            vm = eval_generalized_huber(pen, (x + z) / 2.0).value
            assert vm <= (vx + vz) / 2.0 + 1e-8

    def test_grid_oracle_small_n(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            n = int(rng.integers(1, 3))
            b = rng.normal(size=(int(rng.integers(1, 4)), n))
            pen = GmcPenalty(DenseOperator(b))
            x = rng.normal(size=n)
            ref = grid_min_gen_huber(b, x)
            assert eval_generalized_huber(pen, x).value == pytest.approx(ref, abs=1e-3)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        pen = random_penalty(rng, 4)
        xs = rng.normal(size=(4, 6))
        _, values = eval_generalized_huber_many(pen, xs)
        for j in range(6):
            assert values[j] == pytest.approx(
                eval_generalized_huber(pen, xs[:, j]).value, abs=1e-9
            )

    def test_residual_below_tol(self):
        rng = np.random.default_rng(10)
        pen = random_penalty(rng, 3)
        sol = eval_generalized_huber(pen, rng.normal(size=3))
        assert sol.residual <= pen.inner_tol

    def test_nonconvergence_carries_best(self):
        pen = GmcPenalty(
            DenseOperator(np.array([[1.0, 0.9], [0.0, 0.435]])),
            inner_tol=1e-14,
            inner_max_iter=3,
        )
        with pytest.raises(ConvergenceError) as err:
            eval_generalized_huber(pen, np.array([3.0, 3.0]))
        assert err.value.best is not None
        assert err.value.best.iterations == 3
        # the single-vector evaluator reports a 1-D minimizer and a float value
        assert err.value.best.v_star.shape == (2,)
        assert isinstance(err.value.best.value, float)

    def test_batched_nonconvergence_best_is_per_column(self):
        b = np.array([[1.0, 0.9], [0.0, 0.435]])
        pen = GmcPenalty(DenseOperator(b), inner_tol=1e-14, inner_max_iter=3)
        # the one-column block keeps the batched payload shape too
        for xs in (np.array([[3.0, 1.0, -2.0], [3.0, 0.5, 2.0]]), np.array([[3.0], [3.0]])):
            k = xs.shape[1]
            with pytest.raises(ConvergenceError) as err:
                eval_generalized_huber_many(pen, xs)
            best = err.value.best
            assert best.v_star.shape == (2, k)
            assert np.shape(best.value) == (k,)
            # each value is the inner objective at its own column of v_star
            v = best.v_star
            expected = np.sum(np.abs(v), axis=0) + 0.5 * np.sum((b @ (xs - v)) ** 2, axis=0)
            assert np.allclose(best.value, expected, rtol=1e-12)


class TestInnerSolveIsIsta:
    """The inner problem is ``ista_solve`` on B with data B x and weight 1, bit for bit.

    It takes ``ista_solve``'s configuration: the step 1.9/||B^T B||_2 of
    every solve, and the penalty's tolerance and budget.
    """

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_ista_solve(self, field):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, n + 2))
            b = rng.normal(size=(m, n))
            x = 3.0 * rng.normal(size=n)
            if field == "complex":
                b = b + 1j * rng.normal(size=(m, n))
                x = x + 3j * rng.normal(size=n)
            pen = GmcPenalty(DenseOperator(b))
            sol = eval_generalized_huber(pen, x)
            cfg = SolveConfig(1.0, tol=pen.inner_tol, max_iter=pen.inner_max_iter)
            rep = ista_solve(pen.b_op, pen.b_op.forward(x), 1.0, cfg)
            assert sol.v_star.tobytes() == rep.x_star.tobytes()
            assert sol.iterations == rep.iterations
            assert sol.residual == rep.delta

    def test_gram_norm_is_taken_once(self, monkeypatch):
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a.shape) or svd(a, **kw))
        b = np.array([[0.8, -0.3], [0.2, 0.9], [-0.5, 0.4]])
        pens = (GmcPenalty(DenseOperator(b)), build_b_from_a(DenseOperator(b), 0.5, 0.8))
        assert svds == [(3, 2), (3, 2)]  # one per DenseOperator, at construction
        x = np.array([1.5, -0.7])
        for pen in pens:
            eval_generalized_huber(pen, x)
            eval_generalized_huber_many(pen, np.stack([x, 2.0 * x], axis=1))
            grad_generalized_huber(pen, x)
            eval_gmc(pen, x)
            ista_solve(pen.b_op, pen.b_op.forward(x), 1.0)
        assert len(svds) == 2


class TestInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises(self, bad):
        pen = GmcPenalty(DenseOperator(np.eye(2)))
        x = np.array([bad, 0.0])
        for evaluate in (eval_generalized_huber, eval_generalized_huber_many, eval_gmc):
            with pytest.raises(ValueError, match="x must be finite"):
                evaluate(pen, x)

    @pytest.mark.parametrize(
        "evaluate",
        [
            eval_generalized_huber_many,
            eval_gmc_many,
            lambda pen, xs: cost_value_many(pen.b_op, np.ones(2), 0.5, 0.5, xs),
            lambda pen, xs: cost_value_many(pen.b_op, np.ones(2), 0.5, 0.0, xs),
        ],
        ids=[
            "eval_generalized_huber_many", "eval_gmc_many", "cost_value_many", "cost_value_many_l1"
        ],
    )
    def test_empty_batch_raises(self, evaluate):
        # zero columns would reach the solver kernel, which needs one
        pen = GmcPenalty(DenseOperator(np.eye(2)))
        with pytest.raises(ValueError, match="vectors of length 2"):
            evaluate(pen, np.zeros((2, 0)))

    @pytest.mark.parametrize(
        "evaluate", [eval_generalized_huber, eval_gmc, grad_generalized_huber, in_quadratic_region]
    )
    def test_several_columns_raise(self, evaluate):
        pen = GmcPenalty(DenseOperator(np.eye(2)))
        with pytest.raises(ValueError, match="single vector"):
            evaluate(pen, np.ones((2, 3)))

    def test_penalty_is_frozen(self):
        pen = GmcPenalty(DenseOperator(np.eye(2)))
        with pytest.raises(FrozenInstanceError):
            pen.b_op = DenseOperator(np.zeros((2, 2)))
        with pytest.raises(FrozenInstanceError):
            pen.inner_tol = -1.0
        assert eval_generalized_huber(pen, np.array([3.0, 1.0])).value == pytest.approx(3.0)


class TestGradient:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(11)
        pen = random_penalty(rng, 3)
        assert np.allclose(grad_generalized_huber(pen, np.zeros(3)), 0.0)

    def test_quadratic_region_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            pen = random_penalty(rng, n)
            x = rng.normal(size=n)
            g = pen.b_op.adjoint(pen.b_op.forward(x))
            scale = np.max(np.abs(g))
            if scale > 0:
                x = x * (0.9 / scale)
            expected = pen.b_op.adjoint(pen.b_op.forward(x))
            assert np.allclose(grad_generalized_huber(pen, x), expected, atol=1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-4
        for _ in range(30):
            n = int(rng.integers(1, 5))
            pen = random_penalty(rng, n, inner_tol=1e-12)
            x = rng.normal(size=n) * 2.0
            grad = grad_generalized_huber(pen, x)
            for i in range(n):
                e = np.zeros(n)
                e[i] = h
                fd = (
                    eval_generalized_huber(pen, x + e).value
                    - eval_generalized_huber(pen, x - e).value
                ) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-5)

    def test_gradient_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pen = random_penalty(rng, n)
            x = rng.normal(size=n) * 10.0
            assert np.max(np.abs(grad_generalized_huber(pen, x))) <= 1.0 + 1e-8

    def test_gmc_gradient_sign_property(self):
        # d/dx_i of the GMC penalty shares the sign of x_i (or is zero)
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pen = random_penalty(rng, n)
            x = rng.normal(size=n) * 2.0
            x[x == 0.0] = 0.1
            grad_psi = np.sign(x) - grad_generalized_huber(pen, x)
            assert np.all(grad_psi * np.sign(x) >= -1e-8)


class TestBuildFromA:
    def test_gamma_zero_gives_l1(self):
        a = DenseOperator(np.eye(3))
        pen = build_b_from_a(a, lam=1.0, gamma=0.0)
        x = np.array([1.0, -2.0, 3.0])
        assert eval_gmc(pen, x) == pytest.approx(6.0)

    def test_gamma_one_identity_equality(self):
        a = DenseOperator(np.eye(2))
        pen = build_b_from_a(a, lam=1.0, gamma=1.0)
        x = np.array([0.3, -0.4])
        g = pen.b_op.adjoint(pen.b_op.forward(x))
        assert np.allclose(g, x)

    def test_scale_factor(self):
        a = DenseOperator(np.eye(2))
        pen = build_b_from_a(a, lam=2.0, gamma=0.8)
        assert isinstance(pen.b_op, ScaledOperator)
        assert pen.b_op.scale == pytest.approx(np.sqrt(0.4))

    def test_gamma_out_of_range(self):
        a = DenseOperator(np.eye(2))
        with pytest.raises(ValueError):
            build_b_from_a(a, lam=1.0, gamma=1.5)
        with pytest.raises(ValueError):
            build_b_from_a(a, lam=1.0, gamma=-0.1)

    def test_config_validation(self):
        for bad in (0.0, np.inf):
            with pytest.raises(ValueError):
                GmcPenalty(DenseOperator(np.eye(2)), inner_tol=bad)
        with pytest.raises(ValueError):
            GmcPenalty(DenseOperator(np.eye(2)), inner_max_iter=0)
        # a float budget would fail only mid-solve, in range()
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="inner_max_iter"):
                GmcPenalty(DenseOperator(np.eye(2)), inner_max_iter=bad)
        assert GmcPenalty(DenseOperator(np.eye(2)), inner_max_iter=np.int64(5)).inner_max_iter == 5


class TestComplex:
    def test_complex_moduli_l1(self):
        pen = GmcPenalty(DenseOperator(np.zeros((1, 2)) + 0j))
        x = np.array([3 + 4j, 1.0])
        assert eval_gmc(pen, x) == pytest.approx(6.0)

    def test_complex_value_real(self):
        rng = np.random.default_rng(16)
        b = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        pen = GmcPenalty(DenseOperator(b))
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        sol = eval_generalized_huber(pen, x)
        assert isinstance(sol.value, float)
        assert 0.0 <= sol.value <= np.sum(np.abs(x)) + 1e-9
