import inspect

import numpy as np
import pytest

import gmcreg.operators
from gmcreg import (
    ConvergenceError,
    DenseOperator,
    DftFrameOperator,
    GmcPenalty,
    LinearOperator,
    ScaledOperator,
    SolveConfig,
    StftFrameOperator,
    build_b_from_a,
    estimate_gram_norm,
    eval_generalized_huber,
    gmc_solve,
    solve_many,
)

from _oracles import dense_gram_lambda_max, dft_frame_entries, stft_analysis, stft_synthesis


class UndeclaredGram(LinearOperator):
    """A dense real operator that leaves ``gram_norm`` to the base class."""

    def __init__(self, entries):
        super().__init__(entries.shape[1], entries.shape[0], "real")
        self.entries = entries

    def forward_multi(self, xs):
        return self.entries @ xs

    def adjoint_multi(self, ys):
        return self.entries.T @ ys


def inner(a, b):
    # conjugate-linear in the second argument
    return np.sum(a * np.conj(b))


def all_operators():
    rng = np.random.default_rng(7)
    return [
        DenseOperator(rng.normal(size=(4, 6))),
        DenseOperator(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))),
        DftFrameOperator(10, 24),
        StftFrameOperator(90, 16),
        ScaledOperator(DenseOperator(rng.normal(size=(3, 3))), 0.7),
        ScaledOperator(DftFrameOperator(8, 16), 1.3),
    ]


BLOCK_OPERATORS = all_operators() + [ScaledOperator(StftFrameOperator(90, 16), 0.4)]


def test_every_operator_class_is_covered():
    """A new operator class must join the adjoint and block/column checks."""
    defined = {
        cls
        for _, cls in inspect.getmembers(gmcreg.operators, inspect.isclass)
        if issubclass(cls, gmcreg.operators.LinearOperator)
        and cls is not gmcreg.operators.LinearOperator
        and cls.__module__ == gmcreg.operators.__name__
    }
    assert defined <= {type(op) for op in all_operators()}
    assert defined <= {type(op) for op in BLOCK_OPERATORS}


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def random_vec(rng, n, complex_field):
    v = rng.normal(size=n)
    if complex_field:
        v = v + 1j * rng.normal(size=n)
    return v


class TestForwardAdjoint:
    def test_identity_forward(self):
        op = DenseOperator(np.eye(3))
        assert np.allclose(op.forward([1.0, 2.0, 3.0]), [1, 2, 3])

    def test_identity_adjoint(self):
        op = DenseOperator(np.eye(2))
        assert np.allclose(op.adjoint([5.0, 6.0]), [5, 6])

    def test_dense_product(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(op.forward([1.0, 1.0]), [3, 7])
        assert np.allclose(op.adjoint([1.0, 0.0]), [1, 2])

    def test_dft_first_column(self):
        op = DftFrameOperator(4, 8)
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1.0
        assert np.allclose(op.forward(e0), np.full(4, 1 / np.sqrt(8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dense_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DenseOperator([[1.0, bad], [0.0, 1.0]])

    @pytest.mark.parametrize("op", BLOCK_OPERATORS, ids=lambda o: type(o).__name__)
    def test_dimension_mismatch(self, op):
        n, m = op.domain_dim, op.codomain_dim
        with pytest.raises(ValueError):
            op.forward(np.ones(n + 1))
        with pytest.raises(ValueError):
            op.adjoint(np.ones(m - 1))
        for bad in (np.ones((n + 1, 2)), np.ones(n), np.ones((n, 2, 1))):
            with pytest.raises(ValueError):
                op.forward_multi(bad)
        for bad in (np.ones((m + 1, 2)), np.ones(m), np.ones((m, 2, 1))):
            with pytest.raises(ValueError):
                op.adjoint_multi(bad)

    @pytest.mark.parametrize("op", all_operators(), ids=lambda o: type(o).__name__)
    def test_adjoint_consistency(self, op):
        rng = np.random.default_rng(11)
        cplx = op.field == "complex"
        for _ in range(100):
            u = random_vec(rng, op.domain_dim, cplx)
            w = random_vec(rng, op.codomain_dim, cplx)
            lhs = inner(op.forward(u), w)
            rhs = inner(u, op.adjoint(w))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("op", all_operators(), ids=lambda o: type(o).__name__)
    def test_linearity(self, op):
        rng = np.random.default_rng(13)
        cplx = op.field == "complex"
        for _ in range(10):
            u = random_vec(rng, op.domain_dim, cplx)
            w = random_vec(rng, op.domain_dim, cplx)
            alpha = rng.normal() + (1j * rng.normal() if cplx else 0.0)
            lhs = op.forward(alpha * u + w)
            rhs = alpha * op.forward(u) + op.forward(w)
            scale = max(np.max(np.abs(lhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @pytest.mark.parametrize("op", BLOCK_OPERATORS, ids=lambda o: type(o).__name__)
    def test_forward_multi_matches_loop(self, op):
        """Column j of a block is the column-j vector result, bit for bit."""
        rng = np.random.default_rng(5)
        cplx = op.field == "complex"
        xs = np.stack([random_vec(rng, op.domain_dim, cplx) for _ in range(3)], axis=1)
        ys = np.stack([random_vec(rng, op.codomain_dim, cplx) for _ in range(3)], axis=1)
        assert_bitwise(op.forward_multi(xs),
                       np.stack([op.forward(xs[:, j]) for j in range(3)], axis=1))
        assert_bitwise(op.adjoint_multi(ys),
                       np.stack([op.adjoint(ys[:, j]) for j in range(3)], axis=1))

    def test_dense_columns_do_not_depend_on_k_or_layout(self):
        # DenseOperator's per-column products give each column the bits of
        # its one-column product, whatever k and whatever the block's memory
        # layout, as the solvers' strided views pass it; the draws cover
        # rows from 1 to 39 entries.  numpy does not promise this.
        # ``entries @ xs`` breaks it in most of these draws, and so does an
        # einsum over C-ordered blocks.
        rng = np.random.default_rng(6)
        for trial in range(100):
            m, n, k = (int(d) for d in rng.integers(1, 40, size=3))
            entries = rng.normal(size=(m, n))
            if trial % 2:
                entries = entries + 1j * rng.normal(size=(m, n))
            op = DenseOperator(entries if trial % 3 else np.asfortranarray(entries))
            for apply, rows in ((op.forward_multi, n), (op.adjoint_multi, m)):
                xs = random_vec(rng, rows * k, trial % 4 == 1).reshape(rows, k)
                strided = np.stack([xs, xs]).transpose(2, 0, 1).copy().transpose(1, 2, 0)[1]
                solo = [apply(xs[:, j].copy()[:, None])[:, 0] for j in range(k)]
                for block in (xs, np.asfortranarray(xs), strided):
                    got = apply(block)
                    for j in range(k):
                        assert_bitwise(got[:, j], solo[j])

    @pytest.mark.parametrize("m,n,k", [(3, 2, 10_000), (20, 16, 10_000), (3, 10_000, 5)],
                             ids=["eval_grid_k", "matrix_vector_k", "long_rows"])
    def test_dense_columns_do_not_depend_on_k_at_large_sizes(self, m, n, k):
        # The same property past numpy's 8192-element iterator buffer: k as
        # large as an eval grid's columns on a 2-column B, short and long
        # rows, and a long sum.  Every field mix is tried, since a real
        # operator on a complex block casts.
        rng = np.random.default_rng(7)
        for cplx_op, cplx_x in ((False, False), (False, True), (True, False), (True, True)):
            op = DenseOperator(random_vec(rng, m * n, cplx_op).reshape(m, n))
            for apply, rows in ((op.forward_multi, n), (op.adjoint_multi, m)):
                xs = random_vec(rng, rows * k, cplx_x).reshape(rows, k)
                got = apply(xs)
                for j in {0, 1, k // 2, k - 2, k - 1, *rng.integers(0, k, size=8).tolist()}:
                    assert_bitwise(got[:, j], apply(xs[:, j].copy()[:, None])[:, 0])


class TestStftOracle:
    """The STFT block pair against the frame-by-frame reference, bit for bit."""

    @pytest.mark.parametrize("signal_len,segment_len", [(90, 16), (400, 64), (97, 32)])
    @pytest.mark.parametrize("k", [1, 3, 26])
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    def test_block_pair_matches_reference(self, signal_len, segment_len, k, complex_input):
        op = StftFrameOperator(signal_len, segment_len)
        rng = np.random.default_rng(signal_len * k)
        xs = np.stack([random_vec(rng, op.domain_dim, complex_input) for _ in range(k)], axis=1)
        ys = np.stack([random_vec(rng, signal_len, complex_input) for _ in range(k)], axis=1)
        assert_bitwise(
            op.forward_multi(xs), np.stack([stft_synthesis(op, x) for x in xs.T], axis=1)
        )
        assert_bitwise(
            op.adjoint_multi(ys), np.stack([stft_analysis(op, y) for y in ys.T], axis=1)
        )
        if k == 1:
            assert_bitwise(op.forward(xs[:, 0]), stft_synthesis(op, xs[:, 0]))
            assert_bitwise(op.adjoint(ys[:, 0]), stft_analysis(op, ys[:, 0]))


class TestDftOracle:
    """The FFT-applied DFT frame against its dense matrix."""

    @pytest.mark.parametrize("m,n", [(100, 256), (20, 48), (10, 24), (16, 16), (7, 13)])
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    def test_block_pair_matches_dense(self, m, n, complex_input):
        op = DftFrameOperator(m, n)
        a = dft_frame_entries(m, n)
        rng = np.random.default_rng(m * n)
        xs = np.stack([random_vec(rng, n, complex_input) for _ in range(3)], axis=1)
        ys = np.stack([random_vec(rng, m, complex_input) for _ in range(3)], axis=1)
        fx, ay = op.forward_multi(xs), op.adjoint_multi(ys)
        for got, want in ((fx, a @ xs), (ay, a.conj().T @ ys)):
            assert got.shape == want.shape and got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # <A x, y> = <x, A^H y>
        lhs, rhs = inner(fx, ys), inner(xs, ay)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestHalfSpectrum:
    """The DFT frame's real-signal form against the full frame.

    The form acts on h = x[0..N//2] of a Hermitian x; ``expand`` rebuilds
    x, and its adjoint holds under the inner product weighted by
    ``weights``.
    """

    SIZES = [(100, 256), (20, 48), (16, 16), (7, 13), (10, 25)]

    @staticmethod
    def _setup(m, n):
        op = DftFrameOperator(m, n)
        half = op._real_form()
        rng = np.random.default_rng(m + 7 * n)
        hs = rng.normal(size=(half.domain_dim, 3)) + 1j * rng.normal(size=(half.domain_dim, 3))
        return op, half, hs, rng.normal(size=(m, 3))

    @pytest.mark.parametrize("m,n", SIZES)
    def test_shapes_and_weights(self, m, n):
        op, half, hs, ys = self._setup(m, n)
        assert half.domain_dim == n // 2 + 1 and half.codomain_dim == m
        assert not isinstance(half, LinearOperator)
        want = np.full(half.domain_dim, 2.0)
        want[0] = 1.0
        if n % 2 == 0:
            want[-1] = 1.0
        assert np.array_equal(half.weights, want)
        assert half.weights.sum() == n  # each full entry counted once

    @pytest.mark.parametrize("m,n", SIZES)
    def test_adjoint_is_the_full_adjoint(self, m, n):
        op, half, hs, ys = self._setup(m, n)
        got, want = half.expand(half.adjoint_multi(ys)), op.adjoint_multi(ys)
        assert got.shape == want.shape == (n, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the real FFT's DC (and even-N Nyquist) entries are exactly real
        assert np.all(got[0].imag == 0.0)
        if n % 2 == 0:
            assert np.all(got[n // 2].imag == 0.0)

    @pytest.mark.parametrize("m,n", SIZES)
    def test_forward_is_the_real_part_of_the_full_forward(self, m, n):
        # the imaginary parts of h[0] (and of the even-N Nyquist entry) do
        # not enter either side: the form is real-linear
        op, half, hs, ys = self._setup(m, n)
        got, want = half.forward_multi(hs), op.forward_multi(half.expand(hs)).real
        assert got.shape == want.shape == (m, 3) and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("m,n", SIZES)
    def test_weighted_adjoint_identity(self, m, n):
        op, half, hs, ys = self._setup(m, n)
        lhs = np.sum(half.forward_multi(hs) * ys)
        rhs = np.real(np.sum(half.weights[:, None] * hs * np.conj(half.adjoint_multi(ys))))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @pytest.mark.parametrize("m,n", SIZES)
    def test_expand_is_hermitian(self, m, n):
        op, half, hs, ys = self._setup(m, n)
        hs[0] = hs[0].real
        if n % 2 == 0:
            hs[-1] = hs[-1].real
        x = half.expand(hs)
        assert x.shape == (n, 3)
        assert np.array_equal(x[: half.domain_dim], hs)
        assert np.array_equal(x[(n - np.arange(n)) % n], np.conj(x))
        for j in range(3):
            assert half.expand(hs[:, j]).tobytes() == x[:, j].copy().tobytes()


class TestFrames:
    def test_dft_tight(self):
        op = DftFrameOperator(100, 256)
        rng = np.random.default_rng(2)
        y = rng.normal(size=100) + 1j * rng.normal(size=100)
        assert np.max(np.abs(op.forward(op.adjoint(y)) - y)) <= 1e-10

    @pytest.mark.parametrize("signal_len,segment_len", [(400, 64), (100, 16), (97, 32)])
    def test_stft_tight(self, signal_len, segment_len):
        op = StftFrameOperator(signal_len, segment_len)
        rng = np.random.default_rng(3)
        y = rng.normal(size=signal_len)
        assert np.max(np.abs(op.forward(op.adjoint(y)) - y)) <= 1e-8

    def test_stft_segment_len_multiple_of_four(self):
        with pytest.raises(ValueError):
            StftFrameOperator(100, 30)

    @pytest.mark.parametrize(
        "frame,sizes",
        [
            (DftFrameOperator, (100, 256.5)),
            (DftFrameOperator, (100, 256.0)),
            (DftFrameOperator, (100.0, 256)),
            (StftFrameOperator, (100, 64.0)),
            (StftFrameOperator, (100.0, 64)),
            (DftFrameOperator, (True, 256)),
            (StftFrameOperator, (True, 64)),
            (StftFrameOperator, (100, True)),
        ],
    )
    def test_non_integer_sizes_raise(self, frame, sizes):
        # a float length must fail here, not inside an FFT at the first solve
        with pytest.raises(ValueError, match="integers") as err:
            frame(*sizes)
        (bad,) = [s for s in sizes if type(s) is not int]
        assert f"got {bad!r}" in str(err.value)  # the value passed, not a derived size

    def test_dft_needs_oversampling(self):
        with pytest.raises(ValueError):
            DftFrameOperator(16, 8)

    def test_dft_adjoint_of_forward_is_projection(self):
        op = DftFrameOperator(4, 8)
        rng = np.random.default_rng(4)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        p = op.adjoint(op.forward(x))
        # idempotent because A A^H = I
        assert np.max(np.abs(op.adjoint(op.forward(p)) - p)) <= 1e-12


class TestGramNorm:
    def test_identity(self):
        assert estimate_gram_norm(DenseOperator(np.eye(5))) == pytest.approx(1.0)

    def test_diagonal(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        assert estimate_gram_norm(op) == pytest.approx(9.0, rel=1e-8)

    def test_dft_frame_is_one(self):
        op = DftFrameOperator(100, 256)
        assert estimate_gram_norm(op) == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_eig_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.integers(2, 13)
            n = rng.integers(2, 13)
            a = rng.normal(size=(m, n))
            got = estimate_gram_norm(DenseOperator(a), tol=1e-9, max_iter=20000)
            assert got == pytest.approx(dense_gram_lambda_max(a), rel=1e-6)

    def test_dft_cross_check_small(self):
        op = DftFrameOperator(8, 16)
        assert estimate_gram_norm(op) == pytest.approx(
            dense_gram_lambda_max(dft_frame_entries(8, 16)), rel=1e-6
        )

    def test_nonconvergence_carries_best(self):
        op = DenseOperator(np.diag([1.0, 0.999]))
        with pytest.raises(ConvergenceError) as err:
            estimate_gram_norm(op, tol=1e-14, max_iter=2)
        assert isinstance(err.value.best, float)
        assert 0.9 < err.value.best <= 1.0 + 1e-12

    def test_bad_args(self):
        op = DenseOperator(np.eye(2))
        for bad in (0.0, np.inf):
            with pytest.raises(ValueError):
                estimate_gram_norm(op, tol=bad)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError):
                estimate_gram_norm(op, max_iter=bad)


class TestDeclaredGramNorm:
    """Frames and scaled frames declare ``||A^H A||_2`` instead of estimating it."""

    @pytest.mark.parametrize(
        "op",
        [
            DftFrameOperator(100, 256),
            DftFrameOperator(20, 48),
            StftFrameOperator(400, 64),
            StftFrameOperator(90, 16),
            ScaledOperator(DftFrameOperator(100, 256), 0.4),
            ScaledOperator(StftFrameOperator(400, 64), np.sqrt(0.7 / 0.05)),
        ],
        ids=["dft100x256", "dft20x48", "stft400/64", "stft90/16", "scaled_dft", "scaled_stft"],
    )
    def test_declared_equals_estimate(self, op):
        est = estimate_gram_norm(op)
        assert abs(op.gram_norm() - est) <= 1e-12 * est

    def test_dense_and_scaled_dense_estimate(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(5, 7))
        dense = DenseOperator(a)
        assert dense.gram_norm() == pytest.approx(dense_gram_lambda_max(a), rel=1e-12)
        scaled = ScaledOperator(dense, 0.3)
        assert scaled.gram_norm() == pytest.approx(0.09 * dense_gram_lambda_max(a), rel=1e-8)

    def test_frame_solves_run_no_power_iteration(self, monkeypatch):
        def refuse(op, *args, **kwargs):
            raise AssertionError(f"power iteration on {type(op).__name__}")

        monkeypatch.setattr(gmcreg.operators, "estimate_gram_norm", refuse)
        rng = np.random.default_rng(22)
        dft, stft = DftFrameOperator(20, 48), StftFrameOperator(90, 16)
        gmc_solve(dft, rng.normal(size=20), SolveConfig(lam=0.5, gamma=0.8, tol=1e-6))
        cfgs = [SolveConfig(lam=lam, gamma=0.7, tol=1e-6) for lam in (0.1, 0.2)]
        solve_many(stft, rng.normal(size=(90, 2)), cfgs)
        pen = build_b_from_a(dft, 0.5, 0.8)
        eval_generalized_huber(pen, rng.normal(size=48))
        GmcPenalty(DenseOperator(np.eye(3)))
        with pytest.raises(NotImplementedError):
            GmcPenalty(UndeclaredGram(np.eye(3)))

    def test_dense_close_top_singular_values(self):
        # 60 x 60 with singular values 1, 1 - 1e-4 and the rest below 0.9
        rng = np.random.default_rng(23)
        u, _ = np.linalg.qr(rng.normal(size=(60, 60)))
        v, _ = np.linalg.qr(rng.normal(size=(60, 60)))
        s = np.concatenate(([1.0, 1.0 - 1e-4], rng.uniform(0.0, 0.9, size=58)))
        dense = DenseOperator((u * s) @ v.T)
        assert dense.gram_norm() == pytest.approx(1.0, rel=1e-12)
        # power iteration cannot separate the top two singular values
        with pytest.raises(ConvergenceError):
            estimate_gram_norm(dense)
        y = dense.forward(rng.normal(size=60))
        assert gmc_solve(dense, y, SolveConfig(lam=0.1, gamma=0.8, tol=1e-6)).converged


class TestCsv:
    def test_round_trip(self, tmp_path):
        a = np.array([[1.0, 2.5, -3.0], [0.25, 0.0, 7.0]])
        path = tmp_path / "mat.csv"
        np.savetxt(path, a, delimiter=",")
        op = DenseOperator.from_csv(path)
        assert op.codomain_dim == 2 and op.domain_dim == 3
        assert np.allclose(op.entries, a)
