import numpy as np
import pytest

from gmcreg import (
    DftFrameOperator,
    ExperimentSpec,
    Signal,
    SolveConfig,
    StftDemoSpec,
    add_awgn,
    aggregate,
    coefficient_clusters,
    denoise_frame,
    gaussian_draws,
    make_chirp,
    make_two_sine,
    nonzero_count,
    read_records_csv,
    rmse,
    run_stft_demo,
    run_sweep,
    solve_many,
    write_aggregates_csv,
    write_records_csv,
)
from gmcreg.experiments import SweepRecord

QUICK_SPEC = ExperimentSpec(realizations=2, lambda_grid=(0.75, 1.5, 2.25))


@pytest.fixture(scope="module")
def quick_sweep():
    return run_sweep(QUICK_SPEC)


class TestSignals:
    def test_two_sine_values(self):
        spec = ExperimentSpec()
        g = make_two_sine(spec).samples
        assert g[0] == pytest.approx(2.0)
        assert g[5] == pytest.approx(2 * np.cos(np.pi) + np.sin(2 * np.pi * 0.22 * 5))
        assert np.max(np.abs(g)) <= 3.0

    def test_chirp_amplitude(self):
        c = make_chirp(StftDemoSpec()).samples
        assert len(c) == 400
        assert np.max(np.abs(c)) <= 1.0

    def test_signal_validation(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.inf]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(frequencies=(0.1, 0.6))
        for grid in [(1.0, 0.5), (np.nan,), (np.inf,), (-1.0,), (0.0, 1.0)]:
            with pytest.raises(ValueError):
                ExperimentSpec(lambda_grid=grid)
        with pytest.raises(ValueError):
            ExperimentSpec(realizations=0)
        with pytest.raises(ValueError):
            ExperimentSpec(gamma=1.0)
        bad_specs = [
            dict(noise_sigma=np.nan),
            dict(noise_sigma=np.inf),
            dict(amplitudes=(np.inf, 1.0)),
            dict(amplitudes=(2.0, np.nan)),
            dict(frequencies=(0.1, 0.2, 0.3), amplitudes=(1.0, 1.0, 1.0)),
            dict(frequencies=(0.1,), amplitudes=(1.0,)),
            dict(coef_len=40_000),  # a 128-cell solve block of 5 120 000 coefficients
        ]
        for kwargs in bad_specs:
            with pytest.raises(ValueError):
                ExperimentSpec(**kwargs)
        bad_stft_specs = [
            dict(noise_sigma=np.nan),
            dict(noise_sigma=np.inf),
            dict(noise_sigma=-1.0),
            dict(signal_len=1),  # make_chirp divides by signal_len - 1
        ]
        for kwargs in bad_stft_specs:
            with pytest.raises(ValueError):
                StftDemoSpec(**kwargs)


class TestRmse:
    def test_identical(self):
        s = Signal(np.arange(4.0))
        assert rmse(s, s) == 0.0

    def test_unit(self):
        assert rmse(np.ones(4), np.zeros(4)) == 1.0

    def test_arithmetic(self):
        assert rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(np.sqrt(12.5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))


class TestNoise:
    def test_sigma_zero_identity(self):
        s = Signal(np.arange(5.0))
        out = add_awgn(s, 0.0, 1)
        assert np.array_equal(out.samples, s.samples)

    def test_deterministic(self):
        s = Signal(np.zeros(64))
        a = add_awgn(s, 1.0, (3, 4)).samples
        b = add_awgn(s, 1.0, (3, 4)).samples
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        s = Signal(np.zeros(64))
        a = add_awgn(s, 1.0, (3, 4)).samples
        b = add_awgn(s, 1.0, (3, 5)).samples
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64, (3, -1), (0, 2**64)])
    def test_seed_out_of_range_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            gaussian_draws(4, seed)
        with pytest.raises(ValueError, match="seed"):
            add_awgn(Signal(np.zeros(4)), 1.0, seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_spec_seed_out_of_range_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(seed=seed)

    def test_largest_seed_is_accepted(self):
        assert len(gaussian_draws(4, 2**64 - 1)) == 4
        assert ExperimentSpec(seed=2**64 - 1).seed == 2**64 - 1

    def test_variance_within_one_percent(self):
        z = gaussian_draws(1_000_000, 12345)
        assert abs(np.var(z) - 1.0) <= 0.01
        assert abs(np.mean(z)) <= 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_awgn(Signal(np.zeros(3)), -1.0, 0)


class TestDenoiseFrame:
    def test_clean_data_tiny_lambda(self):
        spec = ExperimentSpec()
        clean = make_two_sine(spec)
        frame = DftFrameOperator(spec.signal_len, spec.coef_len)
        res = denoise_frame(clean, frame, "l1", 1e-6)
        assert rmse(res.recon, clean) <= 1e-4

    def test_unknown_method(self):
        frame = DftFrameOperator(10, 16)
        with pytest.raises(ValueError):
            denoise_frame(Signal(np.zeros(10)), frame, "ridge", 1.0)

    def test_real_signal_gives_real_reconstruction(self):
        spec = ExperimentSpec()
        noisy = add_awgn(make_two_sine(spec), 1.0, 0)
        frame = DftFrameOperator(spec.signal_len, spec.coef_len)
        res = denoise_frame(noisy, frame, "gmc", 2.0, 0.8)
        assert not np.iscomplexobj(res.recon.samples)

    def test_debiased_shares_support(self):
        spec = ExperimentSpec()
        noisy = add_awgn(make_two_sine(spec), 1.0, 0)
        frame = DftFrameOperator(spec.signal_len, spec.coef_len)
        plain = denoise_frame(noisy, frame, "l1", 1.0)
        deb = denoise_frame(noisy, frame, "l1_debiased", 1.0)
        assert np.all((np.abs(deb.coef) > 0) <= (np.abs(plain.coef) > 1e-8))

    def test_slow_gmc_cell_converges(self):
        # a lambda = 0.5 GMC cell that plain forward-backward left unconverged
        # at the 40 000-iteration budget
        spec = ExperimentSpec()
        noisy = add_awgn(make_two_sine(spec), 1.0, (8192, 0))
        frame = DftFrameOperator(spec.signal_len, spec.coef_len)
        assert denoise_frame(noisy, frame, "gmc", 0.5, 0.8).converged


class TestNonzeroCount:
    def test_zero_vector(self):
        assert nonzero_count(np.zeros(5)) == 0

    def test_relative_threshold(self):
        assert nonzero_count(np.array([1.0, 1e-5, 0.5])) == 2


class TestSweep:
    def test_shapes_and_order(self, quick_sweep):
        res = quick_sweep
        assert len(res.records) == 2 * 3 * 3
        assert len(res.aggregates) == 3 * 3
        keys = [(r.method, r.lam, r.realization) for r in res.records]
        assert keys == sorted(
            keys, key=lambda k: (("l1", "l1_debiased", "gmc").index(k[0]), k[1], k[2])
        )

    def test_aggregates_match_records(self, quick_sweep):
        res = quick_sweep
        for agg in res.aggregates:
            vals = [
                r.rmse
                for r in res.records
                if r.method == agg.method and r.lam == agg.lam
            ]
            assert agg.rmse_mean == pytest.approx(np.mean(vals), abs=1e-15)
            assert agg.rmse_std == pytest.approx(np.std(vals), abs=1e-15)

    def test_records_match_denoise_frame(self, quick_sweep):
        # run_sweep solves its cells as blocks; each record is still the
        # per-cell denoise_frame result
        frame = DftFrameOperator(QUICK_SPEC.signal_len, QUICK_SPEC.coef_len)
        clean = make_two_sine(QUICK_SPEC)
        for rec in quick_sweep.records:
            noisy = add_awgn(clean, QUICK_SPEC.noise_sigma, (QUICK_SPEC.seed, rec.realization))
            d = denoise_frame(noisy, frame, rec.method, rec.lam, QUICK_SPEC.gamma)
            assert rec.rmse == float(f"{rmse(d.recon, clean):.9g}")
            assert rec.nnz == nonzero_count(d.coef)

    def test_deterministic(self, quick_sweep, tmp_path):
        again = run_sweep(QUICK_SPEC)
        assert again == quick_sweep
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(quick_sweep.records, p1)
        write_records_csv(again.records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip_reaggregates(self, quick_sweep, tmp_path):
        rec_path = tmp_path / "records.csv"
        agg_path = tmp_path / "aggregates.csv"
        write_records_csv(quick_sweep.records, rec_path)
        write_aggregates_csv(quick_sweep.aggregates, agg_path)
        re_read = read_records_csv(rec_path)
        assert tuple(re_read) == quick_sweep.records
        agg2_path = tmp_path / "aggregates2.csv"
        write_aggregates_csv(aggregate(re_read), agg2_path)
        assert agg_path.read_bytes() == agg2_path.read_bytes()

    def test_clean_data_l1_curve_monotone(self):
        spec = ExperimentSpec(
            realizations=1, noise_sigma=0.0, lambda_grid=tuple(0.5 + 0.25 * k for k in range(13))
        )
        res = run_sweep(spec)
        curve = [a.rmse_mean for a in res.aggregates if a.method == "l1"]
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_gmc_block_iteration_budget(self):
        # the GMC block of a two-realization sweep on the paper's frame, as
        # run_sweep builds it: Anderson memory 5 took 6 044 column-iterations
        # here, memory 10 takes 3 402
        spec = ExperimentSpec(realizations=2)
        frame = DftFrameOperator(spec.signal_len, spec.coef_len)
        clean = make_two_sine(spec)
        cells = [(lam, r) for r in range(spec.realizations) for lam in spec.lambda_grid]
        ys = np.stack(
            [add_awgn(clean, spec.noise_sigma, (spec.seed, r)).samples for _, r in cells], axis=1
        )
        cfgs = [SolveConfig(lam, spec.gamma, tol=1e-6, max_iter=40_000) for lam, _ in cells]
        reports = solve_many(frame, ys, cfgs)
        assert len(reports) == 26
        assert all(r.converged for r in reports)
        assert sum(r.iterations for r in reports) <= 4_500


class TestCsvFormat:
    def test_nine_significant_digits(self, tmp_path):
        rec = SweepRecord("l1", 0.5, 0, 0.123456789123, 7)
        path = tmp_path / "r.csv"
        write_records_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,lambda,realization,rmse,nnz"
        assert lines[1] == "l1,0.5,0,0.123456789,7"


class TestStftDemo:
    def test_clean_chirp_small_lambda(self):
        spec = StftDemoSpec(noise_sigma=0.0)
        rep = run_stft_demo(spec, lam_l1=1e-4, lam_gmc=1e-4)
        assert rep.converged_l1 and rep.converged_gmc
        assert rep.rmse_l1 <= 1e-3
        assert rep.rmse_gmc <= 1e-3

    def test_default_run_sparser_gmc(self):
        rep = run_stft_demo(StftDemoSpec())
        assert rep.converged_l1 and rep.converged_gmc
        assert rep.nnz_gmc < rep.nnz_l1
        assert rep.lam_gmc > rep.lam_l1
        assert abs(rep.rmse_gmc - rep.rmse_l1) <= 0.05 * rep.rmse_l1


class TestClusters:
    def test_recovers_known_sparse_components(self):
        # coefficients placed by hand: bin pair (26, 230) synthesizes a
        # cosine of amplitude 2, bin pair (56, 200) one of amplitude 1
        n = 256
        frame = DftFrameOperator(100, n)
        coef = np.zeros(n, dtype=complex)
        coef[26] = np.sqrt(n)
        coef[n - 26] = np.sqrt(n)
        coef[56] = 0.5 * np.sqrt(n) * np.exp(1j * 0.7)
        coef[n - 56] = np.conj(coef[56])
        clusters = coefficient_clusters(coef, frame)
        assert len(clusters) == 2
        (f1, a1), (f2, a2) = clusters
        assert f1 == pytest.approx(26 / n, abs=1e-9)
        assert a1 == pytest.approx(2.0, abs=1e-6)
        assert f2 == pytest.approx(56 / n, abs=1e-9)
        # peak of the sampled cosine sits slightly below its amplitude
        assert a2 == pytest.approx(1.0, abs=0.01)

    def test_empty(self):
        frame = DftFrameOperator(10, 16)
        assert coefficient_clusters(np.zeros(16, complex), frame) == []
