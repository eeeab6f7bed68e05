"""Acceptance suite: one test per shipped criterion, at pinned tolerances.

Each test prints a `[acceptance] criterion N ...: PASS (...)` line and
asserts its runtime budget; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.  Criteria 7 and 8 cache their results so
criterion 9 (byte-identical reruns) does not triple the heavy work.
"""

import time

import numpy as np
import pytest

from gmcreg import (
    DenseOperator,
    DftFrameOperator,
    ExperimentSpec,
    FirmParams,
    GmcPenalty,
    ScalarPenaltyParams,
    ScaledOperator,
    SolveConfig,
    StftDemoSpec,
    add_awgn,
    coefficient_clusters,
    cost_value,
    cost_value_many,
    denoise_frame,
    diagonal_solve,
    eval_generalized_huber,
    eval_gmc_many,
    firm,
    gmc_solve,
    grad_generalized_huber,
    huber,
    ista_solve,
    make_chirp,
    make_two_sine,
    rmse,
    run_sweep,
    scalar_minimize,
    scaled_huber,
    scaled_mc,
    soft,
    write_aggregates_csv,
    write_records_csv,
)
from gmcreg.experiments import SweepRecord

from _oracles import grid_argmin_scalar_cost, grid_min_gen_huber, huber_via_min3, psd_factor

_CACHE = {}


def _finish(label, budget, t0):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    print(f"\n[acceptance] {label}: PASS ({elapsed:.1f}s / {budget:.0f}s budget)")


def test_criterion_1_scalar_suite():
    t0 = time.perf_counter()
    grid = np.linspace(-5.0, 5.0, 10_000)

    # min-of-three identity, exact
    assert np.array_equal(huber(grid), huber_via_min3(grid))

    # MC + Huber complement identity, exact
    for b in (0.0, 0.5, 1.0, 2.0, 5.0):
        assert np.array_equal(scaled_mc(grid, b) + scaled_huber(grid, b), np.abs(grid))

    # firm -> soft as mu grows (tol 1e-5 on |y| <= 10)
    y = np.linspace(-10.0, 10.0, 2001)
    assert np.max(np.abs(firm(y, FirmParams(1.0, 1e6)) - soft(y, 1.0))) <= 1e-5

    # firm -> hard as mu -> lam+, away from |y| = lam
    lam = 1.0
    pts = np.array([-4.0, -2.0, -1.5, -0.5, 0.5, 1.5, 2.0, 4.0])
    hard = np.where(np.abs(pts) <= lam, 0.0, pts)
    assert np.allclose(firm(pts, FirmParams(lam, lam * (1 + 1e-9))), hard, atol=1e-8)

    # closed-form scalar minimizer vs 1e-5 grid search, 100 convex draws
    rng = np.random.default_rng(101)
    for _ in range(100):
        a = rng.uniform(0.5, 2.0)
        lam = rng.uniform(0.3, 2.0)
        b = rng.uniform(0.05, 0.999) * a / np.sqrt(lam)
        y0 = rng.uniform(-3.0, 3.0) * a
        got = scalar_minimize(y0, ScalarPenaltyParams(b=b, lam=lam, a=a))
        ref = grid_argmin_scalar_cost(y0, a, lam, b)
        assert abs(got - ref) <= 2e-5

    _finish("criterion 1 (scalar suite)", 5.0, t0)


def test_criterion_2_generalized_huber_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    def draw_pen(n, inner_tol=1e-10):
        m = int(rng.integers(1, n + 2))
        return GmcPenalty(DenseOperator(rng.normal(size=(m, n))), inner_tol=inner_tol)

    # sandwich bounds for the Huber value and the complement penalty
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pen = draw_pen(n)
        x = rng.normal(size=n) * 3.0
        val = eval_generalized_huber(pen, x).value
        l1 = float(np.sum(np.abs(x)))
        assert -1e-12 <= val <= l1 + 1e-9
        psi = l1 - val
        assert -1e-9 <= psi <= l1 + 1e-9

    # quadratic-region equality, tol 1e-6
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pen = draw_pen(n)
        x = rng.normal(size=n)
        g = pen.b_op.adjoint(pen.b_op.forward(x))
        peak = np.max(np.abs(g))
        if peak > 0:
            x = x * (0.9 / peak)
        bx = pen.b_op.forward(x)
        assert abs(eval_generalized_huber(pen, x).value - 0.5 * float(bx @ bx)) <= 1e-6

    # value depends on B only through B^T B, tol 1e-6
    for _ in range(100):
        n = int(rng.integers(1, 7))
        b = rng.normal(size=(int(rng.integers(1, n + 2)), n))
        c = psd_factor(b.T @ b)
        x = rng.normal(size=n) * 2.0
        va = eval_generalized_huber(GmcPenalty(DenseOperator(b)), x).value
        vb = eval_generalized_huber(GmcPenalty(DenseOperator(c)), x).value
        assert abs(va - vb) <= 1e-6

    # upper envelope by the scalar Huber sum at alpha = ||B||_2
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pen = draw_pen(n)
        x = rng.normal(size=n) * 2.0
        alpha = np.sqrt(pen.b_op.gram_norm())
        assert eval_generalized_huber(pen, x).value <= np.sum(scaled_huber(x, alpha)) + 1e-6

    # gradient: finite differences to 1e-5, sup-norm bound 1 + 1e-8
    h = 1e-4
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pen = draw_pen(n, inner_tol=1e-12)
        x = rng.normal(size=n) * 2.0
        g = grad_generalized_huber(pen, x)
        assert np.max(np.abs(g)) <= 1.0 + 1e-8
        i = int(rng.integers(0, n))
        e = np.zeros(n)
        e[i] = h
        fd = (
            eval_generalized_huber(pen, x + e).value
            - eval_generalized_huber(pen, x - e).value
        ) / (2 * h)
        assert abs(g[i] - fd) <= 1e-5

    # dense grid oracle for N in {1, 2}, tol 1e-3
    for k in range(100):
        n = 1 + (k % 2)
        b = rng.normal(size=(int(rng.integers(1, 4)), n))
        x = rng.uniform(-1.0, 1.0, size=n)
        got = eval_generalized_huber(GmcPenalty(DenseOperator(b)), x).value
        assert abs(got - grid_min_gen_huber(b, x)) <= 1e-3

    # midpoint convexity with 1e-8 slack
    for _ in range(100):
        n = int(rng.integers(1, 7))
        pen = draw_pen(n)
        x = rng.normal(size=n) * 2.0
        z = rng.normal(size=n) * 2.0
        vals = eval_gmc_many(pen, np.stack([x, z, (x + z) / 2], axis=1))
        hub = np.sum(np.abs(np.stack([x, z, (x + z) / 2], axis=1)), axis=0) - vals
        assert hub[2] <= (hub[0] + hub[1]) / 2 + 1e-8

    _finish("criterion 2 (generalized Huber suite)", 60.0, t0)


def test_criterion_3_convexity_condition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)

    # 200 admissible draws: midpoint convexity of the full objective
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        a = DenseOperator(rng.normal(size=(m, n)))
        y = rng.normal(size=m)
        lam = rng.uniform(0.2, 2.0)
        gamma = rng.uniform(0.0, 1.0)
        x = rng.normal(size=n) * 2.0
        z = rng.normal(size=n) * 2.0
        fx, fz, fm = cost_value_many(a, y, lam, gamma, np.stack([x, z, (x + z) / 2], axis=1))
        assert fm <= (fx + fz) / 2 + 1e-8

    # gamma = 2 on the identity violates the condition: find a witness pair
    lam = 1.0
    a = DenseOperator(np.eye(2))
    pen = GmcPenalty(ScaledOperator(a, np.sqrt(2.0 / lam)))  # B^T B = 2 A^T A / lam
    y = np.array([0.8, -0.3])

    def bad_cost(x):
        r = x - y
        psi = float(eval_gmc_many(pen, x[:, None])[0])
        return 0.5 * float(r @ r) + lam * psi

    witness = None
    for _ in range(500):
        x = rng.uniform(-1.0, 1.0, size=2)
        z = rng.uniform(-1.0, 1.0, size=2)
        if bad_cost((x + z) / 2) > (bad_cost(x) + bad_cost(z)) / 2 + 1e-8:
            witness = (x, z)
            break
    assert witness is not None, "no midpoint-convexity violation found at gamma = 2"

    _finish("criterion 3 (convexity condition)", 60.0, t0)


def test_criterion_4_diagonal_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    gammas = [0.3, 0.7, 1.0]
    for k in range(50):
        gamma = gammas[k % 3]
        n = int(rng.integers(2, 9))
        alphas = rng.uniform(0.5, 2.0, size=n)
        y = rng.normal(size=n) * 2.0
        aty = alphas * y
        lam = rng.uniform(0.3, 1.5)
        direct = diagonal_solve(alphas, aty, lam, gamma)

        # closed form vs the per-coordinate grid search, tol 1e-4
        for i in range(n):
            b = alphas[i] * np.sqrt(gamma / lam)
            ref = grid_argmin_scalar_cost(
                aty[i] / alphas[i], alphas[i], lam, b, lo=-8.0, hi=8.0, step=2.5e-5
            )
            assert abs(direct[i] - ref) <= 1e-4

        # iterative solver agrees with the closed form, tol 1e-6 (gamma < 1)
        if gamma < 1.0:
            a = DenseOperator(np.diag(alphas))
            rep = gmc_solve(a, y, SolveConfig(lam=lam, gamma=gamma, tol=1e-10))
            assert rep.converged
            assert np.max(np.abs(rep.x_star - direct)) <= 1e-6

    _finish("criterion 4 (diagonal closed form)", 30.0, t0)


def test_criterion_5_saddle_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(20):
        m = int(rng.integers(8, 31))
        n = int(rng.integers(5, 31))
        a = DenseOperator(rng.normal(size=(m, n)) / np.sqrt(m))
        y = rng.normal(size=m)
        lam = rng.uniform(0.2, 0.8)
        gamma = rng.uniform(0.3, 0.9)
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

        # local-minimality probe: 1000 perturbations with ||delta|| <= 0.01
        deltas = rng.normal(size=(n, 1000))
        deltas *= 0.01 * rng.uniform(0.0, 1.0, size=1000) / np.linalg.norm(deltas, axis=0)
        probes = cost_value_many(a, y, lam, gamma, x[:, None] + deltas)
        f_star = cost_value(a, y, lam, gamma, x)
        assert np.all(f_star <= probes + 1e-9)

    _finish("criterion 5 (saddle-point optimality)", 60.0, t0)


def test_criterion_6_ista_reduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    for k in range(10):
        if k < 8:
            m = int(rng.integers(4, 12))
            n = int(rng.integers(4, 12))
            a = DenseOperator(rng.normal(size=(m, n)))
            y = rng.normal(size=m)
        else:
            a = DftFrameOperator(20, 48)
            y = rng.normal(size=20)
        lam = rng.uniform(0.1, 1.0)
        cfg = SolveConfig(lam=lam, gamma=0.0, tol=1e-300, max_iter=500)
        gmc_states, ista_states = [], []
        gmc_solve(a, y, cfg, callback=lambda s: gmc_states.append(s))
        ista_solve(a, y, lam, cfg, callback=lambda s: ista_states.append(s))
        # either the full 500 iterations ran, or both solvers reached an
        # exact floating-point fixed point (delta == 0), beyond which every
        # further iterate is bitwise constant
        assert len(gmc_states) == len(ista_states)
        assert len(gmc_states) == 500 or gmc_states[-1].delta == 0.0
        for p, q in zip(gmc_states, ista_states):
            assert np.array_equal(p.x_star, q.x_star)

    _finish("criterion 6 (ISTA reduction, bit-identical)", 60.0, t0)


def _dft_sweep():
    if "sweep" not in _CACHE:
        spec = ExperimentSpec()  # the reference parameter set
        _CACHE["sweep"] = (spec, run_sweep(spec))
    return _CACHE["sweep"]


def test_criterion_7_dft_denoising_study():
    t0 = time.perf_counter()
    spec, result = _dft_sweep()

    lam_l1, best_l1 = result.best_lambda("l1")
    _, best_deb = result.best_lambda("l1_debiased")
    lam_gmc, best_gmc = result.best_lambda("gmc")

    # (a) GMC attains the lowest mean RMSE of the cost-function methods
    assert best_gmc <= best_l1

    # (b) optimal weights land within one grid step of 1.0 and 2.0
    step = spec.lambda_grid[1] - spec.lambda_grid[0]
    assert abs(lam_l1 - 1.0) <= step + 1e-12
    assert abs(lam_gmc - 2.0) <= step + 1e-12

    # method ordering over the whole sweep: GMC best, debiased l1 next
    # (debiasing at the l1-optimal weight itself refits too dense a support
    # and loses; the ordering holds between the curve minima)
    assert best_gmc <= best_deb <= best_l1

    # (c) support size and amplitude comparison at the optimal weights
    recs = {(r.method, r.lam, r.realization): r for r in result.records}
    nnz_l1 = np.mean([recs[("l1", lam_l1, r)].nnz for r in range(spec.realizations)])
    nnz_gmc = np.mean([recs[("gmc", lam_gmc, r)].nnz for r in range(spec.realizations)])
    assert nnz_gmc < nnz_l1

    frame = DftFrameOperator(spec.signal_len, spec.coef_len)
    clean = make_two_sine(spec)
    targets = spec.frequencies
    amps = {"l1": [[], []], "gmc": [[], []]}
    for r in range(spec.realizations):
        noisy = add_awgn(clean, spec.noise_sigma, (spec.seed, r))
        for method, lam in (("l1", lam_l1), ("gmc", lam_gmc)):
            coef = denoise_frame(noisy, frame, method, lam, spec.gamma).coef
            top = coefficient_clusters(coef, frame)[:2]
            assert len(top) == 2
            for freq, amp in top:
                comp = int(np.argmin([abs(freq - t) for t in targets]))
                assert abs(freq - targets[comp]) < 0.02
                amps[method][comp].append(amp)
    for comp, true_amp in enumerate(spec.amplitudes):
        mean_l1 = np.mean(amps["l1"][comp])
        mean_gmc = np.mean(amps["gmc"][comp])
        assert abs(mean_gmc - true_amp) < abs(mean_l1 - true_amp)

    _finish("criterion 7 (DFT-frame denoising study)", 600.0, t0)


def _stft_match():
    if "stft" not in _CACHE:
        spec = StftDemoSpec()
        clean = make_chirp(spec)
        noisy = add_awgn(clean, spec.noise_sigma, spec.seed)
        from gmcreg import StftFrameOperator

        frame = StftFrameOperator(spec.signal_len, spec.segment_len)
        rows = []
        for method, lams, gamma in (
            ("l1", (0.01, 0.02, 0.03, 0.05, 0.08), 0.0),
            ("gmc", (0.03, 0.05, 0.08, 0.12, 0.2), 0.7),
        ):
            for lam in lams:
                res = denoise_frame(noisy, frame, method, lam, gamma)
                rows.append(
                    SweepRecord(
                        method, lam, 0,
                        float(f"{rmse(res.recon, clean):.9g}"),
                        int(np.count_nonzero(np.abs(res.coef) > 1e-3 * np.max(np.abs(res.coef)))),
                    )
                )
        _CACHE["stft"] = rows
    return _CACHE["stft"]


def test_criterion_8_stft_chirp_study():
    t0 = time.perf_counter()
    rows = _stft_match()
    l1_rows = [r for r in rows if r.method == "l1"]
    gmc_rows = [r for r in rows if r.method == "gmc"]
    best_l1 = min(l1_rows, key=lambda r: r.rmse)
    matched_gmc = min(gmc_rows, key=lambda r: abs(r.rmse - best_l1.rmse))
    # matched reconstruction quality within +-5%
    assert abs(matched_gmc.rmse - best_l1.rmse) <= 0.05 * best_l1.rmse
    # strictly sparser time-frequency support
    assert matched_gmc.nnz < best_l1.nnz
    # the non-convex penalty needs the larger weight at matched quality
    assert matched_gmc.lam > best_l1.lam

    _finish("criterion 8 (STFT chirp study)", 300.0, t0)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    spec, first = _dft_sweep()
    second = run_sweep(spec)

    import os
    import tempfile

    def csv_bytes(writer, rows):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "x.csv")
            writer(rows, path)
            with open(path, "rb") as fh:
                return fh.read()

    assert csv_bytes(write_records_csv, first.records) == csv_bytes(
        write_records_csv, second.records
    )
    assert csv_bytes(write_aggregates_csv, first.aggregates) == csv_bytes(
        write_aggregates_csv, second.aggregates
    )

    rows_first = _stft_match()
    del _CACHE["stft"]
    rows_second = _stft_match()
    assert csv_bytes(write_records_csv, rows_first) == csv_bytes(
        write_records_csv, rows_second
    )

    _finish("criterion 9 (byte-identical reruns)", 900.0, t0)
