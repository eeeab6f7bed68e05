"""Frame-denoising experiments and the Monte Carlo sweep harness.

Two studies at desk scale:

* frequency-domain denoising of a two-sine signal with an over-sampled
  DFT frame, sweeping the regularization weight over a grid for the l1,
  debiased-l1, and GMC penalties and aggregating reconstruction RMSE over
  seeded noise realizations;
* time-frequency denoising of a synthetic linear chirp with an STFT frame,
  comparing l1 and GMC coefficient sparsity at matched RMSE.

Noise is generated by a Philox4x64 counter-based generator (keyed by the
experiment seed and the realization index) feeding a Box-Muller transform,
so every run is bit-reproducible.  Sweep cells -- (method, lambda,
realization) triples -- are independent of each other; results are emitted
in a fixed (method, lambda, realization) order so output bytes never depend
on evaluation order.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .exceptions import _finite, _integer, _shape
from .operators import DftFrameOperator, LinearOperator, StftFrameOperator
from .solvers import SolveConfig, _l1_and_gmc, debias_on_support, gmc_solve

METHODS = ("l1", "l1_debiased", "gmc")

# stopping rule of every denoising solve: sup-norm change and iteration budget
_DENOISE_TOL = 1e-6
_DENOISE_MAX_ITER = 40_000

# run_sweep solves at most this many (lambda, realization) cells as one block, and
# ExperimentSpec refuses a study whose block would hold more coefficients than
# _MAX_BLOCK_COEFS: the solver kernel keeps an Anderson history of every coefficient
_SWEEP_BLOCK = 128
_MAX_BLOCK_COEFS = 1_000_000

_DEFAULT_LAMBDAS = tuple(0.5 + 0.25 * k for k in range(13))  # 0.5 .. 3.5

# run_stft_demo's l1 lambda, GMC lambda and gamma: comparable RMSE on the default chirp
_CHIRP_WEIGHTS = (0.03, 0.05, 0.7)

# a coefficient is active when its magnitude exceeds this fraction of the peak
_ACTIVE_REL_TOL = 1e-3

_RECORDS_HEADER = ("method", "lambda", "realization", "rmse", "nnz")


@dataclass(frozen=True)
class Signal:
    """A finite-length sampled sequence (real or complex)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = _finite(_shape(np.atleast_1d(self.samples), (None,), "samples"), "samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameters of the DFT-frame denoising sweep.

    Defaults reproduce the two-sine study: a length-100 signal with
    frequency pair (0.1, 0.22) and amplitudes (2, 1), a 256-coefficient DFT
    frame, unit noise, 20 noise realizations, lambda from 0.5 to 3.5 in
    steps of 0.25, gamma 0.8.  A study whose solve block (up to 128 cells
    of ``coef_len`` coefficients) would exceed 1 000 000 coefficients is
    refused.
    """

    signal_len: int = 100
    coef_len: int = 256
    frequencies: tuple = (0.1, 0.22)
    amplitudes: tuple = (2.0, 1.0)
    noise_sigma: float = 1.0
    realizations: int = 20
    lambda_grid: tuple = _DEFAULT_LAMBDAS
    gamma: float = 0.8
    seed: int = 0

    def __post_init__(self):
        _integer(self.coef_len, "coef_len", least=_integer(self.signal_len, "signal_len"))
        for f in _shape(self.frequencies, (2,), "frequencies"):
            if not (0.0 < f < 0.5):
                raise ValueError("frequencies must lie in (0, 0.5)")
        _finite(_shape(self.amplitudes, (2,), "amplitudes"), "amplitudes")
        _integer(self.realizations, "realizations")
        grid = tuple(float(v) for v in self.lambda_grid)
        if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be non-empty and strictly increasing")
        if min(self.realizations * len(grid), _SWEEP_BLOCK) * self.coef_len > _MAX_BLOCK_COEFS:
            raise ValueError(
                f"a sweep solve block would hold more than {_MAX_BLOCK_COEFS} coefficients"
            )
        for lam in grid:
            SolveConfig(lam, self.gamma)  # every cell's lambda and gamma must be valid
        # run_sweep draws its noise after any caller's checks
        _noise_rule(self.noise_sigma, self.seed, "noise_sigma")
        object.__setattr__(self, "lambda_grid", grid)


@dataclass(frozen=True)
class SweepRecord:
    method: str
    lam: float
    realization: int
    rmse: float
    nnz: int


@dataclass(frozen=True)
class SweepAggregate:
    method: str
    lam: float
    rmse_mean: float
    rmse_std: float


@dataclass(frozen=True)
class SweepResult:
    """Per-cell records plus per-(method, lambda) mean/std aggregates."""

    records: tuple
    aggregates: tuple

    def best_lambda(self, method: str) -> tuple[float, float]:
        """(lambda, mean rmse) minimizing the aggregate RMSE for a method."""
        rows = [a for a in self.aggregates if a.method == method]
        if not rows:
            raise ValueError(f"no aggregates for method {method!r}")
        best = min(rows, key=lambda a: a.rmse_mean)
        return best.lam, best.rmse_mean


@dataclass(frozen=True)
class DenoiseResult:
    """Optimized coefficients, reconstruction, and a convergence flag."""

    coef: np.ndarray
    recon: Signal
    converged: bool
    method: str
    lam: float


@dataclass(frozen=True)
class StftDemoSpec:
    """Synthetic chirp setup for the time-frequency denoising study.

    The chirp sweeps normalized frequency ``freq_start`` to ``freq_end``
    linearly over ``signal_len`` samples.  Sizes must be integers and ``seed``
    one integer or a pair, not ``bool``; construction checks them (``ValueError``).
    """

    signal_len: int = 400
    segment_len: int = 64
    freq_start: float = 0.05
    freq_end: float = 0.35
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for f in (self.freq_start, self.freq_end):
            if not (0.0 < f < 0.5):
                raise ValueError("chirp frequencies must lie in (0, 0.5)")
        _integer(self.signal_len, "signal_len", least=2)  # make_chirp divides by signal_len - 1
        _integer(self.segment_len, "segment_len")
        _noise_rule(self.noise_sigma, self.seed, "noise_sigma")


@dataclass(frozen=True)
class StftDemoReport:
    """Outcome of the paired l1 / GMC chirp denoising run."""

    lam_l1: float
    lam_gmc: float
    gamma: float
    rmse_l1: float
    rmse_gmc: float
    nnz_l1: int
    nnz_gmc: int
    converged_l1: bool
    converged_gmc: bool

    def rows(self):
        return [
            SweepRecord("l1", self.lam_l1, 0, self.rmse_l1, self.nnz_l1),
            SweepRecord("gmc", self.lam_gmc, 0, self.rmse_gmc, self.nnz_gmc),
        ]


def _samples(sig) -> np.ndarray:
    return sig.samples if isinstance(sig, Signal) else np.asarray(sig)


def rmse(a, b) -> float:
    """Root-mean-square difference; moduli are used for complex input."""
    xa = _samples(a)
    xb = _shape(_samples(b), xa.shape, "b")
    return float(np.sqrt(np.mean(np.abs(xa - xb) ** 2)))


def make_two_sine(spec: ExperimentSpec) -> Signal:
    """Sum of a cosine and sine at the spec's frequencies and amplitudes."""
    m = np.arange(spec.signal_len)
    (f1, f2), (a1, a2) = spec.frequencies, spec.amplitudes
    return Signal(a1 * np.cos(2 * np.pi * f1 * m) + a2 * np.sin(2 * np.pi * f2 * m))


def make_chirp(spec: StftDemoSpec) -> Signal:
    """Unit-amplitude linear chirp over the spec's frequency span."""
    m = np.arange(spec.signal_len)
    sweep = (spec.freq_end - spec.freq_start) / (2.0 * (spec.signal_len - 1))
    phase = 2 * np.pi * (spec.freq_start * m + sweep * m * m)
    return Signal(np.sin(phase))


def _philox_key(seed) -> np.ndarray:
    parts = [_integer(p, f"seed {seed!r}", least=0) for p in np.ravel(np.array(seed, object))]
    if not 1 <= len(parts) <= 2 or max(parts) >= 2**64:
        raise ValueError(f"seed {seed!r} must be one integer or a pair, each in [0, 2**64)")
    return np.array(parts + [0] * (2 - len(parts)), dtype=np.uint64)


def _noise_rule(sigma, seed, name: str) -> None:
    """Refuse a noise level that is not non-negative and finite, or a bad seed."""
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {sigma!r}")
    _philox_key(seed)


def gaussian_draws(n: int, seed) -> np.ndarray:
    """n standard-normal draws from the documented reproducible generator.

    Uniforms come from Philox4x64 keyed by ``seed``, one integer or a pair in
    [0, 2**64) (not ``bool``), zero-padded to the two 64-bit key words; each
    consecutive uniform pair (u1, u2) yields two draws by Box-Muller with radius
    ``sqrt(-2*log(1 - u1))`` (the shift keeps the log argument in (0, 1]) and
    angle ``2*pi*u2``; cos/sin draws are interleaved.  ``n`` must be an
    integer of at least 0 (``ValueError`` otherwise).
    """
    n = _integer(n, "n", least=0)
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed)))
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * m)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


def add_awgn(signal: Signal, sigma: float, seed) -> Signal:
    """Add white Gaussian noise of standard deviation ``sigma``.

    Deterministic given ``seed`` (see ``gaussian_draws``); ``sigma = 0``
    returns an identical copy.  ``sigma`` must be non-negative and finite
    and ``seed`` valid at every ``sigma`` (``ValueError`` otherwise).
    """
    _noise_rule(sigma, seed, "sigma")
    x = _samples(signal)
    if sigma == 0:
        return Signal(x.copy())
    return Signal(x + sigma * gaussian_draws(len(x), seed))


def nonzero_count(coef) -> int:
    """Number of coefficients above 1e-3 times the largest magnitude.

    ``coef`` must be finite (``ValueError`` otherwise).
    """
    mags = np.abs(_finite(coef, "coef"))
    return int(np.count_nonzero(mags > _ACTIVE_REL_TOL * mags.max(initial=0.0)))


def denoise_frame(
    noisy: Signal,
    frame: LinearOperator,
    method: str,
    lam: float,
    gamma: float = 0.8,
    tol: float = _DENOISE_TOL,
    max_iter: int = _DENOISE_MAX_ITER,
) -> DenoiseResult:
    """Estimate frame coefficients of a noisy signal and reconstruct.

    Every method runs one ``gmc_solve``: ``"gmc"`` at ``gamma``, started
    from its own l1 solve, ``"l1"`` at ``gamma = 0``, which is
    ``ista_solve`` bit for bit, and
    ``"l1_debiased"`` as ``"l1"`` then unregularized least squares on the
    support.  The reconstruction is the frame synthesis of the
    coefficients, real when the input signal is real.  Non-convergence is flagged, not raised.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    y = _samples(noisy)
    cfg = SolveConfig(lam=lam, gamma=gamma if method == "gmc" else 0.0, tol=tol, max_iter=max_iter)
    report = gmc_solve(frame, y, cfg)
    coef = report.x_star
    if method == "l1_debiased":
        coef = debias_on_support(frame, y, coef)
    return _result(frame, y, coef, report.converged, method, lam)


def _result(frame, y, coef, converged: bool, method: str, lam: float) -> DenoiseResult:
    """Wrap ``coef`` with its frame synthesis, cast to real when ``y`` is real."""
    recon = frame.forward(coef)
    if not np.iscomplexobj(y):
        recon = recon.real
    return DenoiseResult(
        coef=coef, recon=Signal(recon), converged=converged, method=method, lam=lam
    )


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """Run the full (realization x lambda x method) denoising sweep.

    Each realization draws one noise vector (key = (seed, realization))
    reused across all lambdas and methods.  The (lambda, realization) cells
    are solved in blocks of up to 128, one column per cell, at
    ``denoise_frame``'s tolerance and budget, so each record matches
    ``denoise_frame`` on its cell.  Each block runs one l1 solve
    (``gamma = 0``), shared by the ``l1`` and ``l1_debiased`` rows, and
    one GMC solve started from it, as in ``gmc_solve``, so no cell is
    solved twice.  A solver that stops on its iteration budget still
    contributes its final iterate; the cell is not fatal.
    """
    frame = DftFrameOperator(spec.signal_len, spec.coef_len)
    clean = make_two_sine(spec)
    noisy = [
        add_awgn(clean, spec.noise_sigma, (spec.seed, r)).samples for r in range(spec.realizations)
    ]
    cells = [(lam, r) for r in range(spec.realizations) for lam in spec.lambda_grid]
    records = []
    for first in range(0, len(cells), _SWEEP_BLOCK):
        block = cells[first : first + _SWEEP_BLOCK]
        ys = np.stack([noisy[r] for _, r in block], axis=1)
        lams = [lam for lam, _ in block]
        l1s, gmcs = _l1_and_gmc(frame, ys, lams, spec.gamma, _DENOISE_TOL, _DENOISE_MAX_ITER)
        for (lam, r), l1, gmc in zip(block, l1s, gmcs):
            deb = debias_on_support(frame, noisy[r], l1.x_star)
            for method, coef in (("l1", l1.x_star), ("l1_debiased", deb), ("gmc", gmc.x_star)):
                # the noise is real, so the reconstruction is the synthesis's real part;
                # rmse rounded to the CSV's 9 digits, so a written file re-aggregates alike
                err = _round9(rmse(frame.forward(coef).real, clean))
                records.append(SweepRecord(method, lam, r, err, nonzero_count(coef)))
    records.sort(key=lambda rec: (METHODS.index(rec.method), rec.lam, rec.realization))
    return SweepResult(records=tuple(records), aggregates=tuple(aggregate(records)))


def aggregate(records: Sequence[SweepRecord]) -> list[SweepAggregate]:
    """Mean/std (population) of RMSE per (method, lambda), in canonical order."""
    groups: dict[tuple[str, float], list[float]] = {}
    for rec in records:
        groups.setdefault((rec.method, rec.lam), []).append(rec.rmse)
    out = []
    for method, lam in sorted(groups, key=lambda k: (METHODS.index(k[0]), k[1])):
        vals = np.array(groups[method, lam])
        out.append(SweepAggregate(method, lam, float(vals.mean()), float(vals.std())))
    return out


def run_stft_demo(spec: StftDemoSpec) -> StftDemoReport:
    """Denoise the synthetic chirp with l1 and GMC penalties and compare.

    Reports time-domain reconstruction RMSE against the clean chirp and the
    number of active time-frequency coefficients for each method.  The l1
    weight 0.03 and the GMC weight 0.05 at gamma 0.7 give the two methods
    comparable RMSE on the default spec; at matched RMSE the GMC support is
    the smaller one.  Both solves use ``denoise_frame``'s default tolerance
    and iteration budget.
    """
    lam_l1, lam_gmc, gamma = _CHIRP_WEIGHTS
    clean = make_chirp(spec)
    noisy = add_awgn(clean, spec.noise_sigma, spec.seed)
    frame = StftFrameOperator(spec.signal_len, spec.segment_len)
    l1 = denoise_frame(noisy, frame, "l1", lam_l1)
    g = denoise_frame(noisy, frame, "gmc", lam_gmc, gamma)
    return StftDemoReport(
        lam_l1=lam_l1,
        lam_gmc=lam_gmc,
        gamma=gamma,
        rmse_l1=rmse(l1.recon, clean),
        rmse_gmc=rmse(g.recon, clean),
        nnz_l1=nonzero_count(l1.coef),
        nnz_gmc=nonzero_count(g.coef),
        converged_l1=l1.converged,
        converged_gmc=g.converged,
    )


def coefficient_clusters(coef, frame: DftFrameOperator) -> list[tuple[float, float]]:
    """Sinusoidal components found in a DFT-frame coefficient vector.

    Positive-frequency bins (``1 <= n < N/2``) whose magnitude exceeds
    1e-3 of the peak are grouped into contiguous clusters.  Each
    cluster is synthesized on its own (together with its conjugate-partner
    bins) and reported as a ``(frequency, amplitude)`` pair: the
    magnitude-weighted mean frequency and the peak of the synthesized
    component, which for a narrowband cluster is the amplitude of the
    sinusoid it estimates.  Sorted by descending amplitude.  ``coef`` must
    be finite (``ValueError`` otherwise).
    """
    coef = _finite(coef, "coef")
    n = coef.shape[0]
    half = n // 2
    mags = np.abs(coef[1:half])
    active = mags > _ACTIVE_REL_TOL * mags.max(initial=0.0)
    clusters = []
    start = None
    for i, flag in enumerate(np.append(active, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            bins = np.arange(start, i) + 1
            w = mags[bins - 1]
            freq = float(np.sum(bins * w) / (n * np.sum(w)))
            mask = np.zeros(n, dtype=bool)
            mask[bins] = True
            mask[(n - bins) % n] = True
            component = frame.forward(np.where(mask, coef, 0.0))
            clusters.append((freq, float(np.max(np.abs(component.real)))))
            start = None
    clusters.sort(key=lambda c: -c[1])
    return clusters


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.9g}"


def _round9(v: float) -> float:
    return float(_fmt(float(v)))


def _write_csv(path, rows) -> None:
    """Write one line per row: strings verbatim, numbers through ``_fmt``."""
    with open(path, "w", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def write_records_csv(records: Sequence[SweepRecord], path) -> None:
    """Write per-cell records: header ``method,lambda,realization,rmse,nnz``."""
    _write_csv(path, [_RECORDS_HEADER, *map(astuple, records)])


def write_aggregates_csv(aggregates: Sequence[SweepAggregate], path) -> None:
    """Write aggregates: header ``method,lambda,rmse_mean,rmse_std``."""
    _write_csv(path, [("method", "lambda", "rmse_mean", "rmse_std"), *map(astuple, aggregates)])


def read_records_csv(path) -> list[SweepRecord]:
    """Read a records CSV written by ``write_records_csv``."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(_RECORDS_HEADER):
            raise ValueError(f"unexpected records header: {header!r}")
        for line in fh:
            method, lam, realization, value, nnz = line.strip().split(",")
            records.append(
                SweepRecord(method, float(lam), int(realization), float(value), int(nnz))
            )
    return records
