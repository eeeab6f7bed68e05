"""Command-line surface: ``sweep``, ``denoise``, ``eval``, ``threshold``.

Every subcommand writes CSV files into the ``--out`` directory (created if
missing) so results can be plotted externally.  Exit codes: 0 on success,
1 on a runtime/solver failure, 2 on a usage error.  Given the same flags
and ``--seed``, outputs are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .exceptions import ConvergenceError
from .experiments import (
    METHODS,
    ExperimentSpec,
    Signal,
    StftDemoSpec,
    _fmt,
    _write_csv,
    add_awgn,
    denoise_frame,
    make_chirp,
    make_two_sine,
    rmse,
    run_sweep,
    write_aggregates_csv,
    write_records_csv,
)
from .operators import DenseOperator, DftFrameOperator, StftFrameOperator
from .penalties import GmcPenalty, eval_generalized_huber_many
from .scalar import FirmParams, firm, soft

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# lambda_grid refuses longer grids: a tiny --lambda-step would never finish
_MAX_GRID_STEPS = 10_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmcreg",
        description="Sparse regularization experiments with l1 and GMC penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument(
            "--out",
            default="gmcreg_out",
            help="output directory for CSV files (default ./gmcreg_out)",
        )

    p = sub.add_parser("sweep", help="lambda sweep of the DFT-frame denoising study")
    common(p)
    p.add_argument("--signal-len", type=int, default=100)
    p.add_argument("--coef-len", type=int, default=256)
    p.add_argument("--f1", type=float, default=0.1)
    p.add_argument("--f2", type=float, default=0.22)
    p.add_argument("--a1", type=float, default=2.0)
    p.add_argument("--a2", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--realizations", type=int, default=20)
    p.add_argument("--gamma", type=float, default=0.8)
    p.add_argument("--lambda-min", type=float, default=0.5)
    p.add_argument("--lambda-max", type=float, default=3.5)
    p.add_argument("--lambda-step", type=float, default=0.25)

    p = sub.add_parser("denoise", help="denoise one signal and write the results")
    common(p)
    p.add_argument(
        "--method",
        choices=["l1", "l1-debiased", "gmc"],
        default="gmc",
    )
    p.add_argument(
        "--signal",
        choices=["two-sine", "chirp"],
        default="two-sine",
        help="built-in clean signal (ignored when --input is given)",
    )
    p.add_argument("--input", help="signal CSV: one real per line, or re,im per line")
    p.add_argument("--frame", choices=["dft", "stft"], default="dft")
    p.add_argument("--coef-len", type=int, default=256)
    p.add_argument("--segment-len", type=int, default=64)
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=0.8)
    p.add_argument("--sigma", type=float, default=1.0, help="noise added before denoising")

    p = sub.add_parser("eval", help="generalized Huber / GMC penalty values on a 2-D grid")
    common(p)
    p.add_argument("--b-matrix", required=True, help="CSV file holding the matrix B")
    p.add_argument("--grid-min", type=float, default=-3.0)
    p.add_argument("--grid-max", type=float, default=3.0)
    p.add_argument("--grid-points", type=int, default=61)

    p = sub.add_parser("threshold", help="soft and firm threshold curves")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--y-max", type=float, default=3.0)
    p.add_argument("--points", type=int, default=601)

    return parser


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _read_signal_csv(path) -> Signal:
    rows = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    if rows.shape[1] == 1:
        return Signal(rows[:, 0])
    if rows.shape[1] == 2:
        return Signal(rows[:, 0] + 1j * rows[:, 1])
    raise ValueError("signal CSV must have one (real) or two (re,im) columns")


def lambda_grid(lo: float, hi: float, step: float) -> tuple:
    """Inclusive arithmetic grid of at most 10 001 values; the default flags give 13."""
    if not np.all(np.isfinite((lo, hi, step))):
        raise ValueError("lambda bounds and step must be finite")
    if step <= 0 or hi < lo:
        raise ValueError("need step > 0 and lambda-max >= lambda-min")
    steps = (hi - lo) / step
    if not steps <= _MAX_GRID_STEPS:  # also catches an overflow to inf
        raise ValueError(f"lambda grid would take more than {_MAX_GRID_STEPS} steps")
    return tuple(lo + step * k for k in range(int(round(steps)) + 1))


def cmd_sweep(args) -> int:
    try:
        spec = ExperimentSpec(
            signal_len=args.signal_len,
            coef_len=args.coef_len,
            frequencies=(args.f1, args.f2),
            amplitudes=(args.a1, args.a2),
            noise_sigma=args.sigma,
            realizations=args.realizations,
            lambda_grid=lambda_grid(args.lambda_min, args.lambda_max, args.lambda_step),
            gamma=args.gamma,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _outdir(args)
    result = run_sweep(spec)
    write_records_csv(result.records, os.path.join(out, "records.csv"))
    write_aggregates_csv(result.aggregates, os.path.join(out, "aggregates.csv"))
    for method in METHODS:
        lam, mean = result.best_lambda(method)
        print(f"{method}: best lambda = {_fmt(lam)} (mean rmse = {_fmt(mean)})")
    return EXIT_OK


def cmd_denoise(args) -> int:
    clean = None
    if args.input is not None:
        try:
            signal = _read_signal_csv(args.input)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read input signal: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif args.signal == "two-sine":
        clean = make_two_sine(ExperimentSpec())
        signal = clean
    else:
        clean = make_chirp(StftDemoSpec())
        signal = clean
    try:
        noisy = add_awgn(signal, args.sigma, args.seed)
        if args.frame == "dft":
            frame = DftFrameOperator(len(noisy), args.coef_len)
        else:
            frame = StftFrameOperator(len(noisy), args.segment_len)
        gamma = args.gamma if args.method == "gmc" else 0.0
        if args.method == "gmc" and not (0.0 <= gamma < 1.0):
            print("error: gamma must lie in [0, 1)", file=sys.stderr)
            return EXIT_USAGE
        if not (0 < args.lam < np.inf):
            print("error: lambda must be positive and finite", file=sys.stderr)
            return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    method = args.method.replace("-", "_")
    result = denoise_frame(noisy, frame, method, args.lam, gamma)
    out = _outdir(args)
    recon = result.recon.samples
    cols = (recon.real, recon.imag) if np.iscomplexobj(recon) else (recon,)
    _write_csv(os.path.join(out, "reconstruction.csv"), zip(*cols))
    _write_csv(
        os.path.join(out, "coefficients.csv"),
        [("index", "magnitude"), *enumerate(np.abs(result.coef))],
    )
    if not result.converged:
        print("warning: solver stopped on its iteration budget", file=sys.stderr)
    if clean is not None:
        print(f"rmse {_fmt(rmse(result.recon, clean))}")
    else:
        print(f"rmse_vs_input {_fmt(rmse(result.recon, signal))}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        b_op = DenseOperator.from_csv(args.b_matrix)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read B matrix: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if b_op.domain_dim != 2:
        print("error: grid evaluation needs a B matrix with exactly 2 columns", file=sys.stderr)
        return EXIT_USAGE
    if args.grid_points < 2 or not args.grid_min < args.grid_max:
        print("error: invalid grid", file=sys.stderr)
        return EXIT_USAGE
    pen = GmcPenalty(b_op)
    ticks = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    x1, x2 = np.meshgrid(ticks, ticks, indexing="ij")
    pts = np.stack([x1.ravel(), x2.ravel()], axis=0)
    _, values = eval_generalized_huber_many(pen, pts)
    out = _outdir(args)
    rows = ((a, b, s, abs(a) + abs(b) - s) for a, b, s in zip(pts[0], pts[1], values))
    _write_csv(
        os.path.join(out, "penalty_grid.csv"), [("x1", "x2", "gen_huber", "gmc_penalty"), *rows]
    )
    print(f"wrote {args.grid_points * args.grid_points} grid rows")
    return EXIT_OK


def cmd_threshold(args) -> int:
    if not (args.lam > 0 and args.mu > args.lam):
        print("error: need mu > lambda > 0", file=sys.stderr)
        return EXIT_USAGE
    if args.points < 2 or args.y_max <= 0:
        print("error: invalid curve grid", file=sys.stderr)
        return EXIT_USAGE
    y = np.linspace(-args.y_max, args.y_max, args.points)
    s = soft(y, args.lam)
    f = firm(y, FirmParams(lam=args.lam, mu=args.mu))
    out = _outdir(args)
    _write_csv(os.path.join(out, "thresholds.csv"), [("y", "soft", "firm"), *zip(y, s, f)])
    print(f"wrote {args.points} threshold rows")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": cmd_sweep,
        "denoise": cmd_denoise,
        "eval": cmd_eval,
        "threshold": cmd_threshold,
    }
    try:
        return handlers[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def app() -> None:
    raise SystemExit(main())
