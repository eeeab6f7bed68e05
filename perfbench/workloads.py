"""The benchmark workloads: ``dft_sweep`` and ``cli_oneshot``.

Each workload builds its inputs from the run seed in ``__init__``: that is
the set-up ``setup_s`` times.  ``prepare(i)`` makes the inputs of call ``i``
outside the timed part, ``call(args)`` is the timed op, and ``check`` gates
every result after the timed part.  Program functions are looked up on the
``gmcreg`` modules at call time, so the spans the traced run installs there
see every call.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import gmcreg as G
import gmcreg.cli as C

from gate import GATE_MULTIPLE, Gate, Tally

_DENOISE = inspect.signature(G.denoise_frame).parameters
# denoise_frame's own defaults; run_sweep and the CLI rely on them too
DENOISE_TOL = _DENOISE["tol"].default
DENOISE_MAX_ITER = _DENOISE["max_iter"].default
RMSE_RTOL = 1e-4  # fixtures and record re-solves: far below any real regression
SEED_LIMIT = 2**40


@dataclass
class CallResult:
    index: int
    args: object
    latency: float
    units: int
    out: object = None
    error: str = ""


def sub_seed(seed: int, i: int) -> int:
    """Integer seed of call ``i``; distinct across run seeds below 2**40."""
    return seed * 4096 + i


def _solve(frame, y, method: str, lam: float, gamma: float):
    """The solve denoise_frame runs, called directly to get (x_star, v_star)."""
    cfg = G.SolveConfig(
        lam=lam, gamma=gamma if method == "gmc" else 0.0, tol=DENOISE_TOL, max_iter=DENOISE_MAX_ITER
    )
    if method == "gmc":
        return G.gmc_solve(frame, y, cfg)
    return G.ista_solve(frame, y, lam, cfg)


def matches(got, want) -> bool:
    """Fixture comparison: same structure and words, numbers within RMSE_RTOL."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(matches, got, want))
    if isinstance(want, str):
        g, w = got.split(), want.split()
        return len(g) == len(w) and all(a == b or matches(_number(a), _number(b)) for a, b in zip(g, w))
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= RMSE_RTOL * abs(want)
    return got == want


def _number(word: str):
    try:
        return float(word)
    except ValueError:
        return word


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b) + 1e-8 * scale))


class DftSweep:
    """The paper's headline study: run_sweep over 13 lambdas, gamma 0.8.

    One call is ``run_sweep`` over ``REALIZATIONS`` noise realizations; one
    op is one sweep record (method, lambda, realization).
    """

    name = "dft_sweep"
    cycle = 1
    REALIZATIONS = 2
    SAMPLED_CELLS = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.base = G.ExperimentSpec()
        self.clean = G.make_two_sine(self.base)
        self.frame = G.DftFrameOperator(self.base.signal_len, self.base.coef_len)
        self.per_call = self.REALIZATIONS * len(self.base.lambda_grid) * 3

    def prepare(self, i: int):
        return G.ExperimentSpec(seed=sub_seed(self.seed, i), realizations=self.REALIZATIONS)

    def call(self, spec):
        return G.run_sweep(spec)

    def units(self, i: int) -> int:
        return self.per_call

    def warmup(self) -> None:
        y = G.add_awgn(self.clean, 1.0, (SEED_LIMIT, 0)).samples
        _solve(self.frame, y, "gmc", 2.0, self.base.gamma)

    def rmses(self, results) -> list[float]:
        return [rec.rmse for res in results if not res.error for rec in res.out.records]

    def fixture_values(self, first_cycle):
        return [[r.method, r.lam, r.realization, r.rmse] for r in first_cycle[0].out.records]

    def check(self, results, tally: Tally, gate: Gate, rng) -> None:
        good = []
        for res in results:
            if res.error:
                tally.record(False, res.units, res.error)
                continue
            recs = res.out.records
            ok = len(recs) == res.units and all(np.isfinite(r.rmse) and r.rmse > 0 for r in recs)
            tally.record(ok, res.units, f"call {res.index}: malformed sweep records")
            if ok:
                good.append(res)
        if not good:
            return
        # records carry no coefficients: re-solve sampled cells and gate those
        picks = list(G.experiments.METHODS) + [None] * (self.SAMPLED_CELLS - 3)
        for method in picks:
            res = good[int(rng.integers(len(good)))]
            cells = [r for r in res.out.records if method is None or r.method == method]
            rec = cells[int(rng.integers(len(cells)))]
            ok, why = self._resolve_cell(res.args, rec, gate)
            if not ok:
                tally.fail_units(1, f"call {res.index} cell {rec.method}/{rec.lam}/{rec.realization}: {why}")

    def _resolve_cell(self, spec, rec, gate: Gate):
        noisy = G.add_awgn(self.clean, spec.noise_sigma, (spec.seed, rec.realization))
        d = G.denoise_frame(noisy, self.frame, rec.method, rec.lam, spec.gamma)
        if abs(G.rmse(d.recon, self.clean) - rec.rmse) > RMSE_RTOL * rec.rmse:
            return False, "record rmse differs from denoise_frame"
        if abs(G.nonzero_count(d.coef) - rec.nnz) > 1:
            return False, "record nnz differs from denoise_frame"
        solver_method = "gmc" if rec.method == "gmc" else "l1"
        rep = _solve(self.frame, noisy.samples, solver_method, rec.lam, spec.gamma)
        if not rep.converged:
            return False, "not converged"
        gamma = spec.gamma if rec.method == "gmc" else 0.0
        ok, why = gate.check(self.frame, noisy.samples, rec.lam, gamma, rep.x_star, rep.v_star, DENOISE_TOL)
        if not ok:
            return False, why
        coef = rep.x_star
        if rec.method == "l1_debiased":
            coef = G.debias_on_support(self.frame, noisy.samples, coef)
        if np.max(np.abs(coef - d.coef)) > GATE_MULTIPLE * DENOISE_TOL:
            return False, "denoise_frame coefficients differ from the solver's"
        return True, ""


class CliOneshot:
    """Fresh ``gmcreg`` processes, one at a time, five subcommands.

    The package is not installed: each child runs the console entry point
    through ``sys.executable -c`` with the checkout's ``src`` on PYTHONPATH.
    A cycle runs the five subcommands once, with one of ``VARIANTS``
    seed-derived argument sets; after ``VARIANTS`` cycles the sets repeat,
    and a repeated invocation must reproduce its output bytes.  One op is
    one invocation.
    """

    name = "cli_oneshot"
    VARIANTS = 12
    LAUNCH = "from gmcreg.cli import app; app()"

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "cli_out")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )
        self.in_process = False
        os.makedirs(workdir, exist_ok=True)
        self.invocations = []
        for v in range(self.VARIANTS):
            rng = np.random.default_rng([seed, v])
            s = str(sub_seed(seed, v))
            b_path = os.path.join(workdir, f"B_{v}.csv")
            b = np.round(rng.uniform(-1.0, 1.0, size=(3, 2)), 6)
            with open(b_path, "w") as fh:
                fh.write("\n".join(",".join(f"{e:.6f}" for e in row) for row in b) + "\n")
            lam = round(float(rng.uniform(0.5, 1.5)), 3)
            mu = round(lam * float(rng.uniform(1.5, 3.0)), 3)
            self.invocations += [
                ["denoise", "--method", "gmc", "--lambda", "2.0", "--gamma", "0.8",
                 "--sigma", "1.0", "--seed", s],
                ["denoise", "--method", "l1-debiased", "--lambda", "2.0", "--sigma", "1.0",
                 "--seed", s],
                ["denoise", "--frame", "stft", "--signal", "chirp", "--segment-len", "64",
                 "--method", "gmc", "--lambda", "0.2", "--gamma", "0.7", "--sigma", "0.05",
                 "--seed", s],
                ["eval", "--b-matrix", b_path, "--grid-min", "-3", "--grid-max", "3",
                 "--grid-points", "61"],
                ["threshold", "--lambda", str(lam), "--mu", str(mu), "--y-max", "3",
                 "--points", "601"],
            ]
        self.cycle = len(self.invocations) // self.VARIANTS

    def prepare(self, i: int):
        shutil.rmtree(self.outdir, ignore_errors=True)
        k = i % len(self.invocations)
        return k, self.invocations[k] + ["--out", self.outdir]

    def call(self, args):
        _, argv = args
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = C.main(argv)
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", self.LAUNCH, *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def collect(self, out):
        """Attach the files the invocation wrote (read outside the timed part)."""
        code, stdout = out
        files = {}
        if os.path.isdir(self.outdir):
            for name in sorted(os.listdir(self.outdir)):
                with open(os.path.join(self.outdir, name), "rb") as fh:
                    files[name] = fh.read()
        return code, stdout, files

    def units(self, i: int) -> int:
        return 1

    def warmup(self) -> None:
        pass

    def rmses(self, results) -> list[float]:
        """Printed RMSEs, each distinct invocation once (repeats print the same)."""
        first = {res.args[0]: res.out[1] for res in reversed(results) if not res.error}
        return [float(line.split()[1]) for stdout in first.values()
                for line in stdout.splitlines() if line.startswith("rmse ")]

    def fixture_values(self, first_cycle):
        return [r.out[1] for r in first_cycle]  # stdout of the first argument set

    def check(self, results, tally: Tally, gate: Gate, rng) -> None:
        first = {}
        refs = {}
        for res in results:
            if res.error:
                tally.record(False, 1, res.error)
                continue
            k, argv = res.args
            code, stdout, files = res.out
            if code != 0:
                tally.record(False, 1, f"call {res.index}: exit code {code}")
                continue
            if k in first:
                ok = res.out == first[k]
                tally.record(ok, 1, f"call {res.index}: output differs from the earlier identical run")
                continue
            first[k] = res.out
            if k not in refs:
                refs[k] = self._reference(argv, gate)
            why = refs[k] if isinstance(refs[k], str) else self._compare(refs[k], stdout, files)
            tally.record(not why, 1, f"call {res.index} ({' '.join(argv[:3])}): {why}")

    def _reference(self, argv, gate: Gate):
        """In-process computation of what ``argv`` must write, gated; or a reason."""
        opts = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "denoise":
            sigma, lam = float(opts["--sigma"]), float(opts["--lambda"])
            method = opts["--method"].replace("-", "_")
            gamma = float(opts.get("--gamma", 0.8)) if method == "gmc" else 0.0
            if opts.get("--frame") == "stft":
                clean = G.make_chirp(G.StftDemoSpec())
                frame = G.StftFrameOperator(len(clean), int(opts["--segment-len"]))
            else:
                clean = G.make_two_sine(G.ExperimentSpec())
                frame = G.DftFrameOperator(len(clean), 256)
            y = G.add_awgn(clean, sigma, int(opts["--seed"])).samples
            rep = _solve(frame, y, "gmc" if method == "gmc" else "l1", lam, gamma)
            ok, why = gate.check(frame, y, lam, gamma, rep.x_star, rep.v_star, DENOISE_TOL)
            if not (ok and rep.converged):
                return f"reference solve: {why or 'not converged'}"
            coef = rep.x_star
            if method == "l1_debiased":
                coef = G.debias_on_support(frame, y, coef)
            recon = frame.forward(coef).real
            return {"rmse": G.rmse(recon, clean), "reconstruction.csv": recon,
                    "coefficients.csv": np.abs(coef)}
        if argv[0] == "eval":
            pen = G.GmcPenalty(G.DenseOperator.from_csv(opts["--b-matrix"]))
            ticks = np.linspace(float(opts["--grid-min"]), float(opts["--grid-max"]),
                                int(opts["--grid-points"]))
            x1, x2 = np.meshgrid(ticks, ticks, indexing="ij")
            pts = np.stack([x1.ravel(), x2.ravel()], axis=0)
            v, values = G.eval_generalized_huber_many(pen, pts)
            l1 = np.sum(np.abs(pts), axis=0)
            ok, why = gate.check_inner(pen.b_op, pts, v, pen.inner_tol)
            if not ok:
                return f"reference inner solve: {why}"
            if not np.all((values >= -1e-9) & (values <= l1 + 1e-9)):
                return "reference generalized Huber values outside [0, ||x||_1]"
            return {"penalty_grid.csv": np.column_stack([pts[0], pts[1], values, l1 - values])}
        lam, mu = float(opts["--lambda"]), float(opts["--mu"])
        ymax = float(opts["--y-max"])
        y = np.linspace(-ymax, ymax, int(opts["--points"]))
        return {"thresholds.csv": np.column_stack(
            [y, G.soft(y, lam), G.firm(y, G.FirmParams(lam=lam, mu=mu))])}

    @staticmethod
    def _compare(ref, stdout, files) -> str:
        for name, want in ref.items():
            if name == "rmse":
                got = [float(x.split()[1]) for x in stdout.splitlines() if x.startswith("rmse ")]
                if len(got) != 1 or abs(got[0] - want) > 1e-6 * want:
                    return f"printed rmse {got} differs from the in-process {want!r}"
                continue
            if name not in files:
                return f"{name} missing"
            skip = 0 if name == "reconstruction.csv" else 1
            try:
                table = np.loadtxt(io.StringIO(files[name].decode()), delimiter=",",
                                   skiprows=skip, ndmin=2)
            except ValueError as exc:
                return f"{name} unreadable: {exc}"
            if name == "coefficients.csv":
                table = table[:, 1]
            elif name == "reconstruction.csv":
                table = table[:, 0]
            if not _close(table, want, 1e-6):
                return f"{name} differs from the in-process result"
        return ""


def make(name: str, seed: int, root: str, workdir: str):
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, {SEED_LIMIT})")
    if name == "cli_oneshot":
        return CliOneshot(seed, root, workdir)
    return DftSweep(seed)


WORKLOADS = ("dft_sweep", "cli_oneshot")
