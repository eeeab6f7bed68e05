"""Run one workload of the gmcreg benchmark and print its metrics.

    python3 perfbench/run.py --workload dft_sweep --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports ``gmcreg`` from the
checkout's ``src`` and refuses any other copy.  With ``--trace 0`` it prints
the end-to-end metrics named in ``BENCHMARK.json``, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Details of
the run (environment stamp, latencies, failure reasons) go to
``.perfbench_out/``.  See ``perfbench/NOTES.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
FIXTURES = os.path.join(HERE, "fixtures", "seed0.json")
DEFAULT_SEED = 0
SETUP_PROBES = 7
PROC_START_PROBES = 3
UNTRACED_SHARE = 0.45  # of --seconds, in a traced run; the traced replay takes the rest
# latency tail percentile per workload: the highest with at least ten calls
# beyond it in a 45-second run of the seed commit (fixed, so a faster
# program does not move the tail to a higher percentile)
TAIL_PCT = {"dft_sweep": 50.0, "cli_oneshot": 90.0}
LAUNCH_IMPORT = "import time, gmcreg.cli; print(time.monotonic(), gmcreg.cli.__file__)"


def _inside_src(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def import_program():
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gmcreg

    if not _inside_src(gmcreg.__file__):
        raise SystemExit(f"gmcreg imports from {gmcreg.__file__}, outside {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def env_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
    ) if shutil.which("git") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git.stdout.strip() if git is not None and git.returncode == 0 else "unknown",
    }


def probe_times(cmd, count: int) -> list[float]:
    """Seconds from starting ``cmd`` until it prints its ready time, ``count`` runs."""
    values = []
    for _ in range(count):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, path = proc.stdout.split()
        if not _inside_src(path):
            raise RuntimeError(f"child imports gmcreg from {path}, outside {SRC}")
        values.append(float(ready) - t0)
    return values


def drive(wl, budget, n_calls=None, tracer=None):
    """Closed loop, one caller: run calls until the budget or ``n_calls``.

    With a budget, whole cycles run while the next one is expected to end
    within half a cycle of the budget, and at least one cycle always runs.
    """
    from workloads import CallResult

    results = []
    start = time.perf_counter()
    i = 0
    while True:
        if n_calls is not None:
            if i >= n_calls:
                break
        elif i and i % wl.cycle == 0:
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / (i // wl.cycle) > budget:
                break
        args = wl.prepare(i)
        out, err = None, ""
        if tracer is not None:
            tracer.current_op = i
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.call(args)
            else:
                with tracer.span("bench.op"):
                    out = wl.call(args)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            err = f"call {i}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if out is not None and hasattr(wl, "collect"):
            out = wl.collect(out)
        results.append(CallResult(i, args, latency, wl.units(i), out, err))
        i += 1
    return results


def percentile(values, pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def check(wl, results, seed: int, tally, gate) -> list[str]:
    """Gate every result and, on the default seed, compare with the fixtures."""
    from workloads import matches

    wl.check(results, tally, gate, np.random.default_rng([seed, 1]))
    problems = []
    if seed == DEFAULT_SEED and os.path.exists(FIXTURES):
        with open(FIXTURES) as fh:
            fixture = json.load(fh).get(wl.name)
        first = results[: wl.cycle]
        if fixture is not None and (
            any(r.error for r in first) or not matches(wl.fixture_values(first), fixture)
        ):
            problems.append("default-seed outputs differ from perfbench/fixtures/seed0.json")
    return problems


def end_to_end(wl, results, setup_values) -> tuple[dict, dict]:
    lat = [r.latency for r in results]
    rmses = wl.rmses(results)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_oneshot" else resource.RUSAGE_SELF
    tail = TAIL_PCT[wl.name]
    cycles = [results[k:k + wl.cycle] for k in range(0, len(results) - wl.cycle + 1, wl.cycle)]
    values = {
        "setup_s": statistics.median(setup_values),
        "throughput_ops_s": statistics.median(
            sum(r.units for r in c) / sum(r.latency for r in c) for c in cycles
        ),
        "latency_ms_p50": 1e3 * percentile(lat, 50),
        "latency_ms_tail": 1e3 * percentile(lat, tail),
        "recon_rmse_mean": statistics.fmean(rmses) if rmses else 0.0,  # 0: no op succeeded
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    detail = {
        "tail_percentile": tail,
        "calls": len(lat),
        "calls_beyond_tail": sum(1 for x in lat if x > values["latency_ms_tail"] / 1e3),
        "setup_values_s": setup_values,
        "latencies_s": lat,
    }
    return values, detail


def traced_run(args, wl, untraced):
    """Replay the untraced calls with spans installed; per-layer metrics."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            replay = workloads.make(args.workload, args.seed, ROOT, os.path.join(OUT, "work"))
        replay.in_process = getattr(wl, "in_process", False)
        traced = drive(replay, None, n_calls=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    leftover = tracing.installed()
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")
    spans = tracer.arrays()
    np.savez(os.path.join(OUT, f"spans_{args.workload}.npz"), **spans)

    metrics = tracing.layer_metrics(spans)
    proc_start = probe_times([sys.executable, "-c", LAUNCH_IMPORT], PROC_START_PROBES)
    cli_results = [r for r in traced if r.out is not None] if args.workload == "cli_oneshot" else []
    metrics["cli.proc_start_s"] = statistics.median(proc_start)
    metrics["cli.bytes_written"] = sum(len(b) for r in cli_results for b in r.out[2].values())
    metrics["cli.exit_nonzero"] = sum(1 for r in cli_results if r.out[0] != 0)
    metrics["trace_overhead_frac"] = (
        statistics.median(r.latency for r in traced) / statistics.median(r.latency for r in untraced)
        - 1.0
    )
    mismatched = [
        r.index for r, t in zip(untraced, traced)
        if r.error or t.error or r.out != t.out
    ]
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import gate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.makedirs(OUT, exist_ok=True)
    stamp = env_stamp()
    print("env " + json.dumps(stamp), flush=True)

    gate.self_test()
    workdir = os.path.join(OUT, "work")
    setup_values = []
    if not args.trace:
        cmd = ([sys.executable, "-c", LAUNCH_IMPORT] if args.workload == "cli_oneshot" else
               [sys.executable, os.path.join(HERE, "probe.py"), args.workload, str(args.seed), workdir])
        setup_values = probe_times(cmd, SETUP_PROBES)

    wl = workloads.make(args.workload, args.seed, ROOT, workdir)
    if args.trace and args.workload == "cli_oneshot":
        wl.in_process = True  # spans need cli.main in this process
    wl.warmup()
    leftover = tracing.installed()
    if leftover:
        raise RuntimeError(f"untraced run found wrappers installed: {leftover}")
    results = drive(wl, args.seconds * (UNTRACED_SHARE if args.trace else 1.0))

    tally, problems = gate.Tally(), []
    if args.trace:
        metrics, mismatched = traced_run(args, wl, results)
        if mismatched:
            problems.append(f"traced calls {mismatched} returned other outputs than untraced")
        detail = {}
    else:
        metrics, detail = end_to_end(wl, results, setup_values)
    problems += check(wl, results, args.seed, tally, gate.Gate())

    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metric names {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": stamp, "failed_frac": tally.failed_frac, "failures": tally.reasons[:20],
        "problems": problems, **detail,
        "result": result,
    }
    first = results[: wl.cycle]
    if not any(r.error for r in first):
        record["fixture_values"] = wl.fixture_values(first)
    path = os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"failed_frac {tally.failed_frac:.6g} ({tally.failed}/{tally.attempted})"
          + "".join(f"\nproblem: {p}" for p in problems + tally.reasons[:5]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
