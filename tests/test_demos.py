"""Each script in ``demos/`` runs to completion and writes its CSV files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script, args, csvs",
    [
        ("01_scalar_penalties_and_thresholds.py", [], ["scalar_curves.csv"]),
        ("02_penalty_surfaces.py", [], ["surface_rank2.csv", "surface_rank1.csv"]),
        ("03_dft_frame_denoising.py", ["1"], ["sweep_records.csv", "sweep_aggregates.csv"]),
        ("04_stft_chirp_denoising.py", [], ["stft_summary.csv"]),
    ],
)
def test_demo_runs(tmp_path, script, args, csvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in csvs:
        lines = (tmp_path / "demo_out" / name).read_text().splitlines()
        assert len(lines) > 1, name
