import numpy as np
import pytest

from gmcreg.cli import main
from gmcreg import ExperimentSpec, soft


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestThreshold:
    def test_curve_values(self, tmp_path):
        out = tmp_path / "o"
        assert main(["threshold", "--lambda", "1.0", "--mu", "2.0", "--out", str(out)]) == 0
        header, rows = read_csv(out / "thresholds.csv")
        assert header == ["y", "soft", "firm"]
        table = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert table[1.5][1] == pytest.approx(1.0)
        assert table[0.0] == (0.0, 0.0)

    def test_mu_not_greater_than_lambda(self, tmp_path):
        assert main(["threshold", "--lambda", "2.0", "--mu", "2.0", "--out", str(tmp_path)]) == 2

    def test_large_mu_matches_soft(self, tmp_path):
        out = tmp_path / "o"
        assert (
            main(["threshold", "--lambda", "1.0", "--mu", "1e6", "--y-max", "5", "--out", str(out)])
            == 0
        )
        _, rows = read_csv(out / "thresholds.csv")
        y = np.array([float(r[0]) for r in rows])
        f = np.array([float(r[2]) for r in rows])
        assert np.max(np.abs(f - np.asarray(soft(y, 1.0)))) <= 1e-5


class TestEval:
    def write_b(self, tmp_path, rows):
        path = tmp_path / "b.csv"
        path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
        return path

    def test_rank2_surface_quadratic_region(self, tmp_path):
        b_path = self.write_b(tmp_path, [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = tmp_path / "o"
        code = main(
            ["eval", "--b-matrix", str(b_path), "--grid-min", "-3", "--grid-max", "3",
             "--grid-points", "25", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out / "penalty_grid.csv")
        assert header == ["x1", "x2", "gen_huber", "gmc_penalty"]
        table = {(float(r[0]), float(r[1])): (float(r[2]), float(r[3])) for r in rows}
        b = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        for pt in [(0.25, 0.25), (-0.25, 0.0), (0.0, 0.25)]:
            x = np.array(pt)
            if np.max(np.abs(b.T @ b @ x)) <= 1.0:
                expected = 0.5 * float(np.sum((b @ x) ** 2))
                assert table[pt][0] == pytest.approx(expected, abs=1e-6)

    def test_rank1_level_sets_parallel(self, tmp_path):
        b_path = self.write_b(tmp_path, [[1.0, 0.5]])
        out = tmp_path / "o"
        assert main(["eval", "--b-matrix", str(b_path), "--grid-points", "31", "--out", str(out)]) == 0
        _, rows = read_csv(out / "penalty_grid.csv")
        assert len(rows) == 31 * 31
        # value depends on x only through B x: constant along the null direction
        from gmcreg import DenseOperator, GmcPenalty, eval_generalized_huber

        null = np.array([-0.5, 1.0])
        null = null / np.linalg.norm(null)
        pen = GmcPenalty(DenseOperator([[1.0, 0.5]]))
        for pt in [(0.6, 0.6), (-1.2, 0.0)]:
            v0 = eval_generalized_huber(pen, np.array(pt)).value
            v1 = eval_generalized_huber(pen, np.array(pt) + 0.7 * null).value
            assert v0 == pytest.approx(v1, abs=1e-6)

    def test_zero_b_gives_l1(self, tmp_path):
        b_path = self.write_b(tmp_path, [[0.0, 0.0]])
        out = tmp_path / "o"
        assert main(["eval", "--b-matrix", str(b_path), "--grid-points", "11", "--out", str(out)]) == 0
        _, rows = read_csv(out / "penalty_grid.csv")
        for r in rows:
            x1, x2, s, psi = map(float, r)
            assert s == pytest.approx(0.0, abs=1e-12)
            assert psi == pytest.approx(abs(x1) + abs(x2), abs=1e-9)

    def test_wrong_column_count(self, tmp_path):
        b_path = self.write_b(tmp_path, [[1.0, 0.0, 0.0]])
        assert main(["eval", "--b-matrix", str(b_path), "--out", str(tmp_path / "o")]) == 2

    def test_nan_entry_is_usage_error(self, tmp_path, capsys):
        b_path = self.write_b(tmp_path, [[1.0, float("nan")], [0.0, 1.0]])
        assert main(["eval", "--b-matrix", str(b_path), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read B matrix" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["eval", "--b-matrix", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


class TestDenoise:
    def test_builtin_two_sine_gmc(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["denoise", "--method", "gmc", "--lambda", "2.0", "--sigma", "1.0",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "reconstruction.csv").exists()
        assert (out / "coefficients.csv").exists()
        printed = capsys.readouterr().out
        assert printed.startswith("rmse ")
        assert float(printed.split()[1]) < 1.0

    def test_clean_tiny_lambda(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["denoise", "--method", "l1", "--lambda", "1e-6", "--sigma", "0", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert float(printed.split()[1]) <= 1e-4

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, tmp_path, lam):
        assert main(["denoise", "--lambda", lam, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_method(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["denoise", "--method", "ridge", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unreadable_input(self, tmp_path):
        code = main(["denoise", "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        assert code == 2

    def test_input_csv_round_trip(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        spec = ExperimentSpec()
        from gmcreg import make_two_sine

        samples = make_two_sine(spec).samples
        sig.write_text("\n".join(f"{float(v)!r}" for v in samples) + "\n")
        out = tmp_path / "o"
        code = main(
            ["denoise", "--input", str(sig), "--method", "l1", "--lambda", "1e-6",
             "--sigma", "0", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("rmse_vs_input ")
        assert float(printed.split()[1]) <= 1e-4

    def test_complex_input_csv_layout(self, tmp_path):
        m = np.arange(128)
        samples = np.exp(2j * np.pi * 0.1 * m) + 0.3 * np.cos(2 * np.pi * 0.3 * m)
        sig = tmp_path / "sig.csv"
        sig.write_text("".join(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in samples))
        out = tmp_path / "o"
        code = main(
            ["denoise", "--input", str(sig), "--method", "l1", "--lambda", "0.3",
             "--coef-len", "128", "--out", str(out)]
        )
        assert code == 0
        # no header: one re,im pair per sample, each printed to 9 significant digits
        lines = (out / "reconstruction.csv").read_text().splitlines()
        assert len(lines) == 128
        for line in lines:
            cells = line.split(",")
            assert len(cells) == 2
            assert all(c == f"{float(c):.9g}" for c in cells)
        header, rows = read_csv(out / "coefficients.csv")
        assert header == ["index", "magnitude"]
        assert [r[0] for r in rows] == [str(i) for i in range(128)]

    def test_stft_chirp(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(
            ["denoise", "--signal", "chirp", "--frame", "stft", "--method", "gmc",
             "--lambda", "0.05", "--gamma", "0.7", "--sigma", "0.05", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert float(printed.split()[1]) < 0.05


class TestSweep:
    ARGS = [
        "sweep", "--realizations", "1", "--lambda-min", "0.75", "--lambda-max", "1.25",
        "--lambda-step", "0.25", "--seed", "7",
    ]

    def test_quick_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        header, rows = read_csv(out / "aggregates.csv")
        assert header == ["method", "lambda", "rmse_mean", "rmse_std"]
        assert len(rows) == 3 * 3  # 3 lambdas x 3 methods
        printed = capsys.readouterr().out
        assert "best lambda" in printed

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        for name in ("records.csv", "aggregates.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gamma_one_rejected(self, tmp_path):
        assert main(["sweep", "--gamma", "1.0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lambda-min", "0"],
            ["--lambda-min", "-1"],
            ["--lambda-max", "inf"],
            ["--lambda-step", "inf"],
            ["--lambda-max", "1e308", "--lambda-step", "1e-308"],
            ["--lambda-step", "1e-300"],
        ],
    )
    def test_bad_lambda_grid_is_usage_error(self, tmp_path, capsys, flags):
        assert main(["sweep", *flags, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: lambda")
        assert not (tmp_path / "o").exists()

    def test_default_grid_has_13_lambdas(self):
        assert len(ExperimentSpec().lambda_grid) == 13
        from gmcreg.cli import lambda_grid

        assert lambda_grid(0.5, 3.5, 0.25) == ExperimentSpec().lambda_grid
        with pytest.raises(ValueError):
            lambda_grid(1.0, 0.5, 0.25)
