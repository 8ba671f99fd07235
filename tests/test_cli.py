"""Command line surface, invoked in process."""

import json

import numpy as np
import pytest

from pst import io as tio
from pst import threads
from pst.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_reference_block(self, capsys):
        code, out, _ = run(capsys, "params", "--c", "8", "--cup", "16", "--cprime", "32")
        assert code == 0
        assert "total 13472 (closed form 13472)" in out

    def test_default_flags_match_reference(self, capsys):
        code, out, _ = run(capsys, "params")
        assert code == 0
        assert "total 13472 (closed form 13472)" in out

    def test_size_variant(self, capsys):
        code, out, _ = run(capsys, "params", "--size", "S", "--cprime", "64")
        assert code == 0
        assert "closed form" in out
        # doubling the token width quadruples the quadratic part
        expected = 10 * 128 * 128 + (16 + 3 * 8 + 61) * 128
        assert f"total {expected} (closed form {expected})" in out

    def test_bad_channel_count(self, capsys):
        code, _, err = run(capsys, "params", "--c", "0")
        assert code == 2
        assert "usage error:" in err


class TestCost:
    def test_reference_grid(self, capsys):
        code, out, _ = run(capsys, "cost", "--n", "64", "--k", "8")
        assert code == 0
        assert "coarse interactions: 1024 (formula 1024)" in out
        assert "fine interactions:   2048 (formula 2048)" in out

    def test_non_square_count(self, capsys):
        code, _, err = run(capsys, "cost", "--n", "63")
        assert code == 2
        assert "usage error:" in err


class TestGradcheck:
    def test_small_block_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--cprime", "8", "--c", "2",
                           "--cup", "3", "--side", "4")
        assert code == 0
        assert "overall: pass" in out

    def test_low_precision_refused(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--cprime", "8", "--c", "2",
                           "--cup", "3", "--side", "4", "--precision", "f32")
        assert code == 1
        assert "check failed:" in err
        assert "float64" in err


class TestBench:
    def test_small_comparison(self, capsys):
        code, out, _ = run(capsys, "bench", "--n", "64", "--cprime", "8",
                           "--repeats", "10", "--warmup", "3")
        assert code == 0
        assert "median ratio pooled/dense:" in out
        assert "environment:" in out

    def test_json_record(self, capsys, tmp_path):
        path = tmp_path / "BENCH_small.json"
        code, out, _ = run(capsys, "bench", "--n", "64", "--cprime", "8", "--seed", "3",
                           "--repeats", "10", "--warmup", "3", "--json", str(path))
        assert code == 0
        assert f"wrote {path}" in out
        record = json.loads(path.read_text())
        assert set(record) == {"n", "cprime", "seed", "precision", "pooled", "dense", "ratio",
                               "machine", "commit", "commit_modified"}
        assert (record["n"], record["cprime"], record["seed"]) == (64, 8, 3)
        for side in ("pooled", "dense"):
            stats = record[side]
            assert set(stats) == {"median_ms", "p10_ms", "p90_ms", "runs", "peak_alloc_mb"}
            assert stats["runs"] == 10
            assert stats["peak_alloc_mb"] > 0
            assert 0 < stats["p10_ms"] <= stats["median_ms"] <= stats["p90_ms"]
        assert record["ratio"] == pytest.approx(
            record["pooled"]["median_ms"] / record["dense"]["median_ms"], rel=1e-12)
        machine = record["machine"]
        assert set(machine) == {"cpu_count", "numpy", "blas", "blas_control",
                                "attention_workers"}
        assert machine["numpy"] == np.__version__
        assert machine["blas"] is None or isinstance(machine["blas"], str)
        control = threads.blas_control()
        assert machine["blas_control"] == (None if control is None else control.symbol)
        # n=64 at cprime 8 is one tile of one head: a single unit, one thread.
        assert machine["attention_workers"] == 1
        commit = record["commit"]
        assert commit is None or (len(commit) == 40 and int(commit, 16) >= 0)
        assert (commit is None) == (record["commit_modified"] is None)

    def test_insufficient_repeats(self, capsys):
        code, _, err = run(capsys, "bench", "--n", "64", "--repeats", "5")
        assert code == 2
        assert "usage error:" in err


class TestHeatmap:
    def test_pgm_export(self, capsys, tmp_path):
        out_path = tmp_path / "h.pgm"
        code, out, _ = run(capsys, "heatmap", "--side", "8", "--out", str(out_path))
        assert code == 0
        assert "wrote 4x4 heatmap" in out
        assert out_path.read_bytes().startswith(b"P5\n4 4\n255\n")

    def test_csv_export(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, _, _ = run(capsys, "heatmap", "--side", "8", "--out", str(out_path),
                         "--format", "csv")
        assert code == 0
        scores = np.loadtxt(out_path, delimiter=",")
        assert scores.shape == (4, 4)
        assert abs(scores.sum() - 1.0) < 1e-6

    def test_tensor_file_inputs(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        x_path = tmp_path / "x.pstt"
        u_path = tmp_path / "u.pstt"
        tio.save_tensor(x_path, rng.standard_normal((32, 8, 8)).astype(np.float32))
        tio.save_tensor(u_path, rng.standard_normal((32, 4, 4)).astype(np.float32))
        out_path = tmp_path / "h.pgm"
        code, out, _ = run(capsys, "heatmap", "--x", str(x_path), "--u", str(u_path),
                           "--out", str(out_path))
        assert code == 0
        assert "wrote 4x4 heatmap" in out

    def test_lone_input_flag(self, capsys, tmp_path):
        x_path = tmp_path / "x.pstt"
        tio.save_tensor(x_path, np.zeros((32, 8, 8), dtype=np.float32))
        code, _, err = run(capsys, "heatmap", "--x", str(x_path),
                           "--out", str(tmp_path / "h.pgm"))
        assert code == 2
        assert "must be given together" in err

    def test_corrupt_tensor_file(self, capsys, tmp_path):
        x_path = tmp_path / "x.pstt"
        u_path = tmp_path / "u.pstt"
        x_path.write_bytes(b"JUNKJUNKJUNK")
        tio.save_tensor(u_path, np.zeros((32, 4, 4), dtype=np.float32))
        code, _, err = run(capsys, "heatmap", "--x", str(x_path), "--u", str(u_path),
                           "--out", str(tmp_path / "h.pgm"))
        assert code == 2
        assert "format error:" in err
        assert "byte offset" in err


class TestRunPsa:
    def test_nan_pixel_exits_one(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 8, 8)).astype(np.float32)
        x[0, 5, 7] = np.nan
        tio.save_tensor(tmp_path / "x.pstt", x)
        tio.save_tensor(tmp_path / "u.pstt", rng.standard_normal((32, 4, 4)).astype(np.float32))
        code, out, err = run(capsys, "run-psa", "--x", str(tmp_path / "x.pstt"),
                             "--u", str(tmp_path / "u.pstt"), "--fine", "on")
        assert code == 1
        assert "check failed:" in err and "non-finite" in err
        assert out == ""

    def test_smoke_with_refinement(self, capsys):
        code, out, _ = run(capsys, "run-psa", "--side", "8", "--fine", "on")
        assert code == 0
        assert "output map 32x8x8" in out
        assert "refined coarse cells:" in out

    def test_seeded_runs_repeat_exactly(self, capsys):
        _, out1, _ = run(capsys, "run-psa", "--side", "8", "--seed", "7")
        _, out2, _ = run(capsys, "run-psa", "--side", "8", "--seed", "7")
        assert out1 == out2

    def test_save_out_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "out.pstt"
        code, out, _ = run(capsys, "run-psa", "--side", "8", "--save-out", str(out_path))
        assert code == 0
        assert f"saved output tensor to {out_path}" in out
        tensor = tio.load_tensor(out_path)
        assert tensor.shape == (32, 8, 8)

    def test_stacked_run_widens_output(self, capsys):
        code, out, _ = run(capsys, "run-psa", "--side", "8", "--stack", "2",
                           "--cprime", "16")
        assert code == 0
        assert "output map 32x8x8" in out
        assert "refined coarse cells:" not in out

    def test_tensor_inputs_drive_the_block(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        x_path = tmp_path / "x.pstt"
        u_path = tmp_path / "u.pstt"
        tio.save_tensor(x_path, rng.standard_normal((32, 8, 8)).astype(np.float64))
        tio.save_tensor(u_path, rng.standard_normal((32, 4, 4)).astype(np.float64))
        code, out, _ = run(capsys, "run-psa", "--x", str(x_path), "--u", str(u_path))
        assert code == 0
        assert "output map 32x8x8" in out


class TestTrainToy:
    def test_short_run_with_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        code, out, _ = run(capsys, "train-toy", "--seed", "3", "--n", "32",
                           "--classes", "2", "--steps", "4", "--batch-size", "8",
                           "--log-every", "2", "--save-checkpoint", str(ckpt))
        assert code == 0
        assert "final train accuracy:" in out
        assert "sha256" in out
        assert (ckpt / "manifest.json").is_file()
        digest = tio.checkpoint_digest(ckpt)
        assert digest[:16] in out


class TestParsing:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--nope"])
        assert exc.value.code == 2
