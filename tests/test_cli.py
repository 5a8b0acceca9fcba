import json
import struct
import warnings

import numpy as np
import pytest

from lthead import FeatureDataset, load_checkpoint, load_features, save_features
from lthead.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated data plus a tiny trained checkpoint shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["gen-data", "--classes", "4", "--head-count", "40",
                "--ratio", "8", "--dim", "8", "--seed", "3",
                "--separation", "2.0", "--noise", "0.5",
                "--test-per-class", "6", "--out", str(root / "data")]) == 0
    cfg = root / "run.cfg"
    cfg.write_text("seed=1\ntotal_iters=40\nbatch_size=16\nwarmup_iters=5\n"
                   "depth=1\nheads=2\ndropout=0.0\nstage2_iters=20\n")
    assert run(["train", "--features", str(root / "data.train"),
                "--config", str(cfg), "--loss", "bsm",
                "--out", str(root / "model.ckpt")]) == 0
    assert run(["calibrate", "--ckpt", str(root / "model.ckpt"),
                "--features", str(root / "data.train"), "--method", "marc",
                "--out", str(root / "model_marc.ckpt")]) == 0
    return root


class TestGenData:
    def test_files_written(self, workspace):
        train = load_features(workspace / "data.train")
        test = load_features(workspace / "data.test")
        assert train.num_classes == 4 and train.dim == 8
        assert test.role == "test"
        counts = np.bincount(test.labels, minlength=4)
        assert np.all(counts == 6)


    @pytest.mark.parametrize("flag, value, field", [
        ("--ratio", "nan", "imbalance_ratio"),
        ("--ratio", "inf", "imbalance_ratio"),
        ("--separation", "nan", "separation"),
        ("--noise", "inf", "noise"),
    ])
    @pytest.mark.parametrize("classes", ["1", "3"])
    def test_non_finite_float_exit_2(self, tmp_path, capsys, flag, value, field,
                                     classes):
        opts = {"--classes": classes, "--head-count": "40", "--ratio": "8",
                "--dim": "2", "--out": str(tmp_path / "d"), flag: value}
        argv = ["gen-data", *(x for pair in opts.items() for x in pair)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 2
        assert not caught
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {field} must be finite, got {value}"]
        assert not list(tmp_path.iterdir())

    def test_negative_noise_exit_2(self, tmp_path, capsys):
        assert run(["gen-data", "--classes", "3", "--head-count", "20",
                    "--ratio", "4", "--dim", "2", "--noise", "-1",
                    "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: noise must be >= 0, got -1.0\n"
        assert not list(tmp_path.iterdir())

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        assert run(["gen-data", "--classes", "3", "--head-count", "20",
                    "--ratio", "4", "--dim", "2", "--seed", "-1",
                    "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not list(tmp_path.iterdir())


class TestTrain:
    def test_checkpoint_and_loss_log(self, workspace):
        head, stats, cal = load_checkpoint(workspace / "model.ckpt")
        assert head.config.depth == 1 and cal is None
        assert stats.counts.sum() == load_features(workspace / "data.train").num_samples
        log = (workspace / "model.ckpt.losses.csv").read_text().splitlines()
        assert log[0] == "iteration,loss"
        assert len(log) == 41
        step, value = log[1].split(",")
        assert step == "0" and float(value) > 0

    def test_unknown_config_key_exit_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lr=0.5\n")
        assert run(["train", "--features", str(workspace / "data.train"),
                    "--config", str(bad), "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_cross_process_determinism(self, workspace, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        outs = []
        for name in ("p1.ckpt", "p2.ckpt"):
            out = tmp_path / name
            cmd = [sys.executable, "-m", "lthead.cli", "train",
                   "--features", str(workspace / "data.train"),
                   "--config", str(workspace / "run.cfg"),
                   "--out", str(out)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_undecodable_config_exit_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed=\xff\n")
        assert run(["train", "--features", str(workspace / "data.train"),
                    "--config", str(bad), "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_oversized_feature_header_exit_2(self, workspace, tmp_path):
        huge = tmp_path / "huge.train"
        huge.write_bytes(struct.pack("<4sIQIIIB", b"IMBF", 1, 2 ** 33, 1, 4, 2, 0))
        assert run(["train", "--features", str(huge),
                    "--config", str(workspace / "run.cfg"),
                    "--out", str(tmp_path / "x.ckpt")]) == 2

    @pytest.mark.parametrize("field, loss", [
        ("lr0", "ce"), ("weight_decay", "ce"), ("focal_gamma", "focal"),
        ("ldam_max_margin", "ldam"), ("lade_lambda", "lade")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_config_exit_2(self, workspace, tmp_path, field, loss,
                                      value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=1\ntotal_iters=30\nbatch_size=8\nwarmup_iters=2\n"
                       f"depth=1\nheads=2\ndropout=0.0\nloss={loss}\n"
                       f"{field}={value}\n")
        assert run(["train", "--features", str(workspace / "data.train"),
                    "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2

    def test_zero_width_mlp_exit_2(self, workspace, tmp_path, capsys):
        # mlp_ratio 0.1 at the data's D=8 truncates to a zero-width MLP
        cfg = tmp_path / "thin.cfg"
        cfg.write_text("seed=1\ntotal_iters=4\nbatch_size=8\nwarmup_iters=1\n"
                       "depth=1\nheads=2\nmlp_ratio=0.1\n")
        assert run(["train", "--features", str(workspace / "data.train"),
                    "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "MLP width" in err[0]

    @pytest.mark.parametrize("line, message", [
        ("seed=-1", "seed must be >= 0, got -1"),
        ("mlp_ratio=1e300", "the head needs more parameters than one float64 "
                            "array can hold"),
    ])
    def test_config_refused_before_training_exit_2(self, workspace, tmp_path,
                                                   capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"total_iters=4\nbatch_size=8\nwarmup_iters=1\nheads=2\n"
                       f"{line}\n")
        assert run(["train", "--features", str(workspace / "data.train"),
                    "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not list(tmp_path.glob("x.ckpt*"))

    def test_huge_depth_out_of_memory_before_its_layout(self, workspace, tmp_path):
        # 10^8 blocks need 182 GiB. The head allocates its flat vector before
        # it builds the per-block layout, so under an address-space limit the
        # run ends in the out-of-memory exit without building that list; the
        # child refuses the layout to prove it. The limit binds the child only.
        import os
        import subprocess
        import sys
        from pathlib import Path
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("total_iters=4\nbatch_size=8\nwarmup_iters=1\nheads=2\n"
                       "depth=100000000\n")
        argv = ["train", "--features", str(workspace / "data.train"),
                "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")]
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
            "import lthead.decoder\n"
            "def refuse(config):\n"
            "    raise AssertionError('layout built before the allocation')\n"
            "lthead.decoder.param_layout = refuse\n"
            "from lthead.cli import main\n"
            f"sys.exit(main({argv!r}))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: ")

    def test_divergence_exit_3(self, workspace, tmp_path):
        cfg = tmp_path / "boom.cfg"
        cfg.write_text("seed=1\ntotal_iters=30\nbatch_size=8\nwarmup_iters=2\n"
                       "lr0=1e30\nweight_decay=0.0\ndepth=1\nheads=2\ndropout=0.0\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--features", str(workspace / "data.train"),
                        "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
        assert code == 3


class TestCalibrate:
    def test_calibrated_checkpoint_evaluates(self, workspace):
        _, _, cal = load_checkpoint(workspace / "model_marc.ckpt")
        assert cal is not None and cal.variant == "marc"
        assert run(["eval", "--ckpt", str(workspace / "model_marc.ckpt"),
                    "--test", str(workspace / "data.test"),
                    "--report", str(workspace / "marc.report")]) == 0
        payload = json.loads((workspace / "marc.report.json").read_text())
        assert 0.0 <= payload["overall"] <= 1.0

    @staticmethod
    def _calibrate(workspace, tmp_path, name, config_text, *method):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config_text)
        out = tmp_path / f"{name}.ckpt"
        code = run(["calibrate", "--ckpt", str(workspace / "model.ckpt"),
                    "--features", str(workspace / "data.train"),
                    "--config", str(cfg), *method, "--out", str(out)])
        return code, out

    def test_config_names_the_variant(self, workspace, tmp_path, capsys):
        code, flag = self._calibrate(workspace, tmp_path, "flag",
                                     "stage2_iters=20\n", "--method", "lws")
        assert code == 0
        code, from_file = self._calibrate(
            workspace, tmp_path, "file", "stage2_iters=20\nstage2_method=lws\n")
        assert code == 0
        assert "calibrated with lws " in capsys.readouterr().out
        assert from_file.read_bytes() == flag.read_bytes()

    def test_method_overrides_config(self, workspace, tmp_path, capsys):
        code, out = self._calibrate(
            workspace, tmp_path, "override",
            "stage2_iters=20\nstage2_method=lws\n", "--method", "crt")
        assert code == 0
        assert "calibrated with crt " in capsys.readouterr().out
        assert load_checkpoint(out)[2].variant == "crt"

    def test_negative_seed_exit_2(self, workspace, tmp_path, capsys):
        code, out = self._calibrate(workspace, tmp_path, "neg", "stage2_iters=20\n",
                                    "--method", "crt", "--seed", "-1")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_no_variant_exit_1(self, workspace, tmp_path, capsys):
        code, out = self._calibrate(workspace, tmp_path, "none",
                                    "stage2_iters=20\n")
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--method" in err

    def test_divergence_exit_3(self, workspace, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = self._calibrate(
                workspace, tmp_path, "boom", "stage2_iters=20\nlr0=1e308\n"
                "weight_decay=0.0\nwarmup_iters=0\n", "--method", "marc")
        assert code == 3 and not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite")
        assert "stage-2 iteration" in err[0]

    def test_class_count_mismatch_exit_2(self, workspace, tmp_path, capsys):
        # a K=5 feature file against the K=4 checkpoint
        assert run(["gen-data", "--classes", "5", "--head-count", "20",
                    "--ratio", "4", "--dim", "8", "--test-per-class", "2",
                    "--out", str(tmp_path / "k5")]) == 0
        capsys.readouterr()
        code = run(["calibrate", "--ckpt", str(workspace / "model.ckpt"),
                    "--features", str(tmp_path / "k5.train"),
                    "--method", "marc", "--out", str(tmp_path / "x.ckpt")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: dataset has 5 classes but the head has 4"]

    @pytest.mark.parametrize("classes, dim, message", [
        (3, 8, "dataset has 3 classes but the head has 4"),
        (5, 8, "dataset has 5 classes but the head has 4"),
        (4, 16, "dataset has dim 16 but the head has dim 8")])
    def test_eval_class_count_mismatch_exit_2(self, workspace, tmp_path, capsys,
                                              classes, dim, message):
        # eval checks the test file against the head before any forward:
        # fewer classes used to evaluate silently, more to fail on the labels
        assert run(["gen-data", "--classes", str(classes), "--head-count", "20",
                    "--ratio", "4", "--dim", str(dim), "--test-per-class", "2",
                    "--out", str(tmp_path / "k")]) == 0
        capsys.readouterr()
        code = run(["eval", "--ckpt", str(workspace / "model.ckpt"),
                    "--test", str(tmp_path / "k.test"),
                    "--report", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_out_of_memory_exit_2(self, workspace, tmp_path, capsys,
                                  monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.4 GiB for an array")
        monkeypatch.setattr("lthead.cli.train_stage2", exhausted)
        code, _ = self._calibrate(workspace, tmp_path, "oom",
                                  "stage2_iters=20\n", "--method", "marc")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 12.4 GiB for an array\n")


class TestEval:
    def test_report_files(self, workspace):
        assert run(["eval", "--ckpt", str(workspace / "model.ckpt"),
                    "--test", str(workspace / "data.test"),
                    "--report", str(workspace / "base.report")]) == 0
        text = (workspace / "base.report").read_text()
        assert "overall" in text and "macro f1" in text
        payload = json.loads((workspace / "base.report.json").read_text())
        assert set(payload) >= {"overall", "many", "medium", "few",
                                "precision", "recall", "f1"}

    def test_determinism_across_runs(self, workspace, tmp_path):
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        run(["eval", "--ckpt", str(workspace / "model.ckpt"),
             "--test", str(workspace / "data.test"), "--report", str(a)])
        run(["eval", "--ckpt", str(workspace / "model.ckpt"),
             "--test", str(workspace / "data.test"), "--report", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.report.json").read_bytes() == \
            (tmp_path / "b.report.json").read_bytes()

    def test_missing_checkpoint_exit_2(self, workspace, tmp_path):
        assert run(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                    "--test", str(workspace / "data.test"),
                    "--report", str(tmp_path / "r")]) == 2

    def test_oversized_checkpoint_header_exit_2(self, workspace, tmp_path):
        huge = tmp_path / "huge.ckpt"
        huge.write_bytes(struct.pack("<4sIIIddII", b"LTFH", 1, 1, 4, 4.0, 0.5,
                                     2 ** 20, 2))
        assert run(["eval", "--ckpt", str(huge),
                    "--test", str(workspace / "data.test"),
                    "--report", str(tmp_path / "r")]) == 2

    def test_directory_checkpoint_exit_2(self, workspace, tmp_path):
        assert run(["eval", "--ckpt", str(tmp_path),
                    "--test", str(workspace / "data.test"),
                    "--report", str(tmp_path / "r")]) == 2

    def test_corrupt_checkpoint_exit_2(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + b"\0" * 20)
        assert run(["eval", "--ckpt", str(bad),
                    "--test", str(workspace / "data.test"),
                    "--report", str(tmp_path / "r")]) == 2


class TestZeroShot:
    def test_orthonormal_toy(self, tmp_path):
        class_embs = tmp_path / "classes.txt"
        class_embs.write_text("1.0, 0.0, 0.0\n0.0, 1.0, 0.0\n0.0, 0.0, 1.0\n")
        images = tmp_path / "images.txt"
        images.write_text("0, 1.0, 0.0, 0.0\n1, 0.0, 1.0, 0.0\n2, 0.0, 0.0, 1.0\n")
        assert run(["zero-shot", "--image-embs", str(images),
                    "--class-embs", str(class_embs),
                    "--report", str(tmp_path / "zs.report")]) == 0
        payload = json.loads((tmp_path / "zs.report.json").read_text())
        assert payload["overall"] == 1.0

    def test_label_file_override(self, tmp_path):
        class_embs = tmp_path / "classes.txt"
        class_embs.write_text("1.0, 0.0\n0.0, 1.0\n")
        images = tmp_path / "images.txt"
        images.write_text("0, 1.0, 0.0\n0, 0.0, 1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n")
        assert run(["zero-shot", "--image-embs", str(images),
                    "--class-embs", str(class_embs),
                    "--test-labels", str(labels),
                    "--report", str(tmp_path / "zs2.report")]) == 0
        payload = json.loads((tmp_path / "zs2.report.json").read_text())
        assert payload["overall"] == 1.0

    @staticmethod
    def _run_with_labels(tmp_path, text):
        class_embs = tmp_path / "classes.txt"
        class_embs.write_text("1.0, 0.0\n0.0, 1.0\n")
        images = tmp_path / "images.txt"
        images.write_text("0, 1.0, 0.0\n1, 0.0, 1.0\n")
        labels = tmp_path / "labels.txt"
        labels.write_bytes(text)
        return run(["zero-shot", "--image-embs", str(images),
                    "--class-embs", str(class_embs),
                    "--test-labels", str(labels),
                    "--report", str(tmp_path / "zs.report")])

    def test_temperature_flag_is_usage_error(self, tmp_path, capsys):
        # predictions are the cosine argmax, so no temperature changes them
        class_embs = tmp_path / "classes.txt"
        class_embs.write_text("1.0, 0.0\n0.0, 1.0\n")
        images = tmp_path / "images.txt"
        images.write_text("0, 1.0, 0.0\n1, 0.0, 1.0\n")
        assert run(["zero-shot", "--image-embs", str(images),
                    "--class-embs", str(class_embs),
                    "--temperature", "0.5",
                    "--report", str(tmp_path / "zs.report")]) == 1
        assert "--temperature" in capsys.readouterr().err
        assert not (tmp_path / "zs.report").exists()

    @pytest.mark.parametrize("text, line", [
        (b"x\n", 1),
        (b"0,1,0\n", 1),
        (b"# labels\n0\n\n1, 2\n", 4),
        (b"0\n99999999999999999999\n", 2),
        (b"0\n\xff\n", 2),
    ], ids=["not_int", "three_fields", "ragged_after_comment", "overflow",
            "not_utf8"])
    def test_malformed_label_file_exit_2(self, tmp_path, capsys, text, line):
        assert self._run_with_labels(tmp_path, text) == 2
        assert f"{tmp_path / 'labels.txt'}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b"0\n2\n", b"0\n-1\n", b"0\n"],
                             ids=["above_k", "negative", "one_per_two_images"])
    def test_labels_not_matching_classes_or_images_exit_2(self, tmp_path, text):
        assert self._run_with_labels(tmp_path, text) == 2


    def test_multi_token_image_file_exit_2(self, tmp_path, capsys):
        class_embs = tmp_path / "classes.txt"
        class_embs.write_text("1.0, 0.0\n0.0, 1.0\n")
        images = tmp_path / "images.imbf"
        save_features(FeatureDataset(features=np.ones((2, 2, 2)),
                                     labels=np.array([0, 1]), num_classes=2,
                                     role="test"), images)
        assert run(["zero-shot", "--image-embs", str(images),
                    "--class-embs", str(class_embs),
                    "--report", str(tmp_path / "zs.report")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: zero-shot expects one embedding per image (T=1)"]
        assert not (tmp_path / "zs.report").exists()


class TestGradcheckCommand:
    def test_losses_module_passes(self, capsys):
        assert run(["gradcheck", "--module", "losses", "--tol", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "PASS losses.ce" in out and "FAIL" not in out

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_tolerance_that_cannot_fail_or_pass_exit_2(self, capsys, tol):
        # inf would pass every check, and nan, 0 or a negative fail every one
        assert run(["gradcheck", "--module", "losses", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: tol must be finite and > 0, got {float(tol)}\n"


class TestReportCommand:
    def test_table_and_machine(self, workspace, capsys):
        assert run(["report", "--inputs", str(workspace / "model.ckpt"),
                    "--format", "table"]) == 0
        table = capsys.readouterr().out
        assert "checkpoint" in table and "calibrator" in table
        assert run(["report", "--inputs", str(workspace / "model.ckpt"),
                    str(workspace / "model_marc.ckpt"),
                    "--format", "machine"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {r["calibrator"] for r in rows} == {"-", "marc"}

    def test_overflowing_mlp_ratio_header_exit_2(self, workspace, tmp_path,
                                                 capsys):
        # the header's f64 mlp_ratio sits after magic, version, depth, heads
        blob = bytearray((workspace / "model.ckpt").read_bytes())
        blob[16:24] = struct.pack("<d", 1e308)
        bad = tmp_path / "wide.ckpt"
        bad.write_bytes(bytes(blob))
        assert run(["report", "--inputs", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "MLP width" in err[0]

    def test_class_counts_beyond_int64_exit_2(self, workspace, tmp_path,
                                              capsys):
        # each u64 count fits in int64, but their total does not. save_checkpoint
        # refuses such counts, so they are written over the saved ones: the
        # 4 counts sit just before the last byte, the calibrator tag.
        blob = bytearray((workspace / "model.ckpt").read_bytes())
        blob[-33:-1] = np.full(4, 2 ** 62, dtype="<u8").tobytes()
        bad = tmp_path / "huge_counts.ckpt"
        bad.write_bytes(bytes(blob))
        assert run(["report", "--inputs", str(bad)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "int64" in err[0]
        assert "train_samples" not in captured.out


class TestUsage:
    def test_no_command_exit_1(self):
        assert run([]) == 1

    def test_unknown_command_exit_1(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exit_1(self):
        assert run(["gen-data", "--classes", "3"]) == 1

    def test_bad_choice_exit_1(self, workspace):
        assert run(["calibrate", "--ckpt", "x", "--features", "y",
                    "--method", "temperature", "--out", "z"]) == 1
