"""Every run-config key and every numeric `gen-data` flag, one at a time, at
each boundary value, called in process through `cli.main` on a K=3 dataset:
each call returns 0, 1, 2 or 3, and a nonzero return prints no traceback and
ends stderr with an `error:` line. The other keys and flags stay small, and
the size rules refuse every value that would allocate more than a few MB.
"""

import argparse
import dataclasses

import pytest

from lthead import TrainConfig, cli

VALUES = ["-1", "0", "1", "1.5", "1" + "0" * 20, "nan", "inf", "-inf", "", "x"]
GEN_DATA = {"--classes": "3", "--head-count": "8", "--ratio": "2", "--dim": "4",
            "--tokens": "1", "--separation": "1", "--noise": "1",
            "--test-per-class": "2", "--seed": "0"}
RUN_CONFIG = {"total_iters": "2", "warmup_iters": "0", "batch_size": "4",
              "stage2_method": "lws", "stage2_iters": "2", "depth": "1",
              "heads": "1", "mlp_ratio": "1.0"}
RUN_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]


def _numeric_gen_data_flags() -> list[str]:
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices["gen-data"]._actions
            if a.type in (int, float)]


def _run(argv, capsys) -> None:
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), argv
    if code:
        assert "Traceback" not in err, argv
        assert "error:" in err.splitlines()[-1], argv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    gen = [x for pair in GEN_DATA.items() for x in pair]
    assert cli.main(["gen-data", *gen, "--out", str(root / "data")]) == 0
    config = root / "base.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in RUN_CONFIG.items()))
    assert cli.main(["train", "--features", str(root / "data.train"),
                     "--config", str(config), "--out", str(root / "base.ckpt")]) == 0
    return root


def test_every_numeric_flag_has_a_small_value():
    assert set(_numeric_gen_data_flags()) == set(GEN_DATA)
    assert set(RUN_CONFIG) <= set(RUN_KEYS)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("flag", GEN_DATA)
def test_gen_data_flag(flag, value, tmp_path, capsys):
    argv = [x for pair in {**GEN_DATA, flag: value}.items() for x in pair]
    _run(["gen-data", *argv, "--out", str(tmp_path / "d")], capsys)


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("key", RUN_KEYS)
def test_run_config_key(key, value, workspace, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("".join(
        f"{k}={v}\n" for k, v in {**RUN_CONFIG, key: value}.items()))
    _run(["train", "--features", str(workspace / "data.train"),
          "--config", str(config), "--out", str(tmp_path / "m.ckpt")], capsys)
    _run(["calibrate", "--ckpt", str(workspace / "base.ckpt"),
          "--features", str(workspace / "data.train"), "--config", str(config),
          "--out", str(tmp_path / "c.ckpt")], capsys)
