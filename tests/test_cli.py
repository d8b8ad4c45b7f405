"""End-to-end command behavior: layering, outputs, exit codes, determinism.

Commands run in-process through main() so the tests stay fast; one subprocess
test at the bottom confirms the installed console script wires up to the same
entry point.
"""

import contextlib
import dataclasses
import filecmp
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odegate.cli import (ABLATE_KEYS, DEFAULTS, EVAL_KEYS,
                         EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                         GENERATE_KEYS, NFE_KEYS, TRAIN_KEYS, _coerce, main,
                         parse_config_file, resolve_settings, write_resolved)
from odegate.data import ShockScenario, read_series_csv
from odegate.errors import ParseError, ValidationError
from odegate.model import ModelConfig, init_params, save_checkpoint
from odegate.training import TrainConfig, train

SMALL_TRAIN = ["--window", "4", "--horizon", "3", "--proj-dim", "4",
               "--embed-dim", "2", "--steps", "2", "--batch-size", "16",
               "--epochs", "2", "--quiet"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(["generate-data", "--out", str(out),
                 "--n-nodes", "4", "--total-t", "140"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def short_data(tmp_path_factory):
    """100 ticks: 37 train windows of the default 12+12 ticks, none in val or test."""
    out = tmp_path_factory.mktemp("short")
    assert main(["generate-data", "--out", str(out),
                 "--n-nodes", "4", "--total-t", "100"]) == EXIT_OK
    config = ModelConfig(n_nodes=4)
    save_checkpoint(out / "checkpoint.json", init_params(config), config)
    return out


def _one_error_line(capsys, kind: str) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[{kind}]:"), err
    return err[0]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("full")
    code = main(["train", "--data", str(data_dir), "--out", str(out)]
                + SMALL_TRAIN)
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def no_comp_run(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("nocomp")
    code = main(["train", "--data", str(data_dir), "--out", str(out),
                 "--variant", "no_compensation"] + SMALL_TRAIN)
    assert code == EXIT_OK
    return out


class TestCoercion:
    def test_types(self):
        assert _coerce("n_nodes", "7") == 7
        assert _coerce("lr", "1e-3") == 0.001
        assert _coerce("variant", "no_lte") == "no_lte"
        assert _coerce("mask_grad", "true") is True
        assert _coerce("mask_grad", "0") is False

    def test_bad_values(self):
        with pytest.raises(ValidationError, match="'n_nodes'"):
            _coerce("n_nodes", "four")
        with pytest.raises(ValidationError, match="true/false"):
            _coerce("mask_grad", "maybe")


# Every setting's default as the commands resolve it with no file and no flag.
GENERATE_DEFAULTS = {
    "amplitude": 1.0, "diffusion": 0.05, "n_nodes": 20, "period": 100.0,
    "seed": 0, "shock_decay": 12.0, "shock_mag_hi": 8.0, "shock_mag_lo": 3.0,
    "shock_rate": 1.0, "total_t": 2000,
}
TRAIN_DEFAULTS = {
    "batch_size": 32, "clip_norm": 5.0, "embed_dim": 10, "epochs": 50,
    "horizon": 12, "lam": 0.0, "lr": 0.003, "mask_grad": False, "patience": 10,
    "proj_dim": 30, "seed": 0, "steps": 4, "stride": 1, "variant": "full",
    "window": 12,
}
EVAL_DEFAULTS = {"batch_size": 32, "stride": 1}
NFE_DEFAULTS = {"embed_dim": 10, "horizon": 12, "n_nodes": 20, "proj_dim": 30,
                "steps": 4, "window": 12}


class TestDefaults:
    @pytest.mark.parametrize("keys, expected", [
        (GENERATE_KEYS, GENERATE_DEFAULTS), (TRAIN_KEYS, TRAIN_DEFAULTS),
        (EVAL_KEYS, EVAL_DEFAULTS), (NFE_KEYS, NFE_DEFAULTS),
    ], ids=["generate", "train", "evaluate", "nfe"])
    def test_resolved_defaults(self, keys, expected):
        resolved = resolve_settings(Namespace(), keys)
        assert resolved == expected
        assert [type(v) for v in resolved.values()] == \
            [type(expected[k]) for k in resolved]

    def test_fields_agree_with_cli(self):
        # a CLI key that names a field of several dataclasses (seed) must
        # mean one type and one default in all of them
        cli_keys = set(GENERATE_KEYS + TRAIN_KEYS + EVAL_KEYS + NFE_KEYS)
        for cls in (ShockScenario, ModelConfig, TrainConfig):
            for f in dataclasses.fields(cls):
                if f.name in cli_keys and f.default is not dataclasses.MISSING:
                    assert f.type == type(DEFAULTS[f.name]).__name__, (cls, f.name)
                    assert f.default == DEFAULTS[f.name], (cls, f.name)


class TestConfigFile:
    def test_parse_and_layering(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nn_nodes = 5\nseed=3\n")
        values = parse_config_file(cfg, set(GENERATE_KEYS))
        assert values == {"n_nodes": 5, "seed": 3}
        args = Namespace(config=str(cfg), n_nodes="6")
        resolved = resolve_settings(args, GENERATE_KEYS)
        assert resolved["n_nodes"] == 6          # flag beats file
        assert resolved["seed"] == 3             # file beats default
        assert resolved["total_t"] == DEFAULTS["total_t"]

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp=9\n")
        with pytest.raises(ParseError, match="line 1.*unknown key"):
            parse_config_file(cfg, set(GENERATE_KEYS))

    def test_inapplicable_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\nepochs=3\n")
        with pytest.raises(ParseError, match="line 2.*does not apply"):
            parse_config_file(cfg, set(GENERATE_KEYS))

    def test_repeated_key_names_both_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\n# more epochs\nepochs=50\n")
        with pytest.raises(ParseError, match="line 3: key 'epochs' is already set on line 1"):
            parse_config_file(cfg, set(TRAIN_KEYS))

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed\n")
        with pytest.raises(ParseError, match="key=value"):
            parse_config_file(cfg, set(GENERATE_KEYS))

    def test_write_resolved_sorted(self, tmp_path):
        write_resolved(tmp_path, {"b_key": 0.5, "a_key": 3, "c_key": True,
                                  "d_key": False})
        text = (tmp_path / "resolved_config.txt").read_text()
        assert text == "a_key=3\nb_key=0.5\nc_key=true\nd_key=false\n"


class TestGenerateData:
    def test_outputs(self, data_dir, capsys):
        main(["generate-data", "--out", str(data_dir),
              "--n-nodes", "4", "--total-t", "140"])
        out = capsys.readouterr().out
        assert out.count("wrote ") == 4
        for name in ("series.csv", "events.csv", "edges.csv", "meta.json",
                     "resolved_config.txt"):
            assert (data_dir / name).exists()
        meta = json.loads((data_dir / "meta.json").read_text())
        assert meta["n_nodes"] == 4
        assert read_series_csv(data_dir / "series.csv").shape == (140, 4)

    # The three CSV files of `data_dir` (4 nodes, 140 ticks), byte for byte:
    # a change to how any writer formats a cell must not move a single digit.
    DATASET_DIGESTS = {
        "edges.csv": "3402fa15699130d0c92864899e4e46f9d975577ba3767f29d1bd513f6d2e63cf",
        "events.csv": "bc1c66b8342ab33ee7d65b6377412a7af97723ab05f0f15184fa281ba5d197d5",
        "series.csv": "063a53c114de9c73f45a205dda4ea3dc4f59d4ee1fbab7458e10969ca0341183",
    }

    @pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
    def test_csv_files_pinned(self, data_dir, name):
        digest = hashlib.sha256((data_dir / name).read_bytes()).hexdigest()
        assert digest == self.DATASET_DIGESTS[name]

    def test_byte_identical_rerun(self, data_dir, tmp_path):
        rerun = tmp_path / "again"
        code = main(["generate-data", "--out", str(rerun),
                     "--n-nodes", "4", "--total-t", "140"])
        assert code == EXIT_OK
        for name in ("series.csv", "events.csv", "edges.csv", "meta.json",
                     "resolved_config.txt"):
            assert filecmp.cmp(data_dir / name, rerun / name, shallow=False), name

    def test_config_file_applies(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("n_nodes=3\ntotal_t=60\n")
        out = tmp_path / "out"
        assert main(["generate-data", "--out", str(out),
                     "--config", str(cfg)]) == EXIT_OK
        assert read_series_csv(out / "series.csv").shape == (60, 3)
        text = (out / "resolved_config.txt").read_text()
        assert "n_nodes=3\n" in text and "total_t=60\n" in text

    def test_bad_flag_value(self, tmp_path, capsys):
        code = main(["generate-data", "--out", str(tmp_path / "x"),
                     "--n-nodes", "four"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:")
        assert err.count("\n") == 1

    def test_invalid_scenario(self, tmp_path, capsys):
        code = main(["generate-data", "--out", str(tmp_path / "x"),
                     "--shock-rate", "500"])
        assert code == EXIT_DATA
        assert "error[validation]" in capsys.readouterr().err


class TestTrain:
    def test_stdout_and_files(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", str(data_dir), "--out", str(out)]
                    + SMALL_TRAIN)
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "variant=full" in text
        assert "param_count=" in text and "best_epoch=" in text
        for name in ("checkpoint.json", "history.csv", "resolved_config.txt"):
            assert (out / name).exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == ("epoch,train_loss,val_mae,m_mean,m_std,m_p95,"
                          "grad_norm,clip_frac")

    def test_byte_identical_rerun(self, data_dir, full_run, tmp_path):
        rerun = tmp_path / "rerun"
        code = main(["train", "--data", str(data_dir), "--out", str(rerun)]
                    + SMALL_TRAIN)
        assert code == EXIT_OK
        for name in ("checkpoint.json", "history.csv", "resolved_config.txt"):
            assert filecmp.cmp(full_run / name, rerun / name,
                               shallow=False), name

    def test_run_files(self, full_run):
        timing = json.loads((full_run / "timing.json").read_text())
        assert set(timing) == {"forward", "backward", "clip", "adam", "validate", "total"}
        assert all(type(v) is float and v >= 0.0 for v in timing.values())
        assert sum(v for k, v in timing.items() if k != "total") <= timing["total"]
        assert timing["forward"] > 0.0 and timing["backward"] > 0.0

        run = json.loads((full_run / "run.json").read_text())
        assert set(run) == {"python", "numpy", "blas", "cpu_count", "model_config",
                            "train_config", "seed"}
        assert run["python"] == ".".join(map(str, sys.version_info[:3]))
        assert run["numpy"] == np.__version__
        assert set(run["blas"]) == {"name", "version"}
        assert type(run["cpu_count"]) is int and run["cpu_count"] >= 1
        assert run["model_config"]["steps"] == 2 and run["model_config"]["n_nodes"] == 4
        assert run["model_config"]["mask_mode"] == "lte"
        assert run["train_config"]["epochs"] == 2 and run["train_config"]["variant"] == "full"
        assert run["seed"] == run["train_config"]["seed"] == 0

    @pytest.mark.parametrize("in_dim", ["1.0", "true"])
    def test_non_int_in_dim(self, data_dir, tmp_path, capsys, in_dim):
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        meta = (bad / "meta.json").read_text()
        (bad / "meta.json").write_text(meta.replace('"in_dim": 1,', f'"in_dim": {in_dim},'))
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "o")]
                    + SMALL_TRAIN)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and "in_dim" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "o")] + SMALL_TRAIN)
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error[io]:")

    def test_unknown_variant(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir),
                     "--out", str(tmp_path / "o"), "--variant", "bogus"]
                    + SMALL_TRAIN)
        assert code == EXIT_DATA
        assert "error[validation]" in capsys.readouterr().err

    def test_lam_on_wrong_variant(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir),
                     "--out", str(tmp_path / "o"), "--lam", "0.1"]
                    + SMALL_TRAIN)
        assert code == EXIT_DATA
        assert "manifold_penalty" in capsys.readouterr().err

    def test_empty_validation_split(self, short_data, tmp_path, capsys):
        code = main(["train", "--data", str(short_data), "--out", str(tmp_path / "o"),
                     "--epochs", "1", "--quiet"])
        assert code == EXIT_DATA
        assert "split 'val' has no windows" in _one_error_line(capsys, "validation")
        assert not (tmp_path / "o").exists()

    def test_usage_errors(self, capsys):
        assert main(["train"]) == EXIT_USAGE                  # --data required
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()


class TestHistoryCsv:
    def test_written_values_survive_float_repr(self, data_dir, tmp_path, capsys,
                                               monkeypatch):
        # every history entry reads back exactly, in the entry's own key order;
        # the first gets values whose short forms would lose bits
        entries = []

        def recording(*args, **kwargs):
            result = train(*args, **kwargs)
            result.history[0].update(train_loss=0.1 + 0.2,
                                     val_mae=np.float64(1e-17))
            entries.extend(result.history)
            return result

        monkeypatch.setattr("odegate.cli.train", recording)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data_dir), "--out", str(out)]
                    + SMALL_TRAIN) == EXIT_OK
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == ",".join(entries[0])
        assert len(lines) == 1 + len(entries) == 3
        for line, entry in zip(lines[1:], entries):
            cells = line.split(",")
            assert int(cells[0]) == entry["epoch"]
            assert [float(c) for c in cells[1:]] == list(entry.values())[1:]
        assert lines[1].split(",")[1:3] == ["0.30000000000000004", "1e-17"]


class TestEvaluate:
    def test_metrics_json_matches_stdout(self, data_dir, full_run, tmp_path,
                                         capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(out)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["split"] == "test"
        assert f"mae={payload['mae']!r}" in text
        assert f"rmse={payload['rmse']!r}" in text
        assert payload["rmse"] >= payload["mae"] > 0

    def test_split_flag(self, data_dir, full_run, tmp_path):
        out = tmp_path / "eval_val"
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(out), "--split", "val"])
        assert code == EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["split"] == "val"

    def test_node_count_mismatch(self, full_run, tmp_path, capsys):
        other = tmp_path / "data5"
        main(["generate-data", "--out", str(other),
              "--n-nodes", "5", "--total-t", "140"])
        capsys.readouterr()
        code = main(["evaluate", "--data", str(other),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert "nodes" in capsys.readouterr().err

    def test_corrupt_checkpoint(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("error[parse]:")

    def _edited_checkpoint(self, full_run, tmp_path, **config):
        payload = json.loads((full_run / "checkpoint.json").read_text())
        payload["config"].update(config)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return path

    def test_bad_mask_mode_checkpoint(self, data_dir, full_run, tmp_path, capsys):
        ckpt = self._edited_checkpoint(full_run, tmp_path, mask_mode="bogus")
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "mask_mode" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_legacy_sparsity_tau_key(self, data_dir, full_run, tmp_path, capsys):
        # checkpoints written while the knob existed carry it as null
        ref, old = tmp_path / "ref", tmp_path / "old"
        main(["evaluate", "--data", str(data_dir), "--out", str(ref),
              "--checkpoint", str(full_run / "checkpoint.json")])
        ckpt = self._edited_checkpoint(full_run, tmp_path, sparsity_tau=None)
        code = main(["evaluate", "--data", str(data_dir), "--out", str(old),
                     "--checkpoint", str(ckpt)])
        assert code == EXIT_OK
        assert filecmp.cmp(ref / "metrics.json", old / "metrics.json",
                           shallow=False)
        capsys.readouterr()

        ckpt = self._edited_checkpoint(full_run, tmp_path, sparsity_tau=0.2)
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "sparsity_tau" in err
        assert err.count("\n") == 1

    def test_legacy_in_dim_key(self, data_dir, full_run, tmp_path, capsys):
        # checkpoints written while ModelConfig had in_dim carry it as 1
        ref, old = tmp_path / "ref", tmp_path / "old"
        main(["evaluate", "--data", str(data_dir), "--out", str(ref),
              "--checkpoint", str(full_run / "checkpoint.json")])
        ckpt = self._edited_checkpoint(full_run, tmp_path, in_dim=1)
        code = main(["evaluate", "--data", str(data_dir), "--out", str(old),
                     "--checkpoint", str(ckpt)])
        assert code == EXIT_OK
        assert filecmp.cmp(ref / "metrics.json", old / "metrics.json",
                           shallow=False)

    @pytest.mark.parametrize("value", [2, True, 1.0], ids=["two", "true", "float"])
    def test_retired_in_dim_value_rejected(self, data_dir, full_run, tmp_path,
                                           capsys, value):
        ckpt = self._edited_checkpoint(full_run, tmp_path, in_dim=value)
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        line = _one_error_line(capsys, "validation")
        assert (f"trained with in_dim={json.dumps(value)}, which is no longer "
                "supported") in line

    @pytest.mark.parametrize("row", ["5,99,4.0", "5,0,nan", "-5,0,4.0", "99999,0,4.0"],
                             ids=["node_out_of_range", "nan_magnitude",
                                  "tick_negative", "tick_past_end"])
    def test_corrupt_events_rejected(self, data_dir, full_run, tmp_path,
                                     capsys, row):
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        with open(bad / "events.csv", "a") as fh:
            fh.write(row + "\n")
        code = main(["evaluate", "--data", str(bad),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "events.csv line" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda p: p["config"].update(warp=1),
        lambda p: p["config"].update(steps="4"),
        lambda p: p["config"].pop("window"),
        lambda p: p["params"].update(readout_bias=[0.0]),
    ], ids=["unknown_config_key", "wrong_config_type", "missing_config_key",
            "bad_param_shape"])
    def test_bad_checkpoint_content(self, data_dir, full_run, tmp_path, capsys,
                                    edit):
        payload = json.loads((full_run / "checkpoint.json").read_text())
        edit(payload)
        ckpt = tmp_path / "edited.json"
        ckpt.write_text(json.dumps(payload))
        code = main(["evaluate", "--data", str(data_dir),
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name, text", [
        ("series.csv", "t,node_0,node_1,node_2,node_3\n"),
        ("meta.json", '{"n_nodes": "4", "in_dim": 1, "tick_seconds": 300, '
                      '"edge_list_path": "edges.csv"}\n'),
        ("meta.json", '{"n_nodes": 0, "in_dim": 1, "tick_seconds": 300, '
                      '"edge_list_path": "edges.csv"}\n'),
        ("meta.json", '{"n_nodes": 4, "in_dim": 1.0, "tick_seconds": 300, '
                      '"edge_list_path": "edges.csv"}\n'),
        ("meta.json", '{"n_nodes": 4, "in_dim": true, "tick_seconds": 300, '
                      '"edge_list_path": "edges.csv"}\n'),
        ("meta.json", '{"n_nodes": 4, "in_dim": 1, "tick_seconds": 300.5, '
                      '"edge_list_path": "edges.csv"}\n'),
    ], ids=["header_only_series", "string_n_nodes", "zero_n_nodes",
            "float_in_dim", "bool_in_dim", "float_tick_seconds"])
    def test_malformed_dataset_files(self, data_dir, full_run, tmp_path, capsys,
                                     name, text):
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        (bad / name).write_text(text)
        code = main(["evaluate", "--data", str(bad),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and name in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_huge_steps_gateless_checkpoint(self, data_dir, no_comp_run, tmp_path):
        # a gateless checkpoint stores no per-step parameters, so only the
        # config's step ceiling keeps evaluate from integrating 10**9 steps
        ckpt = self._edited_checkpoint(no_comp_run, tmp_path, steps=10 ** 9)
        proc = subprocess.run(
            [sys.executable, "-m", "odegate.cli", "evaluate", "--data", str(data_dir),
             "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_DATA
        assert proc.stderr.startswith("error[validation]:")
        assert "steps=1000000000 exceeds" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_series_destroyed_by_scaling(self, data_dir, full_run, tmp_path, capsys):
        # one huge training cell sets a scale that rounds every other value
        # to the mean; evaluate used to exit 0 with mape=nan
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        lines = (bad / "series.csv").read_text().splitlines()
        cells = lines[11].split(",")
        cells[2] = "1.3e154"
        lines[11] = ",".join(cells)
        (bad / "series.csv").write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--data", str(bad),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "standardizing" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o" / "metrics.json").exists()

    def test_series_overflowing_the_scaler(self, data_dir, full_run, tmp_path, capsys):
        # a training cell past ~1.34e154 overflows the scaler's std
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        lines = (bad / "series.csv").read_text().splitlines()
        cells = lines[11].split(",")
        cells[2] = "2e154"
        lines[11] = ",".join(cells)
        (bad / "series.csv").write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--data", str(bad),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "tick 10, node 1" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o" / "metrics.json").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_edge_weight(self, data_dir, full_run, tmp_path, capsys,
                                    weight):
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        with open(bad / "edges.csv", "a") as fh:
            fh.write(f"0,2,{weight}\n")
        code = main(["evaluate", "--data", str(bad),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and "non-finite weight" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "train", "mask-stats"])
    @pytest.mark.parametrize("appended, message", [
        ("0,1,1e308\n1,2,1e308\n", "the degree of node 1 overflows to inf"),
        ("0,1,1e308\n1,0,1e308\n", "the weights of edge (0,1) sum to inf"),
    ], ids=["degree", "edge"])
    def test_overflowing_edge_weights_name_line(self, data_dir, full_run, tmp_path,
                                                capsys, command, appended, message):
        bad = tmp_path / "data"
        shutil.copytree(data_dir, bad)
        with open(bad / "edges.csv", "a") as fh:
            fh.write(appended)
        line = len((bad / "edges.csv").read_text().splitlines())
        flags = (SMALL_TRAIN if command == "train"
                 else ["--checkpoint", str(full_run / "checkpoint.json")])
        code = main([command, "--data", str(bad), "--out", str(tmp_path / "o")] + flags)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == (f"error[validation]: {bad / 'edges.csv'}: line {line}: "
                       f"{message}\n")


class TestAblate:
    FLAGS = [f for f in SMALL_TRAIN if f != "--quiet"] + ["--epochs", "1"]
    ORDER = ["full", "no_lte", "no_compensation", "no_mask", "manifold_penalty"]

    def test_outputs(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--data", str(data_dir), "--out", str(out)]
                    + self.FLAGS)
        assert code == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert sorted(p.name for p in out.glob("checkpoint_*.json")) == sorted(
            f"checkpoint_{v}.json" for v in self.ORDER)
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,param_count,mae,rmse,mape,mask_mean,mask_std"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == self.ORDER
        for row in rows:
            masks = row[5:]
            if row[0] == "no_compensation":
                assert masks == ["nan", "nan"]
            else:
                assert 0.0 < float(masks[0]) <= 1.0
        assert "lam=0.1\n" in (out / "resolved_config.txt").read_text()

    def test_rejected_setting_leaves_no_out(self, data_dir, tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--data", str(data_dir), "--out", str(out),
                     "--batch-size", "0"])
        assert code == EXIT_DATA == 2
        assert "batch_size" in _one_error_line(capsys, "validation")
        assert not out.exists()

    def test_help_shows_ablate_lam(self, capsys):
        assert main(["ablate", "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert "override 'lam' (default 0.1)" in text
        assert main(["train", "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert "override 'lam' (default 0.0)" in text


class TestMaskStats:
    def test_report(self, data_dir, full_run, tmp_path, capsys):
        out = tmp_path / "stats"
        code = main(["mask-stats", "--data", str(data_dir),
                     "--checkpoint", str(full_run / "checkpoint.json"),
                     "--out", str(out), "--split", "val"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        payload = json.loads((out / "mask_stats.json").read_text())
        assert 0.5 <= payload["mean"] < 1.0
        assert len(payload["histogram"]) == 20
        assert f"mean={payload['mean']!r}" in text

    @pytest.mark.parametrize("split", ["val", "test"])
    def test_empty_split(self, short_data, tmp_path, capsys, split):
        code = main(["mask-stats", "--data", str(short_data),
                     "--checkpoint", str(short_data / "checkpoint.json"),
                     "--out", str(tmp_path / "o"), "--split", split])
        assert code == EXIT_DATA
        assert f"split '{split}' has no windows" in _one_error_line(capsys, "validation")

    def test_gateless_checkpoint_rejected(self, data_dir, no_comp_run,
                                          tmp_path, capsys):
        # a valid checkpoint that does not fit the command is bad input
        checkpoint = no_comp_run / "checkpoint.json"
        out = tmp_path / "o"
        code = main(["mask-stats", "--data", str(data_dir),
                     "--checkpoint", str(checkpoint), "--out", str(out)])
        assert code == EXIT_DATA
        line = _one_error_line(capsys, "validation")
        assert str(checkpoint) in line and "mask_mode 'off'" in line
        assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "mask-stats"])
@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_batch_size_below_one_rejected(data_dir, full_run, tmp_path, capsys, command,
                                       batch_size):
    out = tmp_path / "o"
    code = main([command, "--data", str(data_dir),
                 "--checkpoint", str(full_run / "checkpoint.json"),
                 "--out", str(out), "--batch-size", batch_size])
    assert code == EXIT_DATA
    assert "batch_size must be >= 1" in _one_error_line(capsys, "validation")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate-data", "--amplitude", "nan"],
    ["generate-data", "--period", "nan"],
    ["generate-data", "--diffusion", "nan"],
    ["generate-data", "--shock-decay", "nan"],
    ["generate-data", "--shock-mag-hi", "inf"],
    ["generate-data", "--shock-mag-lo=-1e308", "--shock-mag-hi", "1e308"],
    ["train", "--clip-norm", "nan"],
    ["train", "--lr", "nan"],
    ["train", "--variant", "manifold_penalty", "--lam", "nan"],
    ["train", "--variant", "manifold_penalty", "--lam=-1"],
], ids=lambda argv: " ".join(argv[1:]))
def test_non_finite_setting_rejected(data_dir, tmp_path, capsys, argv):
    # a NaN or infinite float setting, or a magnitude range whose width is
    # not finite, is bad input: one error line, nothing written
    out = tmp_path / "o"
    extra = ["--data", str(data_dir)] + SMALL_TRAIN if argv[0] == "train" else []
    code = main(argv + extra + ["--out", str(out)])
    assert code == EXIT_DATA
    _one_error_line(capsys, "validation")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["generate-data", "--tick-seconds", "300"],
                                  ["nfe-report", "--seed", "0"]],
                         ids=lambda argv: " ".join(argv))
def test_removed_flag_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-50", "-0.01", "1.01"])
def test_diffusion_outside_unit_interval_rejected(tmp_path, capsys, value):
    out = tmp_path / "o"
    code = main(["generate-data", f"--diffusion={value}", "--n-nodes", "4",
                 "--total-t", "140", "--out", str(out)])
    assert code == EXIT_DATA
    assert "diffusion must be in [0, 1]" in _one_error_line(capsys, "validation")
    assert not out.exists()


def test_memory_error_is_one_line(tmp_path, capsys, monkeypatch):
    # a setting too large for the host is bad input; nothing is allocated here
    def refuse(scenario, graph):
        raise MemoryError("Unable to allocate 2.84 PiB for an array")

    monkeypatch.setattr("odegate.cli.generate_shock_series", refuse)
    out = tmp_path / "o"
    code = main(["generate-data", "--n-nodes", "4", "--total-t", "140",
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert "Unable to allocate" in _one_error_line(capsys, "memory")
    assert not out.exists()


class TestNfeReport:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "nfe"
        code = main(["nfe-report", "--out", str(out), "--n-nodes", "4",
                     "--proj-dim", "4", "--embed-dim", "2",
                     "--window", "4", "--horizon", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        mode_lines = [l for l in lines if l.startswith("mode=")]
        assert len(mode_lines) == 4
        assert all(l.endswith(" ok") for l in mode_lines)
        assert lines[-1] == "nfe-report ok"
        payload = json.loads((out / "nfe_report.json").read_text())
        assert [e["steps"] for e in payload["flop_sweep"]] == [1, 2, 4, 6, 8]
        totals = [e["total"] for e in payload["flop_sweep"]]
        assert totals == sorted(totals) and len(set(totals)) == 5
        # training memory grows with the step count
        peaks = [e["tape_peak_bytes"] for e in payload["flop_sweep"]]
        assert all(b > a > 0 for a, b in zip(peaks, peaks[1:])), peaks
        assert [l.split()[-1] for l in lines if l.startswith("steps=")] == [
            f"tape_peak_bytes={p}" for p in peaks]


class TestIntersectDemo:
    def test_pass_and_trajectories(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = main(["intersect-demo", "--out", str(out)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "PASS"
        off = np.loadtxt(out / "trajectory_off.csv", delimiter=",",
                         skiprows=1)
        on = np.loadtxt(out / "trajectory_on.csv", delimiter=",", skiprows=1)
        assert np.array_equal(off[:, 1], off[:, 2])
        d = on[:, 1] - on[:, 2]
        assert d[0] > 0 and (d < 0).any()

    # The two legs' files, byte for byte: a change to how `evolve` lays out
    # or indexes its states must not move a single digit of either.
    TRAJECTORY_DIGESTS = {
        "trajectory_off.csv": "edaac2cebd23a4944b5609e03234e9ae64a2bda0423f9a4b6ea703bf1d8182f6",
        "trajectory_on.csv": "7a06c40992a6a858ca2cc203148b4ee106c6e567bd8734e74eec5d9faf1a5f08",
    }

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_DIGESTS))
    def test_trajectory_files_pinned(self, tmp_path, capsys, name):
        out = tmp_path / "demo"
        assert main(["intersect-demo", "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == self.TRAJECTORY_DIGESTS[name]


FUZZ_FILES = ("meta.json", "series.csv", "events.csv", "edges.csv", "checkpoint.json")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
CSV_CELLS = (st.integers().map(str) | st.floats().map(repr)
             | st.text(max_size=8))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, data_dir):
    """The small dataset plus an untrained checkpoint that evaluates on it."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(data_dir, root / "data")
    config = ModelConfig(n_nodes=4, window=4, horizon=3, proj_dim=4, embed_dim=2,
                         steps=2)
    save_checkpoint(root / "data" / "checkpoint.json", init_params(config), config)
    return root / "data"


def _corrupt(raw: bytes, name: str, data) -> bytes:
    """Replace one byte range, one JSON field or one CSV cell of `raw`."""
    if data.draw(st.booleans(), label="byte range"):
        start = data.draw(st.integers(0, len(raw)), label="start")
        end = data.draw(st.integers(start, min(len(raw), start + 16)), label="end")
        return raw[:start] + data.draw(st.binary(max_size=16), label="bytes") + raw[end:]
    if name.endswith(".json"):
        payload = json.loads(raw)
        owners = [payload] + [v for v in payload.values() if isinstance(v, dict)]
        owner = data.draw(st.sampled_from(owners), label="object")
        key = data.draw(st.sampled_from(sorted(owner)), label="key")
        owner[key] = data.draw(JSON_VALUES, label="value")
        return json.dumps(payload).encode()
    lines = raw.decode().split("\n")
    row = data.draw(st.integers(0, len(lines) - 2), label="row")
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1), label="column")
    cells[col] = data.draw(CSV_CELLS, label="cell")
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(FUZZ_FILES), data=st.data())
def test_corrupted_input_exits_cleanly(fuzz_inputs, name, data):
    # Every malformed input ends in exit 0, 2 or 3, and a failure prints
    # exactly one `error[kind]:` line; no exception escapes main().
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "data"
        shutil.copytree(fuzz_inputs, work)
        (work / name).write_bytes(_corrupt((work / name).read_bytes(), name, data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", "--data", str(work), "--out", str(Path(tmp) / "o"),
                         "--checkpoint", str(work / "checkpoint.json")])
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC)
    # a command-line run prints warnings on stderr too
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == EXIT_OK:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error["), lines


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "odegate.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate-data" in proc.stdout
