"""End-to-end command behavior: layering, outputs, exit codes, determinism.

Commands run in-process through main() so the tests stay fast; one subprocess
test at the bottom confirms the installed console script wires up to the same
entry point.
"""

import contextlib
import filecmp
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

from odegate.cli import (DEFAULTS, EXIT_DATA, EXIT_NUMERIC, EXIT_OK,
                         EXIT_USAGE, GENERATE_KEYS, TRAIN_KEYS, _coerce,
                         main, parse_config_file, resolve_settings,
                         write_resolved)
from odegate.data import read_series_csv
from odegate.errors import ParseError, ValidationError
from odegate.model import ModelConfig, init_params, save_checkpoint

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

    def test_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed\n")
        with pytest.raises(ParseError, match="key=value"):
            parse_config_file(cfg, set(GENERATE_KEYS))

    def test_write_resolved_sorted(self, tmp_path):
        write_resolved(tmp_path, {"b_key": 0.5, "a_key": None, "c_key": True})
        text = (tmp_path / "resolved_config.txt").read_text()
        assert text == "a_key=none\nb_key=0.5\nc_key=true\n"


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

    def test_usage_errors(self, capsys):
        assert main(["train"]) == EXIT_USAGE                  # --data required
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main(["--help"]) == EXIT_OK
        capsys.readouterr()


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

    def test_gateless_checkpoint_rejected(self, data_dir, no_comp_run,
                                          tmp_path, capsys):
        code = main(["mask-stats", "--data", str(data_dir),
                     "--checkpoint", str(no_comp_run / "checkpoint.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error[contract]:")


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
