"""Release gate: every promised behavior checked at its stated tolerance.

Each test prints one `[accept NN] PASS|FAIL` line straight to the terminal so
a full run reads as a checklist.  The expensive block (50-epoch runs on the
default 20-node scenario) is built once in a module fixture and shared by the
collapse, ablation and rmse checks.  Nothing here relaxes a bound to pass:
the bounds are the contract.
"""

import dataclasses
import filecmp
import math
import multiprocessing
import os
import warnings
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from odegate.autodiff import (Tape, Tensor, backward, finite_diff_gradient,
                              mean_abs_error)
from odegate.cli import main
from odegate.data import (ShockScenario, build_dataset, default_graph,
                          generate_shock_series, read_series_csv,
                          write_series_csv)
from odegate.dynamics import MASK_MODES, embedded_dual_step, evolve
from odegate.graph import normalize_adjacency
from odegate.model import ModelConfig, flop_report, forward, init_params
from odegate.training import (VARIANTS, TrainConfig, config_for_variant,
                              evaluate, mask_report, train)

PENALTY_WEIGHTS = (0.1, 1.0)


@contextmanager
def announce(capsys, number, text):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"[accept {number:02d}] {verdict}  {text}", flush=True)


def timed_train(dataset, model_config, train_config):
    """train(), and the wall seconds it took."""
    start = perf_counter()
    result = train(dataset, model_config, train_config)
    return result, perf_counter() - start


@contextmanager
def one_thread_pool(processes):
    """A spawn pool whose workers, and only they, run BLAS on one thread.

    The variable is set only while the pool starts its workers, which read
    it when they load numpy; this process has loaded numpy already and keeps
    its thread count.  At 20 nodes the trained parameters do not depend on
    the thread count, and two one-thread workers train two models at a time
    without oversubscribing two cores.  A spawned worker starts with Python's
    default warning filters, not the suite's, so each one turns every warning
    into an error itself, as the suite does here.
    """
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        pool = multiprocessing.get_context("spawn").Pool(
            processes, initializer=warnings.simplefilter, initargs=("error",))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    with pool:
        yield pool


def test_pool_workers_turn_warnings_into_errors():
    with one_thread_pool(1) as pool:
        with pytest.raises(RuntimeWarning, match="overflow"):
            pool.apply(np.multiply, (np.float64(1e308), 10.0))


@pytest.fixture(scope="module")
def runs():
    """Default-scenario dataset plus the trained models the gate compares."""
    scenario = ShockScenario()
    graph = default_graph(scenario.n_nodes, seed=scenario.seed)
    series, events = generate_shock_series(scenario, graph)
    dataset = build_dataset(series, events, graph, window=12, horizon=12)
    cfg = ModelConfig(n_nodes=scenario.n_nodes)

    jobs = {"full": (cfg, TrainConfig())}
    for lam in PENALTY_WEIGHTS:
        jobs[f"pen_{lam}"] = (cfg, TrainConfig(variant="manifold_penalty", lam=lam))
    # the shortest run goes last, where it fills the gap the others leave
    jobs["no_comp"] = (config_for_variant(cfg, "no_compensation"),
                       TrainConfig(variant="no_compensation"))
    with one_thread_pool(2) as pool:
        pending = {key: pool.apply_async(timed_train, (dataset, *job))
                   for key, job in jobs.items()}
        done = {key: result.get() for key, result in pending.items()}
    times = {key: seconds for key, (_, seconds) in done.items()}
    return SimpleNamespace(scenario=scenario, graph=graph, series=series,
                           events=events, dataset=dataset, cfg=cfg,
                           full=done["full"][0], no_comp=done["no_comp"][0],
                           penalty={lam: done[f"pen_{lam}"][0] for lam in PENALTY_WEIGHTS},
                           times=times)


def test_accept_01_whole_model_gradient_check(capsys):
    with announce(capsys, 1,
                  "analytic gradients match central differences (< 1e-4)"):
        start = perf_counter()
        config = ModelConfig(n_nodes=4, window=2, horizon=2, proj_dim=6,
                             embed_dim=3, steps=2, mask_grad=True)
        params = init_params(config, seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 4, 2, 1)))
        y = Tensor(rng.standard_normal((1, 4, 2)))
        ahat = normalize_adjacency(default_graph(4, seed=0))

        def loss_and_tape():
            tape = Tape()
            res = forward(x, ahat, params, config, tape)
            return mean_abs_error(res.y_hat, y, tape), tape

        loss, tape = loss_and_tape()
        params.zero_grad()
        backward(loss, tape)

        worst = 0.0
        for name, p in params.named().items():
            analytic = p.grad.copy()

            def f(probe, p=p):
                saved = p.data
                p.data = probe.data
                try:
                    return loss_and_tape()[0]
                finally:
                    p.data = saved

            numeric = finite_diff_gradient(f, p, eps=1e-5).data
            rel = np.abs(analytic - numeric) / np.maximum(
                1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
            worst = max(worst, float(rel.max()))
        elapsed = perf_counter() - start
        assert worst < 1e-4, f"worst relative error {worst}"
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_accept_02_two_evaluations_per_step(capsys, tmp_path):
    with announce(capsys, 2,
                  "exactly 2 field evaluations per step in every gate mode; "
                  "nfe-report exits 0"):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 4, 3, 1)))
        ahat = normalize_adjacency(default_graph(4, seed=0))
        for steps in (2, 4):
            for mode in MASK_MODES:
                cfg = ModelConfig(n_nodes=4, window=3, horizon=2, proj_dim=5,
                                  embed_dim=3, steps=steps, mask_mode=mode)
                res = forward(x, ahat, init_params(cfg, seed=0), cfg)
                assert res.nfe_static == 2 * steps, mode
                assert res.nfe_adaptive == 2 * steps, mode
        code = main(["nfe-report", "--out", str(tmp_path / "nfe"),
                     "--n-nodes", "4", "--proj-dim", "4", "--embed-dim", "2",
                     "--window", "4", "--horizon", "3"])
        assert code == 0


def test_accept_03_truncation_error_closed_form(capsys):
    with announce(capsys, 3,
                  "error estimate equals dt^2/2 |A^2 h| on 100 random "
                  "linear systems (<= 1e-10)"):
        start = perf_counter()
        rng = np.random.default_rng(0)
        identity_field = (Tensor(np.eye(3)), Tensor(np.zeros(3)))
        for _ in range(100):
            a = rng.standard_normal((4, 4))
            h = rng.standard_normal((4, 1, 3))   # node-major [N,B,d]
            res = evolve(Tensor(h), 1, Tensor(a), identity_field, mask_mode="off")
            expected = 0.5 * np.abs(a @ (a @ h[:, 0]))
            assert np.abs(res.lte[0].data[:, 0] - expected).max() <= 1e-10
        assert perf_counter() - start < 5.0


def test_accept_04_solver_orders_against_exact_exponential(capsys):
    with announce(capsys, 4,
                  "halving dt shrinks one-step error 4x (euler) and about "
                  "8x (midpoint) against exp"):
        a_op = Tensor([[1.0]])
        for c in (0.6, 1.0, -0.8):
            field = (Tensor([[c]]), Tensor([0.0]))
            euler_errs, rk2_errs = [], []
            for dt in (0.1, 0.05, 0.025):
                h_euler, h_rk2 = embedded_dual_step(Tensor([[[1.0]]]), dt,
                                                    a_op, field)
                exact = math.exp(c * dt)
                euler_errs.append(abs(float(h_euler.data[0, 0, 0]) - exact))
                rk2_errs.append(abs(float(h_rk2.data[0, 0, 0]) - exact))
            for big, small in zip(euler_errs, euler_errs[1:]):
                assert 3.5 <= big / small <= 4.5, c
            for big, small in zip(rk2_errs, rk2_errs[1:]):
                assert 6.5 <= big / small <= 9.5, c


def test_accept_05_crossing_demo(capsys, tmp_path):
    with announce(capsys, 5, "intersect-demo prints PASS and exits 0"):
        code = main(["intersect-demo", "--out", str(tmp_path / "demo")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "PASS"


def test_accept_06_penalty_collapses_the_gate(capsys, runs):
    with announce(capsys, 6,
                  "error penalty collapses the gate to 0.5 with shrunken "
                  "spread; shocked cells gate higher in the full run"):
        full_masks = mask_report(runs.full.params, runs.cfg, runs.dataset,
                                 split="test")
        collapsed = []
        for lam in PENALTY_WEIGHTS:
            pen = runs.penalty[lam]
            masks = mask_report(pen.params, runs.cfg, runs.dataset,
                                split="test")
            if 0.48 <= masks.mean <= 0.52 and masks.std < full_masks.std:
                collapsed.append(lam)
        assert collapsed, "no penalty weight collapsed the gate"
        assert full_masks.shock_mean > full_masks.nonshock_mean
        spent = (runs.times["full"]
                 + sum(runs.times[f"pen_{lam}"] for lam in PENALTY_WEIGHTS))
        assert spent < 900.0, f"collapse study took {spent:.0f}s"


def test_accept_07_compensation_earns_its_parameters(capsys, runs):
    with announce(capsys, 7,
                  "full variant rmse <= no-compensation rmse; parameter "
                  "counts order no_comp < full = no_mask = penalty < no_lte"):
        rmse_full = evaluate(runs.full.params, runs.cfg, runs.dataset).rmse
        rmse_nc = evaluate(runs.no_comp.params, runs.no_comp.model_config,
                           runs.dataset).rmse
        assert rmse_full <= rmse_nc
        counts = {v: init_params(config_for_variant(runs.cfg, v), seed=0).count
                  for v in VARIANTS}
        assert counts["no_compensation"] < counts["full"]
        assert counts["full"] == counts["no_mask"] == counts["manifold_penalty"]
        assert counts["full"] < counts["no_lte"]


def test_accept_08_cost_scales_with_step_count(capsys, runs):
    with announce(capsys, 8,
                  "total flops strictly increase with step count, solver "
                  "term linear; every step count trains to completion"):
        totals = []
        for s in (1, 2, 4, 6, 8):
            cfg_s = dataclasses.replace(runs.cfg, steps=s)
            rep = flop_report(cfg_s)
            totals.append(rep.total)
            assert rep.solver == flop_report(
                dataclasses.replace(cfg_s, steps=1)).solver * s
            result = train(runs.dataset, cfg_s, TrainConfig(epochs=3))
            assert len(result.history) == 3
            assert math.isfinite(result.best_val_mae)
        assert all(b > a for a, b in zip(totals, totals[1:]))


def test_accept_09_reruns_are_byte_identical(capsys, tmp_path):
    with announce(capsys, 9,
                  "repeating any command with the same config and seed "
                  "reproduces output files byte for byte"):
        gen_a, gen_b = tmp_path / "gen_a", tmp_path / "gen_b"
        for out in (gen_a, gen_b):
            assert main(["generate-data", "--out", str(out)]) == 0
        for name in ("series.csv", "events.csv", "edges.csv", "meta.json",
                     "resolved_config.txt"):
            assert filecmp.cmp(gen_a / name, gen_b / name, shallow=False), name

        small = tmp_path / "small_data"
        assert main(["generate-data", "--out", str(small),
                     "--n-nodes", "4", "--total-t", "140"]) == 0
        train_a, train_b = tmp_path / "train_a", tmp_path / "train_b"
        flags = ["--window", "4", "--horizon", "3", "--proj-dim", "4",
                 "--embed-dim", "2", "--steps", "2", "--batch-size", "16",
                 "--epochs", "2", "--quiet"]
        for out in (train_a, train_b):
            assert main(["train", "--data", str(small),
                         "--out", str(out)] + flags) == 0
        for name in ("checkpoint.json", "history.csv", "resolved_config.txt"):
            assert filecmp.cmp(train_a / name, train_b / name,
                               shallow=False), name

        demo_a, demo_b = tmp_path / "demo_a", tmp_path / "demo_b"
        for out in (demo_a, demo_b):
            assert main(["intersect-demo", "--out", str(out)]) == 0
        for name in ("trajectory_off.csv", "trajectory_on.csv"):
            assert filecmp.cmp(demo_a / name, demo_b / name,
                               shallow=False), name


def test_accept_10_data_hygiene(capsys, runs, tmp_path):
    with announce(capsys, 10,
                  "no window crosses a split boundary; scaler round-trip "
                  "under 1e-12; series csv round-trip exact"):
        ds = runs.dataset
        span = ds.window + ds.horizon
        for name, (lo, hi) in ds.split_bounds.items():
            origins = ds.splits[name].origins
            assert np.all(origins >= lo) and np.all(origins + span <= hi), name
        lo, hi = ds.split_bounds["train"]
        assert ds.scaler.mean[0] == runs.series[lo:hi].mean()

        rng = np.random.default_rng(0)
        probe = rng.standard_normal((64, runs.scenario.n_nodes)) * 50.0
        back = ds.scaler.inverse(ds.scaler.transform(probe))
        assert np.abs(back - probe).max() < 1e-12

        path = tmp_path / "series.csv"
        write_series_csv(path, runs.series)
        assert np.array_equal(read_series_csv(path), runs.series)
