"""Command-line entry points.

Subcommands:

  generate-data    write a synthetic shock dataset (4 files) to --out
  train            fit one variant on a dataset directory
  evaluate         score a checkpoint on a split, original units
  ablate           train and score all five variants with shared settings
  mask-stats       gate statistics of a checkpoint over a split
  nfe-report       verify the 2-evaluations-per-step budget, report the FLOP sweep
  intersect-demo   show that jumps let trajectories cross where the smooth
                   flow cannot; prints PASS or FAIL as its last line

Settings resolve in three layers: built-in defaults, then a --config file of
`key=value` lines, then explicit flags.  A key's built-in default is the field
default of the dataclass that consumes it (ShockScenario, ModelConfig,
TrainConfig), and values are read as that default's type.  Only `stride`,
which no dataclass holds, is declared here, and `ablate` runs its penalty
variant at lam=0.1.  The resolved values are written to resolved_config.txt
next to the outputs.  All outputs are deterministic for a
given input and seed; running a command twice produces identical bytes.

Exit codes: 0 success, 1 usage, 2 bad input data, 3 numeric or internal
invariant violation.  Failures print a single `error[kind]: message` line to
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import sys

import numpy as np

from .autodiff import Tensor
from .data import (ShockScenario, build_dataset, default_graph,
                   generate_shock_series, load_dataset_files, write_dataset_files)
from .dynamics import MASK_MODES, evolve
from .errors import (ContractError, DimensionError, NumericError, ParseError,
                     ValidationError, format_value, read_text, write_csv, write_json)
from .graph import SpatialGraph, normalize_adjacency
from .model import (ModelConfig, flop_report, forward, init_params,
                    load_checkpoint, save_checkpoint, tape_peak_bytes)
from .training import VARIANTS, TrainConfig, evaluate, mask_report, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# most specific first; ParseError subclasses ValidationError
ERROR_MAP = (
    (ParseError, "parse", EXIT_DATA),
    (ValidationError, "validation", EXIT_DATA),
    (NumericError, "numeric", EXIT_NUMERIC),
    (ContractError, "contract", EXIT_NUMERIC),
    (DimensionError, "dimension", EXIT_NUMERIC),
    (FloatingPointError, "numeric", EXIT_NUMERIC),
    (OSError, "io", EXIT_DATA),
    (MemoryError, "memory", EXIT_DATA),   # a setting too large for the host
)


# ---------------------------------------------------------------------------
# layered configuration
# ---------------------------------------------------------------------------

GENERATE_KEYS = ("amplitude", "diffusion", "n_nodes", "period", "seed",
                 "shock_decay", "shock_mag_hi", "shock_mag_lo", "shock_rate", "total_t")
TRAIN_KEYS = ("batch_size", "clip_norm", "embed_dim", "epochs", "horizon",
              "lam", "lr", "mask_grad", "patience", "proj_dim", "seed",
              "steps", "stride", "variant", "window")
ABLATE_KEYS = tuple(k for k in TRAIN_KEYS if k != "variant")
EVAL_KEYS = ("batch_size", "stride")
NFE_KEYS = ("embed_dim", "horizon", "n_nodes", "proj_dim", "steps", "window")

# a value is read as its default's type; tests hold that to the annotation
DEFAULTS = {f.name: f.default
            for cls in (ShockScenario, ModelConfig, TrainConfig)
            for f in dataclasses.fields(cls)
            if f.name in GENERATE_KEYS + TRAIN_KEYS + EVAL_KEYS + NFE_KEYS
            and f.default is not dataclasses.MISSING}
DEFAULTS.update(stride=1)
ABLATE_DEFAULTS = {**DEFAULTS, "lam": 0.1}


def _coerce(key: str, raw: str):
    kind = type(DEFAULTS[key])
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "1"):
                return True
            if low in ("false", "0"):
                return False
            raise ValueError(f"expected true/false, got {raw!r}")
        return kind(raw)
    except ValueError as exc:
        raise ValidationError(f"config key '{key}': {exc}") from exc


def parse_config_file(path, allowed) -> dict:
    values, set_on = {}, {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ParseError(f"{path}: line {lineno}: expected key=value")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ParseError(f"{path}: line {lineno}: unknown key '{key}'")
        if key not in allowed:
            raise ParseError(
                f"{path}: line {lineno}: key '{key}' does not apply here")
        if key in set_on:
            raise ParseError(f"{path}: line {lineno}: key '{key}' is already set "
                             f"on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = _coerce(key, raw.strip())
    return values


def resolve_settings(args, keys, defaults=DEFAULTS) -> dict:
    """defaults, then --config file values, then explicit flags."""
    resolved = {k: defaults[k] for k in keys}
    if getattr(args, "config", None):
        resolved.update(parse_config_file(args.config, set(keys)))
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = _coerce(key, flag_value)
    return resolved


def write_resolved(out_dir, settings: dict) -> None:
    path = os.path.join(out_dir, "resolved_config.txt")
    with open(path, "w") as fh:
        for key in sorted(settings):
            fh.write(f"{key}={format_value(settings[key])}\n")


def add_setting_flags(parser, keys, defaults=DEFAULTS) -> None:
    for key in sorted(keys):
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=None, metavar="V",
                            help=f"override '{key}' "
                                 f"(default {format_value(defaults[key])})")


def pick(cls, settings: dict, **fixed):
    """`cls` built from the settings named like its fields; `fixed` wins."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{**{k: v for k, v in settings.items() if k in names}, **fixed})


def blas_info() -> dict:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def run_manifest(model_config: ModelConfig, train_config: TrainConfig) -> dict:
    """What a training run ran on and with: versions, cores, configs, seed."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "model_config": dataclasses.asdict(model_config),
        "train_config": dataclasses.asdict(train_config),
        "seed": train_config.seed,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate_data(args) -> int:
    cfg = resolve_settings(args, GENERATE_KEYS)
    scenario = pick(ShockScenario, cfg)
    graph = default_graph(cfg["n_nodes"], seed=cfg["seed"])
    series, events = generate_shock_series(scenario, graph)
    os.makedirs(args.out, exist_ok=True)
    paths = write_dataset_files(args.out, scenario, graph, series, events)
    write_resolved(args.out, cfg)
    print(f"wrote {paths['series']} ({scenario.total_t} ticks, "
          f"{scenario.n_nodes} nodes)")
    print(f"wrote {paths['events']} ({len(events)} shocks)")
    print(f"wrote {paths['edges']} ({len(graph.edges)} edges)")
    print(f"wrote {paths['meta']}")
    return EXIT_OK


def _load_for_model(data_dir, window, horizon, stride):
    series, events, graph, meta = load_dataset_files(data_dir)
    dataset = build_dataset(series, events, graph,
                            window=window, horizon=horizon, stride=stride)
    return dataset, meta


def _model_config(cfg, meta, variant) -> ModelConfig:
    return pick(ModelConfig, cfg, n_nodes=meta["n_nodes"],
                mask_mode=VARIANTS[variant])


def _load_checkpoint_and_data(args, cfg):
    """The checkpoint, and the dataset windowed the way it was trained."""
    params, model_config = load_checkpoint(args.checkpoint)
    dataset, meta = _load_for_model(args.data, model_config.window,
                                    model_config.horizon, cfg["stride"])
    if meta["n_nodes"] != model_config.n_nodes:
        raise ValidationError(
            f"checkpoint expects {model_config.n_nodes} nodes, "
            f"data has {meta['n_nodes']}")
    return params, model_config, dataset


def cmd_train(args) -> int:
    cfg = resolve_settings(args, TRAIN_KEYS)
    train_config = pick(TrainConfig, cfg)   # rejects an unknown variant
    variant = train_config.variant
    dataset, meta = _load_for_model(args.data, cfg["window"], cfg["horizon"],
                                    cfg["stride"])
    model_config = _model_config(cfg, meta, variant)
    log = None if args.quiet else print
    result = train(dataset, model_config, train_config, log=log)
    # only now: a run that train rejects leaves no empty --out behind
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.json"),
                    result.params, model_config)
    write_csv(os.path.join(args.out, "history.csv"), result.history[0].keys(),
              [entry.values() for entry in result.history])
    write_resolved(args.out, cfg)
    write_json(os.path.join(args.out, "timing.json"), result.timing)
    write_json(os.path.join(args.out, "run.json"),
               run_manifest(model_config, train_config))
    print(f"variant={variant}")
    print(f"param_count={result.params.count}")
    print(f"best_epoch={result.best_epoch}")
    print(f"best_val_mae={result.best_val_mae!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = resolve_settings(args, EVAL_KEYS)
    params, model_config, dataset = _load_checkpoint_and_data(args, cfg)
    report = evaluate(params, model_config, dataset, split=args.split,
                      batch_size=cfg["batch_size"])
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "metrics.json"),
               {"split": args.split, **dataclasses.asdict(report)})
    write_resolved(args.out, cfg)
    print(f"split={args.split} windows={report.count}")
    print(f"mae={report.mae!r}")
    print(f"rmse={report.rmse!r}")
    print(f"mape={report.mape!r}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = resolve_settings(args, ABLATE_KEYS, ABLATE_DEFAULTS)
    dataset, meta = _load_for_model(args.data, cfg["window"], cfg["horizon"],
                                    cfg["stride"])
    configs = []   # all five built, and so checked, before --out is created
    for variant in VARIANTS:
        lam = cfg["lam"] if variant == "manifold_penalty" else 0.0
        configs.append((variant, _model_config(cfg, meta, variant),
                        pick(TrainConfig, cfg, variant=variant, lam=lam)))
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for variant, model_config, train_config in configs:
        result = train(dataset, model_config, train_config, log=None)
        report = evaluate(result.params, model_config, dataset, split="test",
                          batch_size=cfg["batch_size"])
        if model_config.mask_mode == "off":
            m_mean = m_std = float("nan")
        else:
            masks = mask_report(result.params, model_config, dataset,
                                split="test", batch_size=cfg["batch_size"])
            m_mean, m_std = masks.mean, masks.std
        save_checkpoint(os.path.join(args.out, f"checkpoint_{variant}.json"),
                        result.params, model_config)
        rows.append((variant, result.params.count, report.mae, report.rmse,
                     report.mape, m_mean, m_std))
        print(f"variant={variant} params={result.params.count} "
              f"mae={report.mae!r} rmse={report.rmse!r} mape={report.mape!r} "
              f"mask_mean={m_mean!r}")
    write_csv(os.path.join(args.out, "ablation.csv"),
              ("variant", "param_count", "mae", "rmse", "mape", "mask_mean",
               "mask_std"), rows)
    write_resolved(args.out, cfg)
    return EXIT_OK


def cmd_mask_stats(args) -> int:
    cfg = resolve_settings(args, EVAL_KEYS)
    params, model_config, dataset = _load_checkpoint_and_data(args, cfg)
    if model_config.mask_mode == "off":
        raise ValidationError(f"{args.checkpoint}: mask_mode 'off' has no gate "
                              "to report")
    report = mask_report(params, model_config, dataset, split=args.split,
                         batch_size=cfg["batch_size"])
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "mask_stats.json"),
               {"split": args.split, **dataclasses.asdict(report)})
    write_resolved(args.out, cfg)
    print(f"split={args.split}")
    print(f"mean={report.mean!r}")
    print(f"std={report.std!r}")
    print(f"p95={report.p95!r}")
    print(f"shock_mean={report.shock_mean!r}")
    print(f"nonshock_mean={report.nonshock_mean!r}")
    print(f"shock_cells={report.shock_cells} nonshock_cells={report.nonshock_cells}")
    return EXIT_OK


FLOP_SWEEP_STEPS = (1, 2, 4, 6, 8)


def cmd_nfe_report(args) -> int:
    cfg = resolve_settings(args, NFE_KEYS)
    # seed 0 throughout: NFE counts, FLOPs and tape_peak_bytes do not depend on the draws
    graph = default_graph(cfg["n_nodes"], seed=0)
    ahat = normalize_adjacency(graph)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, cfg["n_nodes"], cfg["window"], 1)))
    expected = 2 * cfg["steps"]
    base = pick(ModelConfig, cfg)

    modes = {}
    for mode in MASK_MODES:
        model_config = dataclasses.replace(base, mask_mode=mode)
        params = init_params(model_config, seed=0)
        res = forward(x, ahat, params, model_config)
        modes[mode] = {"nfe_static": res.nfe_static,
                       "nfe_adaptive": res.nfe_adaptive, "expected": expected}
        ok = res.nfe_static == expected and res.nfe_adaptive == expected
        print(f"mode={mode} nfe_static={res.nfe_static} "
              f"nfe_adaptive={res.nfe_adaptive} expected={expected} "
              f"{'ok' if ok else 'MISMATCH'}")
        if not ok:
            raise ContractError(
                f"mode '{mode}': measured NFE {res.nfe_static}/"
                f"{res.nfe_adaptive}, expected {expected} per stream")

    sweep = []
    for s in FLOP_SWEEP_STEPS:
        model_config = dataclasses.replace(base, steps=s)
        rep = flop_report(model_config)
        peak = tape_peak_bytes(x, ahat, init_params(model_config, seed=0),
                               model_config)
        sweep.append({"steps": s, "solver": rep.solver, "total": rep.total,
                      "tape_peak_bytes": peak})
        print(f"steps={s} solver_flops={rep.solver} total_flops={rep.total} "
              f"tape_peak_bytes={peak}")

    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "nfe_report.json"),
               {"modes": modes, "flop_sweep": sweep})
    write_resolved(args.out, cfg)
    print("nfe-report ok")
    return EXIT_OK


def crossing_legs() -> tuple:
    """Two nodes under one shared scalar field, integrated over unit time.

    Leg one starts both nodes at the same value with the compensator off: a
    shared smooth flow maps equal states to equal states, so the trajectories
    must remain identical, bit for bit.  Leg two starts the nodes mirrored
    and switches a constructed jump on; the state-dependent compensation
    reorders the nodes within one step, which the flow alone can never do.
    Returns the two legs' `EvolveResult`s, every step's state collected.
    """
    steps = 8
    a_op = normalize_adjacency(SpatialGraph(n_nodes=2, edges=[]))
    field = (Tensor([[0.5]]), Tensor([0.0]))
    jumps = [(Tensor([[-6.0]]), Tensor([0.0])) for _ in range(steps)]
    leg_off = evolve(Tensor([[[0.2]], [[0.2]]]), steps, a_op, field,
                     mask_mode="off", collect_states=True)
    leg_on = evolve(Tensor([[[0.05]], [[-0.05]]]), steps, a_op, field, jumps,
                    mask_mode="lte", collect_states=True)
    return leg_off, leg_on


def cmd_intersect_demo(args) -> int:
    """Check and write both legs of `crossing_legs`."""
    leg_off, leg_on = crossing_legs()
    off_ok = all(float(s[0, 0, 0]) == float(s[1, 0, 0])
                 for s in leg_off.states)
    d_on = [float(s[0, 0, 0] - s[1, 0, 0]) for s in leg_on.states]
    flip_step = next((t for t, d in enumerate(d_on) if d * d_on[0] < 0), None)
    on_ok = flip_step is not None

    os.makedirs(args.out, exist_ok=True)
    for name, leg in (("trajectory_off.csv", leg_off), ("trajectory_on.csv", leg_on)):
        write_csv(os.path.join(args.out, name), ("t", "node_0", "node_1"),
                  ((t, float(s[0, 0, 0]), float(s[1, 0, 0]))
                   for t, s in enumerate(leg.states)))

    print(f"compensation off: identical nodes stay identical at every step: "
          f"{off_ok}")
    if on_ok:
        print(f"compensation on: mirrored nodes cross at step {flip_step}")
    else:
        print("compensation on: mirrored nodes never cross")
    if off_ok and on_ok:
        print("PASS")
        return EXIT_OK
    print("FAIL")
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odegate",
        description="Graph ODE forecasting with a truncation-error gate "
                    "and discrete shock compensation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, keys, data=False, checkpoint=False, split=False,
               defaults=DEFAULTS):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None, help="key=value settings file")
        if data:
            p.add_argument("--data", required=True, help="dataset directory")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        if split:
            p.add_argument("--split", default="test",
                           choices=("train", "val", "test"))
        add_setting_flags(p, keys, defaults)

    p = sub.add_parser("generate-data", help="write a synthetic shock dataset")
    common(p, GENERATE_KEYS)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="train one variant")
    common(p, TRAIN_KEYS, data=True)
    p.add_argument("--quiet", action="store_true", help="suppress epoch lines")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a split")
    common(p, EVAL_KEYS, data=True, checkpoint=True, split=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and score all five variants")
    common(p, ABLATE_KEYS, data=True, defaults=ABLATE_DEFAULTS)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("mask-stats", help="gate statistics of a checkpoint")
    common(p, EVAL_KEYS, data=True, checkpoint=True, split=True)
    p.set_defaults(func=cmd_mask_stats)

    p = sub.add_parser("nfe-report", help="verify NFE budget, report FLOP sweep")
    common(p, NFE_KEYS)
    p.set_defaults(func=cmd_nfe_report)

    p = sub.add_parser("intersect-demo",
                       help="crossing trajectories with and without jumps")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_intersect_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; we reserve 2 for data problems
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        # overflow from extreme but finite inputs: one error line, no warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except tuple(cls for cls, _, _ in ERROR_MAP) as exc:
        for cls, kind, code in ERROR_MAP:
            if isinstance(exc, cls):
                print(f"error[{kind}]: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
