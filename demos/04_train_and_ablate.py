#!/usr/bin/env python3
"""Train every variant on a small scenario and compare them side by side.

Scaled down (8 nodes, 400 ticks, 6 epochs) so the whole table builds in
seconds.  The ordering of the parameter counts is structural and holds at
any scale; the metric gaps grow with budget.
"""

from odegate.data import (ShockScenario, build_dataset, default_graph,
                          generate_shock_series)
from odegate.model import ModelConfig
from odegate.training import (VARIANTS, TrainConfig, config_for_variant,
                              evaluate, mask_report, train)


def build_small_dataset():
    scenario = ShockScenario(n_nodes=8, total_t=400, shock_rate=1.5, seed=0)
    graph = default_graph(scenario.n_nodes, seed=scenario.seed)
    series, events = generate_shock_series(scenario, graph)
    return build_dataset(series, events, graph, window=8, horizon=6)


def run_variant(dataset, base, variant, lam=0.0):
    cfg = config_for_variant(base, variant)
    result = train(dataset, cfg,
                   TrainConfig(variant=variant, lam=lam, epochs=6,
                               batch_size=32))
    report = evaluate(result.params, cfg, dataset, split="test")
    if cfg.mask_mode == "off":
        gate = "      (no gate)"
    else:
        masks = mask_report(result.params, cfg, dataset, split="test")
        gate = f"{masks.mean:.4f} / {masks.std:.4f}"
    return result, report, gate


def main():
    dataset = build_small_dataset()
    base = ModelConfig(n_nodes=8, window=8, horizon=6,
                       proj_dim=8, embed_dim=4, steps=2)

    print(f"{'variant':<18} {'params':>7} {'test_mae':>9} {'test_rmse':>10} "
          f"{'gate mean/std':>16}")
    for variant in VARIANTS:
        lam = 0.1 if variant == "manifold_penalty" else 0.0
        result, report, gate = run_variant(dataset, base, variant, lam)
        print(f"{variant:<18} {result.params.count:>7} {report.mae:>9.4f} "
              f"{report.rmse:>10.4f} {gate:>16}")

    print("\nreading the table:")
    print("  no_compensation drops the jump parameters, hence the small count")
    print("  no_lte replaces the free error gate with a learned one and pays")
    print("  extra parameters for it")
    print("  no_mask pins the gate to 1 everywhere (mean 1, spread 0)")
    print("  manifold_penalty keeps the architecture but squeezes the gate")
    print("  toward 0.5")


if __name__ == "__main__":
    main()
