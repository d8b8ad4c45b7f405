"""Graph ODE forecasting with an embedded-solver error gate and shock jumps.

The embedded Euler/RK2 pair shares its first stage, so the per-step local
truncation error comes out of the solver for free.  That error drives a
sigmoid gate on a learned discrete jump, letting the model spend its
compensation where the smooth dynamics are struggling (shocks) and almost
nowhere else, at exactly two field evaluations per step.
"""

from .autodiff import Tape, Tensor, backward, finite_diff_gradient
from .data import (ForecastDataset, Scaler, ShockEvent, ShockScenario,
                   WindowSet, build_dataset, default_graph,
                   generate_shock_series, load_dataset_files, make_windows,
                   write_dataset_files)
from .dynamics import (EvolveResult, GateStats, NFECounter, attention_mask,
                       embedded_dual_step, evolve, local_truncation_error,
                       vector_field)
from .errors import (ContractError, DimensionError, NumericError, OdegateError,
                     ParseError, ValidationError)
from .graph import (SpatialGraph, adaptive_adjacency, load_graph,
                    normalize_adjacency, write_edge_list)
from .model import (FlopReport, ForwardResult, ModelConfig, ModelParams,
                    flop_report, forward, init_params, load_checkpoint,
                    save_checkpoint)
from .training import (VARIANTS, AdamState, EvalReport, MaskReport,
                       TrainConfig, TrainResult, adam_step, evaluate,
                       mask_report, train)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ContractError", "DimensionError",
    "EvalReport", "EvolveResult", "FlopReport", "ForecastDataset",
    "ForwardResult", "GateStats", "MaskReport", "ModelConfig",
    "ModelParams", "NFECounter", "NumericError",
    "OdegateError", "ParseError", "Scaler", "ShockEvent", "ShockScenario",
    "SpatialGraph", "Tape", "Tensor", "TrainConfig",
    "TrainResult", "ValidationError", "WindowSet",
    "adam_step", "adaptive_adjacency", "attention_mask", "backward",
    "build_dataset", "default_graph", "embedded_dual_step", "evaluate",
    "evolve", "finite_diff_gradient", "flop_report", "forward",
    "generate_shock_series", "init_params", "load_checkpoint",
    "load_dataset_files", "load_graph", "local_truncation_error",
    "make_windows", "mask_report", "normalize_adjacency", "save_checkpoint",
    "train", "vector_field", "write_dataset_files",
    "write_edge_list",
]
