"""Benchmark entry point: one workload per process, or all three in turn.

    python3 perfbench/run.py --workload train-n300 --seed 1 --seconds 45 --trace 0

Run from the repository root.  odegate is imported from `src/` of the same
checkout.  Human-readable lines come first (host manifest, every metric with
its unit); the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from a separate
traced run.  A result file with the manifest, the report and, when traced,
every span is written under `.bench_out/results/`.

`--workload all` runs the three workloads one after another, each in its own
process, and ends with a combined JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-n20", "train-n300", "forecast-n20")


def blas_info() -> dict:
    """BLAS library name, version and its current thread count."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip()


def manifest(args, spec) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": spec,
    }


def run_all(args) -> int:
    """Each workload in its own process; relays output, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.rstrip("\n").splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            print(f"[{name}] exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "odegate", "__init__.py")):
        print(f"error: odegate sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    info = manifest(args, dataclasses.asdict(spec))
    print("manifest " + json.dumps(info, sort_keys=True))

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for name, value, unit, note in out.report:
        print(f"metric {name} = {value!r} {unit}  ({note})")
    for name, (value, unit) in out.metrics.items():
        kind = "  (computed from flop_report)" if unit == "GFLOP/s" else ""
        print(f"{'layer' if args.trace else 'e2e'} {name} = {value!r} {unit}{kind}")
    for name in out.absent:
        print(f"absent {name}: traced function not found; its metrics read 0")
    for problem in out.problems:
        print(f"check failed: {problem}")

    result = {"correct": out.failed == 0 and not out.problems,
              "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}}
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"manifest": info, "report": out.report, "problems": out.problems,
                   "absent": out.absent, "result": result, "samples": out.samples,
                   "spans": out.spans}, fh)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
