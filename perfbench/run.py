"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-ml1m --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs the layer wrappers of ``perfbench/trace.py`` and
prints the per-layer metrics instead.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is non-zero when a correctness check fails
or the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from pathlib import Path

# BLAS runs on one thread, in this process and in the server it spawns.
# OpenBLAS worker threads busy-wait, so on a shared host their CPU time
# and wall time follow the neighbours' load rather than the program's.
# Set before numpy is first imported; recorded in the provenance.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("train-ml1m", "http-mixed", "store-wide")


def _workload_module(name: str):
    if name == "train-ml1m":
        from perfbench import train_ml1m as module
    elif name == "http-mixed":
        from perfbench import http_mixed as module
    else:
        from perfbench import store_wide as module
    return module


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no repro source tree or BENCHMARK.json; run from a "
              "full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    from perfbench.common import (
        BenchmarkError, emit, peak_rss_mb, provenance,
    )

    module = _workload_module(args.workload)
    trace = bool(args.trace)
    try:
        result = module.run(args.seed, args.seconds, trace)
    except BenchmarkError as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report any crash, never print a result
        traceback.print_exc()
        return 1

    errors = list(result["errors"])
    lines = [f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={int(trace)}"]
    if trace:
        recon = result["reconcile"]
        if not recon["ok"]:
            errors.append(
                f"layers do not reconcile: unaccounted {recon['unaccounted_share']:.1%} "
                f"(tolerance {recon['tolerance']:.0%}), missing {recon['missing']}"
            )
        values = dict(result["per_layer"])
        values["trace.wall_s"] = recon["wall_s"]
        values["trace.unaccounted_s"] = recon["unaccounted_s"]
        values["trace.unaccounted_pct"] = 100.0 * recon["unaccounted_share"]
        wanted = spec["per_layer"]
        lines.append("per-layer (" + result["detail"]["per"] + "; layers this workload "
                     "does not cross read 0):")
        for layer, seconds in sorted(recon.get("layers", {}).items()):
            lines.append(f"  layer {layer:<18} {_fmt(seconds)} s")
    else:
        values = dict(result["e2e"])
        values["setup_s"] = statistics.median(result["setup"])
        values["peak_rss_mb"] = result.get("peak_rss_mb", peak_rss_mb())
        wanted = spec["end_to_end"]
        lines.append("named metrics:")
        for name, (value, unit) in result["named"].items():
            lines.append(f"  {name} = {_fmt(value)} {unit}")
        lines.append("benchmark metrics:")
    metrics = {}
    for entry in wanted:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = (value, entry["unit"])
        lines.append(f"  {entry['name']} = {_fmt(value)} {entry['unit']}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    correct = not errors
    lines.append(f"operations: attempted={attempted} succeeded={attempted - failed} "
                 f"failed={failed}")
    lines.append(f"correct: {correct}")
    lines.extend(f"  check failed: {error}" for error in errors)
    emit(
        {
            "provenance": provenance(args.workload, args.seed, module.CONFIG, trace),
            "correct": correct, "attempted": attempted, "failed": failed,
            "errors": errors, "setup_s": result["setup"],
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "named": {name: {"value": v, "unit": u}
                      for name, (v, u) in result.get("named", {}).items()},
            "reconcile": result.get("reconcile"), "detail": result["detail"],
        },
        metrics, lines,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
