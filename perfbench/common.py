"""Shared helpers: tail percentiles, reconciliation, provenance, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: Percentiles the tail helper may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: Largest share of a traced workload's end-to-end wall time that may
#: stay unattributed to a named layer.
RECONCILE_TOLERANCE = 0.10


class BenchmarkError(RuntimeError):
    """A correctness check failed or the workload could not run."""


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile of ``values`` (0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        # Rounded: 10000 * (100 - 99.9) / 100 is 9.99999... in floating point.
        if round(n * (100.0 - q) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return q
    raise BenchmarkError(
        f"{n} samples cannot support a tail: even p50 needs {2 * TAIL_MIN_BEYOND}"
    )


def summarize(values) -> dict:
    """Median plus the highest supported tail percentile, with the count."""
    values = list(values)
    q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": quantile(values, 50.0),
        "tail_q": q,
        "tail": quantile(values, q),
        "mean": statistics.fmean(values),
    }


def reconcile(wall_s: float, layers: dict[str, float], required) -> dict:
    """Check that layer self times add up to the traced wall time.

    ``layers`` maps layer names to self seconds; every name in
    ``required`` must be present.  The unattributed remainder is
    reported as its own line and must stay within
    :data:`RECONCILE_TOLERANCE` of ``wall_s`` (either sign: layers that
    sum to more than the wall mean double counting).
    """
    missing = sorted(set(required) - set(layers))
    attributed = sum(layers.values())
    unaccounted = wall_s - attributed
    share = abs(unaccounted) / wall_s if wall_s > 0 else float("inf")
    return {
        "wall_s": wall_s,
        "layers": dict(layers),
        "attributed_s": attributed,
        "unaccounted_s": unaccounted,
        "unaccounted_share": share,
        "tolerance": RECONCILE_TOLERANCE,
        "missing": missing,
        "ok": not missing and share <= RECONCILE_TOLERANCE,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _git_sha() -> str:
    """HEAD of this checkout, or "unknown" when it is not a git working tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _blas() -> dict:
    import numpy as np

    info: dict = {"library": "unknown", "threads": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["library"] = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, ValueError, AttributeError):
        pass
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(variable):
            info["threads"] = int(os.environ[variable])
            info["threads_from"] = variable
            break
    else:
        # OpenBLAS defaults to one thread per online core.
        info["threads"] = os.cpu_count()
        info["threads_from"] = "default (nproc)"
    return info


def provenance(workload: str, seed: int, config: dict, trace: bool) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "config": config,
    }


def emit(result: dict, metrics: dict[str, tuple[float, str]], detail_lines: list[str]) -> None:
    """Print the human-readable lines, save the full record, print the JSON line.

    The last stdout line is the machine-readable summary
    ``{"correct", "attempted", "failed", "metrics"}``.
    """
    for line in detail_lines:
        print(line)
    WORK.mkdir(exist_ok=True)
    record = WORK / (
        f"result-{result['provenance']['workload']}-seed{result['provenance']['seed']}"
        f"-trace{int(result['provenance']['trace'])}.json"
    )
    record.write_text(json.dumps(result, indent=2, sort_keys=True, default=float) + "\n")
    print(f"full record: {record.relative_to(ROOT)}")
    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(summary))
