"""Drive one workload: set up, repeat for the run length, check, summarise."""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import environment
from layers import LayerProbe
from workloads import Rep, Workload

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _median(values: List[float]) -> float:
    values = [value for value in values if not math.isnan(value)]
    return statistics.median(values) if values else float("nan")


def end_to_end(reps: List[Rep], setup_s: List[float], n_points: int) -> Dict[str, float]:
    """End-to-end metrics over the untraced repetitions that completed."""
    done = [rep for rep in reps if not math.isnan(rep.solve_s)]
    adds = [value for rep in done for value in rep.add_ms]
    queries = [value for rep in done for value in rep.query_ms]
    build_s = _median([rep.build_s for rep in done])
    return {
        "build_s": build_s,
        "points_per_s": n_points / build_s,
        "solve_s": _median([rep.solve_s for rep in done]),
        "distortion": _median([rep.distortion for rep in done]),
        "peak_rss_mb": _median([rep.peak_bytes / 1e6 for rep in done]),
        "add_p50_ms": float(np.percentile(adds, 50)) if adds else float("nan"),
        "add_p95_ms": float(np.percentile(adds, 95)) if adds else float("nan"),
        "query_p50_ms": float(np.percentile(queries, 50)) if queries else float("nan"),
        "query_p95_ms": float(np.percentile(queries, 95)) if queries else float("nan"),
        "setup_s": statistics.median(setup_s),
    }


def per_layer(traced: List[Rep], untraced_build_s: float) -> Dict[str, float]:
    """Median over the traced repetitions of every layer metric."""
    done = [rep for rep in traced if rep.layers]
    names = sorted({name for rep in done for name in rep.layers})
    metrics = {name: _median([rep.layers.get(name, 0.0) for rep in done]) for name in names}
    metrics["trace.overhead"] = _median([rep.build_s for rep in done]) / untraced_build_s - 1.0
    return metrics


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    reps: Optional[int] = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Tuple[dict, dict]:
    """Run a workload; returns the result line and a detail record.

    Repetitions run one after another, each checked as soon as it
    returns, until ``seconds`` have passed (or exactly ``reps`` of them).
    With ``trace`` every second repetition runs under a
    :class:`LayerProbe`, interleaved with untraced ones, so the untraced
    median and the tracing overhead come from the same stretch of time.
    """
    spec = json.loads(SPEC.read_text())
    setup_s: List[float] = []
    done: List[Rep] = []
    try:
        for _ in range(setup_repeats):
            workload.close()
            started = time.perf_counter()
            workload.setup(seed)
            setup_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        while True:
            traced = trace and len(done) % 2 == 1
            rep = workload.repetition(seed, len(done), LayerProbe() if traced else None)
            # Checked between repetitions, outside the timed region: the run
            # then spans its full length with repetitions, which is what
            # averages out the host's speed drift.
            workload.check(rep)
            rep.release()
            done.append(rep)
            if reps is not None:
                if len(done) >= reps:
                    break
                continue
            elapsed = time.perf_counter() - started
            # Start another repetition only if it would end nearer to the run
            # length than stopping now does, so long repetitions (a whole
            # window pass) do not make the run's length jump by one of them.
            if elapsed + 0.5 * elapsed / len(done) >= seconds and len(done) >= (2 if trace else 1):
                break
    finally:
        workload.close()

    untraced = [rep for rep in done if not rep.traced]
    metrics = end_to_end(untraced, setup_s, workload.n_points)
    declared = spec["end_to_end"]
    if trace:
        metrics = per_layer([rep for rep in done if rep.traced], metrics["build_s"])
        declared = spec["per_layer"]
    attempted = sum(rep.attempted for rep in done)
    failed = sum(len(rep.failures) for rep in done)
    missing = [entry["name"] for entry in declared if entry["name"] not in metrics]
    if missing and not failed:
        raise KeyError(f"workload {workload.name} computed no value for {missing}")

    def value(name: str) -> Optional[float]:
        """The metric, or ``None`` where failed operations left no sample."""
        number = metrics.get(name, float("nan"))
        return None if math.isnan(number) else number

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": value(entry["name"]), "unit": entry["unit"]}
            for entry in declared
        },
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "environment": environment.describe(),
        "samples": {
            "repetitions": len(untraced),
            "traced_repetitions": len(done) - len(untraced),
            "adds": sum(len(rep.add_ms) for rep in untraced),
            "queries": sum(len(rep.query_ms) for rep in untraced),
            "setups": len(setup_s),
        },
        "build_s": [rep.build_s for rep in done],
        "peak_rss_mb": [rep.peak_bytes / 1e6 for rep in done],
        "setup_s": setup_s,
        "metrics": metrics,
        "failures": [
            message for rep in done for messages in rep.failures.values() for message in messages
        ][:5],
    }
    return result, detail
