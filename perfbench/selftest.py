"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest perfbench/selftest.py -q

Named ``selftest.py`` rather than ``test_*.py`` so that the library's
suite, collected from the repository root, does not pick it up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
from repro.core.coreset import Coreset  # noqa: E402
from repro.core.fast_coreset import FastCoreset  # noqa: E402
from repro.core.sensitivity import SensitivitySampling  # noqa: E402
from workloads import WORKLOADS, PoolWorkload, StaticWorkload, WindowWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in SPEC["workloads"]]

TINY = {
    "fast-static": lambda sampler=FastCoreset: StaticWorkload(
        "fast-static", lambda k: sampler(k=k), n=3_000, n_clusters=6, k=6, m=240
    ),
    "sensitivity-static": lambda: StaticWorkload(
        "sensitivity-static", lambda k: SensitivitySampling(k=k), n=3_000, n_clusters=6, k=6, m=240
    ),
    "stream-pool": lambda: PoolWorkload(n=8_000, blocks=8, k=5, coreset_size=200, warm_blocks=2),
    "stream-window": lambda: WindowWorkload(
        n=6_000, n_clusters=4, block_rows=200, k=4, coreset_size=50, window=8, warm_blocks=4
    ),
}


def run_tiny(workload, trace: bool, seed: int = 3):
    return harness.run(workload, seed, 0.0, trace, reps=2, setup_repeats=1)


def test_declared_workloads_exist():
    assert set(NAMES) <= set(WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_with_its_unit(name, trace):
    result, _ = run_tiny(TINY[name](), trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }
    values = [metric["value"] for metric in result["metrics"].values()]
    assert all(value is not None and np.isfinite(value) for value in values)
    if not trace:
        assert all(value > 0 for value in values)


class DoubledWeights(FastCoreset):
    def sample(self, points, m, **kwargs):
        coreset = super().sample(points, m, **kwargs)
        return Coreset(points=coreset.points, weights=2 * coreset.weights, indices=coreset.indices)


class ForeignRow(FastCoreset):
    def sample(self, points, m, **kwargs):
        coreset = super().sample(points, m, **kwargs)
        moved = coreset.points.copy()
        moved[0] += 1e-3
        return Coreset(points=moved, weights=coreset.weights, indices=coreset.indices)


@pytest.mark.parametrize("sampler", [DoubledWeights, ForeignRow])
def test_corrupted_output_counts_as_failure(sampler):
    result, detail = run_tiny(TINY["fast-static"](sampler), trace=False)
    # Two repetitions of a build and a solve each; only the builds fail.
    assert result["attempted"] == 4 and result["failed"] == 2
    assert not result["correct"] and detail["failures"]


def test_window_row_outside_live_window_fails():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(100, 3))
    rows = checks.RowIndex(points)
    coreset = Coreset(points=points[[10, 60]], weights=np.full(2, 20.0))
    passing = dict(size=2, represented=40.0, weight_band=(0.9, 1.1), rows=rows)
    assert checks.check_coreset(coreset, live=(0, 80), **passing) == []
    assert checks.check_coreset(coreset, live=(40, 80), **passing)


def test_bad_query_answer_fails():
    rng = np.random.default_rng(0)
    coreset = Coreset(points=rng.normal(size=(50, 3)), weights=np.ones(50))
    good = coreset.points[:4].copy()
    assert checks.check_centers(good, coreset, 4) == []
    assert checks.check_centers(good[:3], coreset, 4)
    assert checks.check_centers(np.where(good == good[0, 0], np.nan, good), coreset, 4)
    assert checks.check_centers(good + [100.0, 0.0, 0.0], coreset, 4)


def test_every_pool_query_is_an_operation():
    result, _ = run_tiny(TINY["stream-pool"](), trace=False)
    assert result["attempted"] == 2 * (1 + PoolWorkload.queries) and result["failed"] == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_fixed_seed_repeats_distortion_and_counts(name):
    first, second = (run_tiny(TINY[name](), trace=False)[1] for _ in range(2))
    assert first["metrics"]["distortion"] == second["metrics"]["distortion"]
    counts = [entry["name"] for entry in SPEC["per_layer"] if entry["unit"] == "count"]
    traced = [run_tiny(TINY[name](), trace=True)[1]["metrics"] for _ in range(2)]
    assert {c: traced[0][c] for c in counts} == {c: traced[1][c] for c in counts}


def test_exits_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fast-static", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0 and completed.stdout == ""
