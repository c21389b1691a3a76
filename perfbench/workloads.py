"""The benchmark's workloads: set-up, one timed repetition, and its checks.

Every workload is a closed loop with one producer: each build, block or
query starts when the previous one returned.  A *repetition* is one build
followed by one k-means solve on its coreset.  Everything random derives
from the workload seed: the data from the seed itself, repetition ``i``'s
sampler from ``SeedSequence([seed, i])`` and its solve from
``SeedSequence([seed, i, 1])``, so identical code gives identical coresets.
"""

from __future__ import annotations

import abc
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.clustering import lloyd
from repro.core.base import CoresetConstruction
from repro.core.coreset import Coreset
from repro.core.fast_coreset import FastCoreset
from repro.core.sensitivity import SensitivitySampling
from repro.data.synthetic import drifting_mixture, gaussian_mixture
from repro.native import registry
from repro.observability import ExecutionDiagnostics
from repro.parallel.executor import ProcessAsyncExecutor
from repro.streaming.merge_reduce import StreamingCoresetPipeline
from repro.streaming.stream import DataStream
from repro.streaming.window import SlidingCountWindow, WindowedMergeReduceTree

import checks
from layers import LayerProbe
from memory import PeakMemory

#: Scratch directory for the memory-mapped input, inside the checkout.
WORK_DIR = Path(__file__).resolve().parents[1] / ".perfbench"

#: Weight-sum ratio bands (sum of coreset weights over represented points),
#: set from the spread over seeds: 0.978-1.019 (sd 0.011) over 24 static
#: builds, 0.968-1.023 (sd 0.019) over 9 pooled streams, 0.680-1.333
#: (sd 0.067) over 13,600 window queries from 25 seeds.  A window query's
#: ratio has a long tail (one more query read 1.439), so its band leaves
#: room beyond the observed extremes; doubled weights would still land
#: above it on 99.7% of those queries.
STATIC_BAND = (0.9, 1.1)
POOL_BAND = (0.85, 1.15)
WINDOW_BAND = (0.5, 1.6)

#: Dimension of every workload's input.
D = 10
#: Pool size and prefetch depth of ``stream-pool``, sized for a 2-core host.
WORKERS = 2
PREFETCH_BATCHES = 2
#: Drift threshold of ``stream-window``'s tree.
DRIFT_THRESHOLD = 0.25

#: Repetition index whose seeds the warm-up build uses (never a timed one).
WARM_UP = 2**31


def rep_seed(seed: int, index: int, *salt: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, index, *salt])


def resolve_kernels() -> None:
    """Resolve (load and verify) the compiled kernel tier afresh."""
    registry.refresh()
    registry.native_status()


@dataclass
class Rep:
    """One repetition's timings, outputs for the checks, and their verdict."""

    traced: bool
    seed: int = 0
    index: int = 0
    build_s: float = float("nan")
    solve_s: float = float("nan")
    solved_at: float = float("nan")
    solve_iterations: int = 0
    peak_bytes: int = 0
    rise_bytes: int = 0
    add_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: Dict[int, List[str]] = field(default_factory=dict)
    distortion: float = float("nan")
    coreset: Optional[Coreset] = None
    centers: Optional[np.ndarray] = None
    represented: float = 1.0
    layers: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, object] = field(default_factory=dict)

    def fail(self, op: int, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    def release(self) -> None:
        """Drop the outputs once they are checked."""
        self.coreset = self.centers = None
        self.outputs = {}


def merge_reduce_layers(compressions: float, diagnostics) -> Dict[str, float]:
    """The merge-&-reduce tree's counts: ``compressions`` is leaves plus reduces."""
    return {
        "merge_reduce.compressions": compressions,
        "merge_reduce.host_reduce_s": diagnostics.get("host_reduce_seconds", 0.0),
        "merge_reduce.cost_bound_reuse": (
            1.0 - diagnostics.get("cost_bound_refreshes", 0.0) / compressions if compressions else 0.0
        ),
        "merge_reduce.pending_high_water": diagnostics.get("pending_high_water", 0.0),
    }


def layer_metrics(probe: LayerProbe, rep: Rep, start: float, end: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition whose build ran in ``[start, end]``.

    Build layers sum the spans that started during the build; the k-means
    layers (seeding and Lloyd) also count the solve that follows it.
    """
    build_s = rep.build_s
    in_build = probe.self_times(start, end)
    whole = probe.self_times(start, rep.solved_at)
    counters = probe.recorder.counters()
    worker_fits = probe.worker_spans("quadtree.fit")
    busy = sum(probe.worker_spans("compress."))
    waits: Dict[str, float] = {}
    for layer, low, high, _ in probe.host_program_spans():
        if start <= low <= end:
            waits[layer] = waits.get(layer, 0.0) + high - low

    def seconds(name: str, table=in_build) -> float:
        return table.get(name, (0.0, 0))[0]

    def calls(name: str) -> float:
        return float(in_build.get(name, (0.0, 0))[1])

    metrics = {
        "validation.check_points.calls": calls("validation.check_points"),
        "spread_reduction.reduce_spread_s": seconds("spread_reduction.reduce_spread"),
        "spread_reduction.crude_bound_s": seconds("spread_reduction.crude_bound"),
        "spread_reduction.crude_bound.calls": calls("spread_reduction.crude_bound"),
        "quadtree.fit_s": seconds("quadtree.fit") + sum(worker_fits),
        "quadtree.fit.calls": calls("quadtree.fit") + len(worker_fits),
        "fast_kmeans_pp.self_s": seconds("fast_kmeans_pp"),
        "kmedian.cluster_representative_s": seconds("kmedian.cluster_representative"),
        "kmedian.cluster_representative.calls": calls("kmedian.cluster_representative"),
        "sensitivity.scores_s": seconds("sensitivity.scores"),
        "sensitivity.draw_s": seconds("sensitivity.draw"),
        "kmeans_pp.seed_s": seconds("kmeans_pp.seed", whole),
        "lloyd.kmeans_s": seconds("lloyd.kmeans", whole),
        "lloyd.iterations": float(rep.solve_iterations),
        "coreset.merge_s": seconds("coreset.merge"),
        "stream.read_s": seconds("stream.read"),
        "stream.wait_s": waits.get("stream.wait", 0.0),
        "merge_reduce.wait_s": waits.get("merge_reduce.wait", 0.0),
        "executor.tasks": float(probe.executor_tasks),
        "executor.submit_s": seconds("executor.submit"),
        "executor.worker_busy_s": busy,
        "executor.utilisation": busy / (workers * build_s) if workers else 0.0,
        "executor.failed": float(probe.executor_failed),
        "executor.retries": float(probe.executor_retries),
        "unattributed_s": build_s - probe.attributed_seconds(start, end),
    }
    for name in (
        "fastkpp.rounds",
        "fastkpp.level_score.native",
        "fastkpp.level_score.numpy",
        "fastkpp.draw.native",
        "fastkpp.draw.numpy",
        "crude_bound.probes.native",
        "crude_bound.probes.numpy",
    ):
        metrics[name] = counters.get(name, 0.0)
    return metrics


#: Stream-layer counts of a workload that runs no merge-&-reduce tree.
STREAM_LAYERS_BYPASSED: Dict[str, float] = {
    **merge_reduce_layers(0.0, {}),
    "window.blocks_expired": 0.0,
    "window.drift_events": 0.0,
    "window.query_reduces": 0.0,
}


class Workload(abc.ABC):
    """A named input and pipeline, set up once and repeated."""

    name: str
    n_points: int
    workers = 0

    def __init__(self) -> None:
        self.memory = PeakMemory()
        self.rows: Optional[checks.RowIndex] = None

    @abc.abstractmethod
    def setup(self, seed: int) -> None:
        """Generate the input, resolve the kernels, warm up; ends ready to time."""

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    @abc.abstractmethod
    def _run(self, rep: Rep, seed: int, index: int) -> Tuple[float, float, Dict[str, float]]:
        """Time one repetition into ``rep``.

        Returns the build's ``(start, end)`` clock readings and the
        workload's own layer counts for the traced run.
        """

    @abc.abstractmethod
    def check(self, rep: Rep) -> None:
        """Check the repetition's outputs, recording failures on ``rep``."""

    def repetition(self, seed: int, index: int, probe: Optional[LayerProbe]) -> Rep:
        rep = Rep(traced=probe is not None, seed=seed, index=index)
        try:
            with probe if probe is not None else nullcontext():
                start, end, counts = self._run(rep, seed, index)
        except Exception:  # a raising build is a failed operation, not a crash
            rep.fail(rep.attempted, traceback.format_exc(limit=3))
            rep.attempted = max(rep.attempted, 1)
            return rep
        if probe is not None:
            rep.layers.update(layer_metrics(probe, rep, start, end, self.workers))
            rep.layers.update(STREAM_LAYERS_BYPASSED)
            rep.layers.update(counts)
            rep.layers["quality.weight_sum_ratio"] = checks.weight_sum_ratio(rep.coreset, rep.represented)
            rep.layers["quality.ess_ratio"] = checks.ess_ratio(rep.coreset)
            rep.layers["quality.rss_bytes_per_point"] = rep.rise_bytes / self.n_points
        return rep

    def _solve(self, rep: Rep, coreset: Coreset, k: int, seed: int, index: int) -> None:
        started = time.perf_counter()
        result = lloyd.kmeans(
            coreset.points, min(k, coreset.size), weights=coreset.weights, seed=rep_seed(seed, index, 1)
        )
        rep.solved_at = time.perf_counter()
        rep.solve_s = rep.build_s + rep.solved_at - started
        rep.solve_iterations = result.iterations
        rep.coreset = coreset
        rep.centers = result.centers


class WholeInputWorkload(Workload):
    """A repetition is one build over the whole input, then one solve.

    Subclasses set ``size`` (the coreset size), ``band`` (the weight-sum
    band) and ``k``, and implement :meth:`_build`.  After the solve, the
    coreset answers ``queries - 1`` more k-means queries with other seeds
    (compress once, cluster many times); all of them are query latencies.
    Operation 0 is the build and operation ``1 + q`` is query ``q``, the
    solve being query 0.
    """

    size: int
    band: Tuple[float, float]
    k: int
    queries = 1

    @abc.abstractmethod
    def _build(self, seed) -> Tuple[Coreset, Optional[ExecutionDiagnostics]]:
        """One build; returns the coreset and the merge-&-reduce diagnostics, if any."""

    def _run(self, rep, seed, index):
        rep.attempted = 1 + self.queries
        self.memory.reset()
        started = time.perf_counter()
        coreset, diagnostics = self._build(rep_seed(seed, index))
        ended = time.perf_counter()
        rep.build_s = ended - started
        rep.peak_bytes, rep.rise_bytes = self.memory.read()
        self._solve(rep, coreset, self.k, seed, index)
        rep.add_ms.append(rep.build_s * 1e3)
        rep.query_ms.append((rep.solve_s - rep.build_s) * 1e3)
        answers = []
        for query in range(1, self.queries):
            asked = time.perf_counter()
            answer = lloyd.kmeans(
                coreset.points, min(self.k, coreset.size), weights=coreset.weights,
                seed=rep_seed(seed, index, 1, query),
            )
            rep.query_ms.append((time.perf_counter() - asked) * 1e3)
            answers.append(answer.centers)
        rep.outputs = {"answers": answers}
        rep.represented = float(self.n_points)
        if diagnostics is None:
            return started, ended, {}
        compressions = diagnostics["blocks_seen"] + diagnostics["reductions"]
        return started, ended, merge_reduce_layers(compressions, diagnostics)

    def check(self, rep: Rep) -> None:
        if rep.coreset is None:
            return
        if self.rows is None:
            self.rows = checks.RowIndex(np.asarray(self.points))
        failures = checks.check_coreset(
            rep.coreset, size=self.size, represented=rep.represented, weight_band=self.band,
            rows=self.rows, live=(0, self.n_points),
        )
        for message in failures:
            rep.fail(0, message)
        # The solve's centers are measured against the full input; the other
        # queries' (too many to measure) must be k finite points inside the
        # coreset's bounding box, as weighted means of coreset points are.
        rep.distortion, more = checks.distortion(self.rows.points, rep.coreset, rep.centers)
        for message in more:
            rep.fail(1, message)
        for query, centers in enumerate(rep.outputs["answers"], start=1):
            for message in checks.check_centers(centers, rep.coreset, min(self.k, rep.coreset.size)):
                rep.fail(1 + query, message)


class StaticWorkload(WholeInputWorkload):
    """One in-memory ``sample`` call on a Gaussian mixture, then k-means."""

    band = STATIC_BAND

    def __init__(
        self,
        name: str,
        sampler: Callable[[int], CoresetConstruction],
        *,
        n: int = 200_000,
        n_clusters: int = 50,
        k: int = 200,
        m: int = 8_000,
    ) -> None:
        super().__init__()
        self.name, self.sampler = name, sampler
        self.n_points, self.n_clusters, self.k, self.size = n, n_clusters, k, m

    def setup(self, seed: int) -> None:
        self.points = gaussian_mixture(
            n=self.n_points, d=D, n_clusters=self.n_clusters, seed=seed
        ).points
        resolve_kernels()
        warm, _ = self._build(rep_seed(seed, WARM_UP))
        lloyd.kmeans(warm.points, self.k, weights=warm.weights, seed=rep_seed(seed, WARM_UP, 1))
        self.rows = None

    def _build(self, seed):
        return self.sampler(self.k).sample(self.points, self.size, seed=seed), None


class PoolWorkload(WholeInputWorkload):
    """Merge-&-reduce over a memory-mapped file on a two-worker process pool."""

    name = "stream-pool"
    band = POOL_BAND
    workers = WORKERS
    #: A k=50 solve on the 2,000-point coreset takes about 7 ms; one per
    #: build would leave too few samples for steady query percentiles.  The
    #: first solve after a build runs slower, and at 32 per build those
    #: first solves stay below the 5% tail that p95 reads.
    queries = 32

    def __init__(
        self,
        *,
        n: int = 400_000,
        blocks: int = 64,
        k: int = 50,
        coreset_size: int = 2_000,
        warm_blocks: int = 16,
    ) -> None:
        super().__init__()
        self.n_points, self.blocks, self.k = n, blocks, k
        self.size, self.warm_blocks = coreset_size, warm_blocks
        self.executor: Optional[ProcessAsyncExecutor] = None
        self.path = WORK_DIR / f"stream-pool-{os.getpid()}.npy"

    def _pipeline(self, seed) -> StreamingCoresetPipeline:
        return StreamingCoresetPipeline(
            FastCoreset(k=self.k),
            coreset_size=self.size,
            seed=seed,
            executor=self.executor,
            prefetch_batches=PREFETCH_BATCHES,
        )

    def setup(self, seed: int) -> None:
        points = gaussian_mixture(n=self.n_points, d=D, seed=seed).points
        WORK_DIR.mkdir(exist_ok=True)
        np.save(self.path, points)
        del points
        self.points = np.load(self.path, mmap_mode="r")
        resolve_kernels()
        self.executor = ProcessAsyncExecutor(workers=WORKERS)
        self.executor.prepare()
        warm_rows = self.n_points * self.warm_blocks // self.blocks
        self._pipeline(rep_seed(seed, WARM_UP)).run(
            DataStream.with_block_count(self.points[:warm_rows], self.warm_blocks)
        )
        self.rows = None

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None
        self.points = None
        self.path.unlink(missing_ok=True)

    def _build(self, seed):
        pipeline = self._pipeline(seed)
        coreset = pipeline.run(DataStream.with_block_count(self.points, self.blocks))
        return coreset, pipeline.last_diagnostics


class WindowWorkload(Workload):
    """A sliding-window tree: one ``add_block`` then one ``query()`` per block."""

    name = "stream-window"

    def __init__(
        self,
        *,
        n: int = 80_000,
        n_clusters: int = 20,
        block_rows: int = 1_000,
        k: int = 10,
        coreset_size: int = 250,
        window: int = 16,
        warm_blocks: int = 32,
    ) -> None:
        super().__init__()
        self.n_points, self.n_clusters, self.block_rows = n, n_clusters, block_rows
        self.k, self.coreset_size, self.window, self.warm_blocks = k, coreset_size, window, warm_blocks
        self.n_blocks = n // block_rows

    def _tree(self, seed) -> WindowedMergeReduceTree:
        return WindowedMergeReduceTree(
            sampler=FastCoreset(k=self.k),
            coreset_size=self.coreset_size,
            window=SlidingCountWindow(self.window),
            drift_threshold=DRIFT_THRESHOLD,
            seed=seed,
        )

    def _block(self, index: int) -> np.ndarray:
        return self.points[index * self.block_rows : (index + 1) * self.block_rows]

    def setup(self, seed: int) -> None:
        data = drifting_mixture(n=self.n_points, d=D, n_clusters=self.n_clusters, seed=seed)
        self.points = data.points
        self.drift_block = int(data.parameters["drift_row"]) // self.block_rows
        resolve_kernels()
        tree = self._tree(rep_seed(seed, WARM_UP))
        for index in range(self.warm_blocks):
            tree.add_block(self._block(index))
            tree.query()
        self.rows = None

    def _run(self, rep, seed, index):
        tree = self._tree(rep_seed(seed, index))
        queries: List[Coreset] = []
        query_reduces = 0
        self.memory.reset()
        started = time.perf_counter()
        for block in range(self.n_blocks):
            rep.attempted += 2
            t0 = time.perf_counter()
            tree.add_block(self._block(block))
            t1 = time.perf_counter()
            reduces = tree.host_reduces
            queries.append(tree.query())
            t2 = time.perf_counter()
            query_reduces += tree.host_reduces - reduces
            rep.add_ms.append((t1 - t0) * 1e3)
            rep.query_ms.append((t2 - t1) * 1e3)
        ended = time.perf_counter()
        rep.build_s = (sum(rep.add_ms) + sum(rep.query_ms)) / 1e3
        rep.peak_bytes, rep.rise_bytes = self.memory.read()
        self._solve(rep, queries[-1], self.k, seed, index)
        start, stop = self._live(self.n_blocks - 1)
        rep.represented = float(stop - start)
        rep.outputs = {
            "queries": queries,
            "blocks_expired": tree.blocks_expired,
            "drift_events": tree.drift_events,
            "last_drift_block": tree.last_drift_block,
        }
        diagnostics = {
            "host_reduce_seconds": tree.host_reduce_seconds,
            "cost_bound_refreshes": float(tree.cost_bound_refreshes),
            "pending_high_water": float(tree.pending_high_water),
        }
        counts = merge_reduce_layers(float(tree.blocks_seen + tree.reductions), diagnostics)
        counts.update({
            "window.blocks_expired": float(tree.blocks_expired),
            "window.drift_events": float(tree.drift_events),
            "window.query_reduces": float(query_reduces),
        })
        return started, ended, counts

    def _live(self, block: int) -> Tuple[int, int]:
        """Input rows ``[start, stop)`` of the window after ``block`` arrived."""
        first = max(0, block - self.window + 1)
        return first * self.block_rows, (block + 1) * self.block_rows

    def check(self, rep: Rep) -> None:
        queries = rep.outputs.get("queries", [])
        if not queries:
            return
        if self.rows is None:
            self.rows = checks.RowIndex(self.points)
        distortions = []
        for block, coreset in enumerate(queries):
            start, stop = self._live(block)
            for message in checks.check_coreset(
                coreset, size=min(self.coreset_size, stop - start), represented=float(stop - start),
                weight_band=WINDOW_BAND, rows=self.rows, live=(start, stop),
            ):
                rep.fail(2 * block + 1, message)
            if block == len(queries) - 1:
                centers = rep.centers
            else:
                centers = lloyd.kmeans(
                    coreset.points, min(self.k, coreset.size), weights=coreset.weights,
                    seed=rep_seed(rep.seed, rep.index, 1, block),
                ).centers
            value, failures = checks.distortion(self.points[start:stop], coreset, centers)
            distortions.append(value)
            for message in failures:
                rep.fail(2 * block + 1, message)
        # The median over every query's solve: one final coreset of 250
        # points is too few for a steady figure.
        rep.distortion = float(np.median(distortions))
        last = 2 * len(queries) - 1
        expected_expired = self.n_blocks - self.window
        if rep.outputs["blocks_expired"] != expected_expired:
            rep.fail(last, f"blocks_expired {rep.outputs['blocks_expired']} != {expected_expired}")
        if rep.outputs["drift_events"] != 1 or rep.outputs["last_drift_block"] != self.drift_block:
            rep.fail(
                last,
                f"drift fired {rep.outputs['drift_events']} time(s), last in block "
                f"{rep.outputs['last_drift_block']}; expected once in block {self.drift_block}",
            )


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "fast-static": lambda: StaticWorkload("fast-static", lambda k: FastCoreset(k=k)),
    "sensitivity-static": lambda: StaticWorkload("sensitivity-static", lambda k: SensitivitySampling(k=k)),
    "stream-pool": PoolWorkload,
    "stream-window": WindowWorkload,
}
