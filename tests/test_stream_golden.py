"""Golden digests: the default streaming pipeline's bytes are pinned.

Every default-configured :class:`~repro.streaming.StreamingCoresetPipeline`
run below hashes its coreset (points, then weights) with sha256 and compares
against a digest recorded from an earlier revision.  Refactors of the
merge-&-reduce tree — its hint caches, its carry chains, its overlap
machinery — must keep every digest, in both kernel-tier dispatch modes.
The same holds for the spawn-keyed batch entry points (a named executor
without prefetch, ``MergeReduceTree.add_blocks`` with no executor) and for
the sharded builder's final re-compression.

The input has a wide early phase and a narrow later phase, so the sliding
window sees its bounding box shrink once the wide blocks expire and the
shrinking-box refresh of the hint caches takes part in the pinned bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.core import FastCoreset
from repro.data.synthetic import gaussian_mixture
from repro.native import use_native
from repro.parallel import ShardedCoresetBuilder, ThreadAsyncExecutor
from repro.streaming import (
    DataStream,
    ExponentialDecay,
    MergeReduceTree,
    SlidingCountWindow,
    StreamingCoresetPipeline,
)

BLOCK_SIZE = 200
CORESET_SIZE = 100
#: Blocks per ``add_blocks`` call of the ``tree-add-blocks`` mode.
TREE_BATCH = 3

# Per mode: sha256 of ``points.tobytes() + weights.tobytes()`` (identical
# under the compiled kernel tier and the numpy fallbacks) and the number of
# hint-cache refreshes.  The sliding window refreshes a second time when the
# wide blocks expire; the append-only tree never sees its box shrink.
GOLDEN = {
    "serial": ("78452d26704a276d3174e0415bf02cba34461bfbb7d267f0fb46d84efe3cf168", 1),
    # The three spawn-keyed modes share one digest: batching and backend
    # never reach the bytes.
    "serial-executor": ("de998e72b1ab383b48c68fd57f0073e6f2b83dd7a6be66366e5bbc09de0c49ca", 1),
    "thread-async": ("de998e72b1ab383b48c68fd57f0073e6f2b83dd7a6be66366e5bbc09de0c49ca", 1),
    "tree-add-blocks": ("de998e72b1ab383b48c68fd57f0073e6f2b83dd7a6be66366e5bbc09de0c49ca", 1),
    "window-decay": ("b63621fd9be6c12a645fc5561960942b59d334cc5109521ef692b90a151289f4", 1),
    "window-sliding": ("72c7d660b629d2e00447bd396e37ec7f9079f12c4540acaa1e5b31078a6a46f0", 2),
    "window-sliding-async": (
        "ae84bc067b9c5b26fc5a530750d251cfe488f076bae5d887be9135b9799828a8",
        2,
    ),
    "window-sliding-serial-executor": (
        "ae84bc067b9c5b26fc5a530750d251cfe488f076bae5d887be9135b9799828a8",
        2,
    ),
}

#: Sharded build (4 shards of 100 points, final re-compression to 150) per
#: backend name; one digest, since the backend never reaches the bytes.
SHARDED_GOLDEN = {
    "serial": "b690b7ed1aaefbad02a2b3c37875cc56dbbcce0b0f51dbc9f9fc7fc0b5aa8539",
    "thread": "b690b7ed1aaefbad02a2b3c37875cc56dbbcce0b0f51dbc9f9fc7fc0b5aa8539",
}


def golden_points() -> np.ndarray:
    points = gaussian_mixture(n=3200, d=5, n_clusters=6, gamma=0.0, seed=13).points
    points = points[np.random.default_rng(1).permutation(points.shape[0])]
    points[:800] *= 20.0  # four wide blocks, then twelve narrow ones
    return points


def run_tree_batches(points: np.ndarray):
    """Feed a spawn-keyed tree ``TREE_BATCH`` blocks per ``add_blocks`` call."""
    tree = MergeReduceTree(
        sampler=FastCoreset(k=5, seed=0), coreset_size=CORESET_SIZE, seed=17, spawn_seeds=True
    )
    blocks = [
        (points[start : start + BLOCK_SIZE], None)
        for start in range(0, points.shape[0], BLOCK_SIZE)
    ]
    for start in range(0, len(blocks), TREE_BATCH):
        tree.add_blocks(blocks[start : start + TREE_BATCH], executor=None)
    coreset = tree.finalize()
    diagnostics = {
        "spread_refreshes": tree.spread_refreshes,
        "cost_bound_refreshes": tree.cost_bound_refreshes,
    }
    return coreset, diagnostics


def run_mode(mode: str, points: np.ndarray):
    """Run the default pipeline in ``mode``; returns ``(coreset, diagnostics)``."""
    if mode == "tree-add-blocks":
        return run_tree_batches(points)
    window = None
    if mode.startswith("window-sliding"):
        window = SlidingCountWindow(4)
    elif mode == "window-decay":
        window = ExponentialDecay(3.0)
    executor = ThreadAsyncExecutor(workers=2) if mode.endswith("async") else None
    if mode.endswith("serial-executor"):
        executor = "serial"
    pipeline = StreamingCoresetPipeline(
        sampler=FastCoreset(k=5, seed=0),
        coreset_size=CORESET_SIZE,
        seed=17,
        executor=executor,
        window=window,
    )
    try:
        coreset = pipeline.run(DataStream(points=points, block_size=BLOCK_SIZE))
    finally:
        if isinstance(executor, ThreadAsyncExecutor):
            executor.close()
    return coreset, pipeline.last_diagnostics


def digest(coreset) -> str:
    return hashlib.sha256(coreset.points.tobytes() + coreset.weights.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def points():
    return golden_points()


@pytest.mark.parametrize("native", [True, False], ids=["native", "fallback"])
@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_default_pipeline_bytes_are_pinned(points, mode, native):
    with use_native(native):
        coreset, diagnostics = run_mode(mode, points)
    expected_digest, refreshes = GOLDEN[mode]
    assert digest(coreset) == expected_digest, mode
    assert diagnostics["spread_refreshes"] == refreshes
    assert diagnostics["cost_bound_refreshes"] == refreshes
    if mode == "thread-async":
        # Every reduce but the final re-compression rode the pool.
        assert diagnostics["reduces_offloaded"] > 0
        assert diagnostics["host_reduces"] <= 1
        assert diagnostics["pending_high_water"] > 0


@pytest.mark.parametrize("native", [True, False], ids=["native", "fallback"])
@pytest.mark.parametrize("backend", sorted(SHARDED_GOLDEN))
def test_sharded_final_reduce_bytes_are_pinned(points, backend, native):
    builder = ShardedCoresetBuilder(
        FastCoreset(k=5, seed=0),
        n_shards=4,
        coreset_size_per_shard=CORESET_SIZE,
        final_coreset_size=150,
        seed=17,
    )
    with use_native(native):
        build = builder.build(points, executor=backend)
    assert build.coreset.size == 150
    assert digest(build.coreset) == SHARDED_GOLDEN[backend]
