"""Outside-in layer attribution for the traced benchmark run.

A :class:`LayerProbe` replaces a fixed list of the library's public
functions with timing wrappers *where their callers look them up* (the
module attribute a caller imported, or the class attribute of a method),
records one span per call with a link to its parent span, and puts every
original back on exit.  Nothing in the library changes; the untraced run
never installs a wrapper.

While the probe is active the library's own tracer
(``repro.observability.tracing()``) is switched on as well, so its
counters and the worker-side ``compress.*`` spans shipped back from the
process pool are collected next to the wrapper spans.

A span's *self time* is its duration minus the durations of its direct
children.  Every ``*_s`` layer metric below is a self time summed over one
build, so nested layers are never counted twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import observability
from repro.core.coreset import merge_coresets
from repro.core.sensitivity import sample_by_scores, sensitivity_scores
from repro.core.spread_reduction import crude_cost_upper_bound, reduce_spread
from repro.clustering.fast_kmeans_pp import fast_kmeans_plus_plus
from repro.clustering.kmeans_pp import kmeans_plus_plus
from repro.clustering.kmedian import cluster_representative
from repro.clustering.lloyd import kmeans
from repro.geometry.quadtree import QuadtreeEmbedding
from repro.parallel.executor import AsyncExecutor
from repro.streaming.stream import DataStream
from repro.utils.validation import check_points

#: (span name, public function) pairs wrapped in every ``repro.*`` module
#: that imported the function under this name.
FUNCTIONS: Tuple[Tuple[str, Callable], ...] = (
    ("validation.check_points", check_points),
    ("spread_reduction.reduce_spread", reduce_spread),
    ("spread_reduction.crude_bound", crude_cost_upper_bound),
    ("fast_kmeans_pp", fast_kmeans_plus_plus),
    ("kmedian.cluster_representative", cluster_representative),
    ("sensitivity.scores", sensitivity_scores),
    ("sensitivity.draw", sample_by_scores),
    ("kmeans_pp.seed", kmeans_plus_plus),
    ("lloyd.kmeans", kmeans),
    ("coreset.merge", merge_coresets),
)


#: Host-side spans the library records itself that count as layer time:
#: the merge-&-reduce tree waiting on pool results, and the consumer
#: waiting on the prefetch reader.
PROGRAM_WAIT_SPANS = {"stream.pending_wait": "merge_reduce.wait", "stream.prefetch_wait": "stream.wait"}


@dataclass
class Span:
    ident: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class LayerProbe:
    """Install the wrappers and the library tracer for one traced build."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.executor_tasks = 0
        self.executor_failed = 0
        self.executor_retries = 0
        self._submitted: Dict[int, object] = {}  # id -> task, kept alive so ids stay unique
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self._tracing = None
        self.recorder = None

    # -- wrapping -----------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, original: Callable) -> Callable:
        probe = self

        def wrapper(*args, **kwargs):
            stack = probe._stack()
            ident = next(probe._ids)
            parent = stack[-1] if stack else None
            stack.append(ident)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                probe.spans.append(
                    Span(ident, parent, name, start, end, threading.get_ident())
                )

        return wrapper

    def _submit_many(self, original: Callable) -> Callable:
        timed = self._timed("executor.submit", original)
        probe = self

        def _count_failure(future) -> None:
            if future.exception() is not None:
                with probe._lock:
                    probe.executor_failed += 1

        def wrapper(executor, fn, tasks, **kwargs):
            tasks = list(tasks)
            futures = timed(executor, fn, tasks, **kwargs)
            with probe._lock:
                probe.executor_tasks += len(tasks)
                # A retry resubmits a task object this build already submitted.
                probe.executor_retries += sum(id(task) in probe._submitted for task in tasks)
                probe._submitted.update((id(task), task) for task in tasks)
            for future in futures:
                future.add_done_callback(_count_failure)
            return futures

        return wrapper

    def _stream_iter(self, original: Callable) -> Callable:
        probe = self

        def wrapper(stream):
            iterator = original(stream)
            while True:
                start = time.perf_counter()
                try:
                    block = next(iterator)
                except StopIteration:
                    return
                finally:
                    probe.spans.append(
                        Span(next(probe._ids), None, "stream.read", start,
                             time.perf_counter(), threading.get_ident())
                    )
                yield block

        return wrapper

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "LayerProbe":
        for name, function in FUNCTIONS:
            wrapper = self._timed(name, function)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, function.__name__, None) is function:
                    self._patch(module, function.__name__, wrapper)
        self._patch(QuadtreeEmbedding, "fit", self._timed("quadtree.fit", QuadtreeEmbedding.fit))
        self._patch(AsyncExecutor, "submit_many", self._submit_many(AsyncExecutor.submit_many))
        self._patch(DataStream, "__iter__", self._stream_iter(DataStream.__iter__))
        self._tracing = observability.tracing()
        self.recorder = self._tracing.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracing.__exit__(*exc_info)
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- attribution ----------------------------------------------------------
    def self_times(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> Dict[str, Tuple[float, int]]:
        """``{span name: (summed self seconds, calls)}`` of the wrapper spans
        that started inside ``[start, end]``."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        totals: Dict[str, Tuple[float, int]] = {}
        for span in self.spans:
            if not start <= span.start <= end:
                continue
            seconds, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (seconds + span.duration - child_time.get(span.ident, 0.0), calls + 1)
        return totals

    def host_program_spans(self) -> List[Tuple[str, float, float, int]]:
        """The library's own host-side wait spans as ``(layer, start, end, tid)``."""
        host = self.recorder.pid
        return [
            (PROGRAM_WAIT_SPANS[record.name], record.start, record.start + record.duration, record.tid)
            for record in self.recorder.spans
            if record.pid == host and record.name in PROGRAM_WAIT_SPANS
        ]

    def worker_spans(self, prefix: str) -> List[float]:
        """Durations of worker-side library spans whose name starts with ``prefix``."""
        host = self.recorder.pid
        return [
            record.duration
            for record in self.recorder.spans
            if record.pid != host and record.name.startswith(prefix)
        ]

    def attributed_seconds(self, start: float, end: float) -> float:
        """Main-thread time inside ``[start, end]`` covered by any layer span."""
        main = threading.main_thread().ident
        intervals = [
            (max(span.start, start), min(span.end, end))
            for span in self.spans
            if span.thread == main and span.parent is None
        ]
        intervals += [
            (max(s, start), min(e, end))
            for _, s, e, tid in self.host_program_spans()
            if tid == main
        ]
        covered = 0.0
        reach = start
        for low, high in sorted(i for i in intervals if i[0] < i[1]):
            if high <= reach:
                continue
            covered += high - max(low, reach)
            reach = high
        return covered
