# Developer entry points.  `make test` is the tier-1 gate (includes the
# slow-marked bench-check smoke); `make test-parallel` runs only the
# process-pool / shared-memory tests (marked `parallel`; deselect them with
# `-m "not parallel"` on runners without working multiprocessing); `make
# bench` refreshes the hot-path perf trajectory and fails (without
# overwriting BENCH_hotpaths.json) when any tracked workload regressed by
# more than 20%; `make bench-check` replays the tracked workloads at the
# same best-of-3 timing used at record time (a best-of-1 replay against a
# best-of-3 recording is systematically slower and flaps the 20% gate on
# noisy hosts) and fails on the same >20% regression guard without ever
# rewriting the JSON; `make bench-check-serial` replays only the
# serial-component workloads (the strict CI gate — pool-backed rows are
# core-count-bound and stay advisory).

# `make trace-smoke` runs a small `compress --trace` end to end and
# validates the exported Chrome trace-event JSON (cheap CI blocking step).

PYTHON ?= python

.PHONY: test test-fast test-parallel bench bench-check bench-check-serial \
	trace-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m "not slow"

test-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m parallel

bench:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_hotpaths.py --check-regression

bench-check:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_hotpaths.py --check-only

bench-check-serial:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_perf_hotpaths.py --check-only --serial-only

trace-smoke:
	PYTHONPATH=src $(PYTHON) scripts/trace_smoke.py
