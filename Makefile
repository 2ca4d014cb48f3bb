# Convenience targets for the reproduction.

PY ?= python3
# Extra pytest flags for bench-smoke; CI passes --timeout=... here
# (requires pytest-timeout, which is not a local dependency).
BENCH_SMOKE_FLAGS ?=
# Same pattern for the fault sweep.
FAULT_SWEEP_FLAGS ?=
# Line-coverage floor for `make coverage`, one point below the measured
# value (94.8%, 10 097 of 10 650 lines, via tools/linecov.py) so genuine
# regressions fail while run-to-run noise does not.  pytest-cov (CI) and
# tools/linecov.py (the local fallback) agree to within about a point;
# see tools/linecov.py.
COV_FLOOR ?= 93.8

.PHONY: install test test-fast coverage bench bench-smoke bench-pairs heap fault-sweep oracle corpus examples monitor-demo verify clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

test-fast:
	$(PY) -m pytest -m "not slow" tests/

coverage:
	@if $(PY) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PY) -m pytest --cov=repro --cov-report=term --cov-fail-under=$(COV_FLOOR) tests/; \
	else \
		echo "pytest-cov not installed; using tools/linecov.py fallback"; \
		$(PY) tools/linecov.py --fail-under $(COV_FLOOR); \
	fi

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	STATE_SCALING_SMOKE=1 $(PY) -m pytest benchmarks/test_state_scaling.py "benchmarks/test_run_once_cost.py::test_pipelined_epoch_throughput" benchmarks/test_fig7_continuous_latency.py --benchmark-only -q $(BENCH_SMOKE_FLAGS)
	@echo "consolidated results: benchmarks/results/bench_latest.json"

# Ten interleaved parent/change pairs of one bench/ workload, judged by
# bench/README.md's claim rule: make bench-pairs W=cdc_join_agg BASE=<sha>
# checks BASE out and copies this checkout (tracked files as modified,
# plus untracked ones not ignored) beside it in one temporary directory,
# and runs both sides from there: never checkout against worktree.
N ?= 10
bench-pairs:
	$(PY) tools/bench_pairs.py --workload $(W) --base $(BASE) --pairs $(N)

# Live heap of one bench/ workload by src/repro module, at the end of
# set-up, of the window and of the harness's correctness check, with the
# tracemalloc peak over each, each state handle's keys, rows, deep
# bytes and join-side layout, and the window's epoch working set (peak above the epoch's
# starting live bytes, and the operator call that reached it):
# make heap W=cdc_join_agg [BLOCKS=14]
# [ROOT=<another checkout, e.g. a copy of the parent>]
ROOT ?= .
BLOCKS ?= 3
heap:
	$(PY) tools/heap_by_layer.py --workload $(W) --root $(ROOT) --blocks $(BLOCKS)

# The fault sweep, plus the mode-equivalence test over the same golden
# runs (tests/conftest.py's session `matrix`, measured once).
fault-sweep:
	$(PY) -m pytest tests/test_fault_sweep.py tests/test_mode_equivalence.py tests/test_fault_injection.py -q $(FAULT_SWEEP_FLAGS)

# The differential-oracle and durability property suites on their own;
# HYPOTHESIS_PROFILE=dev|ci|nightly (tests/conftest.py) sets how hard
# they search — CI's scheduled oracle-nightly job runs `nightly`.
oracle:
	$(PY) -m pytest tests/test_property_based.py tests/test_property_based_extra.py tests/test_state_durability.py tests/test_engine_equivalence.py tests/test_join_bulk.py tests/test_join_layouts.py tests/test_dedup_bulk.py tests/test_join_checkpoint_text.py -q

# Write one label of the checkpoint-compatibility corpus
# (tests/checkpoint_scenarios.py) with this checkout's tree, after a
# deliberate state-format bump: make corpus LABEL=<name>.  An older
# tree writes its label with PYTHONPATH=<its checkout>/src on
# tools/checkpoint_corpus.py (docs/state_store.md, Compatibility corpus).
corpus:
	$(PY) tools/checkpoint_corpus.py write $(LABEL)

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PY) $$f > /dev/null || exit 1; done
	@echo "all examples ran"

monitor-demo:
	$(PY) examples/observability_demo.py

verify: test bench examples

clean:
	rm -rf .pytest_cache benchmarks/results src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
