# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src); no install step is required.

PYTHON ?= python
BENCH_PROFILE ?= smoke
# Gate at 2.5x the baseline: on the machine that recorded it, best-of-pass
# smoke medians repeat within about 1.2x (up to 2.1x when the whole run
# falls in one of the host's slow phases), and a CDP kernel whose DP is
# made 3x slower reads 2.75-3x.  CI runners differ from that machine,
# so CI allows 3x.
BENCH_TOLERANCE ?= 1.5
BASELINE := benchmarks/BENCH_baseline.json

.PHONY: test bench bench-check bench-baseline lint

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

## Run the perf harness and print the table (no gating).
bench:
	PYTHONPATH=src $(PYTHON) -m repro bench --profile $(BENCH_PROFILE) \
		--output BENCH_core.json

## Run the perf harness and gate against the committed baseline —
## what the CI perf-smoke job does.
bench-check:
	PYTHONPATH=src $(PYTHON) -m repro bench --profile $(BENCH_PROFILE) \
		--output BENCH_core.json \
		--baseline $(BASELINE) --tolerance $(BENCH_TOLERANCE)

## Refresh the committed baseline (run on a quiet machine, then commit).
bench-baseline:
	PYTHONPATH=src $(PYTHON) -m repro bench --profile $(BENCH_PROFILE) \
		--output $(BASELINE)

lint:
	ruff check src tests benchmarks
