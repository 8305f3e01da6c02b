# Developer entry points. Everything runs from the source tree (no install
# needed) by pointing PYTHONPATH at src/.

PY := PYTHONPATH=src python -m

.PHONY: test verify bench bench-smoke bench-ingest bench-concurrency \
        bench-caching bench-service bench-recovery bench-all check-floors check-regression \
        replay-smoke

test:            ## tier-1: the full unit/integration/property suite
	$(PY) pytest -x -q

# Tier-1 plus a deeper crash-recovery sweep: the crash-injection harness
# (tests/test_triples_wal.py) re-runs with many more randomized kill
# points than the default suite uses, so a durability regression that
# only bites at rare byte offsets still gets caught before shipping.
verify:          ## tier-1 + elevated crash-injection sweep
	$(PY) pytest -x -q
	CRASH_POINTS=400 $(PY) pytest -x -q tests/test_triples_wal.py

bench:           ## full benchmark harness (figures + claims), prints tables
	$(PY) pytest benchmarks/ --benchmark-only -q -s

# CI guard for the bench harness itself: the whole benchmarks/ tree on the
# small fixture (BENCH_SMOKE shrinks the query-planning and durability
# workloads and keeps the checked-in BENCH_*.json files untouched), so
# planner/bench code can't silently rot without anyone running the full
# harness.
bench-smoke:     ## quick benchmark pass on the small fixture
	BENCH_SMOKE=1 $(PY) pytest benchmarks/ --benchmark-only -q

# Regenerates BENCH_trim_ingest.json at full scale: durable ingest
# throughput (naive per-op commits vs bulk_ingest) and snapshot-load
# scratch memory (DOM reference vs the streaming pull parser).
bench-ingest:    ## full-scale bulk-ingest benchmark, rewrites its JSON
	$(PY) pytest benchmarks/test_claim_ingest.py --benchmark-only -q -s

# Regenerates BENCH_trim_concurrency.json at full scale: reader
# throughput during bulk ingest vs an idle store (snapshot-isolation
# read path), and rename cost at 10k vs 1k scraps on a concurrent store
# (in-place index writes).
bench-concurrency: ## full-scale concurrency benchmark, rewrites its JSON
	$(PY) pytest benchmarks/test_trim_concurrency.py --benchmark-only -q -s

# Regenerates BENCH_trim_caching.json at full scale: warm repeated
# selects/queries through the read cache vs the planner-only baseline,
# and the hit rate of selects between writes to other subjects.
bench-caching:   ## full-scale read-cache benchmark, rewrites its JSON
	$(PY) pytest benchmarks/test_trim_caching.py --benchmark-only -q -s

# Regenerates BENCH_trim_service.json at full scale: 16 TCP connections
# of zipfian writes through `python -m repro serve` (write-coalescing
# ratio + request latency under RETRY_AFTER backpressure), and the
# SIGTERM-during-load drain (zero lost acknowledged writes on reopen).
bench-service:   ## full-scale TRIM-service benchmark, rewrites its JSON
	$(PY) pytest benchmarks/test_trim_service.py --benchmark-only -q -s

# Regenerates BENCH_trim_recovery.json at full scale: v3 binary
# snapshot load vs WAL replay at 100k and 1M triples (median of five
# trials each), and cold tenant open p50/p99 through the registry
# (eviction compacts).
bench-recovery:  ## full-scale cold-start recovery benchmark, rewrites its JSON
	$(PY) pytest benchmarks/test_trim_recovery.py --benchmark-only -q -s

# Validates the committed BENCH_summary.json headline numbers against
# the floors the acceptance criteria promised (planner speedup, cached
# read ratio and hit rates) — see benchmarks/check_floors.py.
check-floors:    ## committed bench headlines >= their promised floors
	PYTHONPATH=src python benchmarks/check_floors.py

# The perf regression gate: every headline in the committed summary must
# sit within 15% of benchmarks/BENCH_baseline.json (the baseline recorded
# when the gate was introduced).  Re-baseline deliberately: copy the new
# summary over the baseline in the same PR that justifies the change.
check-regression: ## committed bench headlines within 15% of the baseline
	PYTHONPATH=src python benchmarks/check_floors.py \
	    --baseline benchmarks/BENCH_baseline.json --tolerance 0.15

# The deterministic-replay smoke: captures one bundle of the WAL-kill
# crash family and replays it twice — both replays must recover to the
# byte-identical state the capture recorded.  This is the fast
# end-to-end pass; tests/test_replay.py holds the full matrix.
replay-smoke:    ## capture + doubly-replay one WAL-kill bundle
	$(PY) repro replay record --scenario wal-kill --out /tmp/replay-wal.json
	$(PY) repro replay run /tmp/replay-wal.json

# Re-runs every TRIM benchmark module (benchmarks/test_trim_*.py) at
# full scale — each rewrites its own BENCH_trim_*.json trajectory file —
# then folds all trajectory files found into BENCH_summary.json
# (one headline block per bench; see benchmarks/aggregate.py).
bench-all:       ## all TRIM benches at full scale + BENCH_summary.json
	$(PY) pytest $(wildcard benchmarks/test_trim_*.py) --benchmark-only -q -s
	PYTHONPATH=src python benchmarks/aggregate.py
