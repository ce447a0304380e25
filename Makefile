DUNE ?= dune

# Seeded smoke campaign: fault injection + retry + a tight SAT budget +
# a 2-config solver portfolio, so the quarantine/retry/fault/portfolio
# counters are exercised on every check.
SMOKE = campaign --template A --setup mct-vs-mspec -p 6 -k 4 --seed 2021 \
	--fault-rate 0.1 --fault-seed 7 --max-attempts 3 --max-conflicts 100 \
	--portfolio 2

.PHONY: all build test smoke check bench bench-smoke chaos-smoke metrics-smoke solver-smoke serve-smoke diff-smoke perf-check perf-golden service-perf-check clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

smoke: build
	$(DUNE) exec bin/scamv_cli.exe -- $(SMOKE)
	$(DUNE) exec bin/scamv_cli.exe -- $(SMOKE) --jobs 4

check: build test smoke

bench:
	$(DUNE) exec bench/main.exe

# Small multicore campaign benchmark: times the same seeded campaign at
# --jobs 1/2/4 plus the solver microbenchmark (blast/solve/enumerate in
# isolation), writes BENCH_campaign.json, and validates the emitted schema
# (cross-checking that statistics are identical across job counts).
bench-smoke: build
	$(DUNE) exec bench/main.exe -- solver
	$(DUNE) exec bench/main.exe -- campaign --smoke --out BENCH_campaign.smoke.json
	$(DUNE) exec bench/main.exe -- validate-bench BENCH_campaign.smoke.json

# Supervision acceptance: SIGKILL a journaled campaign mid-flight, tear
# the journal tail, and require the resumed run to match an uninterrupted
# one byte for byte; then require chaos worker-kill and virtual-deadline
# campaigns to stay byte-identical across --jobs levels.
chaos-smoke: build
	$(DUNE) exec bench/main.exe -- chaos --smoke

# Solver smoke: the phase-isolated solver microbenchmark plus the
# deterministic portfolio race, then the incremental-vs-fresh identity
# check (a staged make_session + extend session must enumerate byte-for-
# byte the same models as a fresh session asserting everything at once).
solver-smoke: build
	$(DUNE) exec bench/main.exe -- solver
	$(DUNE) exec bench/main.exe -- solver-identity

# Validation-service acceptance: boot an in-process HTTP server and check
# the full surface — two tenants submitting and streaming concurrently
# (both streams byte-identical to batch Campaign.run), byte-identity
# across --concurrency {1,2,4} x --jobs {1,2} servers, HTTP keep-alive
# reuse witnessed by the server's own counters, quota 429 backpressure
# plus queued-campaign cancellation over the wire, and SIGKILL of a
# --concurrency 2 server with two campaigns mid-flight followed by a
# --resume restart that completes both byte-identically.  Then a small
# load run (two client mixes + the concurrency-scaling sweep) writes the
# latency/throughput report.
serve-smoke: build
	$(DUNE) exec bench/main.exe -- service --smoke --out BENCH_service.smoke.json

# Cross-ISA acceptance: the same frozen-clock differential campaign at
# --jobs 1 and --jobs 2 must print identical divergence reports and
# write identical journals — diff output is a pure function of
# (template, setup, seed), never of the schedule.
DIFF_SMOKE = diff --template A --setup mct-vs-mspec -p 6 -k 4 --seed 2021 \
	--max-conflicts 200 --frozen-clock

diff-smoke: build
	$(DUNE) exec bin/scamv_cli.exe -- $(DIFF_SMOKE) --jobs 1 \
		--csv diff.smoke.j1.csv > diff.smoke.j1.out
	$(DUNE) exec bin/scamv_cli.exe -- $(DIFF_SMOKE) --jobs 2 \
		--csv diff.smoke.j2.csv > diff.smoke.j2.out
	cmp diff.smoke.j1.csv diff.smoke.j2.csv
	sed 's/diff\.smoke\.j[12]\.csv/JOURNAL/' diff.smoke.j1.out > diff.smoke.j1.norm
	sed 's/diff\.smoke\.j[12]\.csv/JOURNAL/' diff.smoke.j2.out > diff.smoke.j2.norm
	cmp diff.smoke.j1.norm diff.smoke.j2.norm

# Perf regression gate: re-run the committed campaign benchmark (same
# deterministic seed and size — the "full" config is itself smoke-scale,
# a few seconds end to end) and fail if the fresh jobs=1 generation-phase
# time is more than 25% above the committed BENCH_campaign.json.
perf-check: build
	$(DUNE) exec bench/main.exe -- campaign --out BENCH_campaign.perfcheck.json
	$(DUNE) exec bench/main.exe -- compare-bench BENCH_campaign.json BENCH_campaign.perfcheck.json

# Search-identity gate: the default-seed work counts of every benchmark
# workload (verdicts, uarch counts, SAT conflicts, propagations and
# queries) must equal perfbench/expected.json exactly, so a solver change
# that only makes each step cheaper cannot silently change the search.
PERF_WORKLOADS = refined-a unguided-c-rv64 served-small

perf-golden: build
	@for w in $(PERF_WORKLOADS); do \
		out=$$(_build/default/perfbench/scamv_perf.exe golden --workload $$w) || exit 1; \
		if grep -qF "\"$$w\": $$out" perfbench/expected.json; then \
			echo "perf-golden $$w: ok"; \
		else \
			echo "perf-golden $$w: got $$out, expected.json differs" >&2; exit 1; \
		fi; \
	done

# Telemetry round trip: run a small parallel campaign with --trace and
# --metrics, then check both files parse and carry the expected spans and
# metric families; then dump /metrics from a live --concurrency 2 server
# and check the service/scheduler families (pre-registered counters,
# connection gauges, slice widths) are all exported.
metrics-smoke: build
	$(DUNE) exec bin/scamv_cli.exe -- $(SMOKE) --jobs 2 \
		--trace trace.smoke.json --metrics metrics.smoke.txt
	$(DUNE) exec bench/main.exe -- service-metrics --out metrics.service.smoke.txt
	$(DUNE) exec bench/main.exe -- validate-telemetry trace.smoke.json \
		metrics.smoke.txt metrics.service.smoke.txt

# Service perf regression gate: re-run the load generator (suite skipped)
# and fail if the fresh concurrency-1 throughput drops below half the
# committed BENCH_service.json, or p95 latency more than doubles.  Bounds
# are loose on purpose: service numbers ride on threads and loopback TCP.
service-perf-check: build
	$(DUNE) exec bench/main.exe -- service --load-only \
		--out BENCH_service.perfcheck.json
	$(DUNE) exec bench/main.exe -- compare-service BENCH_service.json \
		BENCH_service.perfcheck.json

clean:
	$(DUNE) clean
