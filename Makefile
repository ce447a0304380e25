DUNE ?= dune

# Seeded smoke campaign: fault injection + retry + a tight SAT budget +
# a 2-config solver portfolio, so the quarantine/retry/fault/portfolio
# counters are exercised on every check, on both guest ISAs.
SMOKE = campaign --template A --setup mct-vs-mspec -p 6 -k 4 --seed 2021 \
	--fault-rate 0.1 --fault-seed 7 --max-attempts 3 --max-conflicts 100 \
	--portfolio 2

.PHONY: all build test smoke check bench repro-golden chaos-smoke metrics-smoke solver-smoke serve-smoke diff-smoke perf-check perf-golden service-perf-check clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

# $(call smoke_run,NAME,FLAGS): run the smoke campaign, print its output,
# and keep what must not depend on --jobs in NAME.counts: the table row's
# count columns (programs .. faults) and the uarch line.  The timing
# columns stay out: the campaign command runs on the wall clock.
smoke_run = $(DUNE) exec bin/scamv_cli.exe -- $(SMOKE) $(2) > $(1).out && cat $(1).out \
	&& test "$$(grep -c '^|' $(1).out)" = 2 \
	&& { grep '^|' $(1).out | tail -n 1 | cut -d'|' -f3-12; grep '^uarch:' $(1).out; } > $(1).counts

# Then the catalogue commands on both ISAs, with a partition setup and a
# refined one.  An out-of-range count, an unwritable --csv path (here a
# directory) and a --resume checkpoint that is a plain CSV rather than a
# framed journal must be usage errors (exit 124) rather than crashes (125).
# So must `serve` on a state dir holding a campaign log without --resume,
# and with --resume on one whose campaigns.log is not a campaign log or
# that holds files but no log (a dir an earlier build wrote).  Those run
# under `timeout -s KILL`, so a server that starts serving fails with 137
# instead of hanging.
smoke: build
	$(call smoke_run,smoke.a64.j1,--jobs 1)
	$(call smoke_run,smoke.a64.j4,--jobs 4)
	cmp smoke.a64.j1.counts smoke.a64.j4.counts
	$(call smoke_run,smoke.rv64.j1,--isa riscv --jobs 1)
	$(call smoke_run,smoke.rv64.j4,--isa riscv --jobs 4)
	cmp smoke.rv64.j1.counts smoke.rv64.j4.counts
	$(DUNE) exec bin/scamv_cli.exe -- models > /dev/null
	for isa in aarch64 riscv; do for setup in mpart-unguided mct-vs-mspec; do \
		$(DUNE) exec bin/scamv_cli.exe -- show --isa $$isa -t C -m $$setup \
			> /dev/null || exit 1; done; done
	$(DUNE) exec bin/scamv_cli.exe -- campaign --programs=0 2> /dev/null; \
		test $$? = 124
	$(DUNE) exec bin/scamv_cli.exe -- campaign -p 2 -k 2 --csv . 2> /dev/null; \
		test $$? = 124
	printf 'campaign,kind\nx,bogus\n' > smoke.resume.csv
	$(DUNE) exec bin/scamv_cli.exe -- campaign -p 2 -k 2 --resume smoke.resume.csv \
		2> /dev/null; test $$? = 124
	rm -rf smoke.state.log smoke.state.old && mkdir smoke.state.log smoke.state.old
	printf 'scamv-campaigns v1\n' > smoke.state.log/campaigns.log
	timeout -s KILL 10 _build/default/bin/scamv_cli.exe serve --port 0 \
		--state-dir smoke.state.log > /dev/null 2>&1; test $$? = 124
	printf 'not a campaign log\n' > smoke.state.log/campaigns.log
	timeout -s KILL 10 _build/default/bin/scamv_cli.exe serve --port 0 \
		--state-dir smoke.state.log --resume > /dev/null 2>&1; test $$? = 124
	printf '{}' > smoke.state.old/a-0.meta.json
	timeout -s KILL 10 _build/default/bin/scamv_cli.exe serve --port 0 \
		--state-dir smoke.state.old --resume > /dev/null 2>&1; test $$? = 124

check: build test smoke

bench:
	$(DUNE) exec bench/main.exe

# Paper-results golden: the scaled-down Table 1, Fig. 7, Fig. 3,
# ablation, model-repair and channel tables must print exactly the count
# cells of bench/repro.expected.  The filter keeps every count cell and drops what
# runs on the wall clock: the table separators, the avg gen / avg exe /
# T.T.C. columns (fields 13-15 of a campaign row) and the two timed
# ablation tables (projection, path split).  Then one row is rerun as the
# CLI command it names, and its count cells must equal the bench row's.
# A change that moves a row regenerates the expected file (and
# EXPERIMENTS.md) from repro.golden.counts.
REPRO_ROW = campaign --template stride --setup "mpart-vs-mpart'" -p 30 -k 30
repro_cells = grep -F "$(1)" $(2) | cut -d'|' -f3-12 | tr -d ' '

repro-golden: build
	_build/default/bench/main.exe table1 fig7 fig3 ablations repair channels \
		> repro.golden.out
	awk -F'|' '/^## / { skip = /projection|per-path-pair/ } \
		skip || /^\+/ { next } \
		NF == 17 { s = $$1; for (i = 2; i <= NF; i++) if (i < 13 || i > 15) s = s "|" $$i; \
			print s; next } \
		{ print }' repro.golden.out > repro.golden.counts
	diff -u bench/repro.expected repro.golden.counts
	$(DUNE) exec bin/scamv_cli.exe -- $(REPRO_ROW) > repro.cli.out
	$(call repro_cells,| mpart-vs-mpart' on template stride,repro.cli.out) > repro.cli.counts
	$(call repro_cells,| Mpart + Mpart' (Mpc&Mline),repro.golden.out) > repro.bench.counts
	test -s repro.cli.counts
	cmp repro.cli.counts repro.bench.counts

# Supervision acceptance: SIGKILL a journaled campaign mid-flight, tear
# the journal tail, and require the resumed run to match an uninterrupted
# one byte for byte; then require chaos worker-kill and virtual-deadline
# campaigns to stay byte-identical across --jobs levels.
chaos-smoke: build
	$(DUNE) exec bench/main.exe -- chaos --smoke

# Solver smoke: the incremental-vs-fresh identity check (a staged
# make_session + extend session must enumerate byte-for-byte the same
# models as a fresh session asserting everything at once).
solver-smoke: build
	$(DUNE) exec bench/main.exe -- solver-identity

# Validation-service acceptance: boot an in-process HTTP server and check
# the full surface — two tenants submitting and streaming concurrently
# (both streams byte-identical to batch Campaign.run), byte-identity
# across --concurrency {1,2,4} x --jobs {1,2} servers, HTTP keep-alive
# reuse witnessed by the server's own counters, quota 429 backpressure
# plus queued-campaign cancellation over the wire, and SIGKILL of a
# --concurrency 2 server with two campaigns mid-flight followed by a
# --resume restart that completes both byte-identically.
serve-smoke: build
	$(DUNE) exec bench/main.exe -- service

# Cross-ISA acceptance: the same frozen-clock differential campaign at
# --jobs 1 and --jobs 2 must print identical divergence reports and
# write identical journals — diff output is a pure function of
# (template, setup, seed), never of the schedule.  The 2-config
# portfolio races (and loses) on an RV64 pair under the 200-conflict
# budget, so the race is covered too.
DIFF_SMOKE = diff --template A --setup mct-vs-mspec -p 6 -k 4 --seed 2021 \
	--max-conflicts 200 --portfolio 2 --frozen-clock

diff-smoke: build
	$(DUNE) exec bin/scamv_cli.exe -- $(DIFF_SMOKE) --jobs 1 \
		--csv diff.smoke.j1.csv > diff.smoke.j1.out
	$(DUNE) exec bin/scamv_cli.exe -- $(DIFF_SMOKE) --jobs 2 \
		--csv diff.smoke.j2.csv > diff.smoke.j2.out
	cmp diff.smoke.j1.csv diff.smoke.j2.csv
	sed 's/diff\.smoke\.j[12]\.csv/JOURNAL/' diff.smoke.j1.out > diff.smoke.j1.norm
	sed 's/diff\.smoke\.j[12]\.csv/JOURNAL/' diff.smoke.j2.out > diff.smoke.j2.norm
	cmp diff.smoke.j1.norm diff.smoke.j2.norm

# Perf regression gates: run perfbench on HEAD (a detached worktree in
# .perfbench-base/) and on the working tree, seeds 1-3 alternating which
# side runs first, and fail on a failed output check, more failed
# operations, or a gated median worse than HEAD's by more than its bound.
# perf-check gates refined-a experiments_per_s and the generation layers
# (pipeline.prepare_s, pipeline.next_case_s), and unguided-c-rv64
# experiments_per_s, the SAT-bound workload; service-perf-check gates
# served-small campaigns_per_s and campaign_p95_s.  See bench/perf_gate.py.
perf-check:
	python3 bench/perf_gate.py perf-check

service-perf-check:
	python3 bench/perf_gate.py service-perf-check

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

clean:
	$(DUNE) clean
