# Developer entry points. `make check` is the pre-commit gate: it builds
# everything (and cross-builds it for arm64, where mpint has no assembly),
# vets, runs the full test suite, re-runs the concurrency-sensitive packages
# (transport + round runtime + device fault layer + the pooled arithmetic
# under them) under the race detector,
# smoke-runs the fuzz targets, compiles-and-runs every benchmark
# once so benchmark code cannot bit-rot, runs the repository benchmark at its
# smoke sizing twice on one seed, failing if the two sets' modelled metrics
# differ in any digit, and runs flbench's modelled tables at 128-bit keys
# twice, failing on any byte of difference in the tables or the metrics
# registry. The crash sweep (fl's TestCrashSweep: every journal boundary ×
# every round × churn, chaos-free and under the fault mix) and the fault
# checker (fl's TestFaultCheck: 200 seeded epochs of drawn profiles, network
# and device faults and churn, held to the plaintext oracle and to the
# outcomes the schedule predicts) run in `test` and again under `race`.

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: build test vet lint loc reach race fuzz bench-smoke benchmark-smoke flbench-smoke check

# mpint's kernels (the addMulVW row, the amm52 digit chain) are assembly on
# amd64 only; cross-building for arm64 (the standard library cross-compiles
# offline) keeps the generic file and its tests compiling on an amd64-only CI.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mpint

# -shuffle=on randomizes test order within each package so tests that only
# pass because of accidental ordering are flushed out instead of fossilized.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs and runs staticcheck
# unconditionally (see .github/workflows/ci.yml); locally the target tells
# you how to get it rather than silently passing.
lint: vet
	@command -v $(STATICCHECK) >/dev/null 2>&1 || { \
		echo "staticcheck not found; install with:"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@latest"; \
		exit 1; }
	$(STATICCHECK) ./...

# The per-package table of non-test Go lines that are neither blank nor a
# whole-line // comment — the size criterion the simplicity PRs are held to,
# as one command for builder and reviewer (CHANGES.md quotes it per PR).
loc:
	@for dir in $$($(GO) list -f '{{.Dir}}' ./...); do \
		ls $$dir/*.go | grep -v '_test\.go$$' | xargs awk -v pkg=".$${dir#$(CURDIR)}" \
			'{ s = $$0; sub(/^[ \t]+/, "", s) } s == "" || s ~ /^\/\// { next } { n++ } END { printf "%6d  %s\n", n, pkg }'; \
	done | awk '{ t += $$1; print } END { printf "%6d  total\n", t }'

# Which code any command, example or the benchmark enters: builds the four
# commands and five examples with -cover -coverpkg=./..., runs them over a
# fixed matrix (every flbench experiment at 128-bit keys, the benchmark at
# smoke sizing traced and untraced and one full-size pass, hectl keygen and
# bench, flserver demos of cohort, fan-out, devices and quorum runs, a
# -fanout 1 run that must be refused, a loopback hub with a server that
# crashes at its failpoint and resumes, every example) and prints the share of statements reached, the per-package shares
# and the functions never entered. A matrix command that fails fails the
# target, and so does a never-entered function with no line in
# scripts/reach_allow.txt or a stale line there; the share does not gate.
reach:
	@sh scripts/reach.sh

# The fault checker and the crash sweep drive the chaos, quorum, churn and
# device fault/failover paths, which exercise
# goroutines and shared counters — the executor serves a multi-device wave a
# goroutine a member, under its one lock, and the Table-I platform
# in core runs on the same executor — and flserver hosts fl's Coordinator
# and Client across real TCP connections (hub, server and client goroutines
# in one process), as fl's TCP draws and transport matrix do. mpint's lane-group
# scratch and paillier's keys are pooled across the executor's workers (about
# 21 s and 5 s of this target on the two-core reference box), and the vertical
# models' batches recycle through paillier's pool from one launch to the next.
# Every round goroutine writes obs's span recorder and metrics registry.
# All of it must stay clean under -race and finish with time to spare.
race:
	$(GO) test -race -timeout 300s ./internal/obs/... ./internal/flnet/... ./internal/fl/... ./internal/gpu/... ./internal/ghe/... ./internal/core/... ./internal/mpint/... ./internal/paillier/... ./internal/models/... ./cmd/flserver/...

# Short fuzz passes over every fuzz target the module has, 10 s each: for each
# package `go list ./...` reports, every name `go test -list '^Fuzz'` prints,
# anchored so FuzzDiv cannot also select FuzzDivInto. Nothing here names a
# target, so adding or deleting one needs no edit; 26 exist today (13 in mpint
# against math/big, the eight-lane kernel's and the Euclid walk's among them;
# one in batch, the slot layout against math/big; three wire decoders in
# flnet, the vertical replies' fixed-width one among them; one in gpu, on
# device geometries; five in fl — the return-path request header and
# splitter, the aggregate frame every client opens, the journal a restarted
# coordinator replays and the client-name parser —
# one on paillier's key decoders, and two in ghe: every op's descriptor
# against math/big and the executor over 1–3 devices against the host loop,
# and the shard scheduler's cut of a range into pieces), each with its seeds
# and any corpus under its package's testdata/fuzz.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s || exit 1; \
		done; \
	done

# One iteration of every benchmark the module has: for each package `go list
# ./...` reports that `go test -list '^Benchmark'` finds a benchmark in, as
# `make fuzz` finds its targets, so adding or deleting one needs no edit.
# Catches benchmarks that no longer compile or crash without paying for real
# timing runs. -benchmem puts allocs/op in the CI log, so allocation drift in
# the mpint/paillier hot paths — in the launch itself, gpu's BenchmarkLaunch,
# in an upload wave as one host job, fl's BenchmarkUploadWave, in a whole
# warm cohort round, fl's BenchmarkCohortRound, and in a warm Hetero LR and NN
# epoch with its plaintext oracle, models' BenchmarkVerticalEpoch — is visible
# next to the AllocsPerRun ceilings.
bench-smoke:
	@for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Benchmark' $$pkg) || { printf '%s\n' "$$list"; exit 1; }; \
		printf '%s\n' "$$list" | grep -q '^Benchmark' || continue; \
		$(GO) test $$pkg -run '^$$' -bench . -benchtime 1x -benchmem || exit 1; \
	done

# The repository benchmark (benchmark/README.md) at its seconds-not-minutes
# sizing, two full sets on one seed, with -check: a modelled metric
# (step_sim_s, wire_bytes_per_step, loss_bias) that differs at all between
# the sets, a failed step or a crash fails the target — the modelled clock
# and the codec are deterministic in the seed, whatever the host arithmetic
# does. -check also holds the host-clock metrics to their bounds, which at
# this sizing are a few milliseconds of set-up and swing past 25% run to
# run on unchanged code; those lines are printed and not gated on.
benchmark-smoke:
	@out=$$($(GO) run ./benchmark -smoke -repeat 2 -check 2>&1); status=$$?; \
	printf '%s\n' "$$out" | grep -E ' (step_sim_s|wire_bytes_per_step) min |^benchmark:'; \
	[ $$status -eq 0 ] && exit 0; \
	printf '%s\n' "$$out" | grep -q '^benchmark: ' || { printf '%s\n' "$$out"; exit 1; }; \
	if printf '%s\n' "$$out" | sed -n 's/^benchmark: //p' | tr ';' '\n' | grep -qv 'sets disagree by more than'; then exit 1; fi

# flbench's modelled tables — Table II, Fig. 6, Fig. 7 and Table VII at
# 128-bit keys — twice from one build, each with its -metrics registry dump,
# failing on any byte of difference between the two tables or the two
# registries. Both hold the modelled clock and counts alone, so they are also
# the cross-commit check: a change that keeps the clock and the counters
# prints them byte-identical to its parent's (the verify skill). About a
# second a run.
FLBENCH_SMOKE = -keys 128 table2 fig6 fig7 table7
flbench-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/flbench" ./cmd/flbench && \
	"$$dir/flbench" -metrics "$$dir/ma" $(FLBENCH_SMOKE) > "$$dir/a" && \
	"$$dir/flbench" -metrics "$$dir/mb" $(FLBENCH_SMOKE) > "$$dir/b" && \
	cmp "$$dir/a" "$$dir/b" && cmp "$$dir/ma" "$$dir/mb" && \
	echo "flbench-smoke: two runs of flbench $(FLBENCH_SMOKE) print byte-identical tables ($$(wc -c < "$$dir/a") bytes) and metrics ($$(wc -l < "$$dir/ma") lines)"

check: build vet test race fuzz bench-smoke benchmark-smoke flbench-smoke
