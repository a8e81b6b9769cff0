GO ?= go
GOFMT ?= gofmt

# bench knobs: BENCH_N sizes the relation (smaller is faster; CI uses
# 200000), BENCH_STAMP names the output document, BENCH_BASELINE is the
# committed run benchgate compares against.
BENCH_N ?= 2000000
BENCH_STAMP ?= $(shell date -u +%Y%m%d)
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

.PHONY: check build fmt vet lint lintjson test race loadsmoke coopsmoke benchsmoke fuzz-seeds diffalloc bench benchgate

# check is the tier-1 gate CI runs: static checks (formatting, go vet,
# the repo's own fclint invariant suite), build, plain and race-enabled
# tests, the differential+allocation guards, the fuzz seed corpora as
# unit tests, and the nested benchmark module's own vet and tests.
check: fmt vet lint build test race diffalloc fuzz-seeds benchsmoke

build:
	$(GO) build ./...

# fmt fails (and lists the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs cmd/fclint, the stdlib-only static-analysis suite that
# enforces the repo's concurrency and cost-model contracts: the nine
# analyzers nopanic, ctxflow, atomicfield, floatcmp, errdrop, gospawn,
# poolsafe, lockhold, and arenaescape. fclint analyzes the whole module —
# internal/lint included, so the analyzers dogfood their own
# implementation (the CFG builder and solver are checked by the very
# dataflow they power). Zero findings required.
lint:
	$(GO) run ./cmd/fclint ./...

# lintjson writes the same findings as a machine-readable artifact for
# CI upload; the exit code contract is identical to lint.
lintjson:
	$(GO) run ./cmd/fclint -json ./... > fclint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loadsmoke runs the load-harness acceptance suite under the race
# detector: the deterministic loadgen unit tests plus the integration
# and chaos-under-faults tests that drive a live server and assert
# reply conservation and zero leaked goroutines.
loadsmoke:
	$(GO) test -race -run 'LoadHarness|LoadChaos' .
	$(GO) test -race ./internal/loadgen

# coopsmoke runs the pass driver's acceptance suite under the race
# detector: the table-driven differential suite that runs every source
# kind (raw, strided, packed, raw+zonemap, raw+imprints, packed+zonemap)
# through the one driver — founders only, attach at first/middle/last
# block, during wrap-around, simultaneous multi-attach, cancelled
# attacher and cancelled founders — with its exactly-once assertions,
# eager cancel release, the coop.attach fault-injection degradation
# tests, the scheduler attach-hook contract, the attach-vs-wait
# cost-term unit tests, and the end-to-end attach/cancel/chaos
# integration tests that assert reply conservation and zero leaked
# goroutines.
coopsmoke:
	$(GO) test -race -run 'Coop' .
	$(GO) test -race ./internal/coop
	$(GO) test -race -run 'Attach' ./internal/scheduler ./internal/model

# diffalloc runs the differential suites (every kernel and source, and
# every source through the pass driver, must select the same rowIDs as
# the naive reference, and the bitmap's counts must match its selects)
# and the zero-allocation guards on the scan, index-count, bitmap-count
# and observability hot paths. Both run inside `test` too; this target names
# them so CI reports them as their own gate and developers can run just
# these quickly.
diffalloc:
	$(GO) test -run 'Differential|ZeroAlloc' ./internal/scan ./internal/coop ./internal/obs ./internal/runtime ./internal/index ./internal/bitmap

# benchsmoke vets and tests the nested benchmark/ module. It has its own
# go.mod (with a replace to this tree), so `go build ./... && go test
# ./...` at the root skip it and an API break there would otherwise stay
# invisible until the benchmark pipeline runs.
benchsmoke:
	cd benchmark && $(GO) vet . && $(GO) test .

# Runs each fuzz target's seed corpus as regular tests (no fuzzing engine).
fuzz-seeds:
	$(GO) test -run Fuzz ./internal/dsl ./internal/persist ./internal/scan ./internal/coop ./internal/index

# bench runs the Go micro-benchmarks with allocation reporting, then the
# Figure 18 + skewed-batch experiment driver, writing the machine-readable
# document BENCH_$(BENCH_STAMP).json at the repo root (schema
# fastcolumns/bench_aps/v7, documented in EXPERIMENTS.md). -hw1 skips
# host calibration so the target is fast and deterministic enough for CI;
# drop it (run cmd/bench by hand) for a calibrated run.
bench:
	$(GO) test -run XXX -bench 'SkewedBatch|Fig13|AblationSharing' -benchmem -benchtime 20x .
	$(GO) run ./cmd/bench -hw1 -n $(BENCH_N) -trials 3 -json BENCH_$(BENCH_STAMP).json

# benchgate re-runs the shared-scan experiments (morsel skew + packed
# SWAR kernels) and fails when any speedup ratio fell below tolerance
# against the committed baseline document (each baseline ratio capped
# at its experiment's noise ceiling, so a lucky baseline draw cannot
# ratchet the bar above what the experiment reliably reproduces), or
# when the schema-v5 load sweep misbehaves: the rate ladder must bracket the saturation
# knee, no rung may pin p99 at the per-query deadline with zero
# shedding (unbounded queueing), and worst below-knee p99 may not
# regress more than 10% over the baseline (above a deadline-fraction
# noise floor). The schema-v6 coop experiment gates within its own run:
# at the straggler rung queries must have attached mid-pass, the
# baseline p99 must clear a two-window noise floor, the cooperative
# server must answer at least 85% as many ops as the baseline (no
# shedding shortcut), and cooperative p99 must beat next-window-only
# p99 by at least 10%. Speedup gates compare ratios, not absolute
# times, so they hold across machines.
benchgate:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_*.json baseline committed"; exit 1; }
	$(GO) run ./cmd/bench -hw1 -n $(BENCH_N) -trials 3 -compare $(BENCH_BASELINE)
