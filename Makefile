GO ?= go
FUZZTIME ?= 10s

# Pinned analysis tool versions so CI runs are reproducible.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

# Version-suffixed tool binaries, so CI can cache them keyed on the
# pinned versions and a version bump naturally misses the cache.
TOOLDIR ?= $(CURDIR)/.tools
STATICCHECK_BIN := $(TOOLDIR)/staticcheck-$(STATICCHECK_VERSION)
GOVULNCHECK_BIN := $(TOOLDIR)/govulncheck-$(GOVULNCHECK_VERSION)

# Iterations for the chaos suites; the nightly workflow raises this.
CHAOS_COUNT ?= 1

# Total statement coverage must not fall below this floor (see cover).
COVER_BASELINE ?= 78.0

.PHONY: all build test race vet fuzz fuzz-smoke docs-check metrics-guard \
	lint lint-tools cover bench-smoke bench-smoke-demo check bench-json \
	bench-wire chaos-repl chaos-ccache size clean

# Parameters for the committed BENCH_*.json snapshots: big enough caches
# that shard scaling isn't quantization-bound, small enough to run in
# seconds.
BENCH_SCALE ?= 128
BENCH_OPS ?= 20000

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The chaos and resilience suites must stay clean under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Explore the wire-format, WAL-record, compression and segment decoders,
# and the chained CMAC against Cipher.MAC, beyond the seeded corpora.
fuzz:
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzDecodePair -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzDecodeBatchRequest -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzParseBatchRecord -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzDecodeInvalEntries -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzSplitTag -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzParseHello -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzDecodeTxnRequest -fuzztime=$(FUZZTIME) ./kvnet
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=$(FUZZTIME) ./wal
	$(GO) test -fuzz=FuzzDictDecompress -fuzztime=$(FUZZTIME) ./internal/compress
	$(GO) test -fuzz=FuzzSegmentRecover -fuzztime=$(FUZZTIME) ./internal/segment
	$(GO) test -fuzz=FuzzMACer -fuzztime=$(FUZZTIME) ./internal/seccrypto

# CI's PR-path fuzzing pass: every fuzzer above, briefly. The seeded
# corpora under testdata/ run on every plain `go test` regardless; the
# long exploratory runs live in the nightly workflow (FUZZTIME=5m).
FUZZSMOKETIME ?= 10s
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=$(FUZZSMOKETIME)

# Every exported identifier in the public API surface must carry godoc.
docs-check:
	$(GO) run ./internal/docslint . kvnet obs wal repl ccache

# Replication chaos suite under the race detector: kill-primary failover
# with zero acknowledged-write loss, partition staleness bounds, link
# flap convergence, and graceful drain/redial (see repl/repl_test.go).
chaos-repl:
	$(GO) test -race -count=$(CHAOS_COUNT) -v -run \
		'TestFailoverZeroAckedWriteLoss|TestStalenessBoundAcrossPartition|TestLinkFlapConvergence|TestGracefulDrainRedial' \
		./repl

# Client-cache chaos suite under the race detector: partition/flap/
# blackhole cycles with zero stale reads past an acked invalidation,
# cold drop on redial, and the typed drain goodbye (see ccache).
chaos-ccache:
	$(GO) test -race -count=$(CHAOS_COUNT) -v -run \
		'TestChaosCcacheZeroStaleReads|TestCacheColdOnRedial|TestCacheDrainTyped' \
		./ccache

# Prove the disabled-metrics path costs <2% vs the raw store on the
# fig9-style microbench (skipped unless METRICS_GUARD=1).
metrics-guard:
	METRICS_GUARD=1 $(GO) test -run TestMetricsOverheadGuard -v .

# Static analysis, pinned. Run on a machine with module-proxy access; the
# tools are installed into TOOLDIR under version-suffixed names (never
# added to go.mod), so repeated runs — and CI restores keyed on the
# versions — skip the build entirely.
lint-tools: $(STATICCHECK_BIN) $(GOVULNCHECK_BIN)

$(STATICCHECK_BIN):
	mkdir -p $(TOOLDIR)
	GOBIN=$(TOOLDIR) $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	mv $(TOOLDIR)/staticcheck $(STATICCHECK_BIN)

$(GOVULNCHECK_BIN):
	mkdir -p $(TOOLDIR)
	GOBIN=$(TOOLDIR) $(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	mv $(TOOLDIR)/govulncheck $(GOVULNCHECK_BIN)

lint: lint-tools
	$(STATICCHECK_BIN) ./...
	$(GOVULNCHECK_BIN) ./...

# Coverage gate: total statement coverage must stay at or above
# COVER_BASELINE. Writes cover.html for the CI artifact.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t=$$total -v b=$(COVER_BASELINE) 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_BASELINE)% baseline"; exit 1; }

# Deterministic bench-regression smoke: re-run the committed BENCH_*.json
# snapshots in-process and fail if any table value differs at all (the
# simulated clock is exact; ccold and wire are pinned by floors instead).
bench-smoke:
	BENCH_GUARD=1 $(GO) test -count=1 -run 'TestBenchRegressionGuard|TestBatchAmortizationFloor|TestCcacheSpeedupFloor|TestWireSpeedupFloor|TestYCSBSkewFloor|TestCcoldCrossoverFloor|TestColdSnapshotSizeGuard' -v ./internal/bench

# Prove the smoke guard has teeth: pricing enclave memory 6% higher must
# move the committed tables.
bench-smoke-demo:
	! BENCH_GUARD=1 ARIA_COST_PERTURB=1.06 $(GO) test -count=1 -run TestBenchRegressionGuard ./internal/bench

# Regenerate the committed machine-readable benchmark snapshots.
bench-json:
	$(GO) run ./cmd/aria-bench -exp xshard -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp fig9 -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp batch -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp persist -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp repl -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp ccache -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp ycsb -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(GO) run ./cmd/aria-bench -exp ccold -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .
	$(MAKE) bench-wire

# Regenerate the wire-pipelining snapshot on its own. Wall-clock, not
# simulated: BENCH_wire.json is pinned by the TestWireSpeedupFloor ratio
# floor, not by the exact-match guard.
bench-wire:
	$(GO) run ./cmd/aria-bench -exp wire -scale $(BENCH_SCALE) -ops $(BENCH_OPS) -json .

# Structural counts that simplification work is stated in: non-test code
# lines of the root package and of kvnet, mutex-typed struct fields in
# the root package, and type assertions — in every Go file outside
# benchmarks/, tests included — to any interface the root package
# declares. Read these instead of re-deriving them.
ROOT_SRC = $(filter-out %_test.go,$(wildcard *.go))
KVNET_SRC = $(filter-out %_test.go,$(wildcard kvnet/*.go))
ROOT_IFACES = $(shell sed -nE 's/^type ([A-Za-z0-9_]+) interface.*/\1/p' $(ROOT_SRC) | paste -sd'|' -)
REPO_GO = $(shell find . \( -path ./benchmarks -o -path './.*' \) -prune -o -name '*.go' -print)
CODE_LINES = grep -v '^\s*//' | grep -v '^\s*$$' | wc -l
size:
	@echo "root package code lines (non-test, no blanks, no comment lines): $$(cat $(ROOT_SRC) | $(CODE_LINES))"
	@echo "kvnet code lines (non-test, no blanks, no comment lines): $$(cat $(KVNET_SRC) | $(CODE_LINES))"
	@echo "root package mutex-typed struct fields: $$(grep -hE '^\s+\w+\s+(\[\])?sync\.(RW)?Mutex\b' $(ROOT_SRC) | wc -l)"
	@echo "type assertions to root interfaces ($(ROOT_IFACES)) outside benchmarks/: $$(cat $(REPO_GO) | grep -oE '\.\((aria\.)?($(ROOT_IFACES))\)' | wc -l)"
	@echo "Go lines outside benchmarks/: non-test $$(cat $(filter-out %_test.go,$(REPO_GO)) | wc -l), test $$(cat $(filter %_test.go,$(REPO_GO)) | wc -l)"

check: build vet docs-check test race

clean:
	$(GO) clean ./...
