GO ?= go

.PHONY: all build test vet lint lint-baseline lint-graph lint-graph-update race bench bench-ab bench-smoke metrics-smoke scale-smoke ckpt-smoke fuzz-smoke table1 table2 sweeps demo fmt fmt-check

all: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Model-invariant static analysis (cmd/lowmemlint): CONGEST isolation, meter
# accounting, determinism, and wire-size honesty. The baseline file must stay
# empty unless an entry carries a written justification; stale entries fail
# the build.
lint:
	$(GO) vet ./cmd/lowmemlint ./internal/lint
	$(GO) run ./cmd/lowmemlint -baseline lint.baseline.json ./internal/...

# Regenerate the lint baseline from current findings. Only for grandfathering
# a finding that cannot be fixed in the same change — add a reason to every
# entry it writes.
lint-baseline:
	$(GO) run ./cmd/lowmemlint -write-baseline lint.baseline.json ./internal/...

# Protocol-graph golden (schema lowmemlint/protocol-v1): regenerate the
# whole-repo send/receive kind graph and fail on any drift from the committed
# protocol.json / protocol.dot. A diff here means the wire protocol changed —
# review it, then refresh the goldens with `make lint-graph-update`.
lint-graph:
	$(GO) run ./cmd/lowmemlint -graph /tmp/lowmemlint-protocol.json -graph-dot /tmp/lowmemlint-protocol.dot ./internal/...
	diff -u protocol.json /tmp/lowmemlint-protocol.json
	diff -u protocol.dot /tmp/lowmemlint-protocol.dot

lint-graph-update:
	$(GO) run ./cmd/lowmemlint -graph protocol.json -graph-dot protocol.dot ./internal/...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent engine and the per-round goroutine
# pools (the packages where a data race could actually hide), plus the
# lock-free metrics registry whose histograms take concurrent writers, the
# COW data plane (readers hammering LookupBatch across table swaps), and the
# pooled-packet router built on it.
race:
	$(GO) test -race ./internal/congest/... ./internal/treeroute/... ./internal/hopset/... ./internal/core/... ./internal/obs/... ./internal/dataplane/... ./internal/router/...

# Full test run with the output captured (the repository's test record).
test-record:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# A/B the repository benchmark (scripts/bench-ab.sh): WORKLOAD at git
# revision REV against the working tree, in PAIRS alternating pairs; prints
# every pair's setup_s and the geometric-mean change/base ratio. REV is
# checked out in a git worktree under .bench_build/, removed afterwards.
REV ?= HEAD
WORKLOAD ?= serve-grid400-k3
PAIRS ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(REV) $(WORKLOAD) $(PAIRS)

# One iteration of every micro-benchmark in the engine, handler and data-plane
# packages: catches benchmarks that no longer compile or that panic, without
# trusting noisy timings. Their exact outputs are pinned by tier-1 tests.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/congest ./internal/hopset ./internal/core ./internal/treeroute ./internal/dataplane/...

# End-to-end check of the live metrics pipeline: run a small routebench
# sweep with -pprof on an ephemeral port, scrape /metrics during
# -pprof-hold, and validate the exposition (format + required families)
# with cmd/promcheck.
metrics-smoke:
	./scripts/metrics-smoke.sh

# Scale-harness smoke (experiment E12): one fast full-build cell through the
# streaming-CSR → topology-backed simulator → core.Build path, then a
# 2^15-vertex substrate probe (generation + engine boot + bounded 64-hop
# exploration) at a size where a full Õ(√n)-round build would not fit a CI
# budget. Both run under a hard timeout so a scaling regression fails the
# job instead of hanging it. The stdout rows are deterministic for the seed;
# wall times and heap figures go to stderr.
scale-smoke:
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 256 -k 2 -family grid -seed 1
	timeout 300 $(GO) run ./cmd/routebench -scale-probe 32768 -family grid -seed 1

# Checkpoint/resume smoke: one full-build scale cell checkpointed to a file,
# then the same cell rerun with -resume (completed phases skipped, engine and
# builder state restored) at a different shard count. The deterministic
# stdout rows must be byte-identical — resume and sharding are both
# unobservable in every measured quantity.
CKPT_SMOKE := /tmp/lowmemroute-ckpt-smoke
ckpt-smoke:
	rm -f $(CKPT_SMOKE).ckpt
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 256 -k 2 -family grid -seed 1 \
		-checkpoint $(CKPT_SMOKE).ckpt > $(CKPT_SMOKE)-1.txt
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 256 -k 2 -family grid -seed 1 \
		-checkpoint $(CKPT_SMOKE).ckpt -resume -shards 4 > $(CKPT_SMOKE)-2.txt
	cmp $(CKPT_SMOKE)-1.txt $(CKPT_SMOKE)-2.txt
	@echo "ckpt-smoke: resumed stdout byte-identical"

# Fuzz smoke: ten seconds of FuzzRestoreEngineCkpt, starting from the real
# unit-mark engine images in internal/congest/testdata/fuzz. A malformed
# engine section must fail to decode with an error or apply and run without
# panicking; a crasher is written to that corpus directory. Then ten seconds
# of FuzzRestoreBuilderCkpt from the real unit-mark builder sections in
# internal/treeroute/testdata/fuzz: restore errors or round-trips, never
# panics. Then ten seconds of FuzzFreezeWeights: arbitrary positive finite
# weights must read back exactly through both CSR freeze paths (FromGraph
# and CSRBuilder). Minimisation is off so the short budgets go to new
# inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreEngineCkpt$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/congest
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreBuilderCkpt$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/treeroute
	$(GO) test -run '^$$' -fuzz '^FuzzFreezeWeights$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/graph

# Regenerate the paper's tables and sweeps (EXPERIMENTS.md).
table1:
	$(GO) run ./cmd/routebench -n 128,256 -k 2,3

table2:
	$(GO) run ./cmd/treebench -n 256,1024,4096

sweeps:
	$(GO) run ./cmd/routebench -sweep k -n 256 -k 2,3,4
	$(GO) run ./cmd/treebench -sweep n -n 128,256,512,1024,2048
	$(GO) run ./cmd/treebench -sweep multitree -n 256
	$(GO) run ./cmd/treebench -sweep hopset -n 256 -family grid

demo:
	$(GO) run ./cmd/routedemo

fmt:
	gofmt -w .

# Fail when any file is not gofmt-clean; `make fmt` rewrites them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: files need formatting:"; echo "$$out"; exit 1; fi
