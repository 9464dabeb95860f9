GO ?= go

.PHONY: all build test vet lint lint-graph lint-graph-update race bench bench-ab bench-smoke metrics-smoke scale-smoke fuzz-smoke table1 table2 sweeps demo fmt fmt-check

all: build vet lint test race

build:
	$(GO) build ./...

# The bench module has its own go.mod, so the root ./... never reaches it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Model-invariant static analysis (cmd/lowmemlint): every analyzer (LM001
# to LM008; LM004 and LM006 are retired) over ./internal/... (DESIGN.md §8). A finding
# fails the build unless it is waived in place with
# //lint:waive <analyzer> <reason>.
lint:
	$(GO) vet ./cmd/lowmemlint ./internal/lint
	$(GO) run ./cmd/lowmemlint ./internal/...

# Protocol-graph golden (schema lowmemlint/protocol-v2): regenerate the
# whole-repo send/receive kind graph and fail on any drift from the committed
# protocol.json. Sites are keyed by function, transport and words expression
# or match form, not by line, so moving code leaves the golden unchanged; a
# diff here means a send, match, kind or words expression changed — review
# it, then refresh the golden with `make lint-graph-update`. The fresh graph
# goes to a per-run temporary directory, so concurrent runs from two
# checkouts cannot read each other's file.
lint-graph:
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/lowmemlint -graph "$$dir/protocol.json" ./internal/... && \
	diff -u protocol.json "$$dir/protocol.json"

lint-graph-update:
	$(GO) run ./cmd/lowmemlint -graph protocol.json ./internal/...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent engine and the per-round goroutine
# pools (the packages where a data race could actually hide; the engine's
# bodied-message golden, TestBodiedMessageGolden, forks its two-shard runs
# here, so message bodies cross shards under the detector), plus the
# lock-free metrics registry whose histograms take concurrent writers, the
# COW data plane (readers hammering LookupBatch across table swaps, and
# crash-detour walks reading a down mask that flips under them), the facade
# Network's lazily frozen topology under concurrent read-only queries, and
# the facade PacketNetwork's concurrent Sends while a node crashes and
# recovers, and the lattice layout's helper goroutine (internal/graph).
race:
	$(GO) test -race ./internal/congest/... ./internal/treeroute/... ./internal/hopset/... ./internal/core/... ./internal/obs/... ./internal/dataplane/... ./internal/graph/...
	$(GO) test -race -run '^(TestNetworkConcurrentReads|TestConcurrentSends)$$' .

# Full test run with the output captured (the repository's test record).
test-record:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# A/B the repository benchmark (scripts/bench-ab.sh): WORKLOAD at git
# revision REV against the working tree, in PAIRS alternating pairs; prints
# every pair's setup_s, each side's median and quartiles, and the
# geometric-mean change/base ratio. Every run lasts BENCHMARK.json's
# run_seconds (20), as the benchmark's own runs do: 10 pairs take about
# 1.5 min for build-grid400-k3, 2 min for build-er192-k2, 4 min for
# explore-grid64k and 7.5 min for serve-grid400-k3 on a 2-CPU host. REV is
# checked out in a git worktree under .bench_build/, removed afterwards.
REV ?= HEAD
WORKLOAD ?= serve-grid400-k3
PAIRS ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(REV) $(WORKLOAD) $(PAIRS)

# One iteration of every micro-benchmark in the graph generator, engine,
# handler and data-plane packages: catches benchmarks that no longer compile
# or that panic, without trusting noisy timings. Their exact outputs are
# pinned by tier-1 tests.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/graph ./internal/congest ./internal/hopset ./internal/core ./internal/treeroute ./internal/dataplane/...

# End-to-end check of the live metrics pipeline: run a small routebench
# sweep with -pprof on an ephemeral port, scrape /metrics during
# -pprof-hold, and validate the exposition (format + required families)
# with cmd/promcheck.
metrics-smoke:
	./scripts/metrics-smoke.sh

# Scale-harness smoke (experiment E12): one fast full-build cell through the
# streaming-CSR → topology-backed simulator → core.Build path, run at one
# shard and at four with the stdout rows compared by cmp (sharding must be
# unobservable in every measured quantity). The cell is a 1,024-vertex grid
# at k=3: big enough that rounds reach the engine's 1,024-vertex fork
# threshold, so the four-shard run really forks (a 256-vertex grid never
# does, and its cmp compared the serial path with itself). Then a 2^15-vertex substrate
# probe (generation + engine boot + bounded 64-hop exploration) at a size
# where a full Õ(√n)-round build would not fit a CI budget. Each run has a
# hard timeout so a scaling regression fails the job instead of hanging it.
# The stdout rows are deterministic for the seed; wall times and heap
# figures go to stderr. The rows are compared in a per-run temporary
# directory, so concurrent runs from two checkouts cannot mix their files.
scale-smoke:
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; set -e; \
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 1024 -k 3 -family grid -seed 1 -shards 1 > "$$dir/1.txt"; \
	timeout 300 $(GO) run ./cmd/routebench -scale -scale-n 1024 -k 3 -family grid -seed 1 -shards 4 > "$$dir/4.txt"; \
	cat "$$dir/1.txt"; \
	cmp "$$dir/1.txt" "$$dir/4.txt"; \
	echo "scale-smoke: stdout byte-identical at 1 and 4 shards"; \
	timeout 300 $(GO) run ./cmd/routebench -scale-probe 32768 -family grid -seed 1

# Fuzz smoke: ten seconds of FuzzReadJSON (internal/trace), seeded with real
# v5 trace exports (the one accepted schema) and the same recording stamped
# with each legacy v1-v4 schema (inputs it must reject): ReadJSON must never
# panic, and an accepted export must re-encode and re-read equal. Then ten
# seconds of FuzzParsePrometheus (internal/obs), seeded with a real registry
# exposition: the parser must never panic, and it rejects an input exactly
# when one of its lines is bad on its own. Then ten seconds of
# FuzzFreezeWeights: arbitrary positive finite weights on arbitrary edges
# must read back exactly, in stream order, from a one-pass CSRBuilder build,
# and a build split at a fuzzed point (freeze, Thaw, add the rest) must
# equal it. Then ten seconds of FuzzParseSpec from the committed
# specs in internal/faults/testdata/fuzz: a malformed fault spec must fail
# with an error, never panic, and an accepted one must render back through
# String to the same plan. Then ten seconds each of FuzzDecodeLabel and
# FuzzDecodeTable (internal/wire), seeded with a real scheme's encodings: a
# malformed label or table must fail with an error, an accepted label must
# decode equal to its own re-encoding, and an accepted table must re-encode
# to exactly its own bytes. Minimisation is off so the short
# budgets go to new inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrometheus$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzFreezeWeights$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLabel$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTable$$' -fuzztime 10s -fuzzminimizetime 0 ./internal/wire

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
