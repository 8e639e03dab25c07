GO ?= go

.PHONY: build vet test test-bench bench-compare race lint examples fuzz-smoke fuzz-storage smoke-siad smoke-cluster check clean

build:
	$(GO) build ./...

# go vet is also what stands for copied sync types: its copylocks pass
# reports them in every package, so sialint carries no analyzer for that.
# Every tracked Go file must be gofmt-clean; the testdata fixtures are
# malformed on purpose and are left out.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

test:
	$(GO) test ./...

# bench/ is its own module (it replaces sia => ../), so ./... above never
# reaches it: an engine, plan or storage rename can break the benchmark
# while the root build stays green. Vet and test it explicitly.
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The paired benchmark comparison of this checkout against a base ref, all
# four workloads, the sides taking turns: `make bench-compare BASE=main`.
# Fails when an end-to-end metric is worse than BENCHMARK.json's bound.
# SEEDS and SECS default to the benchmark's ten seeds of twenty seconds.
bench-compare:
	./scripts/bench-compare.sh $(BASE) $(SEEDS) $(SECS)

# One racy, uncached pass over every package: that covers the concurrency
# hotspots (cache singleflight, serving tier, SMT interner and QE memo,
# segment-store append vs scan) with no per-package reruns. The parallel
# engine must additionally be race-free and byte-deterministic at any
# scheduler width, so it alone is rerun at both extremes.
race:
	$(GO) test -race -count=1 ./...
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/engine/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/engine/

# The one lint gate: sialint runs every analyzer (`sialint -list`) over
# every package, including its own.
lint:
	$(GO) run ./cmd/sialint ./...

# The four examples, run end to end: each prints its before/after
# narrative and exits non-zero on a wrong result. tpch_rewrite is the Sia
# rule's one end-to-end demo (SQL, the rule, pushdown, both plans
# executed and compared); a small scale keeps it to seconds.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/optimizer_pushdown
	$(GO) run ./examples/null_semantics
	$(GO) run ./examples/tpch_rewrite -scale 0.2

fuzz-smoke:
	$(GO) test -fuzz=Fuzz -fuzztime=10s -run='^$$' ./internal/predicate/

# Segment-reader fuzz smoke: corrupt inputs must produce ErrCorrupt,
# never a panic. FuzzReadSegment decodes whole in-memory images, which
# must round-trip; FuzzScanSegment scans an image written to a file, whose
# executions cost a temp directory each, so its minimization is kept short.
fuzz-storage:
	$(GO) test -fuzz='^FuzzReadSegment$$' -fuzztime=10s -run='^$$' ./internal/storage/
	$(GO) test -fuzz='^FuzzScanSegment$$' -fuzztime=10s -fuzzminimizetime=2s -run='^$$' ./internal/storage/

# Black-box daemon smoke test: start siad, probe /healthz and /metrics,
# require a clean SIGTERM shutdown within 5s.
smoke-siad:
	./scripts/smoke-siad.sh

# Black-box cluster smoke test: 3 real siad processes sharded via -peers,
# deterministic routing, cross-replica cache hits, drain-writes-snapshot
# and warm restart.
smoke-cluster:
	./scripts/smoke-cluster.sh

# check is the full CI gate: everything must pass before merging. It runs
# every step CI runs except the paired benchmark comparison, which needs a
# base ref (make bench-compare BASE=<ref>).
check: build vet test-bench race lint examples fuzz-storage fuzz-smoke smoke-siad smoke-cluster

clean:
	$(GO) clean ./...
