GO ?= go

.PHONY: build test test-short test-chaos fuzz-smoke determinism perfbench-test vet fmt-check docs-check loc bench bench-million bench-service bench-gate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The fast gate CI runs on every push: race-enabled, with the slow
# experiment-suite tests skipped via testing.Short. -shuffle=on
# randomizes test (and package-level subtest) execution order so
# order-dependent tests fail here before they flake anywhere else; the
# shuffle seed is printed on failure for local reproduction.
test-short:
	$(GO) test -race -short -shuffle=on ./...

# fuzz-smoke runs each fuzz target for a short bounded burst — long
# enough to exercise the mutator on the seed corpus, short enough for
# every CI push. The full targets can run indefinitely with a larger
# -fuzztime.
fuzz-smoke:
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzCanonicalRequest -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzSpans -fuzztime 30s

# test-chaos compiles the fault-injection sites live (-tags chaos) and
# runs the chaos suite plus the service tests under the race detector:
# injected panics/stalls at the engine round barrier, worker, cancel,
# drain, and admission paths must never kill the process, break a
# drain, or corrupt the content-addressed cache.
test-chaos:
	$(GO) test -race -count=1 -tags chaos ./internal/chaos/... ./internal/service/... ./internal/gateway/...

# determinism runs cmd/mincut for a fixed seed, in exact and approx
# mode, under GOMAXPROCS=1 and GOMAXPROCS=2 and requires byte-identical
# output. Activation helpers (GOMAXPROCS-1 of them) are the engine's
# only parallelism, so this is the end-to-end scheduling-independence
# check. n=128 keeps wake sets above the engine's fan-out threshold.
# It then runs, under both settings, the mst package's tests (among
# them the Result fingerprint: every node's tree, fragment and
# fragment-forest output), the entry-point golden test (every entry
# point's Stats, Marks, Value and Side), the pinned outcome tables
# (MinCut/ApproxMinCut Value, Side, Exact, TreesPacked and Levels;
# BracketMinCut Level, Lo, Hi, Value and BestNode), the respect
# package's tests and the sampling package's tests (the bracket's
# connectivity oracle).
determinism:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/mincut" ./cmd/mincut; \
	for mode in exact approx; do \
		GOMAXPROCS=1 "$$tmp/mincut" -graph planted -n 128 -lambda 3 -seed 7 -mode $$mode > "$$tmp/p1"; \
		GOMAXPROCS=2 "$$tmp/mincut" -graph planted -n 128 -lambda 3 -seed 7 -mode $$mode > "$$tmp/p2"; \
		if ! cmp -s "$$tmp/p1" "$$tmp/p2"; then \
			echo "$$mode: output differs between GOMAXPROCS=1 and GOMAXPROCS=2"; \
			diff "$$tmp/p1" "$$tmp/p2"; exit 1; \
		fi; \
		echo "$$mode: byte-identical under GOMAXPROCS=1 and GOMAXPROCS=2"; \
	done; \
	for procs in 1 2; do \
		GOMAXPROCS=$$procs $(GO) test ./internal/mst -count=1 > "$$tmp/fp" || { cat "$$tmp/fp"; exit 1; }; \
		echo "mst tests (fingerprint included): pass under GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs $(GO) test . -count=1 -run '^TestGoldenEntryPoints$$' > "$$tmp/fp" || { cat "$$tmp/fp"; exit 1; }; \
		echo "entry-point golden: unchanged under GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs $(GO) test . -count=1 -run '^Test(Exact|Bracket)OutcomesPinned$$' > "$$tmp/fp" || { cat "$$tmp/fp"; exit 1; }; \
		echo "pinned exact and bracket outcomes: unchanged under GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs $(GO) test ./internal/respect -count=1 > "$$tmp/fp" || { cat "$$tmp/fp"; exit 1; }; \
		echo "respect tests: pass under GOMAXPROCS=$$procs"; \
		GOMAXPROCS=$$procs $(GO) test ./internal/sampling -count=1 > "$$tmp/fp" || { cat "$$tmp/fp"; exit 1; }; \
		echo "sampling tests: pass under GOMAXPROCS=$$procs"; \
	done

# perfbench-test vets and tests the benchmark module. perfbench/ is a
# module of its own (it reaches the repository through a replace
# directive), so build, vet and test above never compile it, and a
# change to an API it calls would otherwise break the benchmark unseen.
perfbench-test:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# vet also checks the chaos build: the tagged fault-injection registry
# is compiled by no other ci target.
vet:
	$(GO) vet ./...
	$(GO) vet -tags chaos ./...

# docs-check keeps the documentation layer honest: every relative link
# in README/ROADMAP/docs must resolve (including #heading anchors into
# markdown files), and every exported identifier in the serving surface
# (package distmincut, internal/service, internal/gateway) must carry a
# doc comment.
docs-check:
	$(GO) run ./cmd/docscheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# loc prints the non-test Go line count outside perfbench/ (tracked and
# untracked files, minus what .gitignore excludes) — the code-size
# figure ROADMAP.md tracks next to the BENCH trajectory. Informational:
# nothing gates on it.
loc:
	@n="$$(git ls-files --cached --others --exclude-standard -- '*.go' ':!:*_test.go' ':!:perfbench/*' | xargs cat | wc -l)"; \
		echo "non-test Go lines outside perfbench/: $$n"

# bench runs the engine microbenchmarks and writes both the raw output
# (BENCH_engine.txt) and a machine-readable BENCH_engine.json, seeding
# the performance trajectory across PRs. The regular workloads run 3x
# and benchjson keeps each benchmark's fastest run (co-tenant noise
# only ever slows a run down); BenchmarkEngineMillion runs separately
# at one iteration (it exists to prove the scale, not to average, and
# reports the setup-ns/round-ns split so the gate can watch round time
# alone). benchjson's default -match gates the expander exchange rows
# at both scales, and BenchmarkSampleWeight, the skeleton sampler every
# sampled tier draws edge weights through: it must stay at 0 allocs/op.
# The million-scale library rows, which no gate reads, live in
# bench-million.
# No pipe here: a panicking benchmark must fail the target, and `go
# test | tee` would hide its exit status under sh (no pipefail).
bench: bench-service
	$(GO) test ./internal/congest -run '^$$' -bench 'BenchmarkEngine(Path|Expander|Community)' -benchmem -count 3 > BENCH_engine.txt
	$(GO) test ./internal/sampling -run '^$$' -bench BenchmarkSampleWeight -benchmem -count 3 >> BENCH_engine.txt
	$(GO) test ./internal/congest -run '^$$' -bench BenchmarkEngineMillion -benchmem -benchtime 1x -count 1 >> BENCH_engine.txt
	@cat BENCH_engine.txt
	$(GO) run ./cmd/benchjson < BENCH_engine.txt > BENCH_engine.json
	@echo "wrote BENCH_engine.json"

# bench-million is run by hand: the serving tiers at 250k nodes / 1M
# edges, one iteration each, written to BENCH_million.txt and
# BENCH_million.json. BenchmarkPipelineMillion is the full MinCut
# pipeline, BenchmarkApproxMillion the (1+ε) tier under the default τ
# policy and BenchmarkBracketMillion the sampled-connectivity bracket
# tier. They are scale proofs that no gate reads, and together they
# take well over an hour on a 2-core box, so neither `make bench` nor
# CI runs them.
bench-million:
	$(GO) test . -run '^$$' -bench 'Benchmark(Pipeline|Approx|Bracket)Million' -benchmem -benchtime 1x -count 1 -timeout 150m > BENCH_million.txt
	@cat BENCH_million.txt
	$(GO) run ./cmd/benchjson < BENCH_million.txt > BENCH_million.json
	@echo "wrote BENCH_million.json"

# bench-service runs a short closed-loop load against a self-hosted
# in-process mincutd (cmd/loadgen with no -addr) and renders the
# latency/throughput/cache report as BENCH_service.json. The corpus
# wraps around the canned harness request mix, so the run exercises the
# content-addressed cache exactly as repeat production traffic would.
# The second line is the open-loop arrival-rate run (-rate): latency is
# measured from scheduled arrival, so queue wait near saturation lands
# in the p95/p99 columns instead of being absorbed by closed-loop
# self-throttling. The queue depth (256) exceeds the request count, so
# the run never sheds load and the target cannot fail on 503 churn.
bench-service:
	$(GO) run ./cmd/loadgen -conc 8 -requests 128 -corpus quick -bench > BENCH_service.txt
	$(GO) run ./cmd/loadgen -rate 600 -requests 128 -corpus quick -timeout 2m -bench >> BENCH_service.txt
	@cat BENCH_service.txt
	$(GO) run ./cmd/benchjson < BENCH_service.txt > BENCH_service.json
	@echo "wrote BENCH_service.json"

# bench-gate re-runs the benchmarks and fails if ns/op or allocs/op on
# the expander benchmarks regressed more than 20% against the baseline
# committed at HEAD (snapshotted from git, since `make bench` rewrites
# the working-tree BENCH_engine.json). Only meaningful on the machine
# the committed baseline was measured on; CI instead re-benchmarks the
# base ref on the same runner (see .github/workflows/ci.yml).
bench-gate:
	git show HEAD:BENCH_engine.json > BENCH_engine.baseline.json; \
		$(MAKE) bench; status=$$?; \
		if [ $$status -eq 0 ]; then \
			$(GO) run ./cmd/benchjson -compare BENCH_engine.baseline.json BENCH_engine.json; status=$$?; \
		fi; \
		rm -f BENCH_engine.baseline.json; exit $$status

ci: fmt-check vet build test-short determinism perfbench-test docs-check
