GO ?= go

.PHONY: build test test-short test-chaos fuzz-smoke vet fmt-check docs-check bench bench-service bench-gate ci

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

vet:
	$(GO) vet ./...

# docs-check keeps the documentation layer honest: every relative link
# in README/ROADMAP/docs must resolve (including #heading anchors into
# markdown files), and every exported identifier in the serving surface
# (package distmincut, internal/service) must carry a doc comment.
docs-check:
	$(GO) run ./cmd/docscheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench runs the engine microbenchmarks and writes both the raw output
# (BENCH_engine.txt) and a machine-readable BENCH_engine.json, seeding
# the performance trajectory across PRs. The regular workloads run 3x
# and benchjson keeps each benchmark's fastest run (co-tenant noise
# only ever slows a run down); the million-scale workloads run
# separately at one iteration each (they exist to prove the scale, not
# to average, and they report the setup-ns/round-ns split so the gate
# can watch round time alone). BenchmarkPipelineMillion is the full
# MinCut pipeline at 250k nodes / 1M edges — a scale proof (~600M
# CONGEST messages; ~30 min on a 1-core box, scaling with cores), kept
# out of the regression gate by the benchjson -match default.
# BenchmarkApproxMillion and BenchmarkBracketMillion are the serving
# tiers at the same scale: the (1+ε) tier under the default τ policy
# and the sampled-connectivity bracket tier. The BenchmarkEngineStep*
# rows run the exchange workloads as hand-written step programs
# (BenchmarkEngineMillionStep* at the million scale), next to the same
# workloads as blocking programs hosted on pooled coroutines; benchjson's
# default -match gates the expander rows of both forms.
# BenchmarkSampleWeight is the skeleton sampler every sampled tier draws
# edge weights through; it must stay at 0 allocs/op, and the default
# -match gates it too.
# No pipe here: a panicking benchmark must fail the target, and `go
# test | tee` would hide its exit status under sh (no pipefail).
bench: bench-service
	$(GO) test ./internal/congest -run '^$$' -bench 'BenchmarkEngine(Path|Expander|Community|Step)' -benchmem -count 3 > BENCH_engine.txt
	$(GO) test ./internal/sampling -run '^$$' -bench BenchmarkSampleWeight -benchmem -count 3 >> BENCH_engine.txt
	$(GO) test ./internal/congest -run '^$$' -bench BenchmarkEngineMillion -benchmem -benchtime 1x -count 1 >> BENCH_engine.txt
	$(GO) test . -run '^$$' -bench 'Benchmark(Pipeline|Approx|Bracket)Million' -benchmem -benchtime 1x -count 1 -timeout 150m >> BENCH_engine.txt
	@cat BENCH_engine.txt
	$(GO) run ./cmd/benchjson < BENCH_engine.txt > BENCH_engine.json
	@echo "wrote BENCH_engine.json"

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

ci: fmt-check vet build test-short docs-check
