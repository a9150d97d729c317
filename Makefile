# Check matrix for the selcache reproduction. `make check` is the
# pre-commit gate; the individual targets exist for iterating.

GO ?= go

.PHONY: check vet build test race golden inline-check bench-smoke bench-json bench-json-smoke fuzz-smoke serve-smoke cluster-smoke loadgen-smoke loadgen-bench validate-smoke validate corpus corpus-smoke estimate-smoke energy-smoke tier1

check: vet build inline-check race golden bench-smoke bench-json-smoke serve-smoke cluster-smoke loadgen-smoke validate-smoke corpus-smoke estimate-smoke energy-smoke fuzz-smoke

# tier1 is the fast gate the roadmap requires of every change.
tier1:
	$(GO) build ./... && $(GO) test ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also exercises the parallel-vs-serial determinism tests, which spawn
# real workers even on one CPU; expect this to take several minutes.
# internal/experiments alone runs past go test's default 10-minute limit
# under -race on a 2-CPU host, hence the explicit timeout.
race:
	$(GO) test -race -timeout 30m ./...

# The hot probe halves must inline at the machine's probe sites: they
# resolve most accesses, and a call per probe costs more than the probe.
# The cache's hook flag and any new field test in LookupFast spend the
# same inliner budget (80), so this fails the moment they exceed it.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/sim 2>&1) || { echo "$$out"; exit 1; }; \
	for fn in 'cache.(*Cache).LookupFast' 'tlb.(*TLB).TranslateFast'; do \
		echo "$$out" | grep 'machine.go' | grep -qF "inlining call to $$fn" || \
			{ echo "inline-check: $$fn is not inlined in internal/sim/machine.go"; exit 1; }; \
	done; echo "inline-check: LookupFast and TranslateFast inline in machine.go"

# The default-knob regeneration of every table and figure must stay
# byte-identical to the committed reference (about a minute on two CPUs).
# After an intended output change, regenerate with:
#   go run ./cmd/experiments > experiments_output.txt
golden:
	$(GO) run ./cmd/experiments | cmp - experiments_output.txt

# One pooled-vs-serial sweep plus the hot-path microbenchmarks, a single
# iteration each — a smoke test that the benchmarks still build and run,
# not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'ParallelSweep|AccessHotPath' -benchtime=1x .

# Regenerate the committed perf artifact: the full Table 3 sweep through the
# batched replay engine, with per-benchmark event counts and wall times
# (schema selcache-bench/v1, docs/PERFORMANCE.md §7). Wall times are host
# measurements — expect them to differ run to run; the schema and event
# counts are what CI validates.
bench-json:
	$(GO) run ./cmd/experiments -run table3 -benchjson BENCH_table3.json

# CI smoke: emit the artifact from the cheapest sweep (Table 2 is a single
# config), then re-load it through the schema validator.
bench-json-smoke:
	$(GO) run ./cmd/experiments -run table2 -benchjson /tmp/bench-smoke.json
	$(GO) run ./cmd/experiments -verifybench /tmp/bench-smoke.json
	rm -f /tmp/bench-smoke.json

# Boot the selcached daemon on a random port, hit /healthz and one
# /v1/run through its bundled ctl client, then SIGTERM and assert a
# clean graceful drain (scripts/serve-smoke.sh).
serve-smoke:
	$(GO) build -o /tmp/selcached-smoke ./cmd/selcached
	sh scripts/serve-smoke.sh /tmp/selcached-smoke
	rm -f /tmp/selcached-smoke

# Coordinator + two workers on random ports, the full 13-workload
# base/bypass sweep with one worker SIGKILLed mid-run, asserting the
# merged output is byte-identical to a single-node daemon's
# (scripts/cluster-smoke.sh, docs/CLUSTER.md).
cluster-smoke:
	$(GO) build -o /tmp/selcached-smoke ./cmd/selcached
	sh scripts/cluster-smoke.sh /tmp/selcached-smoke
	rm -f /tmp/selcached-smoke

# Fixed-seed open-loop traffic against a deliberately narrow daemon:
# plan rendering must be byte-identical across runs, the warm phase must
# serve from the memory tier, the overload burst must shed with 429 +
# Retry-After, and a second loadgen process must observe byte-identical
# response bodies (scripts/loadgen-smoke.sh, docs/SERVICE.md).
loadgen-smoke:
	$(GO) build -o /tmp/selcached-smoke ./cmd/selcached
	$(GO) build -o /tmp/loadgen-smoke ./cmd/loadgen
	sh scripts/loadgen-smoke.sh /tmp/selcached-smoke /tmp/loadgen-smoke
	rm -f /tmp/selcached-smoke /tmp/loadgen-smoke

# Regenerate the committed BENCH_loadgen.json: one deterministic traffic
# plan measured cold, warm, peer-served and under overload, with per-cell
# body hashes proving byte-identity across regimes and processes
# (scripts/loadgen-bench.sh). Wall times and latencies are host
# measurements — expect them to differ run to run.
loadgen-bench:
	$(GO) build -o /tmp/selcached-bench ./cmd/selcached
	$(GO) build -o /tmp/loadgen-bench ./cmd/loadgen
	sh scripts/loadgen-bench.sh /tmp/selcached-bench /tmp/loadgen-bench BENCH_loadgen.json
	rm -f /tmp/selcached-bench /tmp/loadgen-bench

# Differential-oracle spot check: one workload per access-pattern class,
# every version and both hardware mechanisms, engine vs naive reference in
# lockstep (docs/VALIDATION.md). The full matrix is `make validate`.
validate-smoke:
	$(GO) run ./cmd/validate -short

validate:
	$(GO) run ./cmd/validate

# The full generative corpus: 1000+ fingerprint-distinct kernels from all
# 81 synth families, swept across every version, 32 kernels
# oracle-spot-checked (docs/CORPUS.md).
corpus:
	$(GO) run ./cmd/corpus -n 1000 -sample 32 -out /tmp/corpus.json

# CI smoke: regenerate the committed smoke artifact from its own recorded
# parameters and require byte equality — synthesis, sweep, profiles and
# oracle verdicts must all be deterministic. Regenerate the artifact after
# an intended change with:
#   go run ./cmd/corpus -n 96 -sample 8 -out CORPUS_smoke.json
corpus-smoke:
	$(GO) run ./cmd/corpus -verify CORPUS_smoke.json

# CI smoke for the symbolic locality estimator: re-score the estimator
# against the simulator over the smoke corpus and require the committed
# accuracy artifact byte-identically (docs/ESTIMATOR.md). Regenerate after
# an intended model change with:
#   go run ./cmd/corpus -estimate -n 96 -out ESTIMATE_smoke.json
estimate-smoke:
	$(GO) run ./cmd/corpus -verify ESTIMATE_smoke.json

# CI smoke for the energy model: resweep the {lru,ehc} × way-memo grid
# over the smoke corpus and require the committed energy artifact
# byte-identically (docs/ENERGY.md). Regenerate after an intended model
# change with:
#   go run ./cmd/corpus -energy -n 48 -out ENERGY_smoke.json
energy-smoke:
	$(GO) run ./cmd/corpus -verify ENERGY_smoke.json

# 20–30 seconds of each fuzz target: enough to shake out codec,
# marker-elimination and cache-key regressions on fresh inputs without
# stalling the gate. FuzzLoadArtifact caps minimization at 100 runs: its
# seeds are the committed artifacts (up to 176 KB), and minimizing an
# input that size under the default 60 s budget stalls the whole smoke
# run.
# Longer campaigns: go test ./internal/trace -fuzz FuzzTraceRoundTrip
fuzz-smoke:
	$(GO) test ./internal/trace -fuzz FuzzTraceRoundTrip -fuzztime 30s -run '^$$'
	$(GO) test ./internal/regions -fuzz FuzzMarkerBalance -fuzztime 30s -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzSynthOracleEquivalence -fuzztime 20s -run '^$$'
	$(GO) test ./internal/oracle -fuzz FuzzPolicyOracleEquivalence -fuzztime 20s -run '^$$'
	$(GO) test ./internal/report -fuzz FuzzLoadArtifact -fuzztime 20s -fuzzminimizetime 100x -run '^$$'
	$(GO) test ./internal/server -fuzz '^FuzzResolveSpec$$' -fuzztime 20s -run '^$$'
	$(GO) test ./internal/server -fuzz '^FuzzResultCacheLoad$$' -fuzztime 20s -run '^$$'
