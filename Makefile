# Developer entry points. `make check` is the gate run before sending a
# change: vet, build, and the full test suite under the race detector.

GO ?= go

.PHONY: check vet build test race race-serve cluster-test bench bench-smoke bench-admission bench-ret bench-scale bench-telemetry bench-trace-guard clean

check: vet build race-serve race cluster-test

# vet also fails on any file gofmt would change (benchmark build outputs
# under .bench_build/ excluded).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race gate for the concurrent serving stack: the HTTP daemon's
# single-writer discipline and the controller it serializes. Fast subset
# run before the full race suite.
race-serve:
	$(GO) test -race ./internal/server/... ./internal/controller/...

# HA failover acceptance at process scale: three real daemons on local
# ports, SIGKILL of the leader, follower takeover with byte-identical
# replayed state, a post-failover write, and a replication-metric scrape.
# (The in-process failover/fencing/soak tests run in the normal race
# suite; this target adds the real-process, real-signal layer.)
cluster-test:
	WAVESCHED_CLUSTER_E2E=1 $(GO) test ./cmd/wavesched -run TestClusterProcessE2E -count=1 -v

# Full benchmark harness at quick scale (minutes).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Benchmark smoke: one iteration of the telemetry-off guard, the RET
# cross-epoch carry comparison, and the decomposition speedup, so those
# paths are exercised (and kept compiling) on every PR without paying for
# a full bench run. The later steps regenerate Fig. 3 (gated ±20% against
# BENCH_04.json), the Fig. 4 RET sweep (gated ±10% against BENCH_09.json,
# which also pins fig4 lp_ms at the certificate-pruned level), and the
# scale-tier proxy (gated ±10% against BENCH_10.json) at quick scale.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkSolveTelemetryOff$$|BenchmarkRETCarry|BenchmarkRETDecomposition' -benchtime 1x .
	$(GO) run ./cmd/benchfig -quick -fig 3 -json /tmp/benchsmoke.json -baseline BENCH_04.json -max-regress 20
	$(MAKE) bench-admission
	$(MAKE) bench-ret
	$(MAKE) bench-scale
	$(MAKE) bench-trace-guard
	$(MAKE) bench-cluster-guard

# RET search-speed gate: regenerate the Fig. 4 sweep at quick scale under
# the probe-economy lens and fail if lp_ms or wall time regressed more
# than 10% against the committed BENCH_09.json (the certificate-pruned
# search baseline; the lp_ms guard is direction-aware — only slowdowns
# fail, speedups just move the next committed baseline).
bench-ret:
	$(GO) run ./cmd/benchfig -quick -fig ret -json /tmp/benchret.json -baseline BENCH_09.json -max-regress 10

# Scale-tier gate: the quick proxy of the 400/1000-node sweep (K=8
# enumeration vs column generation), gated ±10% against the committed
# BENCH_10.json. lp_ms here is the column-generation arm's wall time, so
# the guard is direction-aware: only a colgen slowdown fails, while the
# enumeration baseline getting slower cannot mask one.
bench-scale:
	$(GO) run ./cmd/benchfig -quick -fig scale -json /tmp/benchscale.json -baseline BENCH_10.json -max-regress 10

# Admission-subsystem sustained-load smoke: 5000 durable submissions
# through the batched intake path vs the per-request mutex path, plus the
# incremental re-plan timing. Fails if batched intake throughput drops
# more than 10% against the committed BENCH_08.json baseline.
bench-admission:
	$(GO) run ./cmd/benchfig -quick -fig admission -json /tmp/benchadmission.json -baseline BENCH_08.json -max-regress 10

# Tracing-overhead guard: the Fig. 4 RET solve with JSONL span tracing
# enabled must stay within 5% of the tracing-off path (the per-span work
# is one buffered JSON encode; the probe LP dominates).
bench-trace-guard:
	$(GO) test -run xxx -bench 'BenchmarkFig4Tracing' -benchtime 10x . | awk ' \
		/BenchmarkFig4Tracing\/off/ {off=$$3} \
		/BenchmarkFig4Tracing\/on/ {on=$$3} \
		{print} \
		END { \
			if (off == "" || on == "") { print "bench-trace-guard: missing benchmark output"; exit 1 } \
			ratio = on / off; \
			printf "bench-trace-guard: tracing overhead %+.1f%% (on %s ns/op vs off %s ns/op)\n", (ratio-1)*100, on, off; \
			if (ratio > 1.05) { print "bench-trace-guard: FAIL, tracing overhead exceeds 5%"; exit 1 } \
		}'

# Guard for the telemetry layer's disabled-path cost: lp.SolveWith with
# no tracer attached must stay within noise (<2%) of the seed solver.
bench-telemetry:
	$(GO) test -run xxx -bench SolveTelemetryOff -benchtime 20x -count 3 .

# No-cluster overhead guard: the HA hooks on the serving write path (one
# nil interface check + an atomic leader load) must cost ≤2% when
# clustering is off. Min-of-5 on each side suppresses scheduler noise.
bench-cluster-guard:
	$(GO) test -run xxx -bench 'BenchmarkClusterHooks' -benchtime 10000x -count 5 ./internal/server | awk ' \
		/BenchmarkClusterHooks\/off/ { if (off == "" || $$3 < off) off = $$3 } \
		/BenchmarkClusterHooks\/on/  { if (on == ""  || $$3 < on)  on = $$3 } \
		{print} \
		END { \
			if (off == "" || on == "") { print "bench-cluster-guard: missing benchmark output"; exit 1 } \
			ratio = on / off; \
			printf "bench-cluster-guard: cluster-hook overhead %+.1f%% (on %s ns/op vs off %s ns/op)\n", (ratio-1)*100, on, off; \
			if (ratio > 1.02) { print "bench-cluster-guard: FAIL, no-cluster path overhead exceeds 2%"; exit 1 } \
		}'

clean:
	$(GO) clean ./...
