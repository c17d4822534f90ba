GO ?= go

.PHONY: build test fuzz vet bench bench-check chaos crash serve-test metrics-test clean

build:
	$(GO) build ./...

# The engine, comat, wal and wire packages carry fuzz targets
# (FuzzExtractLiterals, FuzzDepKey, FuzzWALReplay, FuzzWireFrame); their seed
# corpora run as plain tests here. `make fuzz` explores beyond the seeds.
test:
	$(GO) test ./...

fuzz:
	$(GO) test -fuzz FuzzExtractLiterals -fuzztime 30s ./internal/engine/
	$(GO) test -fuzz FuzzDepKey -fuzztime 15s ./internal/comat/
	$(GO) test -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal/
	$(GO) test -fuzz FuzzWireFrame -fuzztime 30s ./internal/wire/

# The second line compile-checks the benchmark module, which `./...` does
# not reach: it pins part of internal/'s exported surface (seconds, not the
# ~17 s of bench-check). The last fails on any file gofmt would rewrite;
# its walk from the root reaches bench/ too.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Fault-injection chaos suite: hundreds of injected faults (disk, buffer
# pool, WAL append, CO materialization) against a fault-free twin engine,
# under the race detector. See EXECUTOR.md "Cancellation, timeouts & fault
# injection". The engine suite repeats 5 times, like serve-test's load tests,
# so a rare interleaving fails here (~15 s per pass).
chaos:
	$(GO) test -race -count=5 -run 'TestChaos' ./internal/engine/
	$(GO) test -race -count=1 ./internal/faultinj/

# Crash-injection harness: every durable commit point of a mixed workload is
# crashed (boundary images plus torn-tail cuts of the newest segment, and
# injected fsync/open failures); each image is recovered and differentially
# verified against an in-memory twin. See EXECUTOR.md "Durability & crash
# recovery".
crash:
	$(GO) test -race -count=1 -run 'TestCrash' -v ./internal/engine/

# Network service layer suite under the race detector: wire protocol,
# admission control and shedding, server-side conflict retries, connection
# chaos (injected net faults), graceful drain, and the engine's
# clean-shutdown contract. See EXECUTOR.md "Network service layer".
# The two load/fault chaos tests repeat 20 times so a rare interleaving
# fails here, not in front of a reviewer.
serve-test:
	$(GO) test -race -count=1 ./internal/wire/
	$(GO) test -race -count=20 -run 'TestServerDrainUnderLoad|TestServerNetFaultChaos' ./internal/wire/
	$(GO) test -race -count=1 -run 'TestClose|TestCleanShutdown' ./internal/engine/

# Observability suite under the race detector: the metrics core (atomic
# counters/gauges/histograms, registry, Prometheus exposition, traces),
# EXPLAIN ANALYZE actual-vs-collected parity, statement classification and
# the slow-query log, WAL latency histograms, wire counter exposition, and
# the tracing-off prepared-hit alloc guard. See EXECUTOR.md "Observability".
metrics-test:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestExplainAnalyze|TestSlowQuery|TestTraceSpans|TestStatementClass|TestWriteConflictCounter|TestVacuumCounters|TestWALLatency|TestMetricsExposition|TestPreparedHit' ./internal/engine/
	$(GO) test -race -count=1 -run 'TestWireMetrics|TestCountersRaceFree' ./internal/wire/

# Smoke-run the executor micro-benchmarks and the root paper benchmarks
# (E1–E13, one iteration each): catches bench-rot without burning CI
# minutes. See EXECUTOR.md for real runs.
bench:
	$(GO) test -run '^$$' -bench BenchmarkExec -benchtime 1x ./internal/exec/
	$(GO) test -run '^$$' -bench 'BenchmarkExecRepeated|BenchmarkSearchedDML|BenchmarkTakeMiss' -benchtime 1x ./internal/engine/
	$(GO) test -run '^$$' -bench 'BenchmarkFrameCodec|BenchmarkRenderCO' -benchtime 1x ./internal/wire/
	$(GO) test -run '^$$' -bench 'BenchmarkE|BenchmarkCOCheckoutHit' -benchtime 1x .

# The benchmark module (bench/, its own go.mod) imports a dozen internal/
# packages but sits outside `go build ./...`: vet and test it here so a root
# change that breaks its build fails before the benchmark runs (~17 s).
bench-check:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

clean:
	$(GO) clean ./...
