# Build/verify entry points. `make verify` is the extended pre-merge gate
# referenced from ROADMAP.md; `make vet` also vets the socket layer's
# non-Linux stubs (GOOS=darwin) so they cannot rot unseen; `make race`
# exercises the concurrent components under the race detector; `make
# fault` runs the fault-injection
# stress suite with a fixed seed (override: make fault HPFQ_FAULT_SEED=7).
# `make fec` runs the loss-resilience suite — coder round-trips plus the
# end-to-end recovery/fairness tests, whose erasure patterns come from
# seeds fixed in the tests themselves, so every run erases the same
# datagrams. `make bench` refreshes BENCH_dataplane.json from the pump
# benchmarks (monolithic and sharded, so the single/multi-shard pair lands
# in one document), the buffer pool's cross-goroutine handoff, a
# 4096-leaf engine build, plus the loopback UDP run benchmark (16 × 64 B
# to one peer, one write per datagram beside one GSO sendmmsg), and
# BENCH_sched.json from the PIFO-vs-seed scheduler microbenchmarks
# (override duration: make bench BENCHTIME=1x for a smoke run); `make
# alloccheck` runs the steady-state zero-allocation regression test alone.
# `make overload` runs the overload-control suite — shedding, brownout,
# watchdog/stall, health endpoints — under the race detector, including the
# gateway soak (HPFQ_SOAK=5m scales it up; HPFQ_SOAK_OUT merges the shed and
# recovery stats into a benchjson document such as BENCH_dataplane.json).
# Each `make bench` keeps the replaced document's figures under "previous",
# so a refresh checks in a before/after pair. `make perfbench-short` vets
# and unit-tests the perfbench harness (its own module) against the engine
# in this checkout, in a few seconds. `make fuzz` runs each fuzz target —
# the gateway's flag-spec parsers, the FEC decoder's receive path, the
# topology parser, the admin mutation handlers' query parsing — for 10 s
# apiece. `make loc` prints the line count of the non-test Go sources
# outside perfbench/, the size figure simplification changes quote.

GO ?= go
HPFQ_FAULT_SEED ?= 20260806
BENCHTIME ?= 2s

.PHONY: all build test race vet fmt fault fec fuzz bench alloccheck overload perfbench-short loc verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/wallclock/... ./internal/overload/... ./internal/dataplane/... ./internal/shard/... ./internal/obs/... ./internal/ctl/... ./internal/fec/... ./internal/udpio/... ./cmd/hpfqgw/...

vet:
	$(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/udpio ./cmd/hpfqgw

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

fault:
	HPFQ_FAULT_SEED=$(HPFQ_FAULT_SEED) $(GO) test -race -count=1 \
		-run 'Fault|Retry|Panic|AQM|CoDel|IngestCloseRace|Drain|Flow' \
		./internal/faultconn/... ./internal/dataplane/... ./cmd/hpfqgw/...

fec:
	$(GO) test -race -count=1 ./internal/fec/...
	$(GO) test -race -count=1 -run 'FEC' \
		./internal/dataplane/... ./internal/topo/... ./cmd/hpfqgw/...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzGatewaySpecs -fuzztime 10s ./cmd/hpfqgw
	$(GO) test -run '^$$' -fuzz FuzzDecoderPush -fuzztime 10s ./internal/fec
	$(GO) test -run '^$$' -fuzz FuzzTopoParse -fuzztime 10s ./internal/topo
	$(GO) test -run '^$$' -fuzz FuzzMutationQuery -fuzztime 10s ./internal/ctl

bench:
	{ $(GO) test ./internal/dataplane/ -run '^$$' \
		-bench 'BenchmarkPump(Batched|Tree)$$|BenchmarkReconfigUnderLoad$$|BenchmarkFECEncode$$|BenchmarkPumpWithFEC$$|BenchmarkBufferPoolHandoff$$|BenchmarkNewDeepTree$$' -benchmem \
		-benchtime $(BENCHTIME) -count=1 ; \
	  $(GO) test ./internal/shard/ -run '^$$' \
		-bench 'BenchmarkShardedPump$$' -benchmem \
		-benchtime $(BENCHTIME) -count=1 ; \
	  $(GO) test ./internal/udpio/ -run '^$$' \
		-bench 'BenchmarkUDPRun$$' -benchmem \
		-benchtime $(BENCHTIME) -count=1 ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_dataplane.json
	@cat BENCH_dataplane.json
	$(GO) test ./internal/sched/ -run '^$$' \
		-bench 'Benchmark(PIFO|Seed)' -benchmem \
		-benchtime $(BENCHTIME) -count=1 \
		| $(GO) run ./cmd/benchjson -out BENCH_sched.json
	@cat BENCH_sched.json

alloccheck:
	$(GO) test ./internal/dataplane/ -run TestPumpSteadyStateZeroAlloc -count=1 -v

overload:
	$(GO) test -race -count=1 ./internal/overload/...
	$(GO) test -race -count=1 -run 'Overload|Shed|Brownout|Watchdog|Stall|Healthz|RestartStorm' \
		./internal/faultconn/... ./internal/dataplane/... ./internal/ctl/... ./cmd/hpfqgw/...

perfbench-short:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' \
		| xargs cat | wc -l

verify: build test vet fmt race
