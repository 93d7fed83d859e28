# dcfail build/test entry points.
#
# Tier 1 (the seed gate): build everything and run the unit tests.
# Tier 2 (concurrency gate): vet plus the full suite under the race
# detector — the fmsnet/wal/faultnet crash-safety surface is heavily
# concurrent and must stay race-clean.

GO ?= go

.PHONY: all build test race vet lint lint-sarif tier1 tier2 serve-smoke chaos bench-quick bench bench-serve bench-fold bench-predict bench-ingest benchall profile

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

tier1: build test

tier2: vet lint race serve-smoke chaos bench-quick

# lint: fotlint runs the project-specific analyzers (determinism,
# durability, clock-injection, and concurrency-contract invariants)
# over the whole module; every finding must be fixed or
# reason-suppressed with //lint:ignore.
# `go run ./cmd/fotlint -list` prints the rule registry.
lint:
	$(GO) run ./cmd/fotlint ./...

# lint-sarif: the same run as a SARIF 2.1.0 log (fotlint.sarif in the
# repo root) — what CI uploads as a workflow artifact; suppressed
# findings ride along as inSource suppressions with their reasons.
lint-sarif:
	$(GO) run ./cmd/fotlint -sarif ./... > fotlint.sarif

# serve-smoke: fotqueryd generates a trace, serves it on a loopback
# port, queries its own HTTP API end to end, and exits non-zero on any
# mismatch — the hermetic live-service gate. The router smoke stands up
# the full replicated tier (primary, stream, two replicas, router),
# kills the serving replica, and requires the failover query to succeed.
serve-smoke:
	$(GO) run ./cmd/fotqueryd -smoke
	$(GO) run ./cmd/fotrouter -smoke

# chaos: the replica-kill/restart harness under the race detector — a
# thousand concurrent clients through the router while a replica dies
# and rejoins mid-stream; the gate is zero failed queries and
# byte-identical responses. `-short` drops to 100 clients.
chaos:
	$(GO) test -race -run TestChaosReplicaKillRestartUnderLoad -v ./internal/router/

# bench-quick: the pipeline benchmark (bench/, BENCHMARK.json) is a
# module of its own compiled against dcfail/internal/..., so the root
# `./...` never builds it: vet and test it from inside, then run one
# short mixed_live pass over the real tier so a broken exported
# signature or Type-1 gate (routed /report == SerialReference, served ==
# boot + acked, zero rebuilds/drops/sheds) fails here. The result line
# lands in bench-quick.jsonl, which CI uploads; its numbers are a smoke
# reading, not a measurement.
bench-quick:
	cd bench && $(GO) vet . && $(GO) test .
	rm -f bench-quick.jsonl
	bash bench/run.sh --workload mixed_live --seed 42 --seconds 6 --trace 0 -quick -record bench-quick.jsonl

# bench: the headline serial-vs-parallel full-report comparison at paper
# scale; writes BENCH_report.json in the repo root.
bench:
	$(GO) test -run '^$$' -bench BenchmarkFullReport -benchtime 2x -v .

# bench-serve: load-generates the replicated serving tier through the
# router and writes latency percentiles / QPS / availability to
# BENCH_serve.json in the repo root.
bench-serve:
	$(GO) test -run '^$$' -bench BenchmarkServeTier -benchtime 500x -v .

# bench-fold: incremental engine delta-fold cost against full recompute
# at paper scale; writes BENCH_fold.json in the repo root and fails if
# the steady-state per-fold speedup drops under 5x. The CI smoke runs
# the same benchmark with FOLDBENCH_PROFILE=small (byte-identity checked,
# gate not enforced at toy scale).
bench-fold:
	$(GO) test -run '^$$' -bench BenchmarkFoldDelta -benchtime 1x -v -timeout 40m .

# bench-predict: streaming risk-engine per-fold update cost against the
# incremental fold budget, plus scoring throughput; writes
# BENCH_predict.json in the repo root and fails if the update exceeds
# 10% of the fold budget at paper scale. The CI smoke runs the same
# benchmark with PREDICTBENCH_PROFILE=small (artifact emitted, gate not
# enforced at toy scale).
bench-predict:
	$(GO) test -run '^$$' -bench BenchmarkPredictUpdate -benchtime 1x -v -timeout 40m .

# bench-ingest: binary ticket wire vs the legacy JSON-lines codec on
# the collector→fold ingest path, plus cold start from a columnar
# (.fotseg) archive vs JSON-segment replay; writes BENCH_ingest.json in
# the repo root and fails if binary ingest drops under 1M tickets/s or
# the cold-start speedup under 20x at paper scale. The CI smoke runs the
# same benchmark with INGESTBENCH_PROFILE=small (report byte-identity
# checked at every profile, gates not enforced at toy scale).
bench-ingest:
	$(GO) test -run '^$$' -bench BenchmarkIngestWire -benchtime 1x -v -timeout 40m .

# benchall: the full per-table/per-figure benchmark sweep.
benchall:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# profile: CPU and allocation profiles of the paper-scale report
# pipeline; inspect with `go tool pprof cpu.out` / `mem.out`. The
# live daemon side is `fotqueryd -pprof 127.0.0.1:6060` instead.
profile:
	$(GO) run ./cmd/fotreport -profile paper -seed 42 -cpuprofile cpu.out -memprofile mem.out > /dev/null
	@echo "wrote cpu.out and mem.out (go tool pprof <file>)"
