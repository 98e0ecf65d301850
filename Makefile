# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-scale tools experiments crashtest crashtest-short crashtest-batch shardtest grouptest faulttest replicatetest migratetest audit obstest pathtest flakecheck docs-check fuzz clean

all: build test

build:
	go build ./...

test: crashtest-short shardtest grouptest faulttest replicatetest migratetest audit obstest pathtest flakecheck docs-check
	go test ./...

# Documentation hygiene: vet, formatting, and Markdown link integrity.
docs-check:
	go vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	go run ./cmd/docslint

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Flat-combining contention microbenchmarks: batch formation and amortized
# per-op cost at 1..8 writers, plus the engine-level ablation (batched
# durability rounds must push fences/tx below the solo floor of 4).
bench-scale:
	go test -run '^$$' -bench 'Combiner|Execute' -benchtime 100000x ./internal/flatcombine
	go test -run '^$$' -bench 'AblationFlatCombining' -cpu 1,2,4,8 .

tools:
	go build -o bin/ ./cmd/...

# Regenerate every table and figure of the paper (moderate fidelity;
# raise -secs / -n for the paper's full 20-second, 1M-op settings).
experiments: tools
	mkdir -p results
	./bin/romulus-table1 -stores 64 -txs 200                         | tee results/table1.txt
	./bin/romulus-recover -sizes 1000,10000,100000,1000000           | tee results/recovery.txt
	./bin/romulus-bench -fig 4 -threads 1,2,4,8 -secs 0.5            | tee results/fig4.txt
	./bin/romulus-bench -fig 5 -threads 1,2,4,8 -secs 0.5            | tee results/fig5.txt
	./bin/romulus-bench -fig 6 -threads 1,4 -secs 0.5 -sizes 10000,100000,1000000 | tee results/fig6.txt
	./bin/romulus-bench -fig 7 -threads 2,4,8,16 -secs 0.5           | tee results/fig7.txt
	./bin/romulus-db -n 100000 -threads 1,2,4                        | tee results/fig8.txt
	./bin/romulus-sps -secs 0.3                                      | tee results/fig9.txt
	./bin/romulus-bench -pwbhist                                     | tee results/pwbhist.txt

# Crash campaigns: one driver (internal/crashtest), one -scenario per system
# under test; DESIGN.md "Crash campaigns" tabulates them. The explicit
# -keys/-txs are the sizing these targets have always run at (the values the
# CLI's flag defaults used to force on every campaign); without them a
# scenario runs at its own defaults.
crashtest: tools
	./bin/romulus-crashtest -rounds 2000 -chain 3 -engines all -threads 4

# Combined-batch crash campaign: crashes aimed inside flat-combined
# durability rounds; recovery must expose every batch all-or-nothing.
crashtest-batch: tools
	./bin/romulus-crashtest -scenario batch -rounds 1000 -chain 2 -threads 4 -txs 12 -audit

# Quick crash-chain pass under the race detector; part of `make test`.
crashtest-short:
	go run -race ./cmd/romulus-crashtest -seed 1 -rounds 250 -chain 3 -engines all -threads 4

# Cross-shard crash campaign: whole-process crash images across every shard
# device plus the coordinator log; in-doubt two-phase batches must resolve
# all-or-nothing under the auditor. Part of `make test`.
shardtest:
	go run -race ./cmd/romulus-crashtest -scenario xshard -audit -seed 1 -rounds 120 -chain 2 -shards 3 -keys 64 -txs 12

# Network group-commit crash campaign under the race detector: concurrent
# pipelined connections share durability rounds through the server's group
# committer; crashes inside those rounds must lose no acknowledged write and
# never split a batch (docs/PROTOCOL.md durability contract). Part of
# `make test`.
grouptest:
	go run -race ./cmd/romulus-crashtest -scenario group -audit -seed 1 -rounds 150 -chain 2 -threads 6

# Media-fault torture under the race detector: each round chains a torn
# crash, bit rot and sticky/transient media faults through recovery for
# every engine, asserting damage is lost-and-reported, never
# corrupt-and-served (docs/FAULTS.md). Part of `make test`.
faulttest:
	go run -race ./cmd/romulus-crashtest -scenario faults -audit -seed 1 -rounds 60 -keys 64 -txs 12

# Mid-replicate crash campaign under the race detector: crashes armed a few
# persistence events past a random commit's durable point land inside
# dirty-range (or full-copy) replication; recovered lanes must replay each
# worker's surviving operation prefix exactly (DESIGN.md dirty-extent
# tracking). Part of `make test`.
replicatetest:
	go run -race ./cmd/romulus-crashtest -scenario replicate -audit -seed 1 -rounds 150 -chain 2 -threads 2

# Mid-migration crash campaign under the race detector: crashes land inside
# the copy, cutover and cleanup phases of an online shard split — and inside
# recovery itself, chained — while a workload keeps writing to the moving
# keyspace; every key must recover to exactly one owner, with in-flight
# splits rolled back (journal in copy) or carried forward (journal past
# cutover) and no acknowledged write lost (docs/SHARDING.md). The left-right
# publish interleavings replica reads ride during the split run under the
# race detector too. Part of `make test`.
migratetest:
	go test -race ./internal/leftright/
	go run -race ./cmd/romulus-crashtest -scenario migrate -audit -seed 1 -rounds 60 -chain 2 -keys 64 -txs 12

# Crash-chain campaign with the durability auditor chained in front of the
# crash scheduler: any dirty or unfenced line at a commit marker, any
# durably-claimed line lost at a crash, and any unflushed line at engine
# close fails the run. Part of `make test`.
audit:
	go run ./cmd/romulus-crashtest -audit -seed 1 -rounds 250 -chain 3 -engines all -threads 4

# Observability surface under the race detector: the metrics registry and
# span recorder (internal/obs), the HTTP ops endpoints (internal/obshttp),
# the pmem flight recorder (internal/blackbox), and the server's span
# pipeline (internal/server). Part of `make test`.
obstest:
	go test -race ./internal/obs/ ./internal/obshttp/ ./internal/blackbox/ ./internal/server/

# The layers the group committer drives under the race detector: the flat
# combiner (announced and direct entries), the C-RW-WP lock (released at the
# durable point, mid-round), the engine, and the sharded store; plus the
# redo-log engine, whose optimistic readers load words a committer is
# storing. Part of `make test`.
pathtest:
	go test -race ./internal/flatcombine/ ./internal/crwwp/ ./internal/core/ ./internal/shard/ ./internal/redolog/

# The two server tests that raced on the seed (PLACEMENT answering a finished
# split with the pre-cutover slot map; spans read before the writer emitted
# them), plus the pipelining tests (reads riding the commit queue, across a
# cutover too), repeated so no race can come back unnoticed. Part of
# `make test`.
flakecheck:
	go test -count=20 -run 'TestServerSplitEndToEnd|TestSpanTimeline|TestPipelined' ./internal/server

fuzz:
	go test -fuzz FuzzAllocFree -fuzztime 60s ./internal/alloc
	go test -fuzz FuzzServeLines -fuzztime 60s ./internal/server
	go test -fuzz FuzzCrashRecovery -fuzztime 60s ./internal/core

clean:
	rm -rf bin
