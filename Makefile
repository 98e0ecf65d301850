# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench bench-alloc bench-scale bench-fanin tools experiments crashtest crashtest-short roundtest shardtest faulttest migratetest audit obstest pathtest flakecheck docs-check fuzz clean

all: build test

build:
	go build ./...

test: crashtest-short roundtest shardtest faulttest migratetest audit obstest pathtest flakecheck docs-check
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

# Allocator microbenchmarks: alloc/free churn, allocation on an empty-binned
# heap (the bulk-load path) and churn with 40 non-empty bins.
bench-alloc:
	go test -run '^$$' -bench Alloc -benchmem ./internal/alloc

# Flat-combining contention microbenchmarks: batch formation and amortized
# per-op cost at 1..8 writers, plus the engine-level ablation (batched
# durability rounds must push fences/tx below the solo floor of 4).
bench-scale:
	go test -run '^$$' -bench 'Combiner|Execute|Round' -benchtime 100000x ./internal/flatcombine
	go test -run '^$$' -bench 'AblationFlatCombining' -cpu 1,2,4,8 .

# Wire fan-in: SET bursts of depth 1 and 16 from 2, 64, 256 and 1,024
# connections on a 2-shard server; ops/s, ops per group batch and the p99
# burst round trip per point. Six runs per point: three per build cannot
# resolve a 10% change between two builds.
bench-fanin:
	go test -run '^$$' -bench ServeFanIn -benchtime 200000x -cpu 2 -count 6 ./internal/server

tools:
	go build -o bin/ ./cmd/...

# Regenerate every table and figure of the paper with the one experiments
# driver (moderate fidelity; raise -secs / -keys for the paper's full
# 20-second, 1M-op settings).
experiments: tools
	mkdir -p results
	./bin/romulus-bench -fig table1 -stores 64 -txs 200                 | tee results/table1.txt
	./bin/romulus-bench -fig recovery -sizes 1000,10000,100000,1000000  | tee results/recovery.txt
	./bin/romulus-bench -fig 4 -threads 1,2,4,8 -secs 0.5               | tee results/fig4.txt
	./bin/romulus-bench -fig 5 -threads 1,2,4,8 -secs 0.5               | tee results/fig5.txt
	./bin/romulus-bench -fig 6 -threads 1,4 -secs 0.5 -sizes 10000,100000,1000000 | tee results/fig6.txt
	./bin/romulus-bench -fig 7 -threads 2,4,8,16 -secs 0.5              | tee results/fig7.txt
	./bin/romulus-bench -fig 8 -keys 100000 -threads 1,2,4              | tee results/fig8.txt
	./bin/romulus-bench -fig 9 -secs 0.3                                | tee results/fig9.txt
	./bin/romulus-bench -fig pwbhist                                    | tee results/pwbhist.txt

# Crash campaigns: one driver (internal/crashtest), one -scenario per system
# under test; DESIGN.md "Crash campaigns" tabulates them. The explicit
# -keys/-txs are the sizing these targets have always run at (the values the
# CLI's flag defaults used to force on every campaign); without them a
# scenario runs at its own defaults.
crashtest: tools
	./bin/romulus-crashtest -rounds 2000 -chain 3 -engines all -threads 4

# Quick crash-chain pass under the race detector; part of `make test`.
crashtest-short:
	go run -race ./cmd/romulus-crashtest -seed 1 -rounds 250 -chain 3 -engines all -threads 4

# Cross-shard crash campaign: whole-process crash images across every shard
# device plus the coordinator log; in-doubt two-phase batches must resolve
# all-or-nothing under the auditor. Part of `make test`.
shardtest:
	go run -race ./cmd/romulus-crashtest -scenario xshard -audit -seed 1 -rounds 120 -chain 2 -shards 3 -keys 64 -txs 12

# Durability-round crash campaign under the race detector: crashes aimed
# uniformly, or into the back copy just past a commit's durable point, inside
# rounds the flat combiner formed (rom = Algorithm 1, romlog, romlr) and
# rounds the server's group committer formed over a flight-recorded shard
# (group-romlog, group-romlr). Each round must be all-or-nothing, durable in
# commit order, and lose no acknowledged write (DESIGN.md "Crash campaigns",
# docs/PROTOCOL.md durability contract). Part of `make test`.
roundtest:
	go run -race ./cmd/romulus-crashtest -scenario rounds -audit -seed 1 -rounds 150 -chain 2

# Media-fault torture under the race detector: each round chains a torn
# crash, bit rot and sticky/transient media faults through recovery for
# every engine, asserting damage is lost-and-reported, never
# corrupt-and-served (docs/FAULTS.md). Part of `make test`.
faulttest:
	go run -race ./cmd/romulus-crashtest -scenario faults -audit -seed 1 -rounds 60 -keys 64 -txs 12

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
# combiner (its one queue, led by embedded writers and the group leader
# alike), the C-RW-WP lock (released at the durable point, mid-round), the
# engine, and the sharded store; plus the redo-log engine, whose optimistic
# readers load words a committer is storing, and the device, whose image
# copies and twin comparison run across goroutines. Also the read indicator
# (readers borrow its stripes from a sync.Pool), Left-Right, the key-value
# store and the undo-log engine, whose readers use them or the engines'
# pooled transactions. Part of `make test`.
pathtest:
	go test -race ./internal/flatcombine/ ./internal/crwwp/ ./internal/core/ ./internal/shard/ ./internal/redolog/ ./internal/pmem/ ./internal/hsync/ ./internal/leftright/ ./internal/kvstore/ ./internal/undolog/

# The two server tests that raced on the seed (PLACEMENT answering a finished
# split with the pre-cutover slot map; spans read before they were emitted),
# the pipelining tests (reads riding the commit queue, across a cutover too),
# the cross-connection linearizability check over shared keys, and the
# combiner's scheduling-sensitive tests (release points, one batch per
# enqueue, hand-off to a parked waiter, 300 writers in one engine, one
# engine round per wire batch, who watches a held slot and who parks),
# repeated so no race can come back unnoticed. Part of `make test`.
flakecheck:
	go test -count=20 -run 'TestServerSplitEndToEnd|TestSpanTimeline|TestPipelined|TestWireLinearizableSharedKeys|TestWireBatchIsOneEngineRound|TestBatchStickyFaultQuarantines|TestBatchTransientFaultRetried|TestBatchReadFailureIsolated|TestLoneOperationParksBurstWatches' ./internal/server
	go test -count=20 -run 'TestReleaseAtDurablePoint|TestLateReleasedAfterReplicate|TestEnqueueIsOneBatch|TestHandOffToParkedWaiter|TestDrainFoldsLateArrivals|TestWatcherSettledWithoutUnpark|TestSecondWaiterParksWhileOneWatches|TestWatcherAndParkedWaiterBothRun|TestFlushAndExclusivePark' ./internal/flatcombine
	go test -count=20 -run 'TestManyConcurrentWriters|TestReadersReleasedAtDurablePoint' ./internal/core

fuzz:
	go test -fuzz FuzzAllocFree -fuzztime 60s ./internal/alloc
	go test -fuzz FuzzByteMap -fuzztime 60s ./internal/pstruct
	go test -fuzz FuzzServeLines -fuzztime 60s ./internal/server
	go test -fuzz FuzzCrashRecovery -fuzztime 60s ./internal/core
	go test -fuzz FuzzEngineOpen -fuzztime 60s ./internal/core
	go test -fuzz FuzzPlacementSlot -fuzztime 60s ./internal/migrate
	go test -fuzz FuzzDecodeOps -fuzztime 60s ./internal/shard
	go test -fuzz FuzzBlackboxDecode -fuzztime 60s ./internal/blackbox

clean:
	rm -rf bin
