// Package core implements the three Romulus algorithms — the heart of the
// paper and of this repository.
//
// An Engine owns a pmem.Device laid out as twin copies of one persistent
// heap: "main", which transactions mutate in place, and "back", a
// byte-level snapshot of the last committed state, preceded by a small
// header holding the persistent state machine (IDL/MUT/CPY) and the root
// pointer array. Because one copy is consistent at every instant, an
// update transaction costs at most FOUR persistence fences regardless of
// its size (§4.1, Algorithm 1):
//
//  1. state=MUT, pwb, pfence — announce mutation of main
//  2. user stores land in main (one pwb per dirty line); pfence
//  3. state=CPY, pwb, psync — the transaction's durable point
//  4. replicate main→back, pwb; pfence; state=IDL
//
// Recovery inverts the state machine: a crash in MUT restores main from
// back, a crash in CPY finishes the copy main→back, and IDL needs nothing.
// Every recovery action is idempotent, so crashes during recovery are
// harmless (tested by the crash-chain harness in internal/crashtest).
//
// One record of a round's stores drives steps 2 and 4: a VOLATILE set of the
// cache lines the round stored to (Engine.lines, a pmem.LineSet). The durable
// point writes those lines back, replicate copies them main→back and rollback
// copies them back→main. It is discardable state — recovery reconciles the
// twins without it — so it costs no persistence events, and replication is
// proportional to the lines written, not to the heap (the aim of §4.7's
// volatile log, at cache-line rather than byte granularity).
//
// The three variants share this engine and differ in Config.Variant:
//
//   - Rom (§4.1) and RomLog (§4.7) run the same code under two names: the
//     paper's figures and tables report both. Algorithm 1's copy of the
//     whole used prefix is the Config.FullReplicate ablation.
//   - RomLR (§5.3): Left-Right synchronization gives wait-free readers
//     that run against whichever copy is consistent, reached through
//     synthetic pointers (a constant base offset added to each Ptr).
//
// Concurrent updaters flat-combine (internal/flatcombine): mutations queue
// in the engine's combiner and are executed as one durable transaction by
// whichever writer leads the round, amortizing the four fences across the
// batch. Readers use the variant's reader synchronization (crwwp scalable
// reader-writer lock, or Left-Right for RomLR) and never fence at all.
// Neither side registers a thread: a writer queues in the combiner and a
// reader arrives on a read-indicator stripe it borrows per call.
//
// Observability: the engine publishes transaction counters via Stats; its
// device (Device().Stats) counts every store, pwb and fence, so one
// transaction's persistence cost is the counters' delta across the call.
// See docs/OBSERVABILITY.md.
//
// File map: engine.go (lifecycle, commit protocol, the round's line set and
// its replication, recovery), tx.go (transactional loads/stores and the
// allocator bridge), layout.go (persistent header and twin-copy geometry),
// snapshot.go (online snapshots, an extension beyond the paper).
package core
