package store

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/wire"
)

// openCounted opens a store like openStore and books its counters into
// a fresh metrics.Server, which the accounting assertions read.
func openCounted(t *testing.T, dir string, opts Options) (*Store, *metrics.Server) {
	t.Helper()
	s, _, _ := openStore(t, dir, opts)
	met := new(metrics.Server)
	s.SetCounters(met)
	return s, met
}

func TestAppendBatchReplay(t *testing.T) {
	dir := t.TempDir()
	s, met := openCounted(t, dir, Options{Fsync: true})
	recs := sampleRecords()
	if err := s.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if s.Pos() != 0 || met.WALGroupCommits.Load() != 0 {
		t.Fatalf("empty batch moved the store: pos=%d groups=%d", s.Pos(), met.WALGroupCommits.Load())
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if s.Pos() != uint64(len(recs)) {
		t.Fatalf("pos = %d, want %d", s.Pos(), len(recs))
	}
	// The whole batch is one group: one group commit, one fsync, but the
	// per-record append counter still ticks once per record.
	if met.WALGroupCommits.Load() != 1 || met.WALGroupRecords.Load() != uint64(len(recs)) {
		t.Fatalf("group commits = %d/%d records, want 1/%d", met.WALGroupCommits.Load(), met.WALGroupRecords.Load(), len(recs))
	}
	if met.WALFsyncs.Load() != 1 || met.WALAppends.Load() != uint64(len(recs)) {
		t.Fatalf("fsyncs = %d appends = %d, want 1 and %d", met.WALFsyncs.Load(), met.WALAppends.Load(), len(recs))
	}
	s.Close()

	_, state, info := openStore(t, dir, Options{})
	if info.Replayed != len(recs) || info.TruncatedBytes != 0 {
		t.Fatalf("recovery info = %+v", info)
	}
	if len(state.Alarms) != 1 || state.Alarms[0].ID != 1 {
		t.Fatalf("alarms = %+v", state.Alarms)
	}
}

func TestAppendBatchNeverSplit(t *testing.T) {
	s, met := openCounted(t, t.TempDir(), Options{GroupMax: 4})
	defer s.Close()
	recs := sampleRecords()
	if len(recs) <= 4 {
		t.Fatal("sample set no longer exceeds GroupMax")
	}
	if err := s.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	// A batch larger than GroupMax still lands as one oversized group:
	// the batch's atomicity outranks the cap.
	if met.WALGroupCommits.Load() != 1 || met.WALGroupRecords.Load() != uint64(len(recs)) {
		t.Fatalf("group commits = %d/%d records, want one unsplit group of %d",
			met.WALGroupCommits.Load(), met.WALGroupRecords.Load(), len(recs))
	}
}

// TestAppendBatchCrashMidGroup: a scripted crash landing on a record in
// the middle of a batch kills the whole group — the batch's caller gets
// ErrCrashed and must not ack — while on disk the records before the hit
// land whole, the hit record tears per the script, and recovery truncates
// cleanly back to the durable prefix.
func TestAppendBatchCrashMidGroup(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openStore(t, dir, Options{Fsync: true})
	// Lifetime append 4 = second record of the batch below.
	s.SetCrashPoints([]CrashPoint{{AfterAppends: 4, TearBytes: 5, FlipBit: -1}})
	recs := sampleRecords()
	for _, rec := range recs[:2] {
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.AppendBatch(recs[2:6]); !errors.Is(err, ErrCrashed) {
		t.Fatalf("batch over crash point = %v, want ErrCrashed", err)
	}
	if err := s.Append(recs[0]); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}

	_, _, info := openStore(t, dir, Options{})
	if info.Replayed != 3 {
		t.Fatalf("replayed %d, want 3 (two singles + the batch record before the hit)", info.Replayed)
	}
	if info.TruncatedBytes != 5 {
		t.Fatalf("truncated %d bytes, want the 5 torn ones", info.TruncatedBytes)
	}
	_, _, info2 := openStore(t, dir, Options{})
	if info2.TruncatedBytes != 0 || info2.Replayed != 3 {
		t.Fatalf("post-repair reopen: info = %+v", info2)
	}
}

// TestAppendBatchFenced covers both fence checks against a whole group:
// a promotion completing before the write rejects the batch with nothing
// on disk, one completing between the write and the sink delivery rejects
// it with positions advanced (records are duplicates-on-rejoin, never
// losses). Every record of the batch books a fenced write either way.
func TestAppendBatchFenced(t *testing.T) {
	t.Run("pre-write", func(t *testing.T) {
		s, met := openCounted(t, t.TempDir(), Options{})
		defer s.Close()
		s.SetTermSource(func() uint64 { return 1 })
		recs := sampleRecords()[:3]
		if err := s.AppendBatch(recs); !errors.Is(err, ErrFenced) {
			t.Fatalf("batch = %v, want ErrFenced", err)
		}
		if s.Pos() != 0 {
			t.Fatalf("pre-write fence advanced pos to %d", s.Pos())
		}
		if met.FencedWrites.Load() != uint64(len(recs)) {
			t.Fatalf("fenced writes = %d, want %d", met.FencedWrites.Load(), len(recs))
		}
	})
	t.Run("post-sink", func(t *testing.T) {
		s, met := openCounted(t, t.TempDir(), Options{})
		defer s.Close()
		calls := 0
		s.SetTermSource(func() uint64 {
			calls++
			if calls >= 2 {
				return 1 // promotion lands after the pre-write check
			}
			return 0
		})
		recs := sampleRecords()[:3]
		if err := s.AppendBatch(recs); !errors.Is(err, ErrFenced) {
			t.Fatalf("batch = %v, want ErrFenced", err)
		}
		if s.Pos() != uint64(len(recs)) {
			t.Fatalf("pos = %d, want %d (records are in the deposed WAL)", s.Pos(), len(recs))
		}
		if met.FencedWrites.Load() != uint64(len(recs)) {
			t.Fatalf("fenced writes = %d, want %d", met.FencedWrites.Load(), len(recs))
		}
		if err := s.Append(recs[0]); !errors.Is(err, ErrFenced) {
			t.Fatalf("append after fencing = %v, want ErrFenced", err)
		}
	})
}

// TestGroupCommitHammer drives many concurrent appenders through the
// group-commit path (run under -race via make crash/race) and verifies
// the WAL holds exactly every acknowledged record, with each appender's
// records in its own append order — an ack wakes its waiter only after
// the record's bytes are handed to the OS, so per-goroutine WAL order
// must match per-goroutine call order.
func TestGroupCommitHammer(t *testing.T) {
	const goroutines, perG = 64, 32
	for _, opts := range []struct {
		name string
		o    Options
	}{
		{"immediate", Options{}},
		{"groupwait", Options{GroupMax: 16, GroupWait: 100 * time.Microsecond}},
	} {
		t.Run(opts.name, func(t *testing.T) {
			dir := t.TempDir()
			s, met := openCounted(t, dir, opts.o)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						// Every third record goes in without a waiter; it must
						// still land before the appender's next record. The
						// last one waits, so nothing is left queued.
						appendRec := s.Append
						if i%3 == 0 {
							appendRec = s.AppendDeferred
						}
						if err := appendRec(FiredRec{User: uint64(g + 1), Alarms: []uint64{uint64(i)}}); err != nil {
							t.Errorf("goroutine %d append %d: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			total := goroutines * perG
			if s.Pos() != uint64(total) {
				t.Fatalf("pos = %d, want %d", s.Pos(), total)
			}
			if met.WALGroupRecords.Load() != uint64(total) || met.WALAppends.Load() != uint64(total) {
				t.Fatalf("counters: group records %d, appends %d, want %d", met.WALGroupRecords.Load(), met.WALAppends.Load(), total)
			}
			if met.WALGroupCommits.Load() < 1 || met.WALGroupCommits.Load() > uint64(total) {
				t.Fatalf("group commits = %d, want within [1, %d]", met.WALGroupCommits.Load(), total)
			}
			walFile := s.WALPath()
			s.Close()

			buf, err := os.ReadFile(walFile)
			if err != nil {
				t.Fatal(err)
			}
			payloads, _, reason := ScanFrames(buf)
			if len(payloads) != total || reason != "" {
				t.Fatalf("wal holds %d frames (reason %q), want %d", len(payloads), reason, total)
			}
			next := make([]uint64, goroutines+1)
			for i, p := range payloads {
				rec, err := DecodeRecord(p)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				fr := rec.(FiredRec)
				if got := fr.Alarms[0]; got != next[fr.User] {
					t.Fatalf("frame %d: user %d landed seq %d, want %d — group commit reordered one appender",
						i, fr.User, got, next[fr.User])
				}
				next[fr.User]++
			}
		})
	}
}

// TestAppendZeroAlloc pins the hot path's zero-allocation claim: with
// pooled requests warm, a steady-state Append (no fsync, no repl sink)
// performs no heap allocation — encode, frame and group bookkeeping all
// run in reused buffers.
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("Append pools its requests; see raceEnabled")
	}
	s, _, _ := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	var rec Record = FiredRec{User: 1, Alarms: []uint64{7, 9, 11}}
	for i := 0; i < 16; i++ {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(300, func() {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Append allocates %v per run, want 0", got)
	}
}

// TestReplSinkGroupBatches pins the sink contract: one frame batch per
// group commit carrying one ReplRecord per record at consecutive
// positions, and a single-frame snapshot batch per checkpoint.
func TestReplSinkGroupBatches(t *testing.T) {
	s, _, _ := openStore(t, t.TempDir(), Options{})
	defer s.Close()
	var batches [][]ReplFrame
	s.SetReplSink(func(frames []ReplFrame) {
		batches = append(batches, append([]ReplFrame(nil), frames...))
	})
	recs := sampleRecords()
	if err := s.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(recs[1:4]); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || len(batches[0]) != 1 || len(batches[1]) != 3 {
		t.Fatalf("sink saw %d batches, want [1 frame][3 frames]", len(batches))
	}
	pos := uint64(0)
	for _, batch := range batches {
		for _, fr := range batch {
			pos++
			if fr.Type != ReplRecord || fr.Pos != pos || fr.Gen != 0 {
				t.Fatalf("frame %+v, want record pos %d gen 0", fr, pos)
			}
			if _, err := DecodeRecord(fr.Payload); err != nil {
				t.Fatalf("frame pos %d payload does not decode: %v", fr.Pos, err)
			}
		}
	}
	b := newBuilder(nil, 0)
	s.SetStateSource(func() *State { return b.finish() })
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	last := batches[len(batches)-1]
	if len(last) != 1 || last[0].Type != ReplSnapshot || last[0].Gen != 1 || last[0].Pos != 4 {
		t.Fatalf("checkpoint batch = %+v, want one snapshot frame gen 1 pos 4", last)
	}
}

// TestFollowerApplyBatchEquivalence: a batch fed through ApplyBatch must
// leave the follower byte-identical — warm state, position, term, applied
// count and recovered on-disk state — to the same frames fed one at a
// time through Apply, including skipped duplicates and heartbeats.
func TestFollowerApplyBatchEquivalence(t *testing.T) {
	seed := replSeedFrames()
	// snapshot, record, duplicate record, record, heartbeat.
	frames := []ReplFrame{seed[0], seed[1], seed[1], seed[2], seed[3]}

	one, err := OpenFollower(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range frames {
		if _, err := one.Apply(fr); err != nil {
			t.Fatalf("sequential apply %d: %v", i, err)
		}
	}
	batched, err := OpenFollower(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	records, snapshots, err := batched.ApplyBatch(frames)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if records != 2 || snapshots != 1 {
		t.Fatalf("ApplyBatch advanced %d records, %d snapshots, want 2 and 1", records, snapshots)
	}
	if one.Pos() != batched.Pos() || one.Term() != batched.Term() || one.Applied() != batched.Applied() {
		t.Fatalf("divergence: pos %d/%d term %d/%d applied %d/%d",
			one.Pos(), batched.Pos(), one.Term(), batched.Term(), one.Applied(), batched.Applied())
	}
	warmOne, warmBatched := EncodeState(one.State()), EncodeState(batched.State())
	if string(warmOne) != string(warmBatched) {
		t.Fatalf("warm state diverged:\n seq %s\n batch %s", warmOne, warmBatched)
	}
	for _, l := range []*FollowerLog{one, batched} {
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	_, stateOne, infoOne := openStore(t, one.Dir(), Options{})
	_, stateBatched, infoBatched := openStore(t, batched.Dir(), Options{})
	if infoOne.Replayed != infoBatched.Replayed {
		t.Fatalf("recovery replayed %d vs %d", infoOne.Replayed, infoBatched.Replayed)
	}
	if string(EncodeState(stateOne)) != string(EncodeState(stateBatched)) {
		t.Fatal("recovered states diverged")
	}
}

// TestFollowerApplyBatchValidPrefix: when a frame mid-batch fails, every
// applicable frame before it has been applied and the first failure is
// reported — a batch never applies past an error and never loses the
// clean prefix.
func TestFollowerApplyBatchValidPrefix(t *testing.T) {
	seed := replSeedFrames()
	newSynced := func(t *testing.T) *FollowerLog {
		t.Helper()
		l, err := OpenFollower(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		if _, _, err := l.ApplyBatch(seed[:1]); err != nil {
			t.Fatal(err)
		}
		return l
	}

	t.Run("position-gap", func(t *testing.T) {
		l := newSynced(t)
		gap := followerRecordFrame(1, 3, 10, ExpireRec{User: 3})
		records, _, err := l.ApplyBatch([]ReplFrame{seed[1], seed[2], gap})
		if !errors.Is(err, ErrNeedSnapshot) {
			t.Fatalf("err = %v, want ErrNeedSnapshot", err)
		}
		if records != 2 || l.Pos() != 7 || l.Applied() != 2 {
			t.Fatalf("prefix: records=%d pos=%d applied=%d, want 2/7/2", records, l.Pos(), l.Applied())
		}
	})
	t.Run("undecodable-record", func(t *testing.T) {
		l := newSynced(t)
		junk := ReplFrame{Type: ReplRecord, Term: 1, Gen: 3, Pos: 7, Payload: []byte{99, 1, 2, 3}}
		records, _, err := l.ApplyBatch([]ReplFrame{seed[1], junk, seed[2]})
		if !errors.Is(err, ErrBadReplFrame) {
			t.Fatalf("err = %v, want ErrBadReplFrame", err)
		}
		if records != 1 || l.Pos() != 6 {
			t.Fatalf("prefix: records=%d pos=%d, want 1/6 — the junk frame must not reach disk", records, l.Pos())
		}
		// The stream resumes cleanly after a resync-free retry at pos 7.
		if records, _, err := l.ApplyBatch([]ReplFrame{seed[2]}); err != nil || records != 1 {
			t.Fatalf("retry: records=%d err=%v", records, err)
		}
	})
	t.Run("stale-term", func(t *testing.T) {
		l := newSynced(t)
		if _, _, err := l.ApplyBatch([]ReplFrame{seed[3]}); err != nil { // heartbeat, term 2
			t.Fatal(err)
		}
		records, _, err := l.ApplyBatch([]ReplFrame{followerRecordFrame(1, 3, 6, RemoveRec{ID: 1})})
		if !errors.Is(err, ErrBadReplFrame) || records != 0 {
			t.Fatalf("deposed-term frame: records=%d err=%v, want 0/ErrBadReplFrame", records, err)
		}
	})
	t.Run("unsynced", func(t *testing.T) {
		l, err := OpenFollower(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, _, err := l.ApplyBatch([]ReplFrame{seed[1]}); !errors.Is(err, ErrNeedSnapshot) {
			t.Fatalf("record before snapshot: %v", err)
		}
	})
	t.Run("sealed", func(t *testing.T) {
		l := newSynced(t)
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.ApplyBatch([]ReplFrame{seed[1]}); !errors.Is(err, ErrSealed) {
			t.Fatalf("sealed: %v", err)
		}
	})
}

// TestAppendDeferredRidesNextCommit: a waiter-less record costs nothing
// until somebody commits; then it lands first in that caller's group —
// one write, one fsync, one replication batch with consecutive
// positions — and replays in enqueue order.
func TestAppendDeferredRidesNextCommit(t *testing.T) {
	dir := t.TempDir()
	s, met := openCounted(t, dir, Options{Fsync: true})
	var batches [][]ReplFrame
	s.SetReplSink(func(frames []ReplFrame) { batches = append(batches, frames) })

	if err := s.AppendDeferred(ExpireRec{User: 8}); err != nil {
		t.Fatalf("AppendDeferred: %v", err)
	}
	if s.Pos() != 0 || met.WALGroupCommits.Load() != 0 || met.WALFsyncs.Load() != 0 || len(batches) != 0 {
		t.Fatalf("deferred record moved the store on its own: pos=%d groups=%d fsyncs=%d batches=%d",
			s.Pos(), met.WALGroupCommits.Load(), met.WALFsyncs.Load(), len(batches))
	}
	if err := s.Append(RegisterRec{User: 8, Strategy: wire.StrategyMWPSR}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if met.WALGroupCommits.Load() != 1 || met.WALGroupRecords.Load() != 2 || met.WALFsyncs.Load() != 1 || met.WALAppends.Load() != 2 {
		t.Fatalf("groups=%d records=%d fsyncs=%d appends=%d, want one group of 2 with one fsync",
			met.WALGroupCommits.Load(), met.WALGroupRecords.Load(), met.WALFsyncs.Load(), met.WALAppends.Load())
	}
	if met.WALDeferredRecords.Load() != 1 {
		t.Fatalf("deferred records counted = %d, want 1", met.WALDeferredRecords.Load())
	}
	if len(batches) != 1 || len(batches[0]) != 2 || batches[0][0].Pos != 1 || batches[0][1].Pos != 2 {
		t.Fatalf("replication saw %+v, want one batch with positions 1,2", batches)
	}
	if rec, err := DecodeRecord(batches[0][0].Payload); err != nil || rec != (ExpireRec{User: 8}) {
		t.Fatalf("first frame = %+v (%v), want the deferred ExpireRec", rec, err)
	}
	s.Kill()

	// Enqueue order is replay order: expire, then register — user 8 lives.
	_, state, info := openStore(t, dir, Options{})
	if info.Replayed != 2 || len(state.Clients) != 1 || state.Clients[0].User != 8 {
		t.Fatalf("recovered %d records, clients %+v; want the ExpireRec replayed before the RegisterRec", info.Replayed, state.Clients)
	}
}

// TestAppendDeferredSharesTheGroupsFate: a crash point counts a deferred
// record when it lands and kills the group it rode in; a fence rejects
// it with the group and books it as a fenced write.
func TestAppendDeferredSharesTheGroupsFate(t *testing.T) {
	t.Run("crash point", func(t *testing.T) {
		dir := t.TempDir()
		s, _, _ := openStore(t, dir, Options{Fsync: true})
		s.SetCrashPoints([]CrashPoint{{AfterAppends: 1, TearBytes: 5, FlipBit: -1}})
		if err := s.AppendDeferred(ExpireRec{User: 8}); err != nil {
			t.Fatalf("AppendDeferred: %v (nothing has landed yet)", err)
		}
		if s.Crashed() {
			t.Fatal("crash point fired at enqueue, not at landing")
		}
		if err := s.Append(RegisterRec{User: 8}); !errors.Is(err, ErrCrashed) {
			t.Fatalf("append riding with the hit record = %v, want ErrCrashed", err)
		}
		_, _, info := openStore(t, dir, Options{})
		if info.Replayed != 0 || info.TruncatedBytes != 5 {
			t.Fatalf("recovery info = %+v, want nothing replayed and the 5 torn bytes cut", info)
		}
	})
	t.Run("fenced", func(t *testing.T) {
		s, met := openCounted(t, t.TempDir(), Options{})
		defer s.Close()
		s.SetTermSource(func() uint64 { return 1 })
		if err := s.AppendDeferred(ExpireRec{User: 8}); err != nil {
			t.Fatalf("AppendDeferred: %v", err)
		}
		if err := s.Append(RegisterRec{User: 8}); !errors.Is(err, ErrFenced) {
			t.Fatalf("append = %v, want ErrFenced", err)
		}
		if met.FencedWrites.Load() != 2 || s.Pos() != 0 || met.WALDeferredRecords.Load() != 0 {
			t.Fatalf("fenced=%d pos=%d deferred=%d, want both records fenced and nothing landed", met.FencedWrites.Load(), s.Pos(), met.WALDeferredRecords.Load())
		}
	})
}

// TestAppendDeferredDrains: Close lands what is still queued; Checkpoint
// lands it in the old generation before it captures state; and the queue
// never reaches deferredMax — the enqueue that would commits it.
func TestAppendDeferredDrains(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		s, _, _ := openStore(t, dir, Options{Fsync: true})
		if err := s.AppendDeferred(EpochRec{Epoch: 9}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, state, info := openStore(t, dir, Options{})
		if info.Replayed != 1 || state.Epoch != 9 {
			t.Fatalf("after Close: replayed %d, epoch %d; the deferred record was lost", info.Replayed, state.Epoch)
		}
	})
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		s, met := openCounted(t, dir, Options{})
		landedAtCapture := -1
		s.SetStateSource(func() *State {
			landedAtCapture = int(met.WALAppends.Load()) // both run under the store mutex
			return &State{NextAlarmID: 1, Epoch: 9}
		})
		if err := s.AppendDeferred(EpochRec{Epoch: 9}); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if landedAtCapture != 1 || met.Snapshots.Load() != 1 {
			t.Fatalf("appends landed when state was captured = %d (snapshots %d), want 1", landedAtCapture, met.Snapshots.Load())
		}
		s.Close()
		_, state, info := openStore(t, dir, Options{})
		if !info.FromSnapshot || info.Replayed != 0 || state.Epoch != 9 {
			t.Fatalf("recovery info = %+v epoch %d, want the snapshot alone", info, state.Epoch)
		}
	})
	t.Run("bound", func(t *testing.T) {
		s, met := openCounted(t, t.TempDir(), Options{Fsync: true})
		defer s.Close()
		for i := 1; i < deferredMax; i++ {
			if err := s.AppendDeferred(ExpireRec{User: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if s.Pos() != 0 || met.WALGroupCommits.Load() != 0 {
			t.Fatalf("queue below the bound committed: pos=%d groups=%d", s.Pos(), met.WALGroupCommits.Load())
		}
		if err := s.AppendDeferred(ExpireRec{User: deferredMax}); err != nil {
			t.Fatal(err)
		}
		if s.Pos() != deferredMax || met.WALGroupCommits.Load() != 1 || met.WALFsyncs.Load() != 1 {
			t.Fatalf("at the bound: pos=%d groups=%d fsyncs=%d, want one group of %d", s.Pos(), met.WALGroupCommits.Load(), met.WALFsyncs.Load(), deferredMax)
		}
		if met.WALDeferredRecords.Load() != deferredMax-1 {
			t.Fatalf("deferred counted = %d, want %d (the committing enqueue waited)", met.WALDeferredRecords.Load(), deferredMax-1)
		}
	})
}

// TestExpireAbsentUserIsNoOp: a deferred ExpireRec can land after a
// checkpoint whose snapshot already excludes the user; replaying it
// changes nothing.
func TestExpireAbsentUserIsNoOp(t *testing.T) {
	base := &State{
		NextAlarmID: 1,
		Clients:     []ClientRec{{User: 7, Strategy: wire.StrategyMWPSR, Reliable: true, PendingFired: []uint64{3}}},
		Sessions:    []SessionRec{{Token: 5, User: 7}},
		LastToken:   5,
	}
	a := NewApplier(base, 0)
	want := EncodeState(a.State())
	a.Apply(ExpireRec{User: 8})
	if got := EncodeState(a.State()); string(got) != string(want) {
		t.Fatalf("ExpireRec for an absent user changed the state:\n%s\nwant\n%s", got, want)
	}
}
