package server

import (
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// TestExpiredSessionDropsStalePending: a client whose session was
// idle-TTL-expired (durably logged) and who reconnects with its old
// token must get a clean fresh-session response — no stale pendingFired
// replay — live and after a crash recovery.
func TestExpiredSessionDropsStalePending(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	now := time.Unix(5000, 0)
	e.nowFn = func() time.Time { return now }

	if _, err := e.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)},
	}); err != nil {
		t.Fatal(err)
	}
	tok, _, _ := hello(t, e, 1, wire.StrategyMWPSR, 0)
	out := handle(t, e, 1, 1, geom.Pt(500, 500))
	if len(firedIn(out)) != 1 {
		t.Fatalf("setup: no firing, got %v", out)
	}
	if pending := e.PendingFired(1); len(pending) != 1 {
		t.Fatalf("setup: pending = %v, want one unacked firing", pending)
	}

	now = now.Add(2 * time.Minute)
	if n, err := e.ExpireSessions(time.Minute); err != nil || n != 1 {
		t.Fatalf("expiry: n=%d err=%v", n, err)
	}

	// The stale token must open a FRESH session with no firing replay.
	tok2, resumed, out := hello(t, e, 1, wire.StrategyMWPSR, tok)
	if resumed || tok2 == tok {
		t.Fatalf("expired session resumed (token %d -> %d)", tok, tok2)
	}
	if got := firedIn(out); len(got) != 0 {
		t.Fatalf("fresh session replayed stale pending %v", got)
	}

	// Expiry is durable: the same holds on an engine recovered from disk.
	e.Store().Kill()
	e2 := newDurableEngine(t, dir, nil)
	_, resumed, out = hello(t, e2, 1, wire.StrategyMWPSR, tok)
	if resumed {
		t.Fatal("recovered engine resurrected the expired session")
	}
	if got := firedIn(out); len(got) != 0 {
		t.Fatalf("recovered engine replayed stale pending %v", got)
	}
}

// TestExportImportRoundTrip: ExportSession removes the session (durably)
// from the old shard and ImportSession rebuilds it — pending firings,
// fired marks and a fresh token — on the new one, surviving a crash of
// the importing engine.
func TestExportImportRoundTrip(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := newDurableEngine(t, dirA, nil)
	b := newDurableEngine(t, dirB, nil)

	region := geom.R(400, 400, 600, 600)
	idsA, err := a.InstallAlarms([]alarm.Alarm{{Scope: alarm.Private, Owner: 1, Region: region}})
	if err != nil {
		t.Fatal(err)
	}
	// The overlapping install: B has the same alarm under the same ID.
	if err := b.InstallAlarmsAssigned([]alarm.Alarm{{ID: idsA[0], Scope: alarm.Private, Owner: 1, Region: region}}); err != nil {
		t.Fatal(err)
	}
	id := uint64(idsA[0])

	tok, _, _ := hello(t, a, 1, wire.StrategyMWPSR, 0)
	out := handle(t, a, 1, 1, geom.Pt(500, 500))
	if len(firedIn(out)) != 1 {
		t.Fatalf("setup: no firing, got %v", out)
	}

	rec, ok, err := a.ExportSession(1)
	if err != nil || !ok {
		t.Fatalf("export: ok=%v err=%v", ok, err)
	}
	if rec.User != 1 || !rec.Reliable || len(rec.PendingFired) != 1 || rec.PendingFired[0] != id {
		t.Fatalf("exported rec = %+v", rec)
	}
	// The old shard forgot the session — stale token opens fresh.
	if _, resumed, _ := hello(t, a, 1, wire.StrategyMWPSR, tok); resumed {
		t.Fatal("exported session still resumable on the old shard")
	}
	if _, ok, _ := a.ExportSession(1); ok {
		// The fresh hello above re-created state; export THAT is fine, but
		// the original reliable export must have removed the old one: check
		// the new export carries no pending.
		rec2, _, _ := a.ExportSession(1)
		if len(rec2.PendingFired) != 0 {
			t.Fatalf("old shard kept pending after export: %+v", rec2)
		}
	}

	tokB, err := b.ImportSession(rec)
	if err != nil || tokB == 0 {
		t.Fatalf("import: tok=%d err=%v", tokB, err)
	}
	if pending := b.PendingFired(1); len(pending) != 1 || pending[0] != id {
		t.Fatalf("imported pending = %v, want [%d]", pending, id)
	}
	// The fired mark came along: the new shard must not refire the pair.
	out = handle(t, b, 1, 1, geom.Pt(500, 500))
	if trig := b.Metrics().Snapshot().AlarmsTriggered; trig != 0 {
		t.Errorf("imported pair refired on the new shard (AlarmsTriggered=%d)", trig)
	}
	_ = out

	// The import is durable: kill B, recover, resume with the minted token.
	b.Store().Kill()
	b2 := newDurableEngine(t, dirB, nil)
	_, resumed, out := hello(t, b2, 1, wire.StrategyMWPSR, tokB)
	if !resumed {
		t.Fatal("imported session did not survive the new shard's crash")
	}
	if got := firedIn(out); len(got) != 1 || got[0] != id {
		t.Fatalf("recovered redelivery = %v, want [%d]", got, id)
	}
}

// TestExportedUserReturnsSpent: the fired set lives in the registry, not in
// the session that ExportSession deletes. A fire-and-forget client carries
// nothing across a handoff, so when it leaves this engine and later comes
// back, the registry alone must remember that its one-shot alarm is spent.
func TestExportedUserReturnsSpent(t *testing.T) {
	e := newEngine(t, nil)
	id := install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)})
	register(t, e, 1, wire.StrategyMWPSR)
	if got := firedIn(handle(t, e, 1, 1, geom.Pt(500, 500))); len(got) != 1 || got[0] != uint64(id) {
		t.Fatalf("setup: fired %v, want [%d]", got, id)
	}
	rec, ok, err := e.ExportSession(1)
	if err != nil || !ok || rec.Reliable || len(rec.PendingFired) != 0 {
		t.Fatalf("export: rec=%+v ok=%v err=%v", rec, ok, err)
	}
	if e.HasSession(1) {
		t.Fatal("exported session still resident")
	}
	if _, err := e.ImportSession(rec); err != nil {
		t.Fatal(err)
	}
	if got := firedIn(handle(t, e, 1, 2, geom.Pt(500, 500))); len(got) != 0 {
		t.Errorf("alarm %d fired again for the returning user: %v", id, got)
	}
	if !e.Registry().Fired(id, 1) {
		t.Error("fired pair lost across export and re-import")
	}
}

// TestExportSessionPlainClient: a fire-and-forget (Register) client
// exports as a non-reliable record and imports with no token.
func TestExportSessionPlainClient(t *testing.T) {
	a := newEngine(t, nil)
	b := newEngine(t, nil)
	register(t, a, 7, wire.StrategyMWPSR)
	handle(t, a, 7, 1, geom.Pt(500, 500))

	rec, ok, err := a.ExportSession(7)
	if err != nil || !ok {
		t.Fatalf("export: ok=%v err=%v", ok, err)
	}
	if rec.Reliable {
		t.Fatalf("plain client exported as reliable: %+v", rec)
	}
	tok, err := b.ImportSession(rec)
	if err != nil || tok != 0 {
		t.Fatalf("plain import: tok=%d err=%v, want 0 token", tok, err)
	}
	// The new shard serves it immediately.
	if _, err := b.HandleUpdate(wire.PositionUpdate{User: 7, Seq: 2, Pos: geom.Pt(600, 500)}); err != nil {
		t.Fatal(err)
	}
}

// TestExportSessionUnknownUser: exporting a user the shard never saw
// reports ok=false without error.
func TestExportSessionUnknownUser(t *testing.T) {
	e := newEngine(t, nil)
	if _, ok, err := e.ExportSession(99); ok || err != nil {
		t.Fatalf("unknown export: ok=%v err=%v", ok, err)
	}
}

// newFsyncEngine is newDurableEngine with fsync on, so wal_fsyncs counts
// what a handoff really pays.
func newFsyncEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	st, state, info, err := store.Open(dir, store.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewDurable(Config{Universe: universe, CellAreaM2: 2.5e6, MaxSpeed: 30, TickSeconds: 1}, st, state, info)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return e
}

// TestHandoffIsOneCommit: moving a session — plain, or reliable with
// pending firings, a lifecycle machine and a spent alarm — costs exactly
// one synchronous group commit (one fsync), on the destination. The
// source commits nothing: its ExpireRec rides the source log's next
// commit. After both logs replay, the session is on the destination
// alone, the carried state is all there, and importing the same record
// again changes nothing.
func TestHandoffIsOneCommit(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		name := "plain"
		if reliable {
			name = "reliable+pending+lifecycle"
		}
		t.Run(name, func(t *testing.T) {
			dirA, dirB := t.TempDir(), t.TempDir()
			a, b := newFsyncEngine(t, dirA), newFsyncEngine(t, dirB)
			alarms := []alarm.Alarm{
				{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)},
				{Scope: alarm.Private, Owner: 1, Kind: alarm.KindContinuous, Region: geom.R(300, 300, 700, 700)},
			}
			ids, err := a.InstallAlarms(alarms)
			if err != nil {
				t.Fatal(err)
			}
			for i := range alarms {
				alarms[i].ID = ids[i]
			}
			if err := b.InstallAlarmsAssigned(alarms); err != nil {
				t.Fatal(err)
			}
			shot, enter := uint64(ids[0]), alarm.PackEvent(ids[1], alarm.TransEnter, 1)

			if reliable {
				hello(t, a, 1, wire.StrategyMWPSR, 0)
			} else {
				register(t, a, 1, wire.StrategyMWPSR)
			}
			if got := firedIn(handle(t, a, 1, 1, geom.Pt(500, 500))); len(got) != 2 {
				t.Fatalf("setup: fired %#x, want the one-shot and the enter", got)
			}

			beforeA, beforeB := a.Metrics().Snapshot(), b.Metrics().Snapshot()
			rec, ok := a.PeekSession(1)
			if !ok {
				t.Fatal("no session to move")
			}
			tok, err := b.ImportSession(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.DropSession(1); err != nil {
				t.Fatal(err)
			}
			afterA, afterB := a.Metrics().Snapshot(), b.Metrics().Snapshot()
			if c, f := afterB.WALGroupCommits-beforeB.WALGroupCommits, afterB.WALFsyncs-beforeB.WALFsyncs; c != 1 || f != 1 {
				t.Errorf("destination: %d group commits, %d fsyncs for one handoff, want 1 and 1", c, f)
			}
			if c, f := afterA.WALGroupCommits-beforeA.WALGroupCommits, afterA.WALFsyncs-beforeA.WALFsyncs; c != 0 || f != 0 {
				t.Errorf("source: %d group commits, %d fsyncs for one handoff, want none", c, f)
			}
			if a.HasSession(1) || !b.HasSession(1) {
				t.Fatalf("after the move: on source %v, on destination %v", a.HasSession(1), b.HasSession(1))
			}

			// The source's next commit carries the ExpireRec along.
			register(t, a, 2, wire.StrategyMWPSR)
			nextA := a.Metrics().Snapshot()
			if nextA.WALDeferredRecords != 1 || nextA.WALGroupCommits-afterA.WALGroupCommits != 1 ||
				nextA.WALGroupRecords-afterA.WALGroupRecords != 2 {
				t.Errorf("source's next commit: %d deferred, %d groups, %d records; want the ExpireRec riding one group of 2",
					nextA.WALDeferredRecords, nextA.WALGroupCommits-afterA.WALGroupCommits, nextA.WALGroupRecords-afterA.WALGroupRecords)
			}

			a.Store().Kill()
			b.Store().Kill()
			a2, b2 := newFsyncEngine(t, dirA), newFsyncEngine(t, dirB)
			if a2.HasSession(1) || !a2.HasSession(2) {
				t.Errorf("recovered source: user 1 resident %v, user 2 resident %v", a2.HasSession(1), a2.HasSession(2))
			}
			if !b2.Registry().Fired(ids[0], 1) {
				t.Error("recovered destination lost the carried spent alarm")
			}
			if st := b2.Registry().LifecycleStatesFor(1); len(st) != 1 || !st[0].Inside {
				t.Errorf("recovered destination's machine = %+v, want one Inside", st)
			}
			pending := b2.PendingFired(1)
			if reliable {
				if len(pending) != 2 || pending[0] != shot || pending[1] != enter {
					t.Errorf("recovered pending = %#x, want [%#x %#x]", pending, shot, enter)
				}
				if _, resumed, _ := hello(t, b2, 1, wire.StrategyMWPSR, tok); !resumed {
					t.Error("the token minted by the import does not resume after recovery")
				}
			} else {
				if tok != 0 || len(pending) != 0 {
					t.Errorf("plain import: token %d, recovered pending %#x; want neither", tok, pending)
				}
				// Still inside both regions: nothing refires, nothing re-enters.
				if got := firedIn(handle(t, b2, 1, 2, geom.Pt(500, 500))); len(got) != 0 {
					t.Errorf("destination refired %#x for the plain client", got)
				}
				before := b2.Metrics().Snapshot().WALAppends
				if _, err := b2.ImportSession(rec); err != nil {
					t.Fatal(err)
				}
				// A repeated import re-logs the machine states (a monotone merge
				// on replay) and nothing else: no session record, no fired mark.
				if got := b2.Metrics().Snapshot().WALAppends - before; got != uint64(len(rec.Lifecycle)) {
					t.Errorf("re-importing the same plain record logged %d records, want the %d machine states only", got, len(rec.Lifecycle))
				}
				if pending := b2.PendingFired(1); len(pending) != 0 {
					t.Errorf("re-import gave the plain client pending firings %#x", pending)
				}
			}
		})
	}
}

// TestDropSessionDeletesExactlyTheUsersTokens: every token minted for a
// user goes with its session, found through the reverse index; other
// users' tokens stay.
func TestDropSessionDeletesExactlyTheUsersTokens(t *testing.T) {
	e := newEngine(t, nil)
	tok1, _, _ := hello(t, e, 1, wire.StrategyMWPSR, 0)
	tok1b, _, _ := hello(t, e, 1, wire.StrategyPBSR, tok1) // re-declared: a second token
	tok2, _, _ := hello(t, e, 2, wire.StrategyMWPSR, 0)
	if tok1 == tok1b {
		t.Fatal("setup: user 1 holds a single token")
	}
	if err := e.DropSession(1); err != nil {
		t.Fatal(err)
	}
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	if len(e.sessions) != 1 || e.sessions[tok2] != 2 {
		t.Errorf("session table after drop = %v, want only user 2's token %d", e.sessions, tok2)
	}
	if len(e.userTokens) != 1 || len(e.userTokens[2]) != 1 {
		t.Errorf("reverse index after drop = %v, want only user 2", e.userTokens)
	}
}
