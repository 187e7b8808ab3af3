package server

import (
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// newDurableEngine opens (or re-opens) a store in dir and builds the
// engine from whatever it recovers.
func newDurableEngine(t testing.TB, dir string, mutate func(*Config)) *Engine {
	t.Helper()
	st, state, info, err := store.Open(dir, store.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Universe:    universe,
		CellAreaM2:  2.5e6,
		MaxSpeed:    30,
		TickSeconds: 1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewDurable(cfg, st, state, info)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDurableRecoveryRoundTrip drives a durable engine through the full
// record vocabulary, kills it, recovers, and checks the recovered engine
// behaves identically: the session resumes, unacked firings redeliver,
// and fired alarms never fire twice.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	ids, err := e.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)},
		{Scope: alarm.Public, Region: geom.R(5000, 5000, 5200, 5200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	tok, resumed, _ := hello(t, e, 1, wire.StrategyMWPSR, 0)
	if resumed {
		t.Fatal("fresh hello resumed")
	}
	// Walk into the private alarm: it fires and stays pending (no ack).
	out := handle(t, e, 1, 1, geom.Pt(500, 500))
	if got := firedIn(out); len(got) != 1 || got[0] != uint64(ids[0]) {
		t.Fatalf("fired = %v, want [%d]", got, ids[0])
	}

	// Abrupt death: no checkpoint, no clean shutdown.
	e.Store().Kill()

	e2 := newDurableEngine(t, dir, nil)
	if got := e2.Registry().Len(); got != 2 {
		t.Fatalf("recovered %d alarms, want 2", got)
	}
	tok2, resumed, out := hello(t, e2, 1, wire.StrategyMWPSR, tok)
	if !resumed || tok2 != tok {
		t.Fatalf("recovered session did not resume: token=%d resumed=%v", tok2, resumed)
	}
	if got := firedIn(out); len(got) != 1 || got[0] != uint64(ids[0]) {
		t.Fatalf("resume redelivery = %v, want [%d]", got, ids[0])
	}
	// The fired pair survived: walking through the region again must NOT
	// re-fire.
	if err := e2.AckFired(1, []uint64{uint64(ids[0])}); err != nil {
		t.Fatal(err)
	}
	out = handle(t, e2, 1, 2, geom.Pt(500, 500))
	if got := firedIn(out); len(got) != 0 {
		t.Fatalf("recovered engine re-fired %v", got)
	}
	// New installs get fresh IDs past the recovered counter.
	more, err := e2.InstallAlarms([]alarm.Alarm{{Scope: alarm.Public, Region: geom.R(0, 0, 10, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if more[0] <= ids[1] {
		t.Fatalf("new ID %d collides with recovered IDs (max %d)", more[0], ids[1])
	}
	if m := e2.Metrics().Snapshot(); m.Recoveries != 1 || m.RecoveredRecords == 0 {
		t.Fatalf("recovery metrics = %+v", m)
	}
}

// TestDurableCheckpointRecovery: state recovered from a snapshot (plus an
// empty WAL) matches state recovered from a pure log replay.
func TestDurableCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	if _, err := e.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)},
	}); err != nil {
		t.Fatal(err)
	}
	hello(t, e, 1, wire.StrategyPBSR, 0)
	handle(t, e, 1, 1, geom.Pt(500, 500))
	want := e.DurableState()
	if err := e.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.Store().Kill()

	e2 := newDurableEngine(t, dir, nil)
	got := e2.DurableState()
	if len(got.Alarms) != len(want.Alarms) || len(got.Fired) != len(want.Fired) ||
		len(got.Clients) != len(want.Clients) || len(got.Sessions) != len(want.Sessions) ||
		got.LastToken != want.LastToken || got.NextAlarmID != want.NextAlarmID {
		t.Fatalf("snapshot recovery differs:\n got %+v\nwant %+v", got, want)
	}
	if m := e2.Metrics().Snapshot(); m.RecoveredRecords != 0 {
		t.Fatalf("replayed %d records after a clean checkpoint, want 0", m.RecoveredRecords)
	}
}

// TestSessionExpiry: reliable sessions idle past the TTL are reaped (and
// logged, in one group commit), active ones survive, and a reaped client
// can re-enroll.
func TestSessionExpiry(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	now := time.Unix(1000, 0)
	e.nowFn = func() time.Time { return now }

	tok1, _, _ := hello(t, e, 1, wire.StrategyMWPSR, 0)
	hello(t, e, 2, wire.StrategyMWPSR, 0)
	hello(t, e, 3, wire.StrategyMWPSR, 0)

	now = now.Add(30 * time.Second)
	handle(t, e, 2, 1, geom.Pt(300, 300)) // user 2 stays active

	now = now.Add(31 * time.Second)
	before := e.Metrics().Snapshot()
	n, err := e.ExpireSessions(time.Minute) // users 1 and 3 idle 61s, user 2 idle 31s
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("expired %d sessions, want 2", n)
	}
	after := e.Metrics().Snapshot()
	if got := after.SessionsExpired; got != 2 {
		t.Fatalf("SessionsExpired = %d", got)
	}
	if c, r := after.WALGroupCommits-before.WALGroupCommits, after.WALGroupRecords-before.WALGroupRecords; c != 1 || r != 2 {
		t.Errorf("expiry logged %d records in %d group commits, want 2 in 1", r, c)
	}
	// User 1's token is dead: hello with it starts fresh.
	tok1b, resumed, _ := hello(t, e, 1, wire.StrategyMWPSR, tok1)
	if resumed || tok1b == tok1 {
		t.Fatalf("expired session resumed (token %d -> %d)", tok1, tok1b)
	}
	// User 2 still resumes... after recovery too: expiry must be durable.
	e.Store().Kill()
	e2 := newDurableEngine(t, dir, nil)
	if _, resumed, _ := hello(t, e2, 1, wire.StrategyMWPSR, tok1); resumed {
		t.Fatal("recovered engine resurrected the expired session")
	}
	if e2.HasSession(3) {
		t.Fatal("recovered engine resurrected the expired user 3")
	}

	if _, err := e.ExpireSessions(0); err == nil {
		t.Error("zero TTL accepted")
	}
}

// TestPendingFiredCap: unacked firings beyond the cap evict oldest-first,
// the eviction metric counts them, and evicted alarms never re-fire.
func TestPendingFiredCap(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.PendingFiredCap = 2 })
	var installed []alarm.ID
	for i := 0; i < 4; i++ {
		lo := float64(100 + 200*i)
		installed = append(installed, install(t, e, alarm.Alarm{
			Scope: alarm.Private, Owner: 1,
			Region: geom.R(lo, 100, lo+100, 200),
		}))
	}
	hello(t, e, 1, wire.StrategyMWPSR, 0)
	// Walk through all four alarms without ever acking.
	for i := 0; i < 4; i++ {
		handle(t, e, 1, uint32(i+1), geom.Pt(float64(150+200*i), 150))
	}
	pending := e.PendingFired(1)
	if len(pending) != 2 {
		t.Fatalf("pending = %v, want the 2 newest", pending)
	}
	if pending[0] != uint64(installed[2]) || pending[1] != uint64(installed[3]) {
		t.Fatalf("pending = %v, want oldest-first eviction leaving [%d %d]",
			pending, installed[2], installed[3])
	}
	if got := e.Metrics().Snapshot().FiredEvictions; got != 2 {
		t.Fatalf("FiredEvictions = %d, want 2", got)
	}
	// Evicted alarms stay fired: revisiting alarm 0 re-fires nothing.
	out := handle(t, e, 1, 9, geom.Pt(150, 150))
	for _, id := range firedIn(out) {
		if id == uint64(installed[0]) {
			t.Fatalf("evicted alarm %d re-fired", installed[0])
		}
	}
}

// TestDurableAppendFailureWithholdsResponse: once the store is dead, every
// state-changing handler errors instead of answering from memory.
func TestDurableAppendFailureWithholdsResponse(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, dir, nil)
	if _, err := e.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)},
	}); err != nil {
		t.Fatal(err)
	}
	hello(t, e, 1, wire.StrategyMWPSR, 0)
	e.Store().Kill()
	if _, err := e.HandleUpdate(wire.PositionUpdate{User: 1, Seq: 1, Pos: geom.Pt(500, 500)}); err == nil {
		t.Error("HandleUpdate answered after the store died")
	}
	if _, _, err := e.HandleHello(wire.Hello{User: 2, Strategy: wire.StrategyMWPSR}); err == nil {
		t.Error("HandleHello answered after the store died")
	}
	if err := e.Register(wire.Register{User: 3, Strategy: wire.StrategyMWPSR}); err == nil {
		t.Error("Register answered after the store died")
	}
}
