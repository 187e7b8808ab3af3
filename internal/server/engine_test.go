package server

import (
	"bytes"
	"math"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/wire"
)

var universe = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

func newEngine(t testing.TB, mutate func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Universe:      universe,
		CellAreaM2:    2.5e6,
		Model:         motion.MustNew(1, 32),
		PyramidParams: pyramid.DefaultParams(5),
		MaxSpeed:      30,
		TickSeconds:   1,
		Costs:         metrics.DefaultCosts(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func install(t testing.TB, e *Engine, a alarm.Alarm) alarm.ID {
	t.Helper()
	id, err := e.Registry().Install(a)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func register(t testing.TB, e *Engine, user uint64, s wire.Strategy) {
	t.Helper()
	if err := e.Register(wire.Register{User: user, Strategy: s, MaxHeight: 5}); err != nil {
		t.Fatal(err)
	}
}

func handle(t testing.TB, e *Engine, user uint64, seq uint32, p geom.Point) []wire.Message {
	t.Helper()
	out, err := e.HandleUpdate(wire.PositionUpdate{User: user, Seq: seq, Pos: p})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	bad := Config{Universe: universe, CellAreaM2: 2.5e6, MaxSpeed: 30}
	if _, err := New(bad); err == nil {
		t.Error("zero tick accepted")
	}
	bad = Config{Universe: universe, CellAreaM2: 2.5e6, TickSeconds: 1}
	if _, err := New(bad); err == nil {
		t.Error("zero max speed accepted")
	}
	bad = Config{Universe: geom.Rect{}, CellAreaM2: 2.5e6, TickSeconds: 1, MaxSpeed: 30}
	if _, err := New(bad); err == nil {
		t.Error("empty universe accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	e := newEngine(t, nil)
	if err := e.Register(wire.Register{User: 1, Strategy: 99}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := e.Register(wire.Register{User: 1, Strategy: wire.StrategyMWPSR}); err != nil {
		t.Error(err)
	}
}

func TestPeriodicNoResponse(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyPeriodic)
	out := handle(t, e, 1, 1, geom.Pt(100, 100))
	if len(out) != 0 {
		t.Errorf("periodic got responses: %v", out)
	}
	if e.Metrics().Snapshot().UplinkMessages != 1 {
		t.Errorf("uplink = %d", e.Metrics().Snapshot().UplinkMessages)
	}
}

func TestUnknownClientTreatedAsPeriodic(t *testing.T) {
	e := newEngine(t, nil)
	out := handle(t, e, 77, 1, geom.Pt(100, 100))
	if len(out) != 0 {
		t.Errorf("unregistered client got responses: %v", out)
	}
}

func TestTriggerAndOneShot(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyMWPSR)
	id := install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(500, 500), 100)})

	out := handle(t, e, 1, 1, geom.Pt(500, 500))
	var fired *wire.AlarmFired
	var region *wire.RectRegion
	for _, m := range out {
		switch v := m.(type) {
		case wire.AlarmFired:
			fired = &v
		case wire.RectRegion:
			region = &v
		}
	}
	if fired == nil || len(fired.Alarms) != 1 || fired.Alarms[0] != uint64(id) {
		t.Fatalf("expected AlarmFired for %d, got %v", id, out)
	}
	if region == nil {
		t.Fatal("expected a safe region response")
	}
	// The fired alarm is free space: the new region may cover it; but it
	// must contain the client position.
	if !region.Rect.Contains(geom.Pt(500, 500)) {
		t.Errorf("region %v lost client", region.Rect)
	}
	if e.Metrics().Snapshot().AlarmsTriggered != 1 {
		t.Errorf("AlarmsTriggered = %d", e.Metrics().Snapshot().AlarmsTriggered)
	}
	// Same position again: one-shot means no second fire.
	out = handle(t, e, 1, 2, geom.Pt(500, 500))
	for _, m := range out {
		if _, ok := m.(wire.AlarmFired); ok {
			t.Error("alarm fired twice")
		}
	}
}

func TestMWPSRResponseSound(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyMWPSR)
	a := geom.RectAround(geom.Pt(900, 900), 200)
	install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: a})
	// Two updates so the server has a heading.
	handle(t, e, 1, 1, geom.Pt(300, 300))
	out := handle(t, e, 1, 2, geom.Pt(320, 310))
	region, ok := out[len(out)-1].(wire.RectRegion)
	if !ok {
		t.Fatalf("expected RectRegion, got %v", out)
	}
	if region.Rect.Overlaps(a) {
		t.Errorf("region %v overlaps alarm %v", region.Rect, a)
	}
	if !region.Rect.Contains(geom.Pt(320, 310)) {
		t.Error("region lost client")
	}
	if region.Seq != 2 {
		t.Errorf("seq = %d", region.Seq)
	}
	if e.Metrics().SafeRegionComputations() != 2 {
		t.Errorf("SR computations = %d", e.Metrics().SafeRegionComputations())
	}
}

func TestSafePeriodResponse(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategySafePeriod)
	install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: 1,
		Region: geom.Rect{MinX: 400, MinY: 0, MaxX: 500, MaxY: 1000}})
	out := handle(t, e, 1, 1, geom.Pt(100, 500))
	sp, ok := out[0].(wire.SafePeriod)
	if !ok {
		t.Fatalf("expected SafePeriod, got %v", out)
	}
	// Distance 300 m at v_max 30 m/s = 10 ticks.
	if sp.Ticks != 10 {
		t.Errorf("Ticks = %d, want 10", sp.Ticks)
	}
	// A user with no relevant alarms gets a huge period.
	register(t, e, 2, wire.StrategySafePeriod)
	out = handle(t, e, 2, 1, geom.Pt(100, 500))
	if sp := out[0].(wire.SafePeriod); sp.Ticks < 1<<29 {
		t.Errorf("expected unbounded period, got %d", sp.Ticks)
	}
}

func TestPBSRCellCachingProtocol(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyPBSR)
	install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 2, Region: geom.RectAround(geom.Pt(700, 700), 150)})

	// First update: full bitmap.
	out := handle(t, e, 1, 1, geom.Pt(100, 100))
	if _, ok := out[0].(wire.BitmapRegion); !ok {
		t.Fatalf("expected BitmapRegion, got %v", out)
	}
	comps := e.Metrics().SafeRegionComputations()
	// Second update in the same cell without trigger: bare Ack, no new
	// computation (paper §4.2).
	out = handle(t, e, 1, 2, geom.Pt(200, 200))
	if _, ok := out[0].(wire.Ack); !ok {
		t.Fatalf("expected Ack, got %v", out)
	}
	if e.Metrics().SafeRegionComputations() != comps {
		t.Error("Ack path recomputed the safe region")
	}
	// Crossing into another cell: fresh bitmap.
	out = handle(t, e, 1, 3, geom.Pt(4000, 4000))
	if _, ok := out[0].(wire.BitmapRegion); !ok {
		t.Fatalf("expected BitmapRegion after cell change, got %v", out)
	}
	// A trigger inside the cell also forces recomputation.
	out = handle(t, e, 1, 4, geom.Pt(700, 700)) // inside the public alarm, cell change too
	hasBitmap := false
	for _, m := range out {
		if _, ok := m.(wire.BitmapRegion); ok {
			hasBitmap = true
		}
	}
	if !hasBitmap {
		t.Fatalf("expected recomputed bitmap on trigger, got %v", out)
	}
}

func TestPBSRHeightCappedByClient(t *testing.T) {
	e := newEngine(t, nil)
	if err := e.Register(wire.Register{User: 1, Strategy: wire.StrategyPBSR, MaxHeight: 2}); err != nil {
		t.Fatal(err)
	}
	install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 2, Region: geom.RectAround(geom.Pt(500, 500), 100)})
	out := handle(t, e, 1, 1, geom.Pt(100, 100))
	bm := out[0].(wire.BitmapRegion)
	if bm.Height != 2 {
		t.Errorf("height = %d, want client cap 2", bm.Height)
	}
}

func TestOptimalPush(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyOptimal)
	install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 2, Region: geom.RectAround(geom.Pt(700, 700), 100)})
	install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: 9, Region: geom.RectAround(geom.Pt(600, 600), 100)})  // not relevant
	install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 2, Region: geom.RectAround(geom.Pt(9000, 9000), 100)}) // other cell

	out := handle(t, e, 1, 1, geom.Pt(100, 100))
	push, ok := out[0].(wire.AlarmPush)
	if !ok {
		t.Fatalf("expected AlarmPush, got %v", out)
	}
	if len(push.Alarms) != 1 {
		t.Errorf("pushed %d alarms, want only the relevant in-cell one", len(push.Alarms))
	}
	if !push.Cell.Contains(geom.Pt(100, 100)) {
		t.Error("pushed cell does not contain client")
	}
}

func TestPrecomputedPublicBitmapsCachedPerCell(t *testing.T) {
	e := newEngine(t, func(c *Config) { c.PrecomputePublicBitmaps = true })
	register(t, e, 1, wire.StrategyPBSR)
	register(t, e, 2, wire.StrategyPBSR)
	install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 9, Region: geom.RectAround(geom.Pt(700, 700), 150)})

	handle(t, e, 1, 1, geom.Pt(100, 100))
	first := e.Metrics().Snapshot()
	if first.SafeRegionComputations != 3 {
		t.Errorf("first client cost %d computations, want 3 (public fill, shared-encoding fill, its own request)", first.SafeRegionComputations)
	}
	// Second client in the same cell reuses the cached public bitmap: only
	// one additional (per-user) computation, not two — and, having nothing
	// of its own in the cell, it is served the shared encoding for the
	// price of one pyramid probe, the lookup.
	handle(t, e, 2, 1, geom.Pt(150, 150))
	second := e.Metrics().Snapshot()
	if got := second.SafeRegionComputations - first.SafeRegionComputations; got != 1 {
		t.Errorf("second client cost %d computations, want 1 (cached public bitmap)", got)
	}
	if got := second.SRBitmapTests - first.SRBitmapTests; got != 1 {
		t.Errorf("second client cost %d pyramid probes, want 1 (shared encoding)", got)
	}
	// Invalidation clears the cache.
	e.InvalidatePublicBitmaps()
	handle(t, e, 1, 2, geom.Pt(4000, 200)) // different cell, rebuilds public bitmap there
}

func TestDownlinkAccounting(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyMWPSR)
	out := handle(t, e, 1, 1, geom.Pt(100, 100))
	var want uint64
	for _, m := range out {
		want += uint64(wire.EncodedSize(m))
	}
	if e.Metrics().Snapshot().DownlinkBytes != want {
		t.Errorf("DownlinkBytes = %d, want %d", e.Metrics().Snapshot().DownlinkBytes, want)
	}
	if e.Metrics().Snapshot().DownlinkMessages != uint64(len(out)) {
		t.Errorf("DownlinkMessages = %d, want %d", e.Metrics().Snapshot().DownlinkMessages, len(out))
	}
}

func TestHandleUpdateRejectsBadPositions(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyMWPSR)
	bad := []geom.Point{
		{X: math.NaN(), Y: 5},
		{X: 5, Y: math.NaN()},
		{X: math.Inf(1), Y: 5},
		{X: 5, Y: math.Inf(-1)},
		{X: 1e9, Y: 5}, // far outside the universe
	}
	for _, p := range bad {
		if _, err := e.HandleUpdate(wire.PositionUpdate{User: 1, Seq: 1, Pos: p}); err == nil {
			t.Errorf("position %v accepted", p)
		}
	}
	// Slight fringe drift (within a cell side of the universe) is fine.
	if _, err := e.HandleUpdate(wire.PositionUpdate{User: 1, Seq: 2, Pos: geom.Pt(-100, 5000)}); err != nil {
		t.Errorf("fringe position rejected: %v", err)
	}
}

// TestSnapshotRestart: firing state survives a snapshot/restore cycle, so
// a restarted server keeps one-shot semantics (no duplicate alerts).
func TestSnapshotRestart(t *testing.T) {
	e1 := newEngine(t, nil)
	register(t, e1, 1, wire.StrategyMWPSR)
	id := install(t, e1, alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(500, 500), 100)})
	out := handle(t, e1, 1, 1, geom.Pt(500, 500))
	if _, ok := out[0].(wire.AlarmFired); !ok {
		t.Fatalf("expected fire, got %v", out)
	}

	var buf bytes.Buffer
	if err := e1.Registry().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := alarm.LoadRegistry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, nil)
	e2.ReplaceRegistry(restored)
	register(t, e2, 1, wire.StrategyMWPSR)
	out = handle(t, e2, 1, 1, geom.Pt(500, 500))
	for _, m := range out {
		if _, ok := m.(wire.AlarmFired); ok {
			t.Errorf("alarm %d re-fired after restart", id)
		}
	}
	// A fresh user still gets nothing (private alarm, not theirs).
	register(t, e2, 2, wire.StrategyMWPSR)
	out = handle(t, e2, 2, 1, geom.Pt(500, 500))
	for _, m := range out {
		if _, ok := m.(wire.AlarmFired); ok {
			t.Error("private alarm fired for the wrong user after restart")
		}
	}
}
