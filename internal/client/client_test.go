package client

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/wire"
)

func bitmapFor(t *testing.T, cell geom.Rect, alarms ...geom.Rect) wire.BitmapRegion {
	t.Helper()
	bm, err := pyramid.Encode(cell, pyramid.DefaultParams(3), nil, func(r geom.Rect, _ pyramid.Coverage) pyramid.Coverage {
		return pyramid.CoverageOf(r, alarms)
	})
	if err != nil {
		t.Fatal(err)
	}
	return wire.FromBitmap(0, bm) // caller fixes Seq
}

func TestPeriodicReportsEveryTick(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyPeriodic, met)
	for tick := 0; tick < 10; tick++ {
		if upd := c.Tick(tick, geom.Pt(float64(tick), 0)); upd == nil {
			t.Fatalf("tick %d: periodic client stayed silent", tick)
		}
	}
	if met.MessagesSent != 10 {
		t.Errorf("MessagesSent = %d", met.MessagesSent)
	}
	if met.ContainmentChecks != 0 {
		t.Errorf("periodic client performed %d checks", met.ContainmentChecks)
	}
}

func TestFirstTickAlwaysReports(t *testing.T) {
	for _, s := range []wire.Strategy{wire.StrategySafePeriod, wire.StrategyMWPSR, wire.StrategyPBSR, wire.StrategyOptimal} {
		c := New(1, s, &metrics.Client{})
		if upd := c.Tick(0, geom.Pt(5, 5)); upd == nil {
			t.Errorf("%v: no initial report", s)
		} else if upd.Seq != 1 || upd.User != 1 {
			t.Errorf("%v: bad first update %+v", s, upd)
		}
	}
}

func TestMWPSRMonitoring(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyMWPSR, met)
	upd := c.Tick(0, geom.Pt(50, 50))
	if err := c.Handle(0, wire.RectRegion{Seq: upd.Seq, Rect: geom.R(0, 0, 100, 100)}); err != nil {
		t.Fatal(err)
	}
	// Strictly inside: silent.
	if c.Tick(1, geom.Pt(60, 60)) != nil {
		t.Error("reported while strictly inside region")
	}
	// On the boundary: strict containment fails, report.
	if c.Tick(2, geom.Pt(100, 60)) == nil {
		t.Error("silent on region boundary")
	}
	if met.ContainmentChecks != 2 {
		t.Errorf("checks = %d, want 2", met.ContainmentChecks)
	}
}

func TestPBSRMonitoring(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyPBSR, met)
	cell := geom.R(0, 0, 900, 900)
	alarmRect := geom.R(500, 500, 700, 700)
	upd := c.Tick(0, geom.Pt(100, 100))
	bm := bitmapFor(t, cell, alarmRect)
	bm.Seq = upd.Seq
	if err := c.Handle(0, bm); err != nil {
		t.Fatal(err)
	}
	if c.Tick(1, geom.Pt(110, 110)) != nil {
		t.Error("reported from safe area")
	}
	if c.Tick(2, geom.Pt(600, 600)) == nil {
		t.Error("silent inside blocked area")
	}
	if met.Probes <= met.ContainmentChecks-1 {
		t.Errorf("pyramid probes %d should exceed checks %d", met.Probes, met.ContainmentChecks)
	}
	// Outside the cell: always report.
	c.awaiting = false
	if c.Tick(3, geom.Pt(2000, 2000)) == nil {
		t.Error("silent outside base cell")
	}
}

func TestPBSRBadBitmapError(t *testing.T) {
	c := New(1, wire.StrategyPBSR, &metrics.Client{})
	upd := c.Tick(0, geom.Pt(1, 1))
	bad := wire.BitmapRegion{Seq: upd.Seq, Cell: geom.R(0, 0, 10, 10), U: 3, V: 3, Height: 2, NBits: 3, Data: []byte{0x00}}
	if err := c.Handle(0, bad); err == nil {
		t.Error("corrupt bitmap accepted")
	}
}

func TestSafePeriodTiming(t *testing.T) {
	c := New(1, wire.StrategySafePeriod, &metrics.Client{})
	upd := c.Tick(0, geom.Pt(0, 0))
	if err := c.Handle(0, wire.SafePeriod{Seq: upd.Seq, Ticks: 3}); err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick < 3; tick++ {
		if c.Tick(tick, geom.Pt(float64(tick), 0)) != nil {
			t.Errorf("tick %d: reported during safe period", tick)
		}
	}
	// At tick 3 (= 0 + Ticks) the client must report: with an exact
	// distance multiple it can touch the alarm boundary this tick.
	if c.Tick(3, geom.Pt(3, 0)) == nil {
		t.Error("tick 3: silent at safe period expiry")
	}
}

func TestSafePeriodZeroMeansEveryTick(t *testing.T) {
	c := New(1, wire.StrategySafePeriod, &metrics.Client{})
	upd := c.Tick(0, geom.Pt(0, 0))
	c.Handle(0, wire.SafePeriod{Seq: upd.Seq, Ticks: 0})
	for tick := 1; tick <= 3; tick++ {
		upd = c.Tick(tick, geom.Pt(0, 0))
		if upd == nil {
			t.Fatalf("tick %d: silent with zero safe period", tick)
		}
		c.Handle(tick, wire.SafePeriod{Seq: upd.Seq, Ticks: 0})
	}
}

func TestOptimalLocalEvaluation(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyOptimal, met)
	cell := geom.R(0, 0, 1000, 1000)
	upd := c.Tick(0, geom.Pt(100, 100))
	push := wire.AlarmPush{Seq: upd.Seq, Cell: cell, Alarms: []wire.AlarmInfo{
		{ID: 7, Region: geom.R(400, 400, 500, 500)},
		{ID: 8, Region: geom.R(700, 700, 800, 800)},
	}}
	if err := c.Handle(0, push); err != nil {
		t.Fatal(err)
	}
	// Outside all alarms, inside cell: silent.
	if c.Tick(1, geom.Pt(200, 200)) != nil {
		t.Error("reported while safe")
	}
	// Entering alarm 7: report.
	upd = c.Tick(2, geom.Pt(450, 450))
	if upd == nil {
		t.Fatal("silent inside alarm region")
	}
	// Server fires it; client must drop it locally and go quiet again.
	c.Handle(2, wire.AlarmFired{Seq: upd.Seq, Alarms: []uint64{7}})
	c.Handle(2, wire.AlarmPush{Seq: upd.Seq, Cell: cell, Alarms: []wire.AlarmInfo{
		{ID: 8, Region: geom.R(700, 700, 800, 800)},
	}})
	if got := c.Fired(); len(got) != 1 || got[0] != 7 {
		t.Errorf("Fired = %v", got)
	}
	if c.Tick(3, geom.Pt(450, 450)) != nil {
		t.Error("re-reported a fired alarm")
	}
	// Leaving the cell: report.
	if c.Tick(4, geom.Pt(1500, 500)) == nil {
		t.Error("silent outside cell")
	}
}

func TestStaleResponsesIgnored(t *testing.T) {
	c := New(1, wire.StrategyMWPSR, &metrics.Client{})
	c.Tick(0, geom.Pt(10, 10))
	// The first response is lost; the client re-reports after the timeout
	// with a new sequence number.
	upd := c.Tick(resendAfterTicks, geom.Pt(10, 10))
	// A response to the superseded report (old Seq) must not clear the
	// awaiting state or install a region.
	if err := c.Handle(resendAfterTicks, wire.RectRegion{Seq: upd.Seq - 1, Rect: geom.R(0, 0, 5, 5)}); err != nil {
		t.Fatal(err)
	}
	if c.hasRect {
		t.Error("stale region installed")
	}
	if !c.awaiting {
		t.Error("stale response cleared awaiting")
	}
	// The matching response works.
	c.Handle(resendAfterTicks, wire.RectRegion{Seq: upd.Seq, Rect: geom.R(0, 0, 100, 100)})
	if !c.hasRect || c.awaiting {
		t.Error("fresh response not applied")
	}
}

// TestServerPushAccepted: Seq-0 messages (moving-target invalidations)
// apply without being treated as a reply.
func TestServerPushAccepted(t *testing.T) {
	c := New(1, wire.StrategyMWPSR, &metrics.Client{})
	upd := c.Tick(0, geom.Pt(10, 10))
	c.Handle(0, wire.RectRegion{Seq: upd.Seq, Rect: geom.R(0, 0, 100, 100)})
	// Silent while safe.
	if c.Tick(1, geom.Pt(50, 50)) != nil {
		t.Fatal("reported while safe")
	}
	// A moving target shrank the region: the server pushes a new one.
	if err := c.Handle(1, wire.RectRegion{Seq: 0, Rect: geom.R(0, 0, 40, 40)}); err != nil {
		t.Fatal(err)
	}
	if c.awaiting {
		t.Error("push flipped awaiting state")
	}
	// The client is now outside the pushed region and must report.
	if c.Tick(2, geom.Pt(50, 50)) == nil {
		t.Error("client missed the pushed invalidation")
	}
}

func TestResendAfterTimeout(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyMWPSR, met)
	c.Tick(0, geom.Pt(10, 10)) // report, response lost
	silent := 0
	for tick := 1; tick < resendAfterTicks; tick++ {
		if c.Tick(tick, geom.Pt(10, 10)) == nil {
			silent++
		}
	}
	if silent != resendAfterTicks-1 {
		t.Errorf("client re-reported before timeout (%d silent ticks)", silent)
	}
	if c.Tick(resendAfterTicks, geom.Pt(10, 10)) == nil {
		t.Error("client never re-sent after losing the response")
	}
	if met.MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", met.MessagesSent)
	}
}

// TestResponseOneTickLate: the original response arrives one tick after
// the resend boundary — by then a new report (new Seq) is outstanding, so
// the late response must be dropped and the fresh one honoured.
func TestResponseOneTickLate(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyMWPSR, met)
	first := c.Tick(0, geom.Pt(10, 10))
	second := c.Tick(resendAfterTicks, geom.Pt(10, 10))
	if second == nil || second.Seq != first.Seq+1 {
		t.Fatalf("no resend at the timeout boundary: %+v", second)
	}
	// The first response limps in one tick late.
	if err := c.Handle(resendAfterTicks+1, wire.RectRegion{Seq: first.Seq, Rect: geom.R(0, 0, 5, 5)}); err != nil {
		t.Fatal(err)
	}
	if c.hasRect || !c.awaiting {
		t.Error("late response to a superseded report was applied")
	}
	// The response to the resend applies normally.
	c.Handle(resendAfterTicks+1, wire.RectRegion{Seq: second.Seq, Rect: geom.R(0, 0, 100, 100)})
	if !c.hasRect || c.awaiting {
		t.Error("response to the resend not applied")
	}
	if met.MessagesSent != 2 {
		t.Errorf("MessagesSent = %d, want 2", met.MessagesSent)
	}
}

// TestResponseJustInTime: a response landing on the last tick before the
// resend boundary suppresses the resend entirely.
func TestResponseJustInTime(t *testing.T) {
	met := &metrics.Client{}
	c := New(1, wire.StrategyMWPSR, met)
	upd := c.Tick(0, geom.Pt(10, 10))
	c.Handle(resendAfterTicks-1, wire.RectRegion{Seq: upd.Seq, Rect: geom.R(0, 0, 100, 100)})
	if c.Tick(resendAfterTicks, geom.Pt(10, 10)) != nil {
		t.Error("resent after the response already arrived")
	}
	if met.MessagesSent != 1 {
		t.Errorf("MessagesSent = %d, want 1", met.MessagesSent)
	}
}

// TestDuplicateResponseSuppression: a duplicated network frame delivers
// the same response twice; the second copy must be harmless, and a
// duplicated AlarmFired must not double-record the firing.
func TestDuplicateResponseSuppression(t *testing.T) {
	c := New(1, wire.StrategyMWPSR, &metrics.Client{})
	upd := c.Tick(0, geom.Pt(10, 10))
	region := wire.RectRegion{Seq: upd.Seq, Rect: geom.R(0, 0, 100, 100)}
	if err := c.Handle(0, region); err != nil {
		t.Fatal(err)
	}
	if err := c.Handle(0, region); err != nil {
		t.Fatalf("duplicate response rejected: %v", err)
	}
	if !c.hasRect || c.awaiting {
		t.Error("duplicate response corrupted monitoring state")
	}
	fired := wire.AlarmFired{Seq: 0, Alarms: []uint64{7, 9}}
	c.Handle(1, fired)
	c.Handle(1, fired) // redelivered frame
	if got := c.Fired(); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Errorf("Fired = %v, want [7 9] exactly once each", got)
	}
}

func TestUnexpectedMessageError(t *testing.T) {
	c := New(1, wire.StrategyMWPSR, &metrics.Client{})
	if err := c.Handle(0, wire.PositionUpdate{}); err == nil {
		t.Error("client accepted a client->server message")
	}
}

func TestAckClearsAwaiting(t *testing.T) {
	c := New(1, wire.StrategyPBSR, &metrics.Client{})
	cell := geom.R(0, 0, 900, 900)
	upd := c.Tick(0, geom.Pt(100, 100))
	bm := bitmapFor(t, cell, geom.R(500, 500, 600, 600))
	bm.Seq = upd.Seq
	c.Handle(0, bm)
	// Walk into the blocked area; report; server acks without a new bitmap.
	upd = c.Tick(1, geom.Pt(550, 550))
	if upd == nil {
		t.Fatal("no report from blocked area")
	}
	if err := c.Handle(1, wire.Ack{Seq: upd.Seq}); err != nil {
		t.Fatal(err)
	}
	// Still in the blocked area next tick: reports again immediately (the
	// Ack resumed monitoring with the old bitmap).
	if c.Tick(2, geom.Pt(555, 555)) == nil {
		t.Error("client stuck after Ack")
	}
	// Back in safe area: silent.
	c.Handle(2, wire.Ack{Seq: c.seq})
	if c.Tick(3, geom.Pt(100, 100)) != nil {
		t.Error("reported from safe area after Ack")
	}
}
