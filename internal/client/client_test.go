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

// TestPBSRBadBitmapError pins what a bitmap that fails to decode does: the
// error reaches the caller, the client holds no region — not even the good
// one before it — so its next Tick reports, and the next good bitmap
// restores silent monitoring.
func TestPBSRBadBitmapError(t *testing.T) {
	c := New(1, wire.StrategyPBSR, &metrics.Client{})
	upd := c.Tick(0, geom.Pt(1, 1))
	bad := wire.BitmapRegion{Seq: upd.Seq, Cell: geom.R(0, 0, 10, 10), U: 3, V: 3, Height: 2, NBits: 3, Data: []byte{0x00}}
	if err := c.Handle(0, bad); err == nil {
		t.Error("corrupt bitmap accepted")
	}

	cell, safe := geom.R(0, 0, 900, 900), geom.Pt(100, 100)
	good := bitmapFor(t, cell, geom.R(500, 500, 700, 700))
	upd = c.Tick(1, safe)
	good.Seq = upd.Seq
	if err := c.Handle(1, good); err != nil {
		t.Fatal(err)
	}
	if !c.SafeNow(2, safe) {
		t.Fatalf("good region does not prove %v safe", safe)
	}
	upd = c.Tick(3, geom.Pt(600, 600))
	if upd == nil {
		t.Fatal("silent inside the alarm")
	}
	bad.Seq, bad.Cell = upd.Seq, cell
	if err := c.Handle(3, bad); err == nil {
		t.Fatal("corrupt bitmap accepted after a good one")
	}
	if c.SafeNow(4, safe) {
		t.Errorf("after a corrupt bitmap, %v is still proved safe", safe)
	}
	upd = c.Tick(4, safe)
	if upd == nil {
		t.Fatal("no report on the tick after a corrupt bitmap")
	}
	good.Seq = upd.Seq
	if err := c.Handle(4, good); err != nil {
		t.Fatal(err)
	}
	if c.Tick(5, safe) != nil {
		t.Error("a good bitmap after a corrupt one did not restore silent monitoring")
	}
}

// TestPBSRSteadyStateAllocs: once the region's node storage and the patch
// array are warm, a PBSR client decodes a bitmap in place, takes a
// quick-update patch and checks containment without allocating. The
// messages are boxed once, outside the measured calls; Seq 0 (a server
// push) applies each without a report outstanding.
func TestPBSRSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector; see raceEnabled")
	}
	c := New(1, wire.StrategyPBSR, &metrics.Client{})
	cell := geom.R(0, 0, 900, 900)
	var (
		large  wire.Message = bitmapFor(t, cell, geom.R(500, 500, 700, 700), geom.R(120, 610, 260, 790), geom.R(620, 40, 640, 400))
		bitmap wire.Message = bitmapFor(t, cell, geom.R(500, 500, 700, 700))
		patch  wire.Message = wire.RectRegion{Rect: geom.R(520, 520, 560, 560)}
	)
	if large.(wire.BitmapRegion).NBits <= bitmap.(wire.BitmapRegion).NBits {
		t.Fatal("warm-up bitmap is not the larger one")
	}
	c.Tick(0, geom.Pt(100, 100))
	handle := func(m wire.Message) {
		if err := c.Handle(1, m); err != nil {
			t.Fatal(err)
		}
	}
	handle(large)
	for i := 0; i < 2*maxPatches; i++ {
		handle(patch)
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Handle(BitmapRegion)", func() { handle(bitmap) }},
		{"Handle(RectRegion) patch", func() { handle(patch) }},
		{"SafeNow", func() {
			c.SafeNow(2, geom.Pt(100, 100)) // the pyramid proves it
			c.SafeNow(2, geom.Pt(540, 540)) // only a patch proves it
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.op); got != 0 {
			t.Errorf("%s allocates %.2f/op, want 0", tc.name, got)
		}
	}
	if len(c.patches) != maxPatches || !c.SafeNow(2, geom.Pt(540, 540)) {
		t.Errorf("steady state holds %d patches, want %d covering the patch", len(c.patches), maxPatches)
	}
}

// TestPBSRPatchListKeepsNewest: a full patch list drops its oldest patch
// and keeps the rest in arrival order, in the one array it started with.
func TestPBSRPatchListKeepsNewest(t *testing.T) {
	c := New(1, wire.StrategyPBSR, &metrics.Client{})
	var want []geom.Rect
	for i := 0; i < 3*maxPatches+5; i++ {
		r := geom.R(float64(i), 0, float64(i)+1, 1)
		if err := c.Handle(0, wire.RectRegion{Rect: r}); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	want = want[len(want)-maxPatches:]
	if len(c.patches) != maxPatches || cap(c.patches) != maxPatches {
		t.Fatalf("patch list len %d cap %d, want %d", len(c.patches), cap(c.patches), maxPatches)
	}
	for i := range want {
		if c.patches[i] != want[i] {
			t.Fatalf("patch %d = %v, want %v", i, c.patches[i], want[i])
		}
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

// TestPBSROlderBitmapApplies: the server ships a bitmap once per cell and
// answers later in-cell reports with a bare Ack, so a bitmap whose report
// has since been superseded must still be applied — unless a newer reply
// or a server push has overtaken it.
func TestPBSROlderBitmapApplies(t *testing.T) {
	cell := geom.R(0, 0, 900, 900)
	safe, blocked := geom.Pt(100, 100), geom.Pt(600, 600)
	open := bitmapFor(t, cell)                                // everything safe
	alarmed := bitmapFor(t, cell, geom.R(500, 500, 700, 700)) // blocks `blocked`
	withSeq := func(bm wire.BitmapRegion, seq uint32) wire.BitmapRegion {
		bm.Seq = seq
		return bm
	}
	// reports returns a PBSR client with reports 1..n outstanding, as a
	// session that replays a queued report next to a fresh one has.
	reports := func(n int) *Client {
		c := New(1, wire.StrategyPBSR, &metrics.Client{})
		for i := 0; i < n; i++ {
			c.Report(i, safe)
		}
		return c
	}
	handle := func(c *Client, tick int, m wire.Message) {
		t.Helper()
		if err := c.Handle(tick, m); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("bitmap then Ack", func(t *testing.T) {
		c := reports(2)
		handle(c, 2, withSeq(alarmed, 1))
		if !c.awaiting {
			t.Error("a reply to an older report cleared awaiting")
		}
		handle(c, 2, wire.Ack{Seq: 2})
		if c.awaiting {
			t.Error("the Ack to the newest report left the client awaiting")
		}
		if c.Tick(3, safe) != nil {
			t.Error("reported from inside the older bitmap's safe area")
		}
		if c.Tick(4, blocked) == nil {
			t.Error("silent inside the older bitmap's blocked area")
		}
	})
	t.Run("push fences", func(t *testing.T) {
		c := reports(3)
		handle(c, 3, withSeq(open, 1))
		if !c.SafeNow(3, safe) {
			t.Fatal("older bitmap not applied")
		}
		handle(c, 3, withSeq(alarmed, 0)) // push: the alarm moved in
		handle(c, 3, withSeq(open, 2))    // computed before the push
		handle(c, 3, wire.Ack{Seq: 3})
		if c.SafeNow(4, blocked) {
			t.Error("an older bitmap overrode the push that followed it")
		}
	})
	t.Run("reordered", func(t *testing.T) {
		c := reports(3)
		handle(c, 3, withSeq(alarmed, 2))
		if !c.SafeNow(3, safe) {
			t.Fatal("older bitmap not applied")
		}
		handle(c, 3, withSeq(open, 1)) // overtaken by reply 2
		handle(c, 3, wire.Ack{Seq: 3})
		if c.SafeNow(4, blocked) {
			t.Error("a reordered bitmap replaced the newer one")
		}
	})
	t.Run("capped", func(t *testing.T) {
		c := reports(2)
		capped := withSeq(open, 1)
		capped.Cap = 50
		handle(c, 2, capped)
		if !c.hasRegion || c.SafeNow(2, safe) {
			t.Error("a capped older bitmap must install its region with the proof expired")
		}
		handle(c, 2, wire.Ack{Seq: 2, Cap: 5})
		if !c.SafeNow(2, safe) || c.SafeNow(6, safe) {
			t.Error("the newest reply's cap did not take over")
		}
	})
}

// TestProofsCountFromTheReport: the server proves a safe period or a pair
// cap from the reported position, so a reply that arrives late must not
// stretch it; a server push carries no report and counts from receipt.
func TestProofsCountFromTheReport(t *testing.T) {
	c := New(1, wire.StrategySafePeriod, &metrics.Client{})
	c.Report(10, geom.Pt(0, 0))
	if err := c.Handle(11, wire.SafePeriod{Seq: 1, Ticks: 3}); err != nil {
		t.Fatal(err)
	}
	if !c.SafeNow(12, geom.Pt(0, 0)) || c.SafeNow(13, geom.Pt(0, 0)) {
		t.Error("a safe period from tick 10's report must cover ticks 11-12 only")
	}
	if err := c.Handle(11, wire.SafePeriod{Ticks: 3}); err != nil {
		t.Fatal(err)
	}
	if !c.SafeNow(13, geom.Pt(0, 0)) || c.SafeNow(14, geom.Pt(0, 0)) {
		t.Error("a pushed safe period must count from its receipt at tick 11")
	}

	m := New(2, wire.StrategyMWPSR, &metrics.Client{})
	m.Report(10, geom.Pt(50, 50))
	if err := m.Handle(11, wire.RectRegion{Seq: 1, Rect: geom.R(0, 0, 100, 100), Cap: 3}); err != nil {
		t.Fatal(err)
	}
	if !m.SafeNow(11, geom.Pt(50, 50)) || m.SafeNow(12, geom.Pt(50, 50)) {
		t.Error("a cap of 3 from tick 10's report must expire at tick 12")
	}
}
