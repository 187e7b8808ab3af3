package sabre

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
)

// runUntilFired drives a monitor along a straight path until the service
// fires the expected alarm, returning the tick it fired at (-1 if never).
func runUntilFired(t *testing.T, svc *Service, mon *Monitor, path []Point, want AlarmID) int {
	t.Helper()
	for tick, pos := range path {
		upd := mon.Tick(tick, pos)
		if upd == nil {
			continue
		}
		resp, err := svc.HandleUpdate(*upd)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range resp {
			if err := mon.Handle(tick, m); err != nil {
				t.Fatal(err)
			}
		}
		if len(resp) == 0 {
			mon.Acknowledge()
		}
		for _, id := range mon.Fired() {
			if id == want {
				return tick
			}
		}
	}
	return -1
}

func straightPath(from, to Point, steps int) []Point {
	out := make([]Point, steps)
	for i := range out {
		f := float64(i) / float64(steps-1)
		out[i] = Pt(from.X+(to.X-from.X)*f, from.Y+(to.Y-from.Y)*f)
	}
	return out
}

func newTestService(t *testing.T, mutate func(*ServiceConfig)) *Service {
	t.Helper()
	cfg := ServiceConfig{
		Universe:    Rect{MinX: -100, MinY: -100, MaxX: 10100, MaxY: 10100},
		CellAreaKM2: 2.5,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestQuickstartFlow(t *testing.T) {
	for _, strategy := range []Strategy{
		StrategyPeriodic, StrategySafePeriod, StrategyMWPSR, StrategyPBSR, StrategyOptimal,
	} {
		t.Run(strategy.String(), func(t *testing.T) {
			svc := newTestService(t, nil)
			id, err := svc.InstallAlarm(Alarm{
				Scope:  Private,
				Owner:  1,
				Region: RectAround(Pt(5000, 5000), 300),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.RegisterClient(1, strategy, 0); err != nil {
				t.Fatal(err)
			}
			mon := NewMonitor(1, strategy)
			path := straightPath(Pt(1000, 5000), Pt(9000, 5000), 400)
			tick := runUntilFired(t, svc, mon, path, id)
			if tick < 0 {
				t.Fatal("alarm never fired")
			}
			// The alarm region spans x in [4850, 5150]; entry around step
			// 192 of the 20 m steps.
			pos := path[tick]
			a, _ := svc.Alarm(id)
			if !a.Region.Contains(pos) {
				t.Errorf("fired at %v outside region %v", pos, a.Region)
			}
			if got := svc.Stats().AlarmsTriggered; got != 1 {
				t.Errorf("AlarmsTriggered = %d", got)
			}
		})
	}
}

func TestPrivateAlarmInvisibleToOthers(t *testing.T) {
	svc := newTestService(t, nil)
	id, _ := svc.InstallAlarm(Alarm{Scope: Private, Owner: 1, Region: RectAround(Pt(5000, 5000), 300)})
	svc.RegisterClient(2, StrategyMWPSR, 0)
	mon := NewMonitor(2, StrategyMWPSR)
	if tick := runUntilFired(t, svc, mon, straightPath(Pt(1000, 5000), Pt(9000, 5000), 300), id); tick >= 0 {
		t.Errorf("user 2 fired user 1's private alarm at tick %d", tick)
	}
}

func TestSharedAlarmSubscribers(t *testing.T) {
	svc := newTestService(t, nil)
	id, _ := svc.InstallAlarm(Alarm{
		Scope: Shared, Owner: 1, Subscribers: []UserID{1, 3},
		Region: RectAround(Pt(5000, 5000), 300),
	})
	path := straightPath(Pt(1000, 5000), Pt(9000, 5000), 300)
	svc.RegisterClient(3, StrategyPBSR, 0)
	mon3 := NewMonitor(3, StrategyPBSR)
	if tick := runUntilFired(t, svc, mon3, path, id); tick < 0 {
		t.Error("subscriber 3 never fired the shared alarm")
	}
	svc.RegisterClient(4, StrategyPBSR, 0)
	mon4 := NewMonitor(4, StrategyPBSR)
	if tick := runUntilFired(t, svc, mon4, path, id); tick >= 0 {
		t.Error("non-subscriber fired the shared alarm")
	}
}

func TestPublicAlarmFiresPerUser(t *testing.T) {
	svc := newTestService(t, nil)
	id, _ := svc.InstallAlarm(Alarm{Scope: Public, Owner: 1, Region: RectAround(Pt(5000, 5000), 300)})
	path := straightPath(Pt(1000, 5000), Pt(9000, 5000), 300)
	for user := UserID(10); user < 13; user++ {
		svc.RegisterClient(user, StrategyMWPSR, 0)
		mon := NewMonitor(user, StrategyMWPSR)
		if tick := runUntilFired(t, svc, mon, path, id); tick < 0 {
			t.Errorf("user %d never fired the public alarm", user)
		}
	}
	if got := svc.Stats().AlarmsTriggered; got != 3 {
		t.Errorf("AlarmsTriggered = %d, want one per user", got)
	}
}

func TestMovingTargetAlarm(t *testing.T) {
	svc := newTestService(t, nil)
	id, _ := svc.InstallAlarm(Alarm{
		Scope: Shared, Owner: 1, Subscribers: []UserID{2},
		Region: RectAround(Pt(2000, 2000), 400),
		Target: 1,
	})
	// The target (user 1) moves; the region follows.
	moved := svc.MoveTarget(1, Pt(7000, 7000))
	if len(moved) != 1 || moved[0] != id {
		t.Fatalf("MoveTarget = %v", moved)
	}
	svc.RegisterClient(2, StrategyMWPSR, 0)
	mon := NewMonitor(2, StrategyMWPSR)
	// Walking through the old location does nothing...
	if tick := runUntilFired(t, svc, mon, straightPath(Pt(1000, 2000), Pt(3000, 2000), 150), id); tick >= 0 {
		t.Error("alarm fired at the stale target location")
	}
	// ...but through the new one fires.
	if tick := runUntilFired(t, svc, mon, straightPath(Pt(6000, 7000), Pt(8000, 7000), 150), id); tick < 0 {
		t.Error("alarm did not fire at the moved target location")
	}
}

func TestRemoveAlarm(t *testing.T) {
	svc := newTestService(t, nil)
	id, _ := svc.InstallAlarm(Alarm{Scope: Private, Owner: 1, Region: RectAround(Pt(5000, 5000), 300)})
	if !svc.RemoveAlarm(id) {
		t.Fatal("RemoveAlarm returned false")
	}
	if svc.RemoveAlarm(id) {
		t.Error("double remove returned true")
	}
	svc.RegisterClient(1, StrategyMWPSR, 0)
	mon := NewMonitor(1, StrategyMWPSR)
	if tick := runUntilFired(t, svc, mon, straightPath(Pt(1000, 5000), Pt(9000, 5000), 300), id); tick >= 0 {
		t.Error("removed alarm fired")
	}
}

// TestAlarmKindGauges: alarms installed and removed through the facade
// keep the engine's per-kind gauges current, as they do on every other
// install path.
func TestAlarmKindGauges(t *testing.T) {
	svc := newTestService(t, nil)
	kinds := func() [3]uint64 {
		m := svc.eng.Metrics().Snapshot()
		return [3]uint64{m.AlarmsContinuous, m.AlarmsPair, m.AlarmsComposite}
	}
	cont, err := svc.InstallAlarm(Alarm{Scope: Private, Owner: 1, Kind: alarm.KindContinuous,
		Region: RectAround(Pt(5000, 5000), 300)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.InstallAlarmBatch([]Alarm{
		{Scope: Shared, Owner: 1, Anchor: 2, Radius: 200, Kind: alarm.KindPair},
		{Scope: Private, Owner: 3, Kind: alarm.KindComposite, Threshold: 0.5,
			Factors: []alarm.Factor{{Center: Pt(2000, 2000), Radius: 100, Weight: 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := kinds(); got != [3]uint64{1, 1, 1} {
		t.Fatalf("continuous/pair/composite gauges = %v after install, want [1 1 1]", got)
	}
	if !svc.RemoveAlarm(cont) {
		t.Fatal("RemoveAlarm returned false")
	}
	if got := kinds(); got != [3]uint64{0, 1, 1} {
		t.Errorf("continuous/pair/composite gauges = %v after remove, want [0 1 1]", got)
	}
}

func TestInstallValidation(t *testing.T) {
	svc := newTestService(t, nil)
	if _, err := svc.InstallAlarm(Alarm{Scope: Private, Owner: 1}); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := svc.InstallAlarm(Alarm{Scope: Shared, Owner: 1, Region: RectAround(Pt(1, 1), 2)}); err == nil {
		t.Error("shared without subscribers accepted")
	}
}

func TestComputeRectRegion(t *testing.T) {
	cell := Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	alarms := []Rect{RectAround(Pt(800, 800), 100)}
	got := ComputeRectRegion(Pt(200, 200), cell, alarms, RectRegionOptions{})
	if !got.Contains(Pt(200, 200)) {
		t.Error("region lost position")
	}
	if got.Overlaps(alarms[0]) {
		t.Error("region overlaps alarm")
	}
	m, err := SteadyMotion(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	weighted := ComputeRectRegion(Pt(200, 200), cell, alarms, RectRegionOptions{Motion: m, Heading: 0})
	if !weighted.Contains(Pt(200, 200)) || weighted.Overlaps(alarms[0]) {
		t.Error("weighted region unsound")
	}
}

// TestMoveTargetRefreshesPublicBitmaps: moving a public alarm through the
// service must not leave the destination cell's precomputed public bitmap
// without it — a PBSR client entering the cell afterwards would be handed
// a region covering the alarm and walk through it silent.
func TestMoveTargetRefreshesPublicBitmaps(t *testing.T) {
	svc := newTestService(t, func(c *ServiceConfig) { c.PrecomputePublicBitmaps = true })
	id, err := svc.InstallAlarm(Alarm{Scope: Public, Owner: 9, Region: RectAround(Pt(7000, 7000), 300), Target: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Client 1 makes the service cache the destination cell while the
	// alarm is still elsewhere.
	svc.RegisterClient(1, StrategyPBSR, 5)
	runUntilFired(t, svc, NewMonitor(1, StrategyPBSR), []Point{Pt(2100, 2000)}, id)
	svc.MoveTarget(9, Pt(2500, 2000))
	svc.RegisterClient(2, StrategyPBSR, 5)
	if tick := runUntilFired(t, svc, NewMonitor(2, StrategyPBSR), straightPath(Pt(2000, 2000), Pt(3000, 2000), 50), id); tick < 0 {
		t.Error("public alarm moved into a cached cell never fired for a PBSR client walking through it")
	}
}

func TestComputeBitmapRegion(t *testing.T) {
	cell := Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 900}
	alarms := []Rect{RectAround(Pt(450, 450), 100)}
	res, err := ComputeBitmapRegion(cell, 4, alarms)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage <= 0.8 {
		t.Errorf("coverage = %v, want most of the cell safe", res.Coverage)
	}
	if res.SizeBits <= 1 {
		t.Errorf("SizeBits = %d", res.SizeBits)
	}
	if res.Contains(Pt(450, 450)) {
		t.Error("alarm centre inside safe region")
	}
	if !res.Contains(Pt(50, 50)) {
		t.Error("far corner not in safe region")
	}
	if _, err := ComputeBitmapRegion(cell, 99, alarms); err == nil {
		t.Error("invalid height accepted")
	}
}

func TestSteadyMotionValidation(t *testing.T) {
	if _, err := SteadyMotion(4, 4); err == nil {
		t.Error("y/z = 1 accepted")
	}
	if m := UniformMotion(); !m.IsUniform() {
		t.Error("UniformMotion not uniform")
	}
}

func TestMonitorEnergyAccounting(t *testing.T) {
	svc := newTestService(t, nil)
	svc.RegisterClient(1, StrategyMWPSR, 0)
	mon := NewMonitor(1, StrategyMWPSR)
	runUntilFired(t, svc, mon, straightPath(Pt(100, 100), Pt(2000, 2000), 200), 0)
	if mon.EnergyMWh() <= 0 {
		t.Error("no energy recorded")
	}
	if mon.MessagesSent() == 0 {
		t.Error("no messages recorded")
	}
}

func TestTopicScopedPublicAlarms(t *testing.T) {
	svc := newTestService(t, nil)
	id, err := svc.InstallAlarm(Alarm{
		Scope:  Public,
		Owner:  1,
		Topic:  "hazards/flooding",
		Region: RectAround(Pt(5000, 5000), 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := straightPath(Pt(1000, 5000), Pt(9000, 5000), 300)

	svc.RegisterClient(2, StrategyMWPSR, 0)
	unsub := NewMonitor(2, StrategyMWPSR)
	if tick := runUntilFired(t, svc, unsub, path, id); tick >= 0 {
		t.Error("unsubscribed user received a topic-scoped alarm")
	}

	svc.SubscribeTopic(3, "hazards/flooding")
	svc.RegisterClient(3, StrategyPBSR, 0)
	sub := NewMonitor(3, StrategyPBSR)
	if tick := runUntilFired(t, svc, sub, path, id); tick < 0 {
		t.Error("subscribed user never received the topic-scoped alarm")
	}
}
