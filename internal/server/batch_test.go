package server

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

// installBatchAlarms puts two public alarm regions on the test users'
// shared path.
func installBatchAlarms(t *testing.T, e *Engine) (alarm.ID, alarm.ID) {
	a1 := install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 99, Region: geom.RectAround(geom.Pt(500, 500), 100)})
	a2 := install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 99, Region: geom.RectAround(geom.Pt(1500, 500), 100)})
	return a1, a2
}

// TestHandleUpdateBatchEquivalence drives the same updates through a
// batched engine and an unbatched twin and asserts identical trigger
// delivery, identical registry fired state, and the batch reply contract:
// one entry per user in first-appearance order, at least one message per
// update, full strategy response only on each user's last update.
func TestHandleUpdateBatchEquivalence(t *testing.T) {
	single := newEngine(t, nil)
	batched := newEngine(t, nil)
	installBatchAlarms(t, single)
	a1, a2 := installBatchAlarms(t, batched)

	strategies := map[uint64]wire.Strategy{
		1: wire.StrategyMWPSR,
		2: wire.StrategyPBSR,
		3: wire.StrategyPeriodic,
		4: wire.StrategySafePeriod,
	}
	for u, s := range strategies {
		register(t, single, u, s)
		register(t, batched, u, s)
	}

	// Each user walks safe → inside alarm 1 → still inside → inside
	// alarm 2. Updates are interleaved across users to exercise grouping.
	path := []geom.Point{geom.Pt(3000, 3000), geom.Pt(500, 500), geom.Pt(520, 510), geom.Pt(1500, 500)}
	var batch wire.UpdateBatch
	seq := map[uint64]uint32{}
	for _, p := range path {
		for u := uint64(1); u <= 4; u++ {
			seq[u]++
			batch.Updates = append(batch.Updates, wire.PositionUpdate{User: u, Seq: seq[u], Pos: p})
		}
	}

	singleFired := map[uint64][]uint64{}
	for _, u := range batch.Updates {
		out, err := single.HandleUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		singleFired[u.User] = append(singleFired[u.User], firedIn(out)...)
	}

	reply, err := batched.HandleUpdateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(reply.Entries), 4; got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
	for i, ent := range reply.Entries {
		if ent.User != uint64(i+1) {
			t.Errorf("entry %d user = %d, want first-appearance order", i, ent.User)
		}
		if len(ent.Msgs) < len(path) {
			t.Errorf("user %d: %d msgs for %d updates; every update needs an answer",
				ent.User, len(ent.Msgs), len(path))
		}
		if got, want := firedIn(ent.Msgs), singleFired[ent.User]; !reflect.DeepEqual(got, want) {
			t.Errorf("user %d delivered fired = %v, unbatched %v", ent.User, got, want)
		}
		// Only the final update carries monitoring state; every earlier
		// message is an Ack or AlarmFired.
		for _, m := range ent.Msgs[:len(ent.Msgs)-1] {
			switch m.Kind() {
			case wire.KindAck, wire.KindAlarmFired:
			default:
				t.Errorf("user %d: intermediate message %v", ent.User, m.Kind())
			}
		}
		switch strategies[ent.User] {
		case wire.StrategyMWPSR, wire.StrategyPBSR:
			last := ent.Msgs[len(ent.Msgs)-1]
			if k := last.Kind(); k != wire.KindRectRegion && k != wire.KindBitmapRegion {
				t.Errorf("user %d: final message %v, want a safe region", ent.User, k)
			}
		}
	}
	for u := uint64(1); u <= 4; u++ {
		for _, id := range []alarm.ID{a1, a2} {
			if !batched.Registry().Fired(id, alarm.UserID(u)) {
				t.Errorf("alarm %d not marked fired for user %d after batch", id, u)
			}
		}
	}
}

// TestHandleUpdateBatchAccounting checks the satellite accounting rule:
// one uplink byte charge per frame, message counter advanced per
// contained update, and the batch counters feeding the average-batch-size
// metric.
func TestHandleUpdateBatchAccounting(t *testing.T) {
	e := newEngine(t, nil)
	register(t, e, 1, wire.StrategyMWPSR)
	register(t, e, 2, wire.StrategyMWPSR)
	b := wire.UpdateBatch{Updates: []wire.PositionUpdate{
		{User: 1, Seq: 1, Pos: geom.Pt(3000, 3000)},
		{User: 1, Seq: 2, Pos: geom.Pt(3010, 3000)},
		{User: 2, Seq: 1, Pos: geom.Pt(4000, 4000)},
	}}
	reply, err := e.HandleUpdateBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	sn := e.Metrics().Snapshot()
	if got, want := sn.UplinkBytes, uint64(wire.SizeUpdateBatch(3)); got != want {
		t.Errorf("uplink bytes = %d, want one frame charge %d", got, want)
	}
	if sn.UplinkMessages != 3 {
		t.Errorf("uplink messages = %d, want 3", sn.UplinkMessages)
	}
	if sn.UpdateBatches != 1 || sn.BatchedUpdates != 3 {
		t.Errorf("batch counters = %d/%d, want 1/3", sn.UpdateBatches, sn.BatchedUpdates)
	}
	if got := sn.AvgBatchSize(); got != 3 {
		t.Errorf("avg batch size = %v, want 3", got)
	}
	var downlink uint64
	var msgs int
	for _, ent := range reply.Entries {
		for _, m := range ent.Msgs {
			downlink += uint64(wire.EncodedSize(m))
			msgs++
		}
	}
	if sn.DownlinkBytes != downlink || sn.DownlinkMessages != uint64(msgs) {
		t.Errorf("downlink = %d bytes/%d msgs, reply holds %d/%d",
			sn.DownlinkBytes, sn.DownlinkMessages, downlink, msgs)
	}
}

// TestHandleUpdateBatchRejectsInvalid: one bad position rejects the whole
// frame before any state changes.
func TestHandleUpdateBatchRejectsInvalid(t *testing.T) {
	e := newEngine(t, nil)
	a1, _ := installBatchAlarms(t, e)
	register(t, e, 1, wire.StrategyMWPSR)
	bad := wire.UpdateBatch{Updates: []wire.PositionUpdate{
		{User: 1, Seq: 1, Pos: geom.Pt(500, 500)}, // would fire a1
		{User: 1, Seq: 2, Pos: geom.Pt(1e308, 0)}, // far outside the universe
	}}
	if _, err := e.HandleUpdateBatch(bad); err == nil {
		t.Fatal("hostile batch accepted")
	}
	if e.Registry().Fired(a1, 1) {
		t.Error("rejected batch mutated trigger state")
	}
	if sn := e.Metrics().Snapshot(); sn.UpdateBatches != 0 {
		t.Error("rejected batch charged uplink")
	}
	if _, err := e.HandleUpdateBatch(wire.UpdateBatch{}); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestHandleUpdateScratchMatchesHandleUpdate: the zero-alloc entry point
// must produce byte-identical responses to HandleUpdate on a twin engine.
func TestHandleUpdateScratchMatchesHandleUpdate(t *testing.T) {
	plain := newEngine(t, nil)
	scratch := newEngine(t, nil)
	installBatchAlarms(t, plain)
	installBatchAlarms(t, scratch)
	for _, e := range []*Engine{plain, scratch} {
		register(t, e, 1, wire.StrategyMWPSR)
		register(t, e, 2, wire.StrategySafePeriod)
	}
	sc := NewUpdateScratch()
	path := []geom.Point{geom.Pt(3000, 3000), geom.Pt(2900, 3000), geom.Pt(500, 500), geom.Pt(520, 510)}
	for i, p := range path {
		for u := uint64(1); u <= 2; u++ {
			upd := wire.PositionUpdate{User: u, Seq: uint32(i + 1), Pos: p}
			want, err := plain.HandleUpdate(upd)
			if err != nil {
				t.Fatal(err)
			}
			got, err := scratch.HandleUpdateScratch(upd, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d user %d: %d msgs, want %d", i, u, len(got), len(want))
			}
			for k := range got {
				if !bytes.Equal(wire.Encode(got[k]), wire.Encode(want[k])) {
					t.Errorf("step %d user %d msg %d: %v != %v", i, u, k, got[k], want[k])
				}
			}
		}
	}
}

// TestHandleUpdateScratchZeroAlloc is the acceptance gate for the
// zero-alloc MWPSR steady path: once the scratch is warm, a position
// update that fires nothing must not allocate at all.
func TestHandleUpdateScratchZeroAlloc(t *testing.T) {
	e := newEngine(t, nil)
	// Alarms exist (the index is non-trivial) but are far from the
	// client's wander area, so the steady state never fires.
	installBatchAlarms(t, e)
	register(t, e, 1, wire.StrategyMWPSR)
	sc := NewUpdateScratch()
	seq := uint32(0)
	step := func() {
		seq++
		p := geom.Pt(3000+float64(seq%8)*10, 3000)
		if _, err := e.HandleUpdateScratch(wire.PositionUpdate{User: 1, Seq: seq, Pos: p}, sc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		step() // warm the scratch, heading tracker and metric path
	}
	if got := testing.AllocsPerRun(200, step); got != 0 {
		t.Errorf("steady-state MWPSR update allocates %.2f/op, want 0", got)
	}
}

// TestHandleUpdateBatchLifecycleAllocs: with continuous and composite
// alarms installed every report also runs the lifecycle machines, the
// obstacle transform and the pair cap. In the steady state — users near
// their alarms or dwelling inside one, nothing transitioning — that must
// cost no allocation beyond what the same batch costs against a registry
// of one-shot alarms: the user's machines are read once, into the scratch.
func TestHandleUpdateBatchLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("HandleUpdateBatch pools its scratch; see raceEnabled")
	}
	const users = 8
	perBatch := func(lifecycle bool) float64 {
		e := newEngine(t, nil)
		var alarms []alarm.Alarm
		for u := alarm.UserID(1); u <= users; u++ {
			x := 200 * float64(u)
			near, around := geom.R(x, 3200, x+100, 3300), geom.R(x-50, 2950, x+150, 3050)
			cont := alarm.Alarm{Scope: alarm.Shared, Owner: u, Subscribers: []alarm.UserID{u%users + 1}, Region: around}
			comp := alarm.Alarm{Scope: alarm.Private, Owner: u, Region: near}
			if lifecycle {
				cont.Kind = alarm.KindContinuous
				comp.Kind, comp.Region = alarm.KindComposite, geom.Rect{}
				comp.Factors, comp.Threshold = []alarm.Factor{{Region: near, Weight: 1}, {Center: near.Center(), Radius: 40, Weight: 1}}, 2
			}
			alarms = append(alarms, cont, comp)
		}
		if _, err := e.InstallAlarms(alarms); err != nil {
			t.Fatal(err)
		}
		batch := wire.UpdateBatch{Updates: make([]wire.PositionUpdate, users)}
		for i := range batch.Updates {
			register(t, e, uint64(i+1), wire.StrategyMWPSR)
		}
		seq := uint32(0)
		step := func() {
			seq++
			if err := e.SetTick(uint64(seq)); err != nil {
				t.Fatal(err)
			}
			for i := range batch.Updates {
				// Inside the own continuous alarm (entered, or fired, on the
				// first report), beside the composite one.
				batch.Updates[i] = wire.PositionUpdate{User: uint64(i + 1), Seq: seq, Pos: geom.Pt(200*float64(i+1)+40+float64(seq%8), 3000)}
			}
			reply, err := e.HandleUpdateBatch(batch)
			if err != nil || len(reply.Entries) != users {
				t.Fatalf("batch reply %+v, err %v", reply, err)
			}
		}
		for i := 0; i < 200; i++ {
			step()
		}
		if m := e.Metrics().Snapshot(); lifecycle && m.AlarmTransitions != users {
			t.Fatalf("warm-up made %d transitions, want one entry per user", m.AlarmTransitions)
		}
		before := e.Metrics().Snapshot()
		allocs := testing.AllocsPerRun(200, step)
		after := e.Metrics().Snapshot()
		if after.AlarmTransitions != before.AlarmTransitions || after.AlarmsTriggered != before.AlarmsTriggered {
			t.Fatal("the measured steady state fired something")
		}
		return allocs
	}
	oneShot, lifecycle := perBatch(false), perBatch(true)
	if lifecycle > oneShot {
		t.Errorf("a %d-user batch allocates %.1f times with lifecycle alarms, %.1f with one-shot alarms only", users, lifecycle, oneShot)
	}
}

// TestHandleUpdateBatchInterleavedDuplicates: a 2 000-update batch in
// which 250 users each report eight times, interleaved and in a shuffled
// user order per round, must answer like the unbatched path — entries in
// first-appearance order, each user's updates processed chronologically
// (the same firings in the same order, the final region equal to the one
// the user's last unbatched update earned).
func TestHandleUpdateBatchInterleavedDuplicates(t *testing.T) {
	single := newEngine(t, nil)
	batched := newEngine(t, nil)
	installBatchAlarms(t, single)
	installBatchAlarms(t, batched)
	const users, rounds = 250, 8
	for u := uint64(1); u <= users; u++ {
		register(t, single, u, wire.StrategyMWPSR)
		register(t, batched, u, wire.StrategyMWPSR)
	}
	// Every user walks its own line through both alarm regions; round r
	// visits the users in a different rotation, so groups interleave and
	// first appearance is round 0's order.
	var batch wire.UpdateBatch
	var firstSeen []uint64
	for r := 0; r < rounds; r++ {
		for k := 0; k < users; k++ {
			u := uint64((k*7+r*31)%users) + 1
			if r == 0 {
				firstSeen = append(firstSeen, u)
			}
			pos := geom.Pt(300+float64(r)*200, 450+float64(u%100))
			batch.Updates = append(batch.Updates, wire.PositionUpdate{User: u, Seq: uint32(r + 1), Pos: pos})
		}
	}
	if len(batch.Updates) != 2000 {
		t.Fatalf("batch holds %d updates", len(batch.Updates))
	}

	wantFired := map[uint64][]uint64{}
	wantLast := map[uint64]wire.Message{}
	for _, u := range batch.Updates {
		out, err := single.HandleUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		wantFired[u.User] = append(wantFired[u.User], firedIn(out)...)
		wantLast[u.User] = out[len(out)-1]
	}

	reply, err := batched.HandleUpdateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Entries) != users {
		t.Fatalf("entries = %d, want %d", len(reply.Entries), users)
	}
	for i, ent := range reply.Entries {
		if ent.User != firstSeen[i] {
			t.Fatalf("entry %d is user %d, want %d (first-appearance order)", i, ent.User, firstSeen[i])
		}
		if len(ent.Msgs) < rounds {
			t.Errorf("user %d: %d msgs for %d updates", ent.User, len(ent.Msgs), rounds)
		}
		if got, want := firedIn(ent.Msgs), wantFired[ent.User]; !reflect.DeepEqual(got, want) {
			t.Errorf("user %d fired %v, unbatched %v", ent.User, got, want)
		}
		if got, want := ent.Msgs[len(ent.Msgs)-1], wantLast[ent.User]; !reflect.DeepEqual(got, want) {
			t.Errorf("user %d final message %v, unbatched %v", ent.User, got, want)
		}
	}
	if got, want := batched.Registry().FiredPairs(), single.Registry().FiredPairs(); !reflect.DeepEqual(got, want) {
		t.Errorf("fired state differs from the unbatched engine: %d pairs vs %d", len(got), len(want))
	}
}
