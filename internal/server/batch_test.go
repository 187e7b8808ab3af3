package server

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
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

// TestDurableHandleUpdateIsBatchOfOne: a report handed to HandleUpdate
// and the same report handed to HandleUpdateBatch as a batch of one take
// the same path. Twin durable engines see the same reports — one-shot,
// continuous, composite and pair alarms, and a public alarm following a
// moving target — under every strategy, plain and reliable; their
// replies and pushes are byte-equal, their logs hold the same records,
// and their counters differ only in how the uplink frame was charged.
func TestDurableHandleUpdateIsBatchOfOne(t *testing.T) {
	for _, s := range []wire.Strategy{wire.StrategyPeriodic, wire.StrategySafePeriod, wire.StrategyMWPSR, wire.StrategyPBSR, wire.StrategyOptimal} {
		for _, reliable := range []bool{false, true} {
			name := s.String() + "/plain"
			if reliable {
				name = s.String() + "/reliable"
			}
			t.Run(name, func(t *testing.T) {
				single, batched := newDurableEngine(t, t.TempDir(), nil), newDurableEngine(t, t.TempDir(), nil)
				// Per user: the order in which one report's pushes reach
				// distinct users is map order.
				pushed := map[*Engine]map[alarm.UserID][]byte{}
				for _, e := range []*Engine{single, batched} {
					if _, err := e.InstallAlarms([]alarm.Alarm{
						{Scope: alarm.Private, Owner: 1, Region: geom.R(400, 400, 600, 600)},
						{Scope: alarm.Private, Owner: 1, Kind: alarm.KindContinuous, Region: geom.R(1000, 300, 1400, 700)},
						{Scope: alarm.Private, Owner: 1, Kind: alarm.KindComposite, Threshold: 2, Factors: []alarm.Factor{
							{Region: geom.R(2000, 300, 2400, 700), Weight: 1}, {Center: geom.Pt(2200, 500), Radius: 150, Weight: 1}}},
						{Scope: alarm.Shared, Owner: 1, Subscribers: []alarm.UserID{1}, Kind: alarm.KindPair, Anchor: 2, Radius: 300},
						{Scope: alarm.Public, Owner: 3, Target: 3, Region: geom.RectAround(geom.Pt(3000, 3000), 150)},
					}); err != nil {
						t.Fatal(err)
					}
					for u := uint64(1); u <= 3; u++ {
						if reliable {
							hello(t, e, u, s, 0)
						} else {
							register(t, e, u, s)
						}
					}
					pushed[e] = map[alarm.UserID][]byte{}
					e.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
						pushed[e][user] = append(pushed[e][user], encodeAll(msgs)...)
					})
				}
				steps := []struct {
					user uint64
					seq  uint32
					pos  geom.Point
				}{
					{2, 1, geom.Pt(3000, 500)},  // the pair's anchor, far away
					{3, 1, geom.Pt(3000, 3000)}, // the moving target
					{1, 1, geom.Pt(100, 100)},
					{1, 2, geom.Pt(500, 500)},   // one-shot fires
					{1, 3, geom.Pt(1200, 500)},  // continuous enter
					{1, 4, geom.Pt(1600, 500)},  // continuous exit
					{1, 5, geom.Pt(2200, 500)},  // composite crosses its threshold
					{2, 2, geom.Pt(2300, 500)},  // the anchor comes into range: both pair machines enter
					{3, 2, geom.Pt(2300, 800)},  // the target brings its alarm to user 1's cell
					{1, 6, geom.Pt(2300, 800)},  // inside the moved public alarm
					{1, 7, geom.Pt(100, 100)},   // pair exit
					{1, 7, geom.Pt(100, 100)},   // a resend
					{2, 3, geom.Pt(2400, 2400)}, // anchor leaves; user 1 is already out of range
				}
				for i, st := range steps {
					for _, e := range []*Engine{single, batched} {
						if err := e.SetTick(uint64(i + 1)); err != nil {
							t.Fatal(err)
						}
					}
					u := wire.PositionUpdate{User: st.user, Seq: st.seq, Pos: st.pos}
					want, err := single.HandleUpdate(u)
					if err != nil {
						t.Fatal(err)
					}
					br, err := batched.HandleUpdateBatch(wire.UpdateBatch{Updates: []wire.PositionUpdate{u}})
					if err != nil {
						t.Fatal(err)
					}
					if len(br.Entries) != 1 || br.Entries[0].User != u.User {
						t.Fatalf("step %d: batch of one answered with %d entries", i, len(br.Entries))
					}
					got := br.Entries[0].Msgs
					if !bytes.Equal(encodeAll(got), encodeAll(want)) {
						t.Fatalf("step %d: batch of one answered %v, HandleUpdate %v", i, got, want)
					}
					if !reflect.DeepEqual(pushed[batched], pushed[single]) {
						t.Fatalf("step %d: pushes differ", i)
					}
				}
				if len(pushed[single][1]) == 0 && s != wire.StrategyPeriodic {
					t.Error("the scenario pushed nothing: neither the pair wake nor the moving target reached user 1")
				}
				if got, want := walLog(t, batched), walLog(t, single); !bytes.Equal(got, want) {
					t.Errorf("logs differ: %d bytes after batches of one, %d after single reports", len(got), len(want))
				}
				sn, bn := single.Metrics().Snapshot(), batched.Metrics().Snapshot()
				if sn.AlarmsTriggered == 0 || sn.AlarmTransitions == 0 {
					t.Fatalf("the scenario fired %d alarms and %d transitions", sn.AlarmsTriggered, sn.AlarmTransitions)
				}
				if bn.UpdateBatches != uint64(len(steps)) || bn.UplinkBytes != uint64(len(steps)*wire.SizeUpdateBatch(1)) ||
					sn.UpdateBatches != 0 || sn.UplinkBytes != uint64(len(steps)*wire.SizePositionUpdate) {
					t.Errorf("uplink frames: %d batches / %d bytes batched, %d / %d single", bn.UpdateBatches, bn.UplinkBytes, sn.UpdateBatches, sn.UplinkBytes)
				}
				bn.UplinkBytes, bn.UpdateBatches, bn.BatchedUpdates = sn.UplinkBytes, sn.UpdateBatches, sn.BatchedUpdates
				if !reflect.DeepEqual(bn, sn) {
					t.Errorf("counters differ beyond the uplink frame:\n batched %+v\n single  %+v", bn, sn)
				}
			})
		}
	}
}

func encodeAll(msgs []wire.Message) []byte {
	var b []byte
	for _, m := range msgs {
		b = wire.AppendEncode(b, m)
	}
	return b
}

// walLog returns the engine's WAL up to its log end: the frames, without
// the zero-filled tail the file is preallocated with.
func walLog(t *testing.T, e *Engine) []byte {
	t.Helper()
	b, err := os.ReadFile(e.Store().WALPath())
	if err != nil {
		t.Fatal(err)
	}
	_, end, reason := store.ScanFrames(b)
	if reason != "" {
		t.Fatal(reason)
	}
	return b[:end]
}

// TestHandleUpdateSteadyStateAllocs guards the single-report path: once
// the pooled scratch is warm, an MWPSR report that fires nothing costs
// the reply slice and its boxed region, and nothing more.
func TestHandleUpdateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("HandleUpdate pools its scratch; see raceEnabled")
	}
	e := newEngine(t, nil)
	// Alarms exist (the index is non-trivial) but are far from the
	// client's wander area, so the steady state never fires.
	installBatchAlarms(t, e)
	register(t, e, 1, wire.StrategyMWPSR)
	seq := uint32(0)
	step := func() {
		seq++
		handle(t, e, 1, seq, geom.Pt(3000+float64(seq%8)*10, 3000))
	}
	for i := 0; i < 200; i++ {
		step() // warm the scratch, heading tracker and metric path
	}
	if got := testing.AllocsPerRun(200, step); got > 2 {
		t.Errorf("steady-state MWPSR update allocates %.2f/op, want at most 2", got)
	}
}

// TestLifecyclePairReportIsOneCommit: a pair endpoint's report that
// transitions its own machines and wakes a resident partner lands as one
// group commit, in order: the reporter's FiredRec, its TransitionRecs,
// then the partner's.
func TestLifecyclePairReportIsOneCommit(t *testing.T) {
	e := newDurableEngine(t, t.TempDir(), nil)
	ids, err := e.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Kind: alarm.KindContinuous, Region: geom.R(400, 400, 600, 600)},
		{Scope: alarm.Shared, Owner: 1, Subscribers: []alarm.UserID{1}, Kind: alarm.KindPair, Anchor: 2, Radius: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	register(t, e, 1, wire.StrategyMWPSR)
	register(t, e, 2, wire.StrategyMWPSR)
	if err := e.SetTick(1); err != nil {
		t.Fatal(err)
	}
	handle(t, e, 2, 1, geom.Pt(600, 500)) // the partner is resident, with an anchor

	before, logged := e.Metrics().Snapshot(), len(walLog(t, e))
	out := handle(t, e, 1, 1, geom.Pt(500, 500)) // continuous enter, and into pair range
	if got := e.Metrics().Snapshot().WALGroupCommits - before.WALGroupCommits; got != 1 {
		t.Errorf("one report made %d group commits, want 1", got)
	}
	payloads, _, reason := store.ScanFrames(walLog(t, e)[logged:])
	if reason != "" {
		t.Fatal(reason)
	}
	var recs []store.Record
	for _, p := range payloads {
		rec, err := store.DecodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	own := []uint64{alarm.PackEvent(ids[0], alarm.TransEnter, 1), alarm.PackEvent(ids[1], alarm.TransEnter, 1)}
	if got := firedIn(out); !reflect.DeepEqual(got, own) {
		t.Fatalf("reporter delivered %#x, want %#x", got, own)
	}
	want := []store.Record{store.FiredRec{User: 1, Alarms: own}}
	for _, ev := range own {
		want = append(want, store.TransitionRec{User: 1, Event: ev, Tick: 1, Delivered: true})
	}
	want = append(want, store.TransitionRec{User: 2, Event: alarm.PackEvent(ids[1], alarm.TransEnter, 1), Tick: 1, Delivered: true})
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("logged %+v\nwant   %+v", recs, want)
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
