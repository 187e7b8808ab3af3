package server

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

// TestMovingTargetPushes exercises the engine-level push path: when a
// target reports, affected subscribers receive recomputed monitoring
// state as Seq-0 messages, charged to the downlink counters.
func TestMovingTargetPushes(t *testing.T) {
	e := newEngine(t, nil)
	install(t, e, alarm.Alarm{
		Scope:       alarm.Shared,
		Owner:       2,
		Subscribers: []alarm.UserID{2, 3},
		Region:      geom.RectAround(geom.Pt(1000, 1000), 200),
		Target:      1,
	})
	register(t, e, 1, wire.StrategyPeriodic) // the target
	register(t, e, 2, wire.StrategyMWPSR)
	register(t, e, 3, wire.StrategyPBSR)

	pushed := map[alarm.UserID][]wire.Message{}
	e.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
		pushed[user] = append(pushed[user], msgs...)
	})

	// Subscribers report once so the server knows their positions.
	handle(t, e, 2, 1, geom.Pt(5000, 5000))
	handle(t, e, 3, 1, geom.Pt(6000, 6000))
	downBefore := e.Metrics().Snapshot().DownlinkBytes

	// The target moves: both subscribers must get fresh state.
	handle(t, e, 1, 1, geom.Pt(4000, 4000))
	if len(pushed[2]) != 1 {
		t.Fatalf("subscriber 2 got %d pushes, want 1", len(pushed[2]))
	}
	if len(pushed[3]) != 1 {
		t.Fatalf("subscriber 3 got %d pushes, want 1", len(pushed[3]))
	}
	if rr, ok := pushed[2][0].(wire.RectRegion); !ok || rr.Seq != 0 {
		t.Errorf("subscriber 2 push = %#v, want Seq-0 RectRegion", pushed[2][0])
	}
	if bm, ok := pushed[3][0].(wire.BitmapRegion); !ok || bm.Seq != 0 {
		t.Errorf("subscriber 3 push = %#v, want Seq-0 BitmapRegion", pushed[3][0])
	}
	if e.Metrics().Snapshot().DownlinkBytes <= downBefore {
		t.Error("pushes not charged to downlink")
	}
	// The pushed MWPSR region must exclude the moved alarm.
	rr := pushed[2][0].(wire.RectRegion)
	moved := geom.RectAround(geom.Pt(4000, 4000), 200)
	if rr.Rect.Overlaps(moved) {
		t.Errorf("pushed region %v overlaps moved alarm %v", rr.Rect, moved)
	}
	// A non-subscriber (the target itself) gets nothing.
	if len(pushed[1]) != 0 {
		t.Errorf("target received %d pushes", len(pushed[1]))
	}
}

// TestPairWakeChargesOnlyWhatIsPushed: a partner wake-up's messages are
// charged to the downlink when they are handed to the pusher — exactly
// their encoded size — and not at all when there is no pusher to send
// them.
func TestPairWakeChargesOnlyWhatIsPushed(t *testing.T) {
	for _, withPusher := range []bool{false, true} {
		e := newEngine(t, nil)
		if _, err := e.InstallAlarms([]alarm.Alarm{{
			Scope: alarm.Shared, Owner: 1, Subscribers: []alarm.UserID{1},
			Kind: alarm.KindPair, Anchor: 2, Radius: 200,
		}}); err != nil {
			t.Fatal(err)
		}
		register(t, e, 1, wire.StrategyMWPSR)
		handle(t, e, 1, 1, geom.Pt(500, 500)) // the owner is resident, with an anchor
		pushedBytes := 0
		if withPusher {
			e.SetPusher(func(_ alarm.UserID, msgs []wire.Message) {
				for _, m := range msgs {
					pushedBytes += wire.EncodedSize(m)
				}
			})
		}
		before := e.Metrics().Snapshot().DownlinkBytes
		if err := e.ObserveAnchor(2, geom.Pt(600, 500)); err != nil { // into radius
			t.Fatal(err)
		}
		if got := e.Metrics().Snapshot().AlarmTransitions; got != 1 {
			t.Fatalf("pusher=%v: %d transitions, want the owner's enter", withPusher, got)
		}
		if withPusher && pushedBytes == 0 {
			t.Fatal("the wake-up pushed nothing")
		}
		if got := e.Metrics().Snapshot().DownlinkBytes - before; got != uint64(pushedBytes) {
			t.Errorf("pusher=%v: wake-up charged %d downlink bytes, pushed %d", withPusher, got, pushedBytes)
		}
	}
}

// TestMovingTargetWithoutPusher: without a pusher the engine still moves
// the region (evaluation correctness) and does not panic.
func TestMovingTargetWithoutPusher(t *testing.T) {
	e := newEngine(t, nil)
	id := install(t, e, alarm.Alarm{
		Scope: alarm.Private, Owner: 2,
		Region: geom.RectAround(geom.Pt(1000, 1000), 200),
		Target: 1,
	})
	register(t, e, 1, wire.StrategyPeriodic)
	register(t, e, 2, wire.StrategyPeriodic)
	handle(t, e, 1, 1, geom.Pt(4000, 4000)) // moves the alarm
	out := handle(t, e, 2, 1, geom.Pt(4000, 4000))
	found := false
	for _, m := range out {
		if f, ok := m.(wire.AlarmFired); ok {
			for _, a := range f.Alarms {
				if a == uint64(id) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("moved alarm did not fire at its new location")
	}
}

// TestPublicMovingTargetPushScope: public moving-target alarms push only
// to clients whose cells intersect the old or new region.
func TestPublicMovingTargetPushScope(t *testing.T) {
	e := newEngine(t, nil)
	install(t, e, alarm.Alarm{
		Scope:  alarm.Public,
		Owner:  1,
		Region: geom.RectAround(geom.Pt(1000, 1000), 200),
		Target: 1,
	})
	register(t, e, 1, wire.StrategyPeriodic)
	register(t, e, 5, wire.StrategyMWPSR) // near the new region
	register(t, e, 6, wire.StrategyMWPSR) // far away

	pushed := map[alarm.UserID]int{}
	e.SetPusher(func(user alarm.UserID, msgs []wire.Message) { pushed[user] += len(msgs) })

	handle(t, e, 5, 1, geom.Pt(4100, 4100))
	handle(t, e, 6, 1, geom.Pt(9500, 9500))
	handle(t, e, 1, 1, geom.Pt(4000, 4000)) // target moves near client 5

	if pushed[5] != 1 {
		t.Errorf("nearby client got %d pushes, want 1", pushed[5])
	}
	if pushed[6] != 0 {
		t.Errorf("distant client got %d pushes, want 0", pushed[6])
	}
}

// TestMovingPublicTargetRefreshesPublicBitmap is the regression test for a
// never-miss violation: with the §4.2 precompute on, a public alarm that
// follows a moving target must leave no stale per-cell public bitmap
// behind. Before the per-cell invalidation, both the push to a resident
// client and the next region computed in the cell were built from the
// alarm's OLD position, so a client could sit silent inside its issued
// region right where the alarm now is.
func TestMovingPublicTargetRefreshesPublicBitmap(t *testing.T) {
	for _, precompute := range []bool{false, true} {
		e := newEngine(t, func(c *Config) { c.PrecomputePublicBitmaps = precompute })
		install(t, e, alarm.Alarm{
			Scope:  alarm.Public,
			Owner:  9,
			Region: geom.RectAround(geom.Pt(1200, 1200), 150),
			Target: 9,
		})
		register(t, e, 9, wire.StrategyPeriodic) // the target
		register(t, e, 1, wire.StrategyPBSR)
		register(t, e, 2, wire.StrategyPBSR)
		register(t, e, 3, wire.StrategyPBSR)
		pushed := map[alarm.UserID][]wire.Message{}
		e.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
			pushed[user] = append(pushed[user], msgs...)
		})

		// Client 1 enters the cell and fills its cache entry; client 3 fills
		// a cell the alarm never comes near.
		oldPos, newPos := geom.Pt(1200, 1200), geom.Pt(500, 500)
		if bm := bitmapIn(t, handle(t, e, 1, 1, geom.Pt(100, 100))); safeAt(t, bm, oldPos) || !safeAt(t, bm, newPos) {
			t.Fatalf("precompute=%v: first region wrong before the move", precompute)
		}
		handle(t, e, 3, 1, geom.Pt(5500, 5500))
		far := e.publicBitmaps[e.grid.Locate(geom.Pt(5500, 5500))]

		handle(t, e, 9, 1, newPos) // the target moves within the cell

		if len(pushed[1]) != 1 {
			t.Fatalf("precompute=%v: resident client got %d pushes, want 1", precompute, len(pushed[1]))
		}
		if safeAt(t, bitmapIn(t, pushed[1]), newPos) {
			t.Errorf("precompute=%v: pushed region contains the alarm's new position", precompute)
		}
		next := bitmapIn(t, handle(t, e, 2, 1, geom.Pt(150, 150)))
		if safeAt(t, next, newPos) {
			t.Errorf("precompute=%v: region issued after the move contains the alarm's new position", precompute)
		}
		if !safeAt(t, next, oldPos) {
			t.Errorf("precompute=%v: region issued after the move still blocks the vacated position", precompute)
		}
		if precompute && (far == nil || e.publicBitmaps[e.grid.Locate(geom.Pt(5500, 5500))] != far) {
			t.Errorf("the move dropped the cache entry of a cell the alarm never touched")
		}
	}
}
