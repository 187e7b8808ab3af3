package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

// stressStrategies cycles every strategy through the concurrent fleet so
// the shared paths (public bitmap cache, registry reads, metric counters)
// see mixed traffic.
var stressStrategies = []wire.Strategy{
	wire.StrategyPeriodic,
	wire.StrategySafePeriod,
	wire.StrategyMWPSR,
	wire.StrategyPBSR,
	wire.StrategyOptimal,
}

// checkResponseShape asserts a response list is well-formed for the
// strategy that produced it: optional AlarmFired messages first, then at
// most one strategy-specific payload.
func checkResponseShape(s wire.Strategy, msgs []wire.Message) error {
	payloads := 0
	for _, m := range msgs {
		switch m.(type) {
		case wire.AlarmFired:
			continue
		case wire.SafePeriod:
			if s != wire.StrategySafePeriod {
				return fmt.Errorf("strategy %v got SafePeriod", s)
			}
		case wire.RectRegion:
			if s != wire.StrategyMWPSR && s != wire.StrategyPBSR {
				return fmt.Errorf("strategy %v got RectRegion", s)
			}
		case wire.BitmapRegion, wire.Ack:
			if s != wire.StrategyPBSR {
				return fmt.Errorf("strategy %v got %T", s, m)
			}
		case wire.AlarmPush:
			if s != wire.StrategyOptimal {
				return fmt.Errorf("strategy %v got AlarmPush", s)
			}
		default:
			return fmt.Errorf("unexpected message %T", m)
		}
		payloads++
	}
	if payloads > 1 {
		return fmt.Errorf("strategy %v got %d payloads", s, payloads)
	}
	if s == wire.StrategyPeriodic && payloads != 0 {
		return fmt.Errorf("periodic got a payload")
	}
	return nil
}

// TestConcurrentStress hammers one engine from many goroutines with mixed
// strategies while a moving-target user continuously drives the push
// (invalidation) path. Run with -race. Invariants checked afterwards:
// exact uplink accounting, exact downlink accounting (every response and
// every push charged exactly once), Seq-0 pushes only, and per-strategy
// response shapes throughout.
func TestConcurrentStress(t *testing.T) {
	const (
		users      = 24
		perUser    = 150
		targetUser = 1
	)
	e := newEngine(t, func(c *Config) { c.PrecomputePublicBitmaps = true })

	// A spread of public alarms (shared bitmap cache traffic) plus one
	// private alarm per user along its path (trigger traffic).
	for i := 0; i < 12; i++ {
		install(t, e, alarm.Alarm{
			Scope:  alarm.Public,
			Owner:  1,
			Region: geom.RectAround(geom.Pt(float64(800+i*700), float64(900+i*650)), 180),
		})
	}
	for u := 1; u <= users; u++ {
		install(t, e, alarm.Alarm{
			Scope:  alarm.Private,
			Owner:  alarm.UserID(u),
			Region: geom.RectAround(geom.Pt(float64(500+u*350), 5000), 150),
		})
	}
	// The moving-target alarm every other user subscribes to: each report
	// from targetUser re-anchors it and pushes invalidations.
	subs := make([]alarm.UserID, 0, users)
	for u := 2; u <= users; u++ {
		subs = append(subs, alarm.UserID(u))
	}
	install(t, e, alarm.Alarm{
		Scope:       alarm.Shared,
		Owner:       2,
		Subscribers: subs,
		Region:      geom.RectAround(geom.Pt(2000, 2000), 200),
		Target:      targetUser,
	})

	strategyOf := make(map[uint64]wire.Strategy, users)
	for u := 1; u <= users; u++ {
		s := stressStrategies[(u-1)%len(stressStrategies)]
		if uint64(u) == targetUser {
			s = wire.StrategyPeriodic // the mover itself stays silent
		}
		strategyOf[uint64(u)] = s
		register(t, e, uint64(u), s)
	}

	var pushMu sync.Mutex
	var pushMsgs uint64
	e.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
		pushMu.Lock()
		defer pushMu.Unlock()
		for _, m := range msgs {
			if seq := seqOf(m); seq != 0 {
				t.Errorf("push for user %d has Seq %d, want 0", user, seq)
			}
			pushMsgs++
		}
	})

	var wg sync.WaitGroup
	var respMsgs, updates atomic64
	errs := make(chan error, users)
	// Invalidations only reach subscribers that hold a position, so the
	// mover gates on every subscriber's first report; otherwise a lucky
	// schedule lets it finish before anyone is pushable and the pushMsgs
	// assertion below flakes.
	var primed sync.WaitGroup
	primed.Add(users - 1)
	for u := 1; u <= users; u++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			s := strategyOf[user]
			signalPrimed := func() {}
			if user == targetUser {
				primed.Wait()
			} else {
				var once sync.Once
				signalPrimed = func() { once.Do(primed.Done) }
				defer signalPrimed() // error exits must not strand the mover
			}
			for i := 0; i < perUser; i++ {
				// Deterministic per-user walk that crosses its private
				// alarm and several grid cells.
				x := 500 + float64(user)*350 + float64(i%40)*9
				y := 4000 + float64((int(user)*37+i*53)%2000)
				out, err := e.HandleUpdate(wire.PositionUpdate{
					User: user, Seq: uint32(i + 1), Pos: geom.Pt(x, y),
				})
				if err != nil {
					errs <- err
					return
				}
				if err := checkResponseShape(s, out); err != nil {
					errs <- err
					return
				}
				respMsgs.add(uint64(len(out)))
				updates.add(1)
				signalPrimed()
			}
		}(uint64(u))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := e.Metrics().Snapshot()
	if snap.UplinkMessages != updates.load() {
		t.Errorf("uplink = %d, want %d", snap.UplinkMessages, updates.load())
	}
	pushMu.Lock()
	wantDown := respMsgs.load() + pushMsgs
	pushMu.Unlock()
	if snap.DownlinkMessages != wantDown {
		t.Errorf("downlink = %d, want %d (responses %d + pushes %d)",
			snap.DownlinkMessages, wantDown, respMsgs.load(), pushMsgs)
	}
	if snap.AlarmsTriggered == 0 {
		t.Error("stress run fired no alarms; workload too timid to mean anything")
	}
	if pushMsgs == 0 {
		t.Error("moving target drove no pushes; invalidation path not exercised")
	}

	// The walks above never leave the 4–6 km band, so the south-west cell
	// is still uncached and holds nothing but one public alarm.
	sharedFillOnce(t, e, 1000, geom.Pt(150, 150))
}

// sharedFillOnce releases 32 fresh PBSR clients into one cell (which must
// be uncached and hold nothing but public alarms) at the same instant and
// checks the engine did the cell's two fills exactly once.
func sharedFillOnce(t *testing.T, e *Engine, firstUser uint64, at geom.Point) {
	t.Helper()
	const clients = 32
	for i := uint64(0); i < clients; i++ {
		register(t, e, firstUser+i, wire.StrategyPBSR)
	}
	before := e.Metrics().Snapshot()
	start := make(chan struct{})
	replies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			out, err := e.HandleUpdate(wire.PositionUpdate{User: firstUser + uint64(i), Seq: 1, Pos: at})
			if err != nil || len(out) != 1 {
				t.Errorf("client %d: reply %v, error %v", i, out, err)
				return
			}
			replies[i] = wire.Encode(out[0])
		}(i)
	}
	close(start)
	wg.Wait()
	after := e.Metrics().Snapshot()
	if got := after.SafeRegionComputations - before.SafeRegionComputations; got != clients+2 {
		t.Errorf("%d clients entering a fresh cell cost %d computations, want %d (one public fill, one shared fill, one hit each)",
			clients, got, clients+2)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(replies[i], replies[0]) {
			t.Fatalf("client %d got a different bitmap than client 0", i)
		}
	}
}

// seqOf extracts the sequence number of any server→client message.
func seqOf(m wire.Message) uint32 {
	switch v := m.(type) {
	case wire.AlarmFired:
		return v.Seq
	case wire.SafePeriod:
		return v.Seq
	case wire.RectRegion:
		return v.Seq
	case wire.BitmapRegion:
		return v.Seq
	case wire.AlarmPush:
		return v.Seq
	case wire.Ack:
		return v.Seq
	default:
		return 0
	}
}

// atomic64 is a tiny counter wrapper keeping the stress test readable.
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(n uint64) { a.mu.Lock(); a.v += n; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestPusherReentrancy is the regression test for the push contract: the
// engine must invoke the Pusher outside every internal lock, so a Pusher
// that synchronously calls back into HandleUpdate (as a store-and-forward
// transport might, to refresh another session) must complete rather than
// deadlock.
func TestPusherReentrancy(t *testing.T) {
	e := newEngine(t, nil)
	install(t, e, alarm.Alarm{
		Scope:       alarm.Shared,
		Owner:       2,
		Subscribers: []alarm.UserID{2},
		Region:      geom.RectAround(geom.Pt(1000, 1000), 200),
		Target:      1,
	})
	register(t, e, 1, wire.StrategyPeriodic)
	register(t, e, 2, wire.StrategyMWPSR)

	reentered := false
	e.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
		// Re-enter the engine from inside the push callback — for the
		// pushed user itself, the hardest case (its state was just
		// recomputed).
		if _, err := e.HandleUpdate(wire.PositionUpdate{User: uint64(user), Seq: 9, Pos: geom.Pt(5100, 5100)}); err != nil {
			t.Errorf("reentrant HandleUpdate: %v", err)
		}
		reentered = true
	})

	handle(t, e, 2, 1, geom.Pt(5000, 5000)) // subscriber position known
	done := make(chan struct{})
	go func() {
		handle(t, e, 1, 1, geom.Pt(4000, 4000)) // target moves → push → reentry
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("HandleUpdate deadlocked while pushing (pusher re-entered the engine)")
	}
	if !reentered {
		t.Fatal("pusher never invoked; moving-target push path broken")
	}
}
