package server

import (
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// startTCP spins up an engine + TCP front end and returns the address and
// a cleanup-registered server.
func startTCP(t *testing.T) (*Engine, string) {
	t.Helper()
	eng := newEngine(t, nil)
	srv, err := NewTCPServerIdle(eng, "127.0.0.1:0", nil, DefaultIdleTimeout)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	t.Cleanup(func() {
		srv.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not exit after Close")
		}
	})
	return eng, srv.Addr().String()
}

// TestTCPEndToEnd drives a real client state machine over a real TCP
// connection through registration, monitoring and an alarm trigger.
func TestTCPEndToEnd(t *testing.T) {
	eng, addr := startTCP(t)
	id := install(t, eng, alarm.Alarm{
		Scope: alarm.Private, Owner: 42,
		Region: geom.RectAround(geom.Pt(2000, 500), 200),
	})

	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(wire.Register{User: 42, Strategy: wire.StrategyMWPSR}); err != nil {
		t.Fatal(err)
	}

	met := &metrics.Client{}
	cl := client.New(42, wire.StrategyMWPSR, met)
	var fired []uint64
	// Walk east toward the alarm, 20 m per tick.
	for tick := 0; tick < 200 && len(fired) == 0; tick++ {
		pos := geom.Pt(500+float64(tick)*20, 500)
		upd := cl.Tick(tick, pos)
		if upd == nil {
			continue
		}
		if err := conn.Send(*upd); err != nil {
			t.Fatal(err)
		}
		// Read responses until monitoring resumes (awaiting cleared by a
		// region/ack; fired notifications may precede it).
		for {
			msg, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if f, ok := msg.(wire.AlarmFired); ok {
				fired = append(fired, f.Alarms...)
			}
			if err := cl.Handle(tick, msg); err != nil {
				t.Fatal(err)
			}
			if _, ok := msg.(wire.AlarmFired); !ok {
				break // region/period/ack arrived; resume
			}
		}
	}
	if len(fired) != 1 || fired[0] != uint64(id) {
		t.Fatalf("fired = %v, want [%d]", fired, id)
	}
	if met.MessagesSent == 0 || met.MessagesSent > 50 {
		t.Errorf("MessagesSent = %d; monitoring should suppress most reports", met.MessagesSent)
	}
	if eng.Metrics().Snapshot().AlarmsTriggered != 1 {
		t.Errorf("server AlarmsTriggered = %d", eng.Metrics().Snapshot().AlarmsTriggered)
	}
}

// TestTCPMovingTargetPush: a subscriber connected over TCP receives a
// Seq-0 safe region push when the alarm target (another connection)
// reports a new position.
func TestTCPMovingTargetPush(t *testing.T) {
	eng, addr := startTCP(t)
	install(t, eng, alarm.Alarm{
		Scope:       alarm.Shared,
		Owner:       2,
		Subscribers: []alarm.UserID{2},
		Region:      geom.RectAround(geom.Pt(1000, 1000), 200),
		Target:      1,
	})

	sub, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(wire.Register{User: 2, Strategy: wire.StrategyMWPSR}); err != nil {
		t.Fatal(err)
	}
	if err := sub.Send(wire.PositionUpdate{User: 2, Seq: 1, Pos: geom.Pt(5000, 5000)}); err != nil {
		t.Fatal(err)
	}
	first, err := sub.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rr, ok := first.(wire.RectRegion); !ok || rr.Seq != 1 {
		t.Fatalf("expected region reply, got %v", first)
	}

	tgt, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	if err := tgt.Send(wire.Register{User: 1, Strategy: wire.StrategyPeriodic}); err != nil {
		t.Fatal(err)
	}
	if err := tgt.Send(wire.PositionUpdate{User: 1, Seq: 1, Pos: geom.Pt(4800, 5000)}); err != nil {
		t.Fatal(err)
	}

	// The subscriber's next inbound message must be the pushed region.
	pushc := make(chan wire.Message, 1)
	errc := make(chan error, 1)
	go func() {
		m, err := sub.Recv()
		if err != nil {
			errc <- err
			return
		}
		pushc <- m
	}()
	select {
	case m := <-pushc:
		rr, ok := m.(wire.RectRegion)
		if !ok || rr.Seq != 0 {
			t.Fatalf("expected Seq-0 push, got %#v", m)
		}
		movedAlarm := geom.RectAround(geom.Pt(4800, 5000), 200)
		if rr.Rect.Overlaps(movedAlarm) {
			t.Errorf("pushed region %v overlaps moved alarm", rr.Rect)
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no push arrived over TCP")
	}
}
