package server

import (
	"bytes"
	"net"
	"slices"
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
	return eng, serveTCP(t, eng)
}

// serveTCP fronts eng with a cleanup-registered TCP server and returns
// its address.
func serveTCP(t *testing.T, eng *Engine) string {
	t.Helper()
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
	return srv.Addr().String()
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

// frames encodes msgs as the length-prefixed frames a client writes.
func frames(t *testing.T, msgs ...wire.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := transport.WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// dialRaw opens a bare TCP connection to addr.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// enrolled reports which of users the engine holds client state for.
func enrolled(e *Engine, users ...uint64) []bool {
	out := make([]bool, len(users))
	for i, u := range users {
		out[i] = e.HasSession(alarm.UserID(u))
	}
	return out
}

func mwpsr(user uint64) wire.Register {
	return wire.Register{User: user, Strategy: wire.StrategyMWPSR, MaxHeight: 5}
}

// TestRegisterRunOneCommit: K Registers arriving in one write, then a
// report, are enrolled with far fewer than K fsyncs (one per buffered
// run), before the report is answered; after a kill every one of the K
// users recovers from the log.
func TestRegisterRunOneCommit(t *testing.T) {
	const k = 100
	dir := t.TempDir()
	eng := newFsyncEngine(t, dir)
	nc := dialRaw(t, serveTCP(t, eng))
	msgs := make([]wire.Message, 0, k+1)
	for u := uint64(1); u <= k; u++ {
		msgs = append(msgs, mwpsr(u))
	}
	msgs = append(msgs, wire.PositionUpdate{User: 1, Seq: 1, Pos: geom.Pt(500, 500)})

	before := eng.Metrics().Snapshot()
	if _, err := nc.Write(frames(t, msgs...)); err != nil {
		t.Fatal(err)
	}
	if m, err := transport.NewTCP(nc).Recv(); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(wire.RectRegion); !ok {
		t.Fatalf("report answered with %v, want a region", m.Kind())
	}
	after := eng.Metrics().Snapshot()
	if f, r := after.WALFsyncs-before.WALFsyncs, after.WALGroupRecords-before.WALGroupRecords; f > k/10 || r != k {
		t.Errorf("%d Registers: %d fsyncs for %d records; want at most %d for %d", k, f, r, k/10, k)
	}
	eng.Store().Kill()
	if got := newFsyncEngine(t, dir).ClientCount(); got != k {
		t.Errorf("recovered %d clients, want %d", got, k)
	}
}

// TestRegisterRunUnknownStrategy: a Register naming an unknown strategy
// in the middle of a buffered run closes the connection; the Registers
// before it are enrolled and durable, the ones from it on are not.
func TestRegisterRunUnknownStrategy(t *testing.T) {
	dir := t.TempDir()
	eng := newFsyncEngine(t, dir)
	nc := dialRaw(t, serveTCP(t, eng))
	bad := wire.Register{User: 3, Strategy: 99}
	if _, err := nc.Write(frames(t, mwpsr(1), mwpsr(2), bad, mwpsr(4))); err != nil {
		t.Fatal(err)
	}
	if m, err := transport.NewTCP(nc).Recv(); err == nil {
		t.Fatalf("connection stayed open and sent %v", m.Kind())
	}
	want := []bool{true, true, false, false}
	if got := enrolled(eng, 1, 2, 3, 4); !slices.Equal(got, want) {
		t.Errorf("enrolled users 1-4: %v, want %v", got, want)
	}
	eng.Store().Kill()
	if got := enrolled(newFsyncEngine(t, dir), 1, 2, 3, 4); !slices.Equal(got, want) {
		t.Errorf("recovered users 1-4: %v, want %v", got, want)
	}
}

// TestRegisterBeforeSplitFrame: a Register followed by the first half of
// a frame is committed while the connection waits for the second half —
// its read loop never blocks with a record uncommitted.
func TestRegisterBeforeSplitFrame(t *testing.T) {
	dir := t.TempDir()
	eng := newFsyncEngine(t, dir)
	nc := dialRaw(t, serveTCP(t, eng))
	first := frames(t, mwpsr(1))
	second := frames(t, mwpsr(2))
	if _, err := nc.Write(append(first, second[:len(second)/2]...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); eng.Metrics().Snapshot().WALGroupCommits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("Register not committed while the next frame is incomplete")
		}
		time.Sleep(time.Millisecond)
	}
	if got := enrolled(eng, 1, 2); !slices.Equal(got, []bool{true, false}) {
		t.Fatalf("enrolled users 1-2 before the second half: %v", got)
	}
	eng.Store().Kill()
	if !newFsyncEngine(t, dir).HasSession(1) {
		t.Error("committed Register lost in recovery")
	}
}
