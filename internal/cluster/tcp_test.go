package cluster

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

func startTCPCluster(t *testing.T, c *Cluster) *TCPCluster {
	t.Helper()
	addrs := make([]string, c.N())
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	srv, err := NewTCP(c, addrs, nil, 30*time.Second)
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
	return srv
}

// TestTCPRedirectFollowsShard drives a real client session over real TCP
// across the partition boundary: the first shard replies with a
// wire.Redirect carrying the handed-off session's token, the session
// redials the owning shard via DialTo, resumes there, and the alarm on
// the far side still fires exactly once.
func TestTCPRedirectFollowsShard(t *testing.T) {
	c := newTestCluster(t, 2, 1, "") // split at x=5000
	ids, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 42,
		Region: geom.RectAround(geom.Pt(6000, 5000), 200),
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := startTCPCluster(t, c)
	addrs := srv.Addrs()

	met := &metrics.Client{}
	cl := client.New(42, wire.StrategyMWPSR, met)
	sess := client.NewSession(cl, func() (transport.Conn, error) {
		return transport.Dial(addrs[0])
	}, client.SessionConfig{MaxHeight: 5, JitterSeed: 1}, met)
	sess.DialTo = func(addr string) (transport.Conn, error) {
		return transport.Dial(addr)
	}
	var fired []uint64
	sess.OnFired = func(alarms []uint64) { fired = append(fired, alarms...) }

	// Walk east from deep in shard 0, through the boundary, into the
	// alarm. Real TCP is asynchronous, so poll each tick briefly.
	for tick := 0; tick < 600 && len(fired) == 0; tick++ {
		pos := geom.Pt(4000+float64(tick)*20, 5000)
		if pos.X > 6000 {
			pos.X = 6000
		}
		sess.Step(tick, pos)
		time.Sleep(2 * time.Millisecond)
	}
	// Drain any in-flight delivery.
	for tick := 600; tick < 650 && len(fired) == 0; tick++ {
		sess.Quiesce(tick)
		time.Sleep(2 * time.Millisecond)
	}
	if len(fired) != 1 || fired[0] != uint64(ids[0]) {
		t.Fatalf("fired = %v, want [%d]", fired, ids[0])
	}
	if met.Redirects == 0 {
		t.Error("session followed no redirects crossing the boundary")
	}
	cm := c.Metrics().Snapshot()
	if cm.RedirectsSent == 0 || cm.Handoffs == 0 {
		t.Errorf("cluster counters: redirects=%d handoffs=%d, want both > 0", cm.RedirectsSent, cm.Handoffs)
	}
}

// TestTCPAddrsMismatch: the front end refuses an address list that does
// not match the shard count.
func TestTCPAddrsMismatch(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	if _, err := NewTCP(c, []string{"127.0.0.1:0"}, nil, time.Second); err == nil {
		t.Fatal("one address for two shards accepted")
	}
}

// TestTCPPlainClientStraddlingAlarmFiresOnce: a plain-Register client —
// no session, no acknowledgements, no client-side dedup — sits inside an
// alarm that straddles the split while it crosses it. The alarm is
// installed on both shards; the spent mark travels with the handoff, so
// the client is sent one AlarmFired, not one per shard.
func TestTCPPlainClientStraddlingAlarmFiresOnce(t *testing.T) {
	c := newTestCluster(t, 2, 1, "") // split at x=5000
	ids, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 7,
		Region: geom.RectAround(geom.Pt(5000, 5000), 1000), // x 4500..5500
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := startTCPCluster(t, c)

	// roundTrip reads the reply to one report: any AlarmFired first, then
	// one monitoring-state message or a Redirect.
	var fired []uint64
	roundTrip := func(conn transport.Conn, upd wire.PositionUpdate) wire.Message {
		t.Helper()
		if err := conn.Send(upd); err != nil {
			t.Fatal(err)
		}
		for {
			m, err := conn.Recv()
			if err != nil {
				t.Fatal(err)
			}
			af, more := m.(wire.AlarmFired)
			if !more {
				return m
			}
			fired = append(fired, af.Alarms...)
		}
	}
	west, err := transport.Dial(srv.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer west.Close()
	if err := west.Send(wire.Register{User: 7, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); err != nil {
		t.Fatal(err)
	}
	roundTrip(west, wire.PositionUpdate{User: 7, Seq: 1, Pos: geom.Pt(4800, 5000)})
	if len(fired) != 1 || fired[0] != uint64(ids[0]) {
		t.Fatalf("west of the split: fired %v, want [%d]", fired, ids[0])
	}

	crossing := wire.PositionUpdate{User: 7, Seq: 2, Pos: geom.Pt(5200, 5000)}
	rd, ok := roundTrip(west, crossing).(wire.Redirect)
	if !ok || rd.Addr != srv.Addrs()[1] || rd.Token != 0 {
		t.Fatalf("crossing report answered with %+v, want a token-less Redirect to shard 1", rd)
	}
	east, err := transport.Dial(rd.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer east.Close()
	roundTrip(east, crossing)
	if len(fired) != 1 {
		t.Fatalf("the client was sent %v: the straddling alarm fired once per shard", fired)
	}
	if trig := c.Engine(1).Metrics().Snapshot().AlarmsTriggered; trig != 0 {
		t.Errorf("shard 1 refired the carried pair (AlarmsTriggered = %d)", trig)
	}
}
