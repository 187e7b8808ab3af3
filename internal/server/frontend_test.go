package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// The front-end tests run every case over both topologies behind the one
// TCP front end: a single engine, and a 2×1 cluster split at x = 5000.

func engineConfig() server.Config {
	return server.Config{
		Universe:      geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000},
		CellAreaM2:    2.5e6,
		Model:         motion.MustNew(1, 32),
		PyramidParams: pyramid.DefaultParams(5),
		MaxSpeed:      30,
		TickSeconds:   1,
		Costs:         metrics.DefaultCosts(),
	}
}

// deployment is one topology serving on loopback.
type deployment struct {
	// addrs holds the listener addresses; on the cluster, addrs[i] fronts
	// shard i.
	addrs []string
	// install installs alarms deployment-wide.
	install func([]alarm.Alarm) ([]alarm.ID, error)
	// engine returns the engine that serves pos.
	engine func(pos geom.Point) *server.Engine
	// close closes the front end.
	close func() error
}

var topologies = []struct {
	name  string
	start func(t *testing.T) *deployment
}{
	{"engine", startEngine},
	{"cluster", startCluster},
}

func startEngine(t *testing.T) *deployment {
	eng, err := server.New(engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewTCPServerIdle(eng, "127.0.0.1:0", nil, server.DefaultIdleTimeout)
	if err != nil {
		t.Fatal(err)
	}
	serve(t, srv.Serve, srv.Close)
	return &deployment{
		addrs:   []string{srv.Addr().String()},
		install: eng.InstallAlarms,
		engine:  func(geom.Point) *server.Engine { return eng },
		close:   srv.Close,
	}
}

func startCluster(t *testing.T) *deployment {
	cl, err := cluster.New(cluster.Config{Cols: 2, Rows: 1, Engine: engineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	srv, err := cluster.NewTCP(cl, []string{"127.0.0.1:0", "127.0.0.1:0"}, nil, server.DefaultIdleTimeout)
	if err != nil {
		t.Fatal(err)
	}
	serve(t, srv.Serve, srv.Close)
	return &deployment{
		addrs:   srv.Addrs(),
		install: cl.InstallAlarms,
		engine: func(pos geom.Point) *server.Engine {
			shard, _ := cl.PartitionMap().Locate(pos)
			return cl.Engine(shard)
		},
		close: srv.Close,
	}
}

// serve runs a front end until the test ends and checks that Close stops
// it.
func serve(t *testing.T, run func() error, stop func() error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
	}()
	t.Cleanup(func() {
		stop()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("Serve did not exit after Close")
		}
	})
}

func dial(t *testing.T, addr string) transport.Conn {
	t.Helper()
	conn, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func send(t *testing.T, conn transport.Conn, msgs ...wire.Message) {
	t.Helper()
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
}

func recv(t *testing.T, conn transport.Conn) wire.Message {
	t.Helper()
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			d := topo.start(t)
			if err := d.close(); err != nil {
				t.Fatal(err)
			}
			if err := d.close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}

func TestTCPMultipleClients(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			d := topo.start(t)
			center := geom.Pt(1000, 1000)
			if _, err := d.install([]alarm.Alarm{{Scope: alarm.Public, Owner: 1, Region: geom.RectAround(center, 200)}}); err != nil {
				t.Fatal(err)
			}
			results := make(chan error, 4)
			for u := uint64(10); u < 14; u++ {
				go func(user uint64) { results <- walkPBSR(d.addrs[0], user) }(u)
			}
			for i := 0; i < 4; i++ {
				if err := <-results; err != nil {
					t.Error(err)
				}
			}
			if got := d.engine(center).Metrics().Snapshot().AlarmsTriggered; got != 4 {
				t.Errorf("AlarmsTriggered = %d, want 4 (public alarm per user)", got)
			}
		})
	}
}

// walkPBSR drives one PBSR client east through the public alarm at
// (1000, 1000) and checks it fired exactly once.
func walkPBSR(addr string, user uint64) error {
	conn, err := transport.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(wire.Register{User: user, Strategy: wire.StrategyPBSR, MaxHeight: 4}); err != nil {
		return err
	}
	cl := client.New(user, wire.StrategyPBSR, &metrics.Client{})
	for tick := 0; tick < 120; tick++ {
		upd := cl.Tick(tick, geom.Pt(500+float64(tick)*10, 1000))
		if upd == nil {
			continue
		}
		if err := conn.Send(*upd); err != nil {
			return err
		}
		for {
			msg, err := conn.Recv()
			if err != nil {
				return err
			}
			if err := cl.Handle(tick, msg); err != nil {
				return err
			}
			if _, ok := msg.(wire.AlarmFired); !ok {
				break
			}
		}
	}
	if len(cl.Fired()) != 1 {
		return fmt.Errorf("client %d fired %d alarms, want 1", user, len(cl.Fired()))
	}
	return nil
}

// TestTCPLifecycleInstall drives the typed lifecycle installs (wire kinds
// 16–19) over a real TCP connection: valid installs answer InstallReply
// with the assigned id, a rejected one answers id 0 on a still-live
// connection, and a continuous alarm installed this way delivers its
// packed enter event end to end.
func TestTCPLifecycleInstall(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			d := topo.start(t)
			conn := dial(t, d.addrs[0])
			installOver := func(m wire.Message) uint64 {
				t.Helper()
				send(t, conn, m)
				ir, ok := recv(t, conn).(wire.InstallReply)
				if !ok {
					t.Fatal("expected InstallReply")
				}
				return ir.ID
			}

			home := geom.Pt(2000, 500)
			contID := installOver(wire.InstallContinuous{Owner: 7, Region: geom.RectAround(home, 200)})
			if contID == 0 {
				t.Fatal("continuous install rejected")
			}
			if pairID := installOver(wire.InstallPair{Owner: 7, Anchor: 8, Radius: 150}); pairID == 0 {
				t.Fatal("pair install rejected")
			}
			if compID := installOver(wire.InstallComposite{
				Owner:     7,
				Factors:   []wire.FactorInfo{{Center: geom.Pt(900, 900), Radius: 100, Weight: 1}},
				Threshold: 0.5,
			}); compID == 0 {
				t.Fatal("composite install rejected")
			}
			// Anchor == owner is invalid: the reply carries id 0 and the
			// connection survives (the follow-up install still answers).
			if badID := installOver(wire.InstallPair{Owner: 7, Anchor: 7, Radius: 150}); badID != 0 {
				t.Fatalf("invalid pair install accepted with id %d", badID)
			}
			sn := d.engine(home).Metrics().Snapshot()
			if sn.AlarmsContinuous != 1 || sn.AlarmsPair != 1 || sn.AlarmsComposite != 1 {
				t.Fatalf("gauges = %d/%d/%d, want 1/1/1",
					sn.AlarmsContinuous, sn.AlarmsPair, sn.AlarmsComposite)
			}

			// The installed continuous alarm fires its packed enter event over
			// the same wire path a one-shot firing uses.
			send(t, conn, wire.Register{User: 7, Strategy: wire.StrategyMWPSR},
				wire.PositionUpdate{User: 7, Seq: 1, Pos: home})
			f, ok := recv(t, conn).(wire.AlarmFired)
			if !ok {
				t.Fatal("expected AlarmFired first")
			}
			if want := alarm.PackEvent(alarm.ID(contID), alarm.TransEnter, 1); len(f.Alarms) != 1 || f.Alarms[0] != want {
				t.Fatalf("fired = %#x, want [%#x]", f.Alarms, want)
			}
		})
	}
}

// TestTCPPairPush: a pair's owner sits silent inside its region while the
// anchor, on another connection, walks into radius; the owner must be sent
// a Seq-0 AlarmFired. On the cluster the two endpoints are on different
// shards, so the wake-up rides the anchor's fan-out to the owner's shard
// and that shard's push to the owner's connection.
func TestTCPPairPush(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			d := topo.start(t)
			ids, err := d.install([]alarm.Alarm{{
				Scope: alarm.Shared, Owner: 2, Subscribers: []alarm.UserID{2},
				Kind: alarm.KindPair, Anchor: 3, Radius: 200,
			}})
			if err != nil {
				t.Fatal(err)
			}
			ownerPos := geom.Pt(5100, 5000)
			owner := dial(t, d.addrs[len(d.addrs)-1]) // east of the split
			send(t, owner, wire.Register{User: 2, Strategy: wire.StrategyMWPSR},
				wire.PositionUpdate{User: 2, Seq: 1, Pos: ownerPos})
			if rr, ok := recv(t, owner).(wire.RectRegion); !ok || rr.Seq != 1 {
				t.Fatalf("owner's report answered with %#v, want its region", rr)
			}

			anchor := dial(t, d.addrs[0]) // west of the split
			send(t, anchor, wire.Register{User: 3, Strategy: wire.StrategyMWPSR})
			for seq, x := range []float64{4000, 4950} { // 1100 m away, then 150 m
				send(t, anchor, wire.PositionUpdate{User: 3, Seq: uint32(seq + 1), Pos: geom.Pt(x, 5000)})
				if _, ok := recv(t, anchor).(wire.Redirect); ok {
					t.Fatal("the anchor was redirected off its own shard")
				}
			}

			pushed := make(chan wire.Message, 1)
			go func() {
				m, _ := owner.Recv() // nil once the test closes the connection
				pushed <- m
			}()
			select {
			case m := <-pushed:
				af, ok := m.(wire.AlarmFired)
				if !ok || af.Seq != 0 || len(af.Alarms) != 1 || alarm.EventAlarm(af.Alarms[0]) != ids[0] {
					t.Fatalf("owner was sent %#v, want a Seq-0 AlarmFired for pair %d", m, ids[0])
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no push reached the owner")
			}
		})
	}
}

// TestTCPPushesInterleaveWithReplies: several target connections move
// alarms a subscriber follows while the subscriber pipelines its own
// reports, so Seq-0 pushes (written from the targets' serving goroutines)
// and the subscriber's replies (written from its own) interleave on one
// connection. Every report must be answered exactly once, every push must
// arrive, and no frame may be torn. Run under -race.
func TestTCPPushesInterleaveWithReplies(t *testing.T) {
	const targets, reports = 4, 40
	d := startEngine(t)
	var alarms []alarm.Alarm
	for i := 0; i < targets; i++ {
		alarms = append(alarms, alarm.Alarm{
			Scope: alarm.Shared, Owner: 1, Subscribers: []alarm.UserID{1},
			Region: geom.RectAround(geom.Pt(1000, 1000+1000*float64(i)), 100),
			Target: alarm.UserID(100 + i),
		})
	}
	if _, err := d.install(alarms); err != nil {
		t.Fatal(err)
	}
	sub := dial(t, d.addrs[0])
	send(t, sub, wire.Register{User: 1, Strategy: wire.StrategyMWPSR},
		wire.PositionUpdate{User: 1, Seq: 1, Pos: geom.Pt(8000, 8000)})
	recv(t, sub) // the subscriber's position is known from here on

	// Every target report moves an alarm the subscriber follows, so it is
	// owed one push per target report as well as one reply per report.
	answered := make(map[uint32]int)
	pushes := 0
	readDone := make(chan error, 1)
	go func() {
		for len(answered) < reports || pushes < targets*reports {
			m, err := sub.Recv()
			if err != nil {
				readDone <- err
				return
			}
			seq, ok := wire.SeqOf(m)
			switch {
			case !ok:
				readDone <- fmt.Errorf("unexpected %#v", m)
				return
			case seq == 0:
				pushes++
			default:
				answered[seq]++
			}
		}
		readDone <- nil
	}()

	var wg sync.WaitGroup
	for i := 0; i < targets; i++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			conn, err := transport.Dial(d.addrs[0])
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			if err := conn.Send(wire.Register{User: user, Strategy: wire.StrategyPeriodic}); err != nil {
				t.Error(err)
				return
			}
			for seq := uint32(1); seq <= reports; seq++ {
				pos := geom.Pt(1000+10*float64(seq), 1000+1000*float64(user-100))
				if err := conn.Send(wire.PositionUpdate{User: user, Seq: seq, Pos: pos}); err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Recv(); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(100 + i))
	}
	for seq := uint32(2); seq <= reports+1; seq++ {
		send(t, sub, wire.PositionUpdate{User: 1, Seq: seq, Pos: geom.Pt(8000, 8000-float64(seq))})
	}
	wg.Wait()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the subscriber's replies never all arrived")
	}
	for seq := uint32(2); seq <= reports+1; seq++ {
		if answered[seq] != 1 {
			t.Errorf("report %d answered %d times, want once", seq, answered[seq])
		}
	}
	if pushes != targets*reports {
		t.Errorf("the subscriber was pushed %d messages, want %d", pushes, targets*reports)
	}
}
