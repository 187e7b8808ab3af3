package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// handoffProbe is the client side of the crash-window table: it reports
// a scripted walk through a Router, retries a report the cluster could
// not serve, and remembers every event id it was ever sent — the set a
// deduplicating client delivers. A reliable probe acknowledges nothing
// until the walk is over, so its firings are pending at every crossing.
type handoffProbe struct {
	t         *testing.T
	rt        *Router
	reliable  bool
	seq       uint32
	token     uint64
	delivered map[uint64]bool
}

const probeUser = 1

func (p *handoffProbe) absorb(msgs []wire.Message) {
	for _, m := range msgs {
		switch m := m.(type) {
		case wire.AlarmFired:
			for _, id := range m.Alarms {
				p.delivered[id] = true
			}
		case wire.Resume:
			p.token = m.Token
		}
	}
}

func (p *handoffProbe) enroll() {
	p.t.Helper()
	if !p.reliable {
		if !p.rt.HandleRegister(wire.Register{User: probeUser, Strategy: wire.StrategyMWPSR, MaxHeight: 5}) {
			p.t.Fatal("register refused")
		}
		return
	}
	out, err := p.rt.HandleHello(wire.Hello{User: probeUser, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if err != nil {
		p.t.Fatal(err)
	}
	p.absorb(out)
}

// report sends the next report; on failure the same seq is resent by the
// next call, as a session's resend machinery would.
func (p *handoffProbe) report(pos geom.Point) error {
	out, err := p.rt.HandleUpdate(wire.PositionUpdate{User: probeUser, Seq: p.seq + 1, Pos: pos})
	if err != nil {
		return err
	}
	p.seq++
	p.absorb(out)
	return nil
}

func (p *handoffProbe) mustReport(pos geom.Point) {
	p.t.Helper()
	if err := p.report(pos); err != nil {
		p.t.Fatalf("report %v: %v", pos, err)
	}
}

// resumes checks that the last token the cluster handed out resumes the
// session where the router says it lives.
func (p *handoffProbe) resumes() {
	p.t.Helper()
	if !p.reliable {
		return
	}
	out, err := p.rt.HandleHello(wire.Hello{User: probeUser, Token: p.token, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if err != nil {
		p.t.Fatalf("resume: %v", err)
	}
	for _, m := range out {
		if r, ok := m.(wire.Resume); ok && !r.Resumed {
			p.t.Errorf("token %d from the handoff did not resume", p.token)
		}
	}
	p.absorb(out)
}

func (p *handoffProbe) events() []uint64 {
	ids := make([]uint64, 0, len(p.delivered))
	for id := range p.delivered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// handoffWindow is one row of the crash-window table: where the kill
// lands relative to the handoff 0→1 of the walk's second report.
type handoffWindow struct {
	name string
	// tornAt > 0 kills the destination inside the import group: record
	// tornAt of the group reaches the disk cut to tear bytes (0: not at
	// all — the boundary before it; huge: whole — the boundary after it).
	tornAt, tear int
	// afterImport kills the destination once the handoff was acknowledged.
	afterImport bool
	// dropPending / dropLanded kill the source after the handoff, before or
	// after its ExpireRec rode a commit.
	dropPending, dropLanded bool
}

// TestHandoffCrashWindows kills a shard at every point of a cross-shard
// handoff — each record boundary and a torn offset of the import group,
// after the import but before the source's drop landed, and after it —
// and revives it from its own disk or by promoting its synchronous
// follower. The invariant is "import durable, then drop; the drop is
// cleanup": after recovery the session is on at least one shard, the
// token the client was given resumes, and the delivered event set equals
// the fault-free walk's.
//
//	kill                                  leader recovers with            promoted follower has
//	destination, inside the import group  a prefix of the group (merged   nothing of the group
//	                                      into by the retried handoff)
//	destination, import acknowledged      the whole session               the whole session
//	source, ExpireRec still queued        a stale copy (merged away when  a stale copy
//	                                      the client next moves there)
//	source, ExpireRec landed              no copy                         no copy
func TestHandoffCrashWindows(t *testing.T) {
	kinds := []struct {
		name                string
		reliable, lifecycle bool
	}{
		{"plain", false, false},
		{"reliable+pending", true, false},
		{"reliable+pending+lifecycle", true, true},
	}
	walk := []geom.Point{
		geom.Pt(4800, 5000), // shard 0: fires the straddling one-shot, enters the continuous region
		geom.Pt(5200, 5000), // shard 1: the handoff under test; still inside both
		geom.Pt(6000, 5000), // shard 1: leaves the continuous region, fires the far one-shot
		geom.Pt(4800, 5000), // back on shard 0 (over a stale copy, if a kill left one)
	}
	for _, kind := range kinds {
		kind := kind
		// run walks the script under one window and returns the delivered
		// set plus the size of the import group the handoff logged.
		run := func(t *testing.T, w handoffWindow, promote bool) ([]uint64, int) {
			replicas := 0
			if promote {
				replicas = 1
			}
			c := newReplCluster(t, 2, 1, replicas, true, t.TempDir())
			alarms := []alarm.Alarm{
				{Scope: alarm.Private, Owner: probeUser, Region: geom.RectAround(geom.Pt(5000, 5000), 1000)},
				{Scope: alarm.Private, Owner: probeUser, Region: geom.RectAround(geom.Pt(6000, 5000), 200)},
			}
			if kind.lifecycle {
				alarms = append(alarms, alarm.Alarm{Scope: alarm.Private, Owner: probeUser, Kind: alarm.KindContinuous,
					Region: geom.R(4600, 4000, 5400, 6000)})
			}
			if _, err := c.InstallAlarms(alarms); err != nil {
				t.Fatal(err)
			}
			revive := func(shard int) {
				t.Helper()
				if err := c.KillShard(shard, store.TearNone, nil); err != nil {
					t.Fatal(err)
				}
				var err error
				if promote {
					err = c.PromoteFollower(shard)
				} else {
					err = c.RecoverShard(shard)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !c.Engine(0).HasSession(probeUser) && !c.Engine(1).HasSession(probeUser) {
					t.Fatalf("after reviving shard %d the session is on neither shard", shard)
				}
			}
			p := &handoffProbe{t: t, rt: NewRouter(c), reliable: kind.reliable, delivered: map[uint64]bool{}}
			p.enroll()
			p.mustReport(walk[0])

			dst := c.Engine(1).Store()
			posBefore := dst.Pos()
			if w.tornAt > 0 {
				// The destination was opened fresh, so its lifetime append
				// count is its position.
				dst.SetCrashPoints([]store.CrashPoint{{AfterAppends: int(posBefore) + w.tornAt, TearBytes: w.tear, FlipBit: -1}})
				err := p.report(walk[1])
				if sd, ok := IsShardDown(err); !ok || sd.Shard != 1 {
					t.Fatalf("handoff over a dying destination: err=%v, want ShardDownError{Shard: 1}", err)
				}
				if !c.Engine(0).HasSession(probeUser) {
					t.Fatal("the source dropped the session although the import failed")
				}
				revive(1)
			}
			p.mustReport(walk[1])
			group := int(c.Engine(1).Store().Pos() - posBefore)
			if w.tornAt > 0 {
				group = 0 // a retry over a recovered prefix logs a different group
			}
			if c.Engine(0).HasSession(probeUser) || !c.Engine(1).HasSession(probeUser) {
				t.Fatalf("after the handoff: on source %v, on destination %v",
					c.Engine(0).HasSession(probeUser), c.Engine(1).HasSession(probeUser))
			}
			switch {
			case w.afterImport:
				revive(1)
			case w.dropPending:
				revive(0)
				if !c.Engine(0).HasSession(probeUser) {
					t.Error("the source was killed before its ExpireRec landed, yet its copy is gone")
				}
			case w.dropLanded:
				// Any commit on the source carries the ExpireRec with it.
				if !p.rt.HandleRegister(wire.Register{User: 99, Strategy: wire.StrategyMWPSR}) {
					t.Fatal("register on the source refused")
				}
				revive(0)
				if c.Engine(0).HasSession(probeUser) {
					t.Error("the source's ExpireRec landed, yet recovery kept a copy")
				}
			}
			p.resumes()
			p.mustReport(walk[2])
			p.mustReport(walk[3])
			p.resumes()
			if c.Engine(1).HasSession(probeUser) || !c.Engine(0).HasSession(probeUser) {
				t.Errorf("after walking back: on shard 0 %v, on shard 1 %v",
					c.Engine(0).HasSession(probeUser), c.Engine(1).HasSession(probeUser))
			}
			if kind.reliable {
				p.rt.HandleAck(probeUser, p.events())
				if left := firedIDs(p.rt.HandleHeartbeat(probeUser, wire.Heartbeat{})); len(left) != 0 {
					t.Errorf("still redelivering %#x after everything was acknowledged", left)
				}
			}
			return p.events(), group
		}

		t.Run(kind.name, func(t *testing.T) {
			want, group := run(t, handoffWindow{name: "fault-free"}, false)
			wantLen := 2
			if kind.lifecycle {
				wantLen = 5 // + enter 1, exit 1, enter 2
			}
			if len(want) != wantLen {
				t.Fatalf("fault-free walk delivered %#x, want %d events", want, wantLen)
			}
			if group < 1 {
				t.Fatalf("the handoff logged %d records on the destination", group)
			}
			windows := []handoffWindow{
				{name: "import acknowledged", afterImport: true},
				{name: "drop pending", dropPending: true},
				{name: "drop landed", dropLanded: true},
			}
			for k := 1; k <= group; k++ {
				windows = append(windows,
					handoffWindow{name: fmt.Sprintf("import record %d of %d absent", k, group), tornAt: k, tear: 0},
					handoffWindow{name: fmt.Sprintf("import record %d of %d torn", k, group), tornAt: k, tear: 5},
					handoffWindow{name: fmt.Sprintf("import record %d of %d whole", k, group), tornAt: k, tear: 1 << 20})
			}
			for _, w := range windows {
				w := w
				for _, promote := range []bool{false, true} {
					by := "leader"
					if promote {
						by = "follower"
					}
					t.Run(w.name+"/"+by, func(t *testing.T) {
						if got, _ := run(t, w, promote); !reflect.DeepEqual(got, want) {
							t.Errorf("delivered %#x, fault-free walk delivered %#x", got, want)
						}
					})
				}
			}
		})
	}
}
