package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// probeUser walks the crash-window script. Its client retries a report
// the cluster could not serve, and remembers every event id it was ever
// sent — the set a deduplicating client delivers. A reliable probe
// acknowledges nothing until the walk is over, so its firings are
// pending at every crossing.
const probeUser = 1

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
			fe := newMemFront(t, c)
			p := enroll(t, fe, probeUser, kind.reliable, wire.StrategyMWPSR)
			p.mustReport(walk[0])

			dst := c.Engine(1).Store()
			posBefore := dst.Pos()
			if w.tornAt > 0 {
				// The destination was opened fresh, so its lifetime append
				// count is its position.
				dst.SetCrashPoints([]store.CrashPoint{{AfterAppends: int(posBefore) + w.tornAt, TearBytes: w.tear, FlipBit: -1}})
				if _, err := p.report(walk[1]); err != errUnanswered {
					t.Fatalf("handoff over a dying destination: %v, want the report unanswered", err)
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
				register(t, fe, 99)
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
				p.ack(p.events())
				if left := firedIDs(p.heartbeat()); len(left) != 0 {
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
