package cluster

import (
	"math/rand"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

var clusterUniverse = geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}

// newTestCluster builds a cols×rows cluster over clusterUniverse;
// dataDir "" runs the shards in memory.
func newTestCluster(t testing.TB, cols, rows int, dataDir string) *Cluster {
	t.Helper()
	c, err := New(Config{
		Cols: cols,
		Rows: rows,
		Engine: server.Config{
			Universe:      clusterUniverse,
			CellAreaM2:    2.5e6,
			Model:         motion.MustNew(1, 32),
			PyramidParams: pyramid.DefaultParams(5),
			MaxSpeed:      30,
			TickSeconds:   1,
			Costs:         metrics.DefaultCosts(),
		},
		DataDir: dataDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestInstallAlarmsMarginPlacement: an alarm deep inside one partition
// lands only on that shard; an alarm near the boundary lands on both. A
// composite, whose region the install derives from its factors, is placed
// by those factors.
func TestInstallAlarmsMarginPlacement(t *testing.T) {
	c := newTestCluster(t, 2, 1, "") // split at x=5000, margin ~3162 m
	deep := alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(9500, 5000), 200)}
	boundary := alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(5000, 5000), 200)}
	deepComposite := alarm.Alarm{
		Scope: alarm.Private, Owner: 1, Kind: alarm.KindComposite, Threshold: 0.5,
		Factors: []alarm.Factor{{Center: geom.Pt(9500, 5000), Radius: 100, Weight: 1}},
	}
	ids, err := c.InstallAlarms([]alarm.Alarm{deep, boundary, deepComposite})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] == ids[1] || ids[1] == ids[2] {
		t.Fatalf("ids = %v", ids)
	}
	if got := c.Engine(0).Registry().Len(); got != 1 {
		t.Errorf("shard 0 holds %d alarms, want 1 (boundary only)", got)
	}
	if got := c.Engine(1).Registry().Len(); got != 3 {
		t.Errorf("shard 1 holds %d alarms, want 3", got)
	}
}

// TestInstallAlarmsRejectsMovingTarget: clustered mode has no cross-shard
// re-anchoring, so moving-target alarms must be refused up front.
func TestInstallAlarmsRejectsMovingTarget(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	_, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 1, Target: 7,
		Region: geom.RectAround(geom.Pt(5000, 5000), 200),
	}})
	if err == nil {
		t.Fatal("moving-target alarm accepted in clustered mode")
	}
}

// TestClusterCrashRecovery: a killed shard reboots from its own store
// with its alarms, sessions and global ID counter intact, while the
// other shard keeps serving throughout.
func TestClusterCrashRecovery(t *testing.T) {
	c := newTestCluster(t, 2, 1, t.TempDir())
	ids, err := c.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(2000, 5000), 200)},
		{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(9500, 5000), 200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A reliable session on shard 0, with one unacknowledged firing.
	out, _, err := c.Engine(0).HandleHello(wire.Hello{User: 1, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	var tok uint64
	for _, m := range out {
		if r, ok := m.(wire.Resume); ok {
			tok = r.Token
		}
	}
	if tok == 0 {
		t.Fatal("no session token issued")
	}
	if _, err := c.Engine(0).HandleUpdate(wire.PositionUpdate{User: 1, Seq: 1, Pos: geom.Pt(2000, 5000)}); err != nil {
		t.Fatal(err)
	}
	if pending := c.Engine(0).PendingFired(1); len(pending) != 1 || pending[0] != uint64(ids[0]) {
		t.Fatalf("pending before crash = %v, want [%d]", pending, ids[0])
	}

	// A clean record-boundary kill: the FiredRec for the unacknowledged
	// firing is the final WAL frame, and a torn tail would (correctly)
	// lose it — torn-tail recovery is the sim harness's territory, where
	// the client-side resend closes that window.
	rng := rand.New(rand.NewSource(1))
	if err := c.KillShard(0, store.TearNone, rng); err != nil {
		t.Fatal(err)
	}
	if c.Up(0) || c.Engine(0) != nil {
		t.Fatal("killed shard still reports up")
	}
	if !c.Up(1) {
		t.Fatal("healthy shard went down with its neighbour")
	}
	if err := c.KillShard(0, store.TearNone, rng); err == nil {
		t.Error("double kill accepted")
	}

	if err := c.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Engine(0).Registry().Len(); got != 1 {
		t.Errorf("recovered shard 0 holds %d alarms, want 1", got)
	}
	// The session resumed from the log: same token, pending redelivered.
	out, _, err = c.Engine(0).HandleHello(wire.Hello{User: 1, Token: tok, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	resumed, redelivered := false, false
	for _, m := range out {
		switch v := m.(type) {
		case wire.Resume:
			resumed = v.Resumed
		case wire.AlarmFired:
			for _, id := range v.Alarms {
				redelivered = redelivered || id == uint64(ids[0])
			}
		}
	}
	if !resumed || !redelivered {
		t.Errorf("after recovery: resumed=%v redelivered=%v, want both", resumed, redelivered)
	}
	met := c.Metrics().Snapshot()
	if met.ShardCrashes != 1 || met.ShardRecoveries != 1 {
		t.Errorf("crash/recovery counters = %d/%d, want 1/1", met.ShardCrashes, met.ShardRecoveries)
	}
}

// TestGlobalAlarmIDsSurviveRestart: a cluster reopened on the same data
// dir seeds its ID counter past every recovered shard, so new installs
// never collide with recovered alarms.
func TestGlobalAlarmIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	c := newTestCluster(t, 2, 1, dir)
	first, err := c.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(2000, 5000), 200)},
		{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(8000, 5000), 200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := newTestCluster(t, 2, 1, dir)
	second, err := c2.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(5000, 5000), 200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[alarm.ID]bool{}
	for _, id := range append(first, second...) {
		if seen[id] {
			t.Fatalf("alarm ID %d reused across restart", id)
		}
		seen[id] = true
	}
}
