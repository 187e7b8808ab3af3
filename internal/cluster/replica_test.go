package cluster

import (
	"errors"
	"os"
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

// newReplCluster builds a durable replicated test cluster: replicas
// follower logs per shard, promotion after two silent ticks.
func newReplCluster(t testing.TB, cols, rows, replicas int, ack bool, dataDir string) *Cluster {
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
		DataDir:      dataDir,
		Replicas:     replicas,
		PromoteAfter: 2,
		ReplAck:      ack,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestReplicationStatusTracksPrimary: after a pump tick every follower
// has applied everything the primary acknowledged — zero lag.
func TestReplicationStatusTracksPrimary(t *testing.T) {
	for _, ack := range []bool{false, true} {
		name := "async"
		if ack {
			name = "ack"
		}
		t.Run(name, func(t *testing.T) {
			c := newReplCluster(t, 2, 1, 2, ack, t.TempDir())
			cl := hello(t, newMemFront(t, c), 1)
			cl.mustReport(geom.Pt(2000, 5000))
			cl.mustReport(geom.Pt(2100, 5000))
			c.TickReplication(1)

			rep := c.replicator(0)
			if rep == nil {
				t.Fatal("shard 0 has no replicator")
			}
			st := rep.Status()
			if st.Followers != 2 {
				t.Fatalf("followers = %d, want 2", st.Followers)
			}
			if st.StreamPos == 0 {
				t.Fatal("no records streamed")
			}
			if st.Lag != 0 || st.MinAcked != st.StreamPos {
				t.Fatalf("lag = %d (acked %d of %d), want 0", st.Lag, st.MinAcked, st.StreamPos)
			}
			// The snapshot surfaces through ShardSnapshots for operators.
			shards := c.ShardSnapshots()
			if shards[0].Replication == nil || shards[0].Replication.Followers != 2 {
				t.Fatalf("ShardSnapshots missing replication status: %+v", shards[0].Replication)
			}
		})
	}
}

// TestFailoverPromotesFollower: a killed primary's shard comes back on
// its follower within PromoteAfter ticks — sessions intact, the
// partition-map epoch bumped, and the front end serving again with no
// recovery call.
func TestFailoverPromotesFollower(t *testing.T) {
	c := newReplCluster(t, 2, 1, 1, false, t.TempDir())
	fe := newMemFront(t, c)
	cl := hello(t, fe, 1)
	cl.mustReport(geom.Pt(2000, 5000))              // shard 0
	hello(t, fe, 2).mustReport(geom.Pt(8000, 5000)) // shard 1
	c.TickReplication(1)
	epochBefore := c.Epoch()

	if err := c.KillShard(0, store.TearNone, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.report(geom.Pt(2000, 5000)); err == nil {
		t.Fatal("update served while shard 0 down")
	}
	c.TickReplication(2)
	c.TickReplication(3) // silent for 2 ticks: promotion fires here

	if !c.Up(0) {
		t.Fatal("shard 0 not promoted")
	}
	if got := c.Metrics().Snapshot().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if c.Epoch() != epochBefore+1 {
		t.Fatalf("epoch = %d, want %d (promotion must bump the map epoch)", c.Epoch(), epochBefore+1)
	}
	if !c.Engine(0).HasSession(1) {
		t.Fatal("promoted shard lost user 1's session")
	}
	if _, err := cl.report(geom.Pt(2000, 5000)); err != nil {
		t.Fatalf("update after promotion: %v", err)
	}
	// The replica count was restored with a replacement follower.
	if st := c.replicator(0).Status(); st.Followers != 1 {
		t.Fatalf("followers after promotion = %d, want 1", st.Followers)
	}
}

// TestFencingRejectsDeposedPrimary: a primary cut off by a network
// partition (engine detached, store alive) keeps acknowledging writes
// until promotion bumps the shard term — after which every append it
// tries is fenced, while every write it acknowledged before the
// promotion is present on the new primary.
func TestFencingRejectsDeposedPrimary(t *testing.T) {
	c := newReplCluster(t, 2, 1, 1, false, t.TempDir())
	hello(t, newMemFront(t, c), 1).mustReport(geom.Pt(2000, 5000))
	c.TickReplication(1)

	zombie, err := c.PartitionShard(0)
	if err != nil {
		t.Fatal(err)
	}
	// The deposed primary still acknowledges writes pre-promotion; the
	// replication buffer (which lives in the Replicator, not the store)
	// must carry them through the failover.
	if err := zombie.Register(wire.Register{User: 50, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); err != nil {
		t.Fatalf("pre-promotion write on partitioned primary: %v", err)
	}

	c.TickReplication(2)
	c.TickReplication(3)
	if got := c.Metrics().Snapshot().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}

	// Every write the zombie acknowledged reached the promoted follower.
	if !c.Engine(0).HasSession(50) {
		t.Fatal("write acknowledged before promotion lost by failover")
	}
	// And nothing it tries now can be acknowledged.
	err = zombie.Register(wire.Register{User: 51, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if !errors.Is(err, store.ErrFenced) {
		t.Fatalf("post-promotion write: got %v, want ErrFenced", err)
	}
	if got := zombie.Metrics().Snapshot().FencedWrites; got < 1 {
		t.Fatalf("FencedWrites = %d, want >= 1", got)
	}
	if c.Engine(0).HasSession(51) {
		t.Fatal("fenced write leaked onto the promoted primary")
	}
}

// TestPromotionSurvivesRestart: the durable primary pointer makes a
// promotion stick across a full cluster restart — New boots the shard
// from the promoted follower's directory, not the dead primary's.
func TestPromotionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cols: 2, Rows: 1,
		Engine: server.Config{
			Universe:      clusterUniverse,
			CellAreaM2:    2.5e6,
			Model:         motion.MustNew(1, 32),
			PyramidParams: pyramid.DefaultParams(5),
			MaxSpeed:      30,
			TickSeconds:   1,
			Costs:         metrics.DefaultCosts(),
		},
		DataDir: dir, Replicas: 1, PromoteAfter: 2,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hello(t, newMemFront(t, c), 1).mustReport(geom.Pt(2000, 5000))
	c.TickReplication(1)
	if err := c.KillShard(0, store.TearNone, nil); err != nil {
		t.Fatal(err)
	}
	c.TickReplication(2)
	c.TickReplication(3)
	if !c.Up(0) {
		t.Fatal("shard 0 not promoted")
	}
	// More writes on the promoted primary, then a clean shutdown.
	if err := c.Engine(0).Register(wire.Register{User: 60, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Engine(0).HasSession(1) || !c2.Engine(0).HasSession(60) {
		t.Fatal("restart booted shard 0 from the deposed primary's directory")
	}
}

// TestPromotionSurvivesSecondRestart: after a promotion re-points a
// shard's primary to a follower directory, a restarted cluster must
// never re-allocate that directory name for a fresh follower —
// OpenFollower wipes its directory, which would silently destroy the
// live primary's acknowledged writes (they would only be missed on the
// restart after that, hence the second restart here).
func TestPromotionSurvivesSecondRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Cols: 2, Rows: 1,
		Engine: server.Config{
			Universe:      clusterUniverse,
			CellAreaM2:    2.5e6,
			Model:         motion.MustNew(1, 32),
			PyramidParams: pyramid.DefaultParams(5),
			MaxSpeed:      30,
			TickSeconds:   1,
			Costs:         metrics.DefaultCosts(),
		},
		DataDir: dir, Replicas: 1, PromoteAfter: 2,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hello(t, newMemFront(t, c), 1).mustReport(geom.Pt(2000, 5000))
	c.TickReplication(1)
	if err := c.KillShard(0, store.TearNone, nil); err != nil {
		t.Fatal(err)
	}
	c.TickReplication(2)
	c.TickReplication(3)
	if !c.Up(0) {
		t.Fatal("shard 0 not promoted")
	}
	if err := c.Engine(0).Register(wire.Register{User: 60, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 1: the shard boots from the promoted follower's directory
	// and replication re-enables. No new follower may land on any slot's
	// current primary directory.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	primaryDirs := make(map[string]bool)
	for _, sl := range c2.slotList() {
		if sl.dir != "" {
			primaryDirs[sl.dir] = true
		}
	}
	c2.repMu.Lock()
	for s, rep := range c2.reps {
		rep.mu.Lock()
		for _, fl := range rep.followers {
			if primaryDirs[fl.log.Dir()] {
				t.Errorf("shard %d follower allocated on a live primary's directory %s", s, fl.log.Dir())
			}
		}
		rep.mu.Unlock()
	}
	c2.repMu.Unlock()
	if !c2.Engine(0).HasSession(1) || !c2.Engine(0).HasSession(60) {
		t.Fatal("restart 1 lost acknowledged writes")
	}
	if err := c2.Engine(0).Register(wire.Register{User: 61, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart 2: every write acknowledged in either incarnation is here.
	c3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	for _, u := range []alarm.UserID{1, 60, 61} {
		if !c3.Engine(0).HasSession(u) {
			t.Fatalf("restart 2 lost user %d's acknowledged write", u)
		}
	}
}

// TestCrashedAttachedPrimaryFailsOver: a primary that dies from a
// spontaneous WAL write failure stays attached to its slot (nothing
// detaches it the way KillShard does) — TickReplication must detach
// the dead engine itself so the shard fails over instead of being
// skipped forever.
func TestCrashedAttachedPrimaryFailsOver(t *testing.T) {
	c := newReplCluster(t, 2, 1, 1, false, t.TempDir())
	hello(t, newMemFront(t, c), 1).mustReport(geom.Pt(2000, 5000))
	c.TickReplication(1)

	// Arm a spontaneous failure on the next append: the store dies but
	// the engine stays attached. (With no restart, lifetime appends and
	// the stream position coincide, so Pos()+1 names the next append.)
	st := c.Engine(0).Store()
	st.SetCrashPoints([]store.CrashPoint{{AfterAppends: int(st.Pos()) + 1, FlipBit: -1}})
	if err := c.Engine(0).Register(wire.Register{User: 70, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); err == nil {
		t.Fatal("append on a crashing store was acknowledged")
	}
	if c.Engine(0) == nil {
		t.Fatal("engine detached before any replication tick")
	}

	c.TickReplication(2) // detaches the crashed engine
	c.TickReplication(3)
	c.TickReplication(4) // silent for PromoteAfter ticks: promotion fires
	if !c.Up(0) {
		t.Fatal("crashed-but-attached primary never failed over")
	}
	if got := c.Metrics().Snapshot().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if !c.Engine(0).HasSession(1) {
		t.Fatal("promoted shard lost user 1's session")
	}
	// User 70's register was never acknowledged; it must not reappear.
	if c.Engine(0).HasSession(70) {
		t.Fatal("unacknowledged write surfaced on the promoted shard")
	}
}

// TestPromotionRetriesAfterFailedAttempt: a promotion that fails after
// Promote has sealed and removed the chosen follower must restore it,
// so the next tick can retry — otherwise a shard with Replicas=1 stays
// down permanently on a transient failure.
func TestPromotionRetriesAfterFailedAttempt(t *testing.T) {
	dir := t.TempDir()
	c := newReplCluster(t, 2, 1, 1, false, dir)
	hello(t, newMemFront(t, c), 1).mustReport(geom.Pt(2000, 5000))
	c.TickReplication(1)
	if err := c.KillShard(0, store.TearNone, nil); err != nil {
		t.Fatal(err)
	}

	// Occupy the primary-pointer's temp path with a directory so the
	// pointer write — the last step of promotion — fails transiently.
	blocker := primaryPtrPath(dir, 0) + ".tmp"
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	c.TickReplication(2)
	c.TickReplication(3) // promotion attempt fires here and fails
	if c.Up(0) {
		t.Fatal("promotion succeeded despite the pointer write failing")
	}
	if got := c.Metrics().Snapshot().Promotions; got != 0 {
		t.Fatalf("Promotions = %d after a failed attempt, want 0", got)
	}

	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	c.TickReplication(4)
	if !c.Up(0) {
		t.Fatal("promotion not retried from the restored follower")
	}
	if got := c.Metrics().Snapshot().Promotions; got != 1 {
		t.Fatalf("Promotions = %d, want 1", got)
	}
	if !c.Engine(0).HasSession(1) {
		t.Fatal("promoted shard lost user 1's session")
	}
}

// TestSplitShardCutsAtMedian: a population-skewed shard splits at the
// median session position, not the geometric midpoint, so the halves
// carry comparable load.
func TestSplitShardCutsAtMedian(t *testing.T) {
	c := newTestCluster(t, 1, 1, "")
	fe := newMemFront(t, c)
	// Nine sessions: seven bunched on the far left, two on the right.
	// The geometric midpoint (x=5000) would split them 7/2; the median
	// (x=1500) splits them 4/5.
	xs := []float64{1100, 1200, 1300, 1400, 1500, 1600, 1700, 8000, 9000}
	for i, x := range xs {
		hello(t, fe, uint64(i+1)).mustReport(geom.Pt(x, 5000))
	}

	newShard, err := c.SplitShard(0)
	if err != nil {
		t.Fatal(err)
	}
	loRect, _ := c.PartitionMap().RectOf(0)
	if loRect.MaxX != 1500 {
		t.Fatalf("split cut at x=%v, want the median 1500", loRect.MaxX)
	}
	lo, hi := 0, 0
	for _, x := range xs {
		if x < loRect.MaxX {
			lo++
		} else {
			hi++
		}
	}
	if lo != 4 || hi != 5 {
		t.Fatalf("post-split population %d/%d, want 4/5", lo, hi)
	}
	if _, ok := c.PartitionMap().RectOf(newShard); !ok {
		t.Fatalf("new shard %d not on the map", newShard)
	}
}

// TestSplitShardFallsBackToMidpoint: with no resident positions the
// split reverts to the geometric midpoint.
func TestSplitShardFallsBackToMidpoint(t *testing.T) {
	c := newTestCluster(t, 1, 1, "")
	if _, err := c.SplitShard(0); err != nil {
		t.Fatal(err)
	}
	loRect, _ := c.PartitionMap().RectOf(0)
	if loRect.MaxX != 5000 {
		t.Fatalf("empty-shard split cut at x=%v, want midpoint 5000", loRect.MaxX)
	}
}

// TestSplitShardGCsOutOfFootprintAlarms: after a split shrinks the
// source's rectangle, alarms beyond its new margin are dropped from the
// source — the new shard adopted its copies, and their fired pairs, in
// one group commit before the map commit.
func TestSplitShardGCsOutOfFootprintAlarms(t *testing.T) {
	c := newTestCluster(t, 1, 1, t.TempDir())
	fe := newMemFront(t, c)
	// Sessions bunched on the left pull the median cut left, so the
	// right-hand alarms land far outside the source's new margin.
	xs := []float64{1000, 1200, 1400, 1600, 9000}
	var cls []*memClient
	for i, x := range xs {
		cls = append(cls, hello(t, fe, uint64(i+1)))
		cls[i].mustReport(geom.Pt(x, 5000))
	}
	ids, err := c.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(900, 5000), 100)},
		{Scope: alarm.Private, Owner: 5, Region: geom.RectAround(geom.Pt(9500, 5000), 100)},
		{Scope: alarm.Private, Owner: 5, Region: geom.RectAround(geom.Pt(9050, 5000), 100)},
		{Scope: alarm.Private, Owner: 4, Region: geom.RectAround(geom.Pt(9050, 5000), 100)},
	})
	if err != nil {
		t.Fatal(err)
	}
	left, right := ids[0], ids[1]
	cls[4].mustReport(geom.Pt(9050, 5000)) // user 5 spends ids[2]
	cls[3].mustReport(geom.Pt(9050, 5000)) // user 4 spends ids[3]

	newShard, err := c.SplitShard(0)
	if err != nil {
		t.Fatal(err)
	}
	eng := c.Engine(newShard)
	if !eng.Registry().Fired(ids[2], 5) || !eng.Registry().Fired(ids[3], 4) {
		t.Fatal("new shard lost the adopted fired pairs")
	}
	// The new shard's log holds the adoption — an InstallRec per alarm
	// (its margin reaches the left one too) and a FiredRec per user — as
	// one group, then the split's epoch record.
	if got := eng.Metrics().Snapshot(); got.WALGroupCommits != 2 || got.WALGroupRecords != 7 {
		t.Errorf("new shard logged %d records in %d group commits, want 6 in the adoption group + 1 epoch",
			got.WALGroupRecords, got.WALGroupCommits)
	}
	if _, ok := c.Engine(0).Registry().Get(left); !ok {
		t.Fatal("source dropped an alarm inside its footprint")
	}
	if _, ok := c.Engine(0).Registry().Get(right); ok {
		t.Fatal("source kept an alarm far outside its new margin")
	}
	if _, ok := c.Engine(newShard).Registry().Get(right); !ok {
		t.Fatal("new shard missing the adopted right-hand alarm")
	}
	if got := c.Metrics().Snapshot().AlarmsGCed; got < 1 {
		t.Fatalf("AlarmsGCed = %d, want >= 1", got)
	}
}
