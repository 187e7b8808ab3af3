package cluster

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
)

func TestNewBalancerValidation(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	bad := []BalancerConfig{
		{SplitAbove: -1},
		{MergeBelow: -1},
		{SplitAbove: 10, MergeBelow: 10}, // no hysteresis gap
		{SplitAbove: 10, MergeBelow: 20}, // inverted
	}
	for _, cfg := range bad {
		if _, err := NewBalancer(c, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	good := []BalancerConfig{
		{},                              // everything disabled
		{SplitAbove: 10, MergeBelow: 3}, // both triggers
		{MergeBelow: 50},                // merge-only: no split threshold to undercut
		{SplitAbove: 5},                 // split-only
	}
	for _, cfg := range good {
		if _, err := NewBalancer(c, cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

// driveLoad parks users on a shard and sends extra updates, raising its
// load score (sessions + uplink delta) to roughly users + users*updates.
// It returns the users' clients.
func driveLoad(t *testing.T, fe *TCPCluster, users []uint64, pos geom.Point, updates int) []*memClient {
	t.Helper()
	var cls []*memClient
	for _, u := range users {
		cl := hello(t, fe, u)
		for s := 1; s <= updates; s++ {
			cl.mustReport(pos)
		}
		cls = append(cls, cl)
	}
	return cls
}

// TestBalancerSplitsHottest: with two shards above the split threshold,
// one Step splits only the hotter one and leaves the other alone.
func TestBalancerSplitsHottest(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	fe := newMemFront(t, c)
	driveLoad(t, fe, []uint64{1, 2, 3, 4}, geom.Pt(2000, 5000), 4) // shard 0: score ~20
	driveLoad(t, fe, []uint64{5}, geom.Pt(8000, 5000), 2)          // shard 1: score ~3

	b, err := NewBalancer(c, BalancerConfig{SplitAbove: 2})
	if err != nil {
		t.Fatal(err)
	}
	coldRect, _ := c.PartitionMap().RectOf(1)
	actions, err := b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || !strings.Contains(actions[0], "split shard 0") {
		t.Fatalf("actions = %v, want a single split of shard 0", actions)
	}
	pm := c.PartitionMap()
	if pm.N() != 3 || !pm.Has(2) {
		t.Fatalf("map has %d shards (has 2: %v), want 3 with new shard 2", pm.N(), pm.Has(2))
	}
	if after, _ := pm.RectOf(1); after != coldRect {
		t.Errorf("cold shard 1 rect changed: %+v -> %+v", coldRect, after)
	}
	if got := c.Metrics().Snapshot().Splits; got != 1 {
		t.Errorf("Splits = %d, want 1", got)
	}
}

// TestBalancerUplinkDeltaWindow: the update-volume signal is a delta per
// Step, not a lifetime counter — once traffic stops, a shard whose
// session count sits below the threshold cools down and stops splitting.
func TestBalancerUplinkDeltaWindow(t *testing.T) {
	c := newTestCluster(t, 1, 1, "")
	driveLoad(t, newMemFront(t, c), []uint64{1, 2}, geom.Pt(2000, 5000), 10) // score ~22, sessions 2

	b, err := NewBalancer(c, BalancerConfig{SplitAbove: 10})
	if err != nil {
		t.Fatal(err)
	}
	actions, err := b.Step()
	if err != nil || len(actions) != 1 {
		t.Fatalf("hot step: actions=%v err=%v, want one split", actions, err)
	}
	// No further traffic: the uplink delta is zero and 2 resident
	// sessions sit far below the threshold.
	actions, err = b.Step()
	if err != nil || len(actions) != 0 {
		t.Fatalf("cold step: actions=%v err=%v, want none (lifetime uplink would re-split)", actions, err)
	}
}

// TestBalancerRespectsMaxShards: a hot shard at the cap stays unsplit.
func TestBalancerRespectsMaxShards(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	driveLoad(t, newMemFront(t, c), []uint64{1, 2, 3}, geom.Pt(2000, 5000), 5)

	b, err := NewBalancer(c, BalancerConfig{SplitAbove: 2, MaxShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	actions, err := b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 || c.PartitionMap().N() != 2 {
		t.Fatalf("actions=%v N=%d, want no split at the cap", actions, c.PartitionMap().N())
	}
}

// TestBalancerMergesColdToFloor: an idle cluster merges one sibling pair
// per Step until MinShards, then holds.
func TestBalancerMergesColdToFloor(t *testing.T) {
	c := newTestCluster(t, 2, 2, "")
	b, err := NewBalancer(c, BalancerConfig{SplitAbove: 100, MergeBelow: 5, MinShards: 3})
	if err != nil {
		t.Fatal(err)
	}
	actions, err := b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || !strings.Contains(actions[0], "merged shard") {
		t.Fatalf("actions = %v, want a single merge", actions)
	}
	pm := c.PartitionMap()
	if pm.N() != 3 {
		t.Fatalf("N = %d after merge, want 3", pm.N())
	}
	checkTiling(t, pm) // retired shard's area absorbed, tiling still exact
	if got := c.Metrics().Snapshot().Merges; got != 1 {
		t.Errorf("Merges = %d, want 1", got)
	}
	// At the floor: still cold, but no further merges.
	actions, err = b.Step()
	if err != nil || len(actions) != 0 {
		t.Fatalf("actions=%v err=%v at MinShards floor, want none", actions, err)
	}
	if c.PartitionMap().N() != 3 {
		t.Fatalf("N = %d, floor not respected", c.PartitionMap().N())
	}
}

// TestBalancerSkipsDownShardPair: a pair containing a dead shard cannot
// drain its sessions, so the balancer must leave it alone and merge it
// only after recovery.
func TestBalancerSkipsDownShardPair(t *testing.T) {
	c := newTestCluster(t, 2, 1, t.TempDir())
	b, err := NewBalancer(c, BalancerConfig{MergeBelow: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if err := c.KillShard(1, store.TearNone, rng); err != nil {
		t.Fatal(err)
	}
	actions, err := b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 || c.PartitionMap().N() != 2 {
		t.Fatalf("actions=%v N=%d, want merge deferred while shard 1 is down", actions, c.PartitionMap().N())
	}
	if err := c.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	actions, err = b.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || c.PartitionMap().N() != 1 {
		t.Fatalf("actions=%v N=%d, want cold pair merged after recovery", actions, c.PartitionMap().N())
	}
}

// TestBalancerMigratesSessionsOnMerge: sessions resident on the retired
// shard move to the absorbing sibling during the balancer's merge, and
// the retired shard's listener redirects their clients to the new home.
func TestBalancerMigratesSessionsOnMerge(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	cls := driveLoad(t, newMemFront(t, c), []uint64{1, 2}, geom.Pt(8000, 5000), 1) // park on shard 1

	b, err := NewBalancer(c, BalancerConfig{MergeBelow: 50})
	if err != nil {
		t.Fatal(err)
	}
	actions, err := b.Step()
	if err != nil || len(actions) != 1 {
		t.Fatalf("actions=%v err=%v, want one merge", actions, err)
	}
	pm := c.PartitionMap()
	if pm.N() != 1 || !pm.Has(0) {
		t.Fatalf("map after merge: N=%d", pm.N())
	}
	if got := c.Metrics().Snapshot().SessionsDrained; got != 2 {
		t.Errorf("SessionsDrained = %d, want 2", got)
	}
	if got := c.Engine(0).ClientCount(); got != 2 {
		t.Errorf("shard 0 holds %d sessions after drain, want 2", got)
	}
	// The drained users keep reporting: shard 1's listener redirects them
	// to shard 0, where they re-enroll onto the drained session.
	for _, cl := range cls {
		cl.mustReport(geom.Pt(8100, 5000))
		if cl.listener != 0 {
			t.Errorf("user %d still on listener %d after the merge", cl.user, cl.listener)
		}
	}
	if got := c.Engine(0).ClientCount(); got != 2 {
		t.Errorf("shard 0 holds %d sessions after the drained users reported, want 2", got)
	}
}
