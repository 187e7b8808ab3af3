package server_test

import (
	"slices"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
)

// registryIDs returns every alarm ID an engine holds, ascending.
func registryIDs(e *server.Engine) []alarm.ID {
	var ids []alarm.ID
	for _, a := range e.Registry().All() {
		ids = append(ids, a.ID)
	}
	slices.Sort(ids)
	return ids
}

// TestInstallAlarmsOneGroupCommit: installing N alarms costs one group
// commit per shard (per store.DefaultGroupMax alarms past that) rather
// than one per alarm — on a durable engine, and on each shard of a
// 2-shard cluster whose synchronous follower applies every record of
// that group before the install returns. A reopen recovers the same
// alarm IDs.
func TestInstallAlarmsOneGroupCommit(t *testing.T) {
	const n = 40
	alarms := make([]alarm.Alarm, n)
	for i := range alarms {
		// Spread across the cluster's cut at x = 5000, so each shard
		// holds its own half plus the copies its margin adds.
		x := 250 + float64(i)*240
		alarms[i] = alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: geom.RectAround(geom.Pt(x, 5000), 100)}
	}

	t.Run("engine", func(t *testing.T) {
		dir := t.TempDir()
		open := func() *server.Engine {
			st, state, info, err := store.Open(dir, store.Options{Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			e, err := server.NewDurable(engineConfig(), st, state, info)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := open()
		before := e.Metrics().Snapshot()
		ids, err := e.InstallAlarms(alarms)
		if err != nil {
			t.Fatal(err)
		}
		after := e.Metrics().Snapshot()
		if c, f, r := after.WALGroupCommits-before.WALGroupCommits, after.WALFsyncs-before.WALFsyncs,
			after.WALGroupRecords-before.WALGroupRecords; c != 1 || f != 1 || r != n {
			t.Errorf("%d installs: %d group commits, %d fsyncs, %d records; want 1, 1, %d", n, c, f, r, n)
		}
		// Past the store's group cap an install takes one group per
		// DefaultGroupMax records, not one per alarm.
		big := make([]alarm.Alarm, 2*store.DefaultGroupMax+1)
		for i := range big {
			big[i] = alarms[i%n]
		}
		before = e.Metrics().Snapshot()
		more, err := e.InstallAlarms(big)
		if err != nil {
			t.Fatal(err)
		}
		after = e.Metrics().Snapshot()
		if c := after.WALGroupCommits - before.WALGroupCommits; c != 3 {
			t.Errorf("%d installs: %d group commits, want 3", len(big), c)
		}
		e.Store().Kill()
		if got, want := registryIDs(open()), append(ids, more...); !slices.Equal(got, want) {
			t.Errorf("recovered %d IDs, installed %d", len(got), len(want))
		}
	})

	t.Run("cluster", func(t *testing.T) {
		cfg := cluster.Config{Cols: 2, Rows: 1, Engine: engineConfig(), DataDir: t.TempDir(),
			Store: store.Options{Fsync: true}, Replicas: 1, ReplAck: true}
		cl, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := cl.ShardSnapshots()
		if _, err := cl.InstallAlarms(alarms); err != nil {
			t.Fatal(err)
		}
		after := cl.ShardSnapshots()
		var installed [][]alarm.ID
		for i := range after {
			ids := registryIDs(cl.Engine(i))
			installed = append(installed, ids)
			copies := uint64(len(ids))
			b, a := before[i], after[i]
			if c, r := a.Metrics.WALGroupCommits-b.Metrics.WALGroupCommits,
				a.Metrics.WALGroupRecords-b.Metrics.WALGroupRecords; c != 1 || r != copies {
				t.Errorf("shard %d: %d group commits, %d records for %d copies; want 1 and %d", i, c, r, copies, copies)
			}
			if applied := a.Replication.MinAcked - b.Replication.MinAcked; applied != copies || a.Replication.Lag != 0 {
				t.Errorf("shard %d: follower applied %d records (lag %d), want %d (lag 0)", i, applied, a.Replication.Lag, copies)
			}
		}
		if len(installed[0]) == n || len(installed[1]) == n || len(installed[0])+len(installed[1]) <= n {
			t.Fatalf("copies per shard %d and %d: the alarms no longer straddle the cut", len(installed[0]), len(installed[1]))
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		cl2, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl2.Close() })
		for i, want := range installed {
			if got := registryIDs(cl2.Engine(i)); !slices.Equal(got, want) {
				t.Errorf("shard %d recovered IDs %v, installed %v", i, got, want)
			}
		}
	})
}
