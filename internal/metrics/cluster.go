package metrics

import "sync/atomic"

// Cluster accumulates the counters of a sharded deployment that no one
// shard owns — handoffs, redirects, repartitions, failovers — on top of
// the per-shard Server counters. Every field is an atomic, so the front
// end bumps it from concurrent connection goroutines
// (t.met.RedirectsSent.Add(1)); each has a same-named twin in
// ClusterSnapshot, documented there.
type Cluster struct {
	Handoffs              atomic.Uint64
	HandoffsDeferred      atomic.Uint64
	RedirectsSent         atomic.Uint64
	ShardCrashes          atomic.Uint64
	ShardRecoveries       atomic.Uint64
	Splits                atomic.Uint64
	Merges                atomic.Uint64
	SessionsDrained       atomic.Uint64
	LocateClamped         atomic.Uint64
	Promotions            atomic.Uint64
	AlarmsGCed            atomic.Uint64
	ReplRecordsStreamed   atomic.Uint64
	ReplSnapshotsStreamed atomic.Uint64
}

// ClusterSnapshot is a point-in-time copy of the cluster counters. The
// json tags shape the alarmserver -metrics-addr HTTP payload.
type ClusterSnapshot struct {
	// Handoffs counts sessions moved between shards when a client crossed
	// a partition boundary.
	Handoffs uint64 `json:"handoffs"`
	// HandoffsDeferred counts updates left unanswered because the shard
	// owning their position was down, so their handoff had to wait.
	HandoffsDeferred uint64 `json:"handoffs_deferred"`
	// RedirectsSent counts wire Redirect frames emitted by per-shard
	// listeners.
	RedirectsSent uint64 `json:"redirects_sent"`
	// ShardCrashes and ShardRecoveries count fault-injection lifecycle
	// events on individual shards.
	ShardCrashes    uint64 `json:"shard_crashes"`
	ShardRecoveries uint64 `json:"shard_recoveries"`
	// Splits and Merges count committed repartition transitions.
	Splits uint64 `json:"splits"`
	Merges uint64 `json:"merges"`
	// SessionsDrained counts sessions moved by merge drains (handoffs
	// driven by the balancer rather than by client movement).
	SessionsDrained uint64 `json:"sessions_drained"`
	// LocateClamped counts position lookups that fell outside the
	// universe and were clamped to the nearest boundary shard.
	LocateClamped uint64 `json:"locate_clamped"`
	// Promotions counts followers promoted to primary after a missed-
	// heartbeat failure detection.
	Promotions uint64 `json:"promotions"`
	// AlarmsGCed counts alarm copies dropped from a split source's
	// registry because their region no longer overlaps its margin.
	AlarmsGCed uint64 `json:"alarms_gced"`
	// ReplRecordsStreamed and ReplSnapshotsStreamed count replication
	// frames applied to followers (records and snapshot resyncs).
	ReplRecordsStreamed   uint64 `json:"repl_records_streamed"`
	ReplSnapshotsStreamed uint64 `json:"repl_snapshots_streamed"`
}

// Snapshot returns a copy of every cluster counter.
func (c *Cluster) Snapshot() ClusterSnapshot {
	var sn ClusterSnapshot
	load(&sn, c)
	return sn
}
