package metrics

import "sync/atomic"

// Cluster accumulates the counters of a sharded deployment that no one
// shard owns — handoffs, redirects, repartitions, failovers — on top of
// the per-shard Server counters. All fields are atomics so the front end
// can account from concurrent connection goroutines.
type Cluster struct {
	handoffs              atomic.Uint64
	handoffsDeferred      atomic.Uint64
	redirectsSent         atomic.Uint64
	shardCrashes          atomic.Uint64
	shardRecoveries       atomic.Uint64
	splits                atomic.Uint64
	merges                atomic.Uint64
	sessionsDrained       atomic.Uint64
	locateClamped         atomic.Uint64
	promotions            atomic.Uint64
	alarmsGCed            atomic.Uint64
	replRecordsStreamed   atomic.Uint64
	replSnapshotsStreamed atomic.Uint64
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
	return ClusterSnapshot{
		Handoffs:              c.handoffs.Load(),
		HandoffsDeferred:      c.handoffsDeferred.Load(),
		RedirectsSent:         c.redirectsSent.Load(),
		ShardCrashes:          c.shardCrashes.Load(),
		ShardRecoveries:       c.shardRecoveries.Load(),
		Splits:                c.splits.Load(),
		Merges:                c.merges.Load(),
		SessionsDrained:       c.sessionsDrained.Load(),
		LocateClamped:         c.locateClamped.Load(),
		Promotions:            c.promotions.Load(),
		AlarmsGCed:            c.alarmsGCed.Load(),
		ReplRecordsStreamed:   c.replRecordsStreamed.Load(),
		ReplSnapshotsStreamed: c.replSnapshotsStreamed.Load(),
	}
}

// AddHandoff records one completed cross-shard session handoff.
func (c *Cluster) AddHandoff() { c.handoffs.Add(1) }

// AddHandoffDeferred records a handoff postponed because a shard was down.
func (c *Cluster) AddHandoffDeferred() { c.handoffsDeferred.Add(1) }

// AddRedirectSent records one wire Redirect frame sent to a client.
func (c *Cluster) AddRedirectSent() { c.redirectsSent.Add(1) }

// AddShardCrash records one injected shard crash.
func (c *Cluster) AddShardCrash() { c.shardCrashes.Add(1) }

// AddShardRecovery records one shard recovered from its durable store.
func (c *Cluster) AddShardRecovery() { c.shardRecoveries.Add(1) }

// AddSplit records one committed split transition.
func (c *Cluster) AddSplit() { c.splits.Add(1) }

// AddMerge records one committed merge transition.
func (c *Cluster) AddMerge() { c.merges.Add(1) }

// AddSessionsDrained records sessions moved by a merge drain.
func (c *Cluster) AddSessionsDrained(n uint64) { c.sessionsDrained.Add(n) }

// AddLocateClamped records one out-of-universe position clamped by Locate.
func (c *Cluster) AddLocateClamped() { c.locateClamped.Add(1) }

// AddPromotion records one follower promoted to primary.
func (c *Cluster) AddPromotion() { c.promotions.Add(1) }

// AddAlarmsGCed records alarm copies garbage-collected from a split
// source's registry.
func (c *Cluster) AddAlarmsGCed(n uint64) { c.alarmsGCed.Add(n) }

// AddReplRecordsStreamed records record frames applied to followers.
func (c *Cluster) AddReplRecordsStreamed(n uint64) { c.replRecordsStreamed.Add(n) }

// AddReplSnapshotStreamed records one snapshot frame applied to a
// follower (bootstrap or resync).
func (c *Cluster) AddReplSnapshotStreamed() { c.replSnapshotsStreamed.Add(1) }
