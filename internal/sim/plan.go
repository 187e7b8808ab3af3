package sim

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/client"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/transport"
)

// Plan scripts one deterministic Drive run: the server topology, and what
// goes wrong while the traffic replays. The sections — link faults,
// process crashes, shard crashes, repartitions, failover kills — are
// independent and may all be set at once; an empty section is a phase
// that never fires. Two runs with the same traffic, strategy and plan
// replay identical event sequences, delivery ticks included.
type Plan struct {
	// Seed drives every random choice of the run: per-link fault streams,
	// WAL tail mangling and the client sessions' backoff jitter.
	Seed int64
	// Session tunes the client session state machines; zero fields take
	// the session defaults.
	Session client.SessionConfig
	// DrainTicks extends the run past the trace end with positions frozen,
	// giving sessions time to reconnect, replay their report queues and
	// collect redelivered firings. It must outlast every scripted fault.
	DrainTicks int
	// SnapshotEvery is each durable store's automatic checkpoint cadence
	// in WAL appends (0 disables; recovery then replays the whole log).
	SnapshotEvery int
	// Fsync syncs each WAL per append. Process crashes (what this harness
	// simulates) never lose buffered OS writes, so the default off keeps
	// the suite fast; the discipline is identical either way.
	Fsync bool

	// Shards selects the topology. 0 is one server.Engine — in memory, or
	// recovered from a durable store exactly when Crashes is non-empty;
	// n ≥ 1 is an n-shard cluster.Cluster behind a cluster.Router.
	Shards int
	// Replicas is the follower count per shard (clusters only; 0 disables
	// replication and the per-tick replication clock).
	Replicas int
	// PromoteAfter is how many silent replication ticks depose a primary.
	PromoteAfter int
	// ReplAck selects synchronous replication: every acknowledged write
	// is applied to every follower before the append returns.
	ReplAck bool

	// Links faults every client link; the zero value is a healthy network.
	Links LinkFaults
	// Crashes kill the whole server process, in tick order (Shards == 0).
	Crashes []CrashEvent
	// ShardCrashes fail-stop single shards, in tick order (Shards ≥ 1).
	ShardCrashes []ClusterCrashEvent
	// Repartitions split and merge shards, in tick order (Shards ≥ 1). A
	// transition must not target a shard scripted to be down at its tick.
	Repartitions []RepartitionEvent
	// Kills fail primaries with no scripted recovery, in tick order
	// (Shards ≥ 1 with Replicas ≥ 1: only a promotion revives them).
	Kills []FailoverKill
}

// LinkFaults scripts the fault campaign applied to every client link.
// Each link (and each reconnect incarnation of it) gets its own seeded
// transport.FaultSchedule derived from Plan.Seed.
type LinkFaults struct {
	// Probabilistic faults applied (both directions) inside [From, Until).
	// Until must leave enough fault-free trailing ticks — see
	// Plan.DrainTicks — for queued reports to replay; Until == 0 means no
	// upper bound, so the faults run through the drain window as well.
	From, Until   int
	DropProb      float64
	DupProb       float64
	DelayProb     float64
	MaxDelayTicks int
	ReorderProb   float64

	// PartitionEvery selects every Nth client (1-based user ID divisible
	// by N) for a network partition over Partition; 0 disables.
	PartitionEvery int
	Partition      transport.Window

	// ResetEvery selects every Nth client for a hard connection reset at
	// ResetTick; 0 disables. A reset kills the whole link (both
	// directions), forcing the session through reconnect + resume.
	ResetEvery int
	ResetTick  int
}

// CrashEvent scripts one server process death mid-run.
type CrashEvent struct {
	// Tick is when the process dies (before that tick's reports are
	// served).
	Tick int
	// Tear is how the death mangles the WAL tail: a record-boundary kill
	// (TearNone), a torn final write, trailing garbage, or a flipped bit —
	// all confined to the final frame, which is the only frame a
	// single-write(2)-per-record log can lose.
	Tear store.TearMode
	// Down is how many ticks the server stays dead before recovery; client
	// dials fail throughout.
	Down int
}

// ClusterCrashEvent scripts one shard's fail-stop mid-run. Unlike a
// whole-process crash, client connections survive: only the shard's
// engine and store die, and the router degrades to resend/defer
// behaviour for the clients that shard owns.
type ClusterCrashEvent struct {
	// Tick is when the shard dies (before that tick's reports are served).
	Tick int
	// Shard is which partition's engine is killed.
	Shard int
	// Tear is how the death mangles that shard's WAL tail.
	Tear store.TearMode
	// Down is how many ticks the shard stays dead before recovery.
	Down int
}

// RepartitionEvent scripts one dynamic partition-map transition mid-run:
// a hot shard splits or a cold sibling pair merges while clients keep
// reporting. With CrashPoint set the transition is interrupted at that
// named point (cluster.CP*) and the WHOLE cluster is crashed and
// reopened from its data dir — the recovery must land in a consistent
// epoch with no firing lost or duplicated.
type RepartitionEvent struct {
	// Tick is when the transition runs (before that tick's reports).
	Tick int
	// Op is "split" or "merge".
	Op string
	// Shard is the shard to split, or the shard merged away (the drain
	// source) for a merge.
	Shard int
	// Into is the absorbing sibling for a merge; ignored for splits.
	Into int
	// CrashPoint, when non-empty, arms cluster.SetCrashPoint with this
	// name before the transition and treats the resulting ErrCrashPoint
	// as a full-process crash: reopen from disk, new router, resume.
	CrashPoint string
}

// FailoverKill scripts one primary's death mid-run with NO scripted
// recovery: the shard comes back only when the failure detector notices
// the silence and promotes a follower.
type FailoverKill struct {
	// Tick is when the primary dies (before that tick's reports).
	Tick int
	// Shard is which partition's primary is killed.
	Shard int
	// Tear is how the death mangles the dead primary's WAL tail. The
	// promoted follower's own log is untouched either way — promotion
	// never reads the dead primary's disk.
	Tear store.TearMode
	// MidDrain, when true, arms cluster.CPDrainBeforeImport and starts
	// MergeShards(Into, Shard); the merge stops at the armed point with
	// the drain committed but no session moved, and only then is Shard
	// killed — the primary dies mid-merge-drain. Promotion revives it on
	// its drain rectangle and ResumeDrains completes the migration.
	MidDrain bool
	// Into is the absorbing sibling for a MidDrain kill.
	Into int
}

// DefaultFaultPlan returns an aggressive but convergent link-fault plan
// for a trace of the given length against the single in-memory engine:
// heavy probabilistic faults over the first 3/4 of the trace, a mid-run
// partition for every 3rd client, a hard reset for every 4th, and a
// drain window long enough to replay everything.
func DefaultFaultPlan(seed int64, durationTicks int) Plan {
	return Plan{
		Seed: seed,
		Links: LinkFaults{
			Until:          durationTicks * 3 / 4,
			DropProb:       0.15,
			DupProb:        0.10,
			DelayProb:      0.10,
			MaxDelayTicks:  3,
			ReorderProb:    0.10,
			PartitionEvery: 3,
			Partition:      transport.Window{From: durationTicks / 5, Until: durationTicks * 3 / 10},
			ResetEvery:     4,
			ResetTick:      durationTicks / 2,
		},
		DrainTicks: durationTicks*3/4 + 100,
	}
}

// DefaultCrashPlan kills the single durable engine three times across
// the trace — a clean record-boundary kill, a torn final write, and a
// flipped bit — with a few ticks of downtime each.
func DefaultCrashPlan(seed int64, durationTicks int) Plan {
	return Plan{
		Seed: seed,
		Crashes: []CrashEvent{
			{Tick: durationTicks / 4, Tear: store.TearNone, Down: 3},
			{Tick: durationTicks / 2, Tear: store.TearTruncate, Down: 3},
			{Tick: durationTicks * 3 / 4, Tear: store.TearFlipBit, Down: 3},
		},
		SnapshotEvery: 256,
		DrainTicks:    200,
	}
}

// DefaultClusterPlan runs four shards and kills two of them mid-trace —
// one torn final write, one flipped bit — with a few ticks of downtime.
func DefaultClusterPlan(seed int64, durationTicks int) Plan {
	return Plan{
		Seed:   seed,
		Shards: 4,
		ShardCrashes: []ClusterCrashEvent{
			{Tick: durationTicks / 3, Shard: 1, Tear: store.TearTruncate, Down: 3},
			{Tick: durationTicks * 2 / 3, Shard: 2, Tear: store.TearFlipBit, Down: 3},
		},
		SnapshotEvery: 256,
		DrainTicks:    200,
	}
}

// DefaultFailoverPlan kills every primary of a replicated four-shard
// cluster once: two plain kills with mangled WAL tails, one
// mid-merge-drain kill of shard 0 (merging into its sibling 2), and
// finally a kill of the widened shard 2. No shard is ever recovered from
// its own disk — every revival is a follower promotion.
func DefaultFailoverPlan(seed int64, durationTicks int) Plan {
	return Plan{
		Seed:         seed,
		Shards:       4,
		Replicas:     1,
		PromoteAfter: 3,
		Kills: []FailoverKill{
			{Tick: durationTicks / 4, Shard: 1, Tear: store.TearTruncate},
			{Tick: durationTicks / 2, Shard: 3, Tear: store.TearFlipBit},
			{Tick: durationTicks * 2 / 3, Shard: 0, Tear: store.TearNone, MidDrain: true, Into: 2},
			{Tick: durationTicks * 5 / 6, Shard: 2, Tear: store.TearTruncate},
		},
		SnapshotEvery: 256,
		DrainTicks:    200,
	}
}

// validate rejects events the plan's topology cannot express.
func (p Plan) validate() error {
	if p.Shards == 0 && (p.Replicas > 0 || len(p.ShardCrashes)+len(p.Repartitions)+len(p.Kills) > 0) {
		return fmt.Errorf("sim: replicas, shard crashes, repartitions and kills need a cluster (Shards >= 1)")
	}
	if p.Shards != 0 && len(p.Crashes) > 0 {
		return fmt.Errorf("sim: process crashes need the single engine (Shards == 0)")
	}
	return nil
}

// durable reports whether the run needs a data directory: something
// dies and is rebuilt from disk, or followers mirror the log.
func (p Plan) durable() bool {
	for _, ev := range p.Repartitions {
		if ev.CrashPoint != "" {
			return true
		}
	}
	return p.Replicas > 0 || len(p.Crashes)+len(p.ShardCrashes)+len(p.Kills) > 0
}

// linkSchedule derives the fault schedule for one endpoint of one link.
// dir is 0 for the client (uplink) side, 1 for the server (downlink)
// side; incarnation increments per reconnect so a fresh link draws a
// fresh fault stream.
func (p Plan) linkSchedule(user uint64, dir, incarnation int) transport.FaultSchedule {
	f := p.Links
	s := transport.FaultSchedule{
		Seed: p.Seed ^ int64(user)*0x9E3779B9 ^
			int64(dir+1)<<40 ^ int64(incarnation)<<48,
		From:          f.From,
		Until:         f.Until,
		DropProb:      f.DropProb,
		DupProb:       f.DupProb,
		DelayProb:     f.DelayProb,
		MaxDelayTicks: f.MaxDelayTicks,
		ReorderProb:   f.ReorderProb,
	}
	if f.PartitionEvery > 0 && user%uint64(f.PartitionEvery) == 0 {
		s.Partitions = []transport.Window{f.Partition}
	}
	// Resets live on the uplink wrapper only: closing it tears down the
	// shared pipe, so one scheduled reset already kills both directions.
	if dir == 0 && f.ResetEvery > 0 && user%uint64(f.ResetEvery) == 0 {
		s.ResetAt = []int{f.ResetTick}
	}
	return s
}
