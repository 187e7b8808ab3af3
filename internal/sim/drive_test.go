package sim

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

type strategyCase struct {
	name string
	sc   StrategyConfig
}

// safeRegionStrategies are the strategies delivery equality covers. SP
// is excluded on clusters by design (partition-clamped safe periods
// change its reporting cadence; see DESIGN.md "Clustering").
var safeRegionStrategies = []strategyCase{
	{"MWPSR", StrategyConfig{Strategy: wire.StrategyMWPSR}},
	{"GBSR", StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 1}},
	{"PBSR", StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 5}},
}

// source is the traffic a table row replays plus the reference delivery
// set Drive must reproduce on it, whatever the plan.
type source struct {
	traffic Traffic
	// quick sources also run under -short.
	quick bool
	want  func(t *testing.T) []Trigger
}

// workloadSource replays a generated workload; its reference is the
// periodic ground truth — one fault-free PRD run, shared by every
// strategy. PRD reports every position and the server evaluates each
// against the alarms with no safe-region code, so a defect in a region
// kernel cannot hide on the reference side.
func workloadSource(t *testing.T, cfg WorkloadConfig) *source {
	t.Helper()
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var truth []Trigger
	return &source{traffic: w, want: func(t *testing.T) []Trigger {
		if truth == nil {
			truth = runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPeriodic}).Triggers
		}
		return truth
	}}
}

// lifecycleSource replays DefaultLifecycleScenario; its reference is
// derived from the scripted geometry, not from a reference run, so a bug
// that corrupts every topology identically still fails.
func lifecycleSource() *source {
	want := []Trigger{
		// User 1 crosses the continuous region twice...
		{User: 1, Alarm: alarm.PackEvent(1, alarm.TransEnter, 1)},
		{User: 1, Alarm: alarm.PackEvent(1, alarm.TransExit, 1)},
		{User: 1, Alarm: alarm.PackEvent(1, alarm.TransEnter, 2)},
		{User: 1, Alarm: alarm.PackEvent(1, alarm.TransExit, 2)},
		// ...and the one-shot region once (legacy raw-ID event).
		{User: 1, Alarm: 5},
		// The pair enters once and exits once, on both endpoints.
		{User: 2, Alarm: alarm.PackEvent(2, alarm.TransEnter, 1)},
		{User: 2, Alarm: alarm.PackEvent(2, alarm.TransExit, 1)},
		{User: 3, Alarm: alarm.PackEvent(2, alarm.TransEnter, 1)},
		{User: 3, Alarm: alarm.PackEvent(2, alarm.TransExit, 1)},
		// The live composite fires at severity 0.4+0.5; the expired one
		// (ID 3) must never appear.
		{User: 7, Alarm: alarm.PackEvent(4, alarm.TransSeverity, alarm.QuantizeSeverity(0.9))},
	}
	return &source{
		traffic: DefaultLifecycleScenario(),
		quick:   true,
		want:    func(*testing.T) []Trigger { return want },
	}
}

// checkPairEquality asserts got delivered exactly the reference (user,
// alarm) set, each pair exactly once: nothing lost, nothing duplicated,
// nothing spurious. An empty reference proves nothing and fails.
func checkPairEquality(t *testing.T, want, got []Trigger) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("reference run produced no triggers; the equality check is vacuous")
	}
	pairs := func(ts []Trigger) map[[2]uint64]int {
		m := make(map[[2]uint64]int, len(ts))
		for _, tr := range ts {
			m[[2]uint64{tr.User, tr.Alarm}]++
		}
		return m
	}
	wantPairs, gotPairs := pairs(want), pairs(got)
	for p, c := range gotPairs {
		if c != 1 {
			t.Errorf("pair (user %d, alarm %#x) delivered %d times", p[0], p[1], c)
		}
		if wantPairs[p] == 0 {
			t.Errorf("pair (user %d, alarm %#x) delivered but not in the reference run", p[0], p[1])
		}
	}
	for p := range wantPairs {
		if gotPairs[p] == 0 {
			t.Errorf("pair (user %d, alarm %#x) lost", p[0], p[1])
		}
	}
}

// rowCheck is a row's own assertions, run after the pair-set equality
// every row shares. label is the strategy name plus the row's suffix.
type rowCheck func(t *testing.T, label string, want []Trigger, got *Report, plan Plan)

// equalityRow is one line of TestDeliveryEquality's table: a traffic
// source × a plan × the row's own check, run once per strategy as the
// subtest name/strategy+suffix.
type equalityRow struct {
	name, suffix string
	src          *source
	strategies   []strategyCase // nil: every safe-region strategy
	plan         Plan
	check        rowCheck // nil: pair-set equality only
}

func checkFaults(t *testing.T, label string, want []Trigger, got *Report, _ Plan) {
	t.Logf("%s: %d fault-free triggers, %d faulty deliveries, equal sets", label, len(want), len(got.Triggers))
}

func checkCrashes(t *testing.T, label string, want []Trigger, got *Report, plan Plan) {
	t.Logf("%s: %d crash-free triggers, %d deliveries across %d crashes, equal sets",
		label, len(want), len(got.Triggers), len(plan.Crashes))
}

// checkTorture only reports: Drive itself fails unless every scripted
// kill fired and the engine came back each time.
func checkTorture(t *testing.T, _ string, _ []Trigger, got *Report, plan Plan) {
	t.Logf("%d kills, %d deliveries, set equal to fault-free run", len(plan.Crashes), len(got.Triggers))
}

// clusterCounters returns the run's cluster metrics, failing single-
// server reports, runs the partition grid never split, and runs whose
// sessions were never moved the way the socket path moves them: by a
// Redirect the cluster sent and the session followed.
func clusterCounters(t *testing.T, got *Report) *metrics.ClusterSnapshot {
	t.Helper()
	if got.Cluster == nil {
		t.Fatal("cluster run reported no cluster metrics")
	}
	if got.Cluster.Handoffs == 0 {
		t.Error("no cross-shard handoffs — the partition grid never split the trace")
	}
	if got.Cluster.RedirectsSent == 0 || got.Redirects == 0 {
		t.Errorf("redirects sent %d, followed %d — sessions never followed a Redirect",
			got.Cluster.RedirectsSent, got.Redirects)
	}
	return got.Cluster
}

func checkCluster(t *testing.T, label string, want []Trigger, got *Report, plan Plan) {
	cm := clusterCounters(t, got)
	if n := uint64(len(plan.ShardCrashes)); cm.ShardCrashes != n || cm.ShardRecoveries != n {
		t.Errorf("expected %d crashes and recoveries, got %d / %d", n, cm.ShardCrashes, cm.ShardRecoveries)
	}
	t.Logf("%s: %d single-server triggers, %d sharded deliveries, %d handoffs, %d redirects, equal sets",
		label, len(want), len(got.Triggers), cm.Handoffs, cm.RedirectsSent)
}

func checkClusterBatched(t *testing.T, label string, want []Trigger, got *Report, _ Plan) {
	avg := float64(got.BatchedUpdates) / float64(got.UpdateBatches)
	t.Logf("%s: %d triggers both ways, %d batches avg %.2f updates/frame", label, len(want), got.UpdateBatches, avg)
}

func checkRepartition(t *testing.T, label string, want []Trigger, got *Report, _ Plan) {
	cm := clusterCounters(t, got)
	if cm.Splits != 1 || cm.Merges != 1 {
		t.Errorf("splits/merges = %d/%d, want 1/1", cm.Splits, cm.Merges)
	}
	if cm.SessionsDrained == 0 {
		t.Error("merge drained no sessions — shard 4 never owned a client, the merge path is vacuous")
	}
	// Epoch 1 (boot) + split + merge + drain-done = 4; shard crashes do
	// not advance the map.
	if got.PartitionEpoch != 4 {
		t.Errorf("final partition epoch %d, want 4", got.PartitionEpoch)
	}
	t.Logf("%s: %d triggers both ways, %d handoffs, %d sessions drained, %d redirects, epoch %d",
		label, len(want), cm.Handoffs, cm.SessionsDrained, cm.RedirectsSent, got.PartitionEpoch)
}

// checkCrashPoint asserts where a whole-cluster crash at cp lands. A
// pre-commit crash rolls the transition back entirely: the reopened
// cluster is still at the old epoch with the old shard set, and the
// scripted op never happened. A mid-drain crash lands after the merge
// committed, so recovery finishes the drain and the final epoch matches
// the clean run's.
func checkCrashPoint(cp string) rowCheck {
	return func(t *testing.T, _ string, _ []Trigger, got *Report, _ Plan) {
		cm := clusterCounters(t, got)
		wantEpoch := uint64(4)
		switch cp {
		case cluster.CPSplitPreCommit:
			wantEpoch = 1
			if cm.Splits != 0 {
				t.Errorf("split committed through a pre-commit crash (splits=%d)", cm.Splits)
			}
		case cluster.CPMergePreCommit:
			wantEpoch = 2 // split only
		}
		if got.PartitionEpoch != wantEpoch {
			t.Errorf("final epoch %d after crash at %s, want %d", got.PartitionEpoch, cp, wantEpoch)
		}
		t.Logf("%s: equal sets, final epoch %d, %d sessions drained", cp, got.PartitionEpoch, cm.SessionsDrained)
	}
}

// checkCrashedCluster reports a cluster row that also crashes the whole
// process. Cluster counters restart with each incarnation, so only the
// final one's handoffs and redirects are asserted, not the plan's
// shard-crash or promotion totals.
func checkCrashedCluster(t *testing.T, label string, want []Trigger, got *Report, plan Plan) {
	cm := clusterCounters(t, got)
	t.Logf("%s: %d single-server triggers, %d deliveries, %d process crashes, %d handoffs and %d redirects in the final incarnation, equal sets",
		label, len(want), len(got.Triggers), len(plan.Crashes), cm.Handoffs, cm.RedirectsSent)
}

// checkFailover asserts every scripted kill was answered by a promotion
// rather than a recovery.
func checkFailover(t *testing.T, label string, want []Trigger, got *Report, plan Plan) {
	cm := clusterCounters(t, got)
	if cm.ShardCrashes != uint64(len(plan.Kills)) {
		t.Errorf("ShardCrashes = %d, want %d", cm.ShardCrashes, len(plan.Kills))
	}
	if cm.ShardRecoveries != 0 {
		t.Errorf("ShardRecoveries = %d, want 0 — every revival must be a promotion", cm.ShardRecoveries)
	}
	if cm.Promotions != uint64(len(plan.Kills)) {
		t.Errorf("Promotions = %d, want %d (one per kill)", cm.Promotions, len(plan.Kills))
	}
	if cm.Merges != 1 {
		t.Errorf("Merges = %d, want 1 (the mid-drain kill's merge)", cm.Merges)
	}
	// No handoff needs checking here: one that never lands leaves its
	// report queued, and checkSettled fails the run on an undrained queue.
	if cm.ReplRecordsStreamed == 0 {
		t.Error("no replication records streamed — followers never tailed the WAL")
	}
	t.Logf("%s: %d baseline triggers, %d failover deliveries, %d handoffs (%d deferred), %d promotions, %d records streamed, equal sets",
		label, len(want), len(got.Triggers), cm.Handoffs, cm.HandoffsDeferred, cm.Promotions, cm.ReplRecordsStreamed)
}

// checkPairSplit asserts the lifecycle cluster run's split actually
// separated the pair endpoints: user 2 ends at (990, 1000), user 3 at
// (1600, 1000).
func checkPairSplit(t *testing.T, _ string, _ []Trigger, got *Report, _ Plan) {
	pm := got.PartitionMap
	if pm.N() != 2 {
		t.Fatalf("cluster ended with %d shards, want 2 (split did not happen)", pm.N())
	}
	shardA, _ := pm.Locate(geom.Pt(990, 1000))
	shardB, _ := pm.Locate(geom.Pt(1600, 1000))
	if shardA == shardB {
		t.Fatalf("pair endpoints both on shard %d — the median split did not separate them", shardA)
	}
}

// TestDeliveryEquality is the acceptance table for the system's contract
// — a silent client never misses an alarm: every row replays one traffic
// source under one plan for each safe-region strategy and must deliver
// exactly the reference (user, alarm) set, each pair once. The rows:
//
//   - FaultInjection: a seeded schedule of drops, delays, duplicates,
//     reorders, partitions and hard resets on every link;
//   - CrashRecovery: the server process killed three times (record
//     boundary, torn final write, flipped WAL bit) and recovered from
//     disk; CrashRecoveryBatched with UpdateBatch framing; TortureRestart
//     loops six kills over one data dir with a small snapshot cadence;
//     CrashRecoveryCluster kills the four-shard Cluster row's process the
//     same three times, and CrashRecoveryFailover the Failover row's
//     once;
//   - FaultsAndCrashes: the two default campaigns composed in one run;
//   - Cluster: four shards, boundary handoffs, two shards crashed and
//     recovered mid-trace; ClusterBatched with each tick's reports
//     coalesced into one UpdateBatch frame answered by a BatchReply;
//   - Repartition: on top of that, shard 0 splits a quarter into the
//     trace (allocating shard 4) and merges back at the three-quarter
//     mark, so sessions migrate three ways (boundary handoffs, lazy
//     post-split handoffs, the merge drain); RepartitionCrashRecovery
//     interrupts those transitions at each named crash point with a
//     whole-process crash and reopen;
//   - Failover: one follower per shard, every primary killed — two with
//     mangled WAL tails, one mid-merge-drain, one after it absorbed the
//     merge — and revived only by promotion; batched, and once with
//     synchronous replication;
//   - Lifecycle: the scripted continuous / pair / composite scenario
//     clean, under link faults, across a crash with WAL tail loss, and
//     on a cluster whose single shard splits mid-run — separating the
//     pair endpoints — and whose new shard then crashes while the pair
//     is still inside, and on four static shards where each source of a
//     mid-lifecycle handoff is killed right after it, before the
//     ExpireRec it left queued has landed.
func TestDeliveryEquality(t *testing.T) {
	small := workloadSource(t, SmallWorkload(11))
	ticks := SmallWorkload(11).DurationTicks
	batched := func(p Plan) Plan {
		p.Session.Batch = true
		return p
	}

	tortureCfg := SmallWorkload(7)
	tortureCfg.Vehicles, tortureCfg.DurationTicks, tortureCfg.NumAlarms = 60, 300, 80
	torture := Plan{
		Seed:          7,
		SnapshotEvery: 64, // small cadence: most kills land just after a rotation
		DrainTicks:    200,
	}
	for i, tear := range []store.TearMode{
		store.TearNone, store.TearTruncate, store.TearGarbage,
		store.TearFlipBit, store.TearTruncate, store.TearGarbage,
	} {
		torture.Crashes = append(torture.Crashes, CrashEvent{Tick: (i + 1) * tortureCfg.DurationTicks / 7, Tear: tear, Down: 2})
	}

	faultsAndCrashes := DefaultFaultPlan(77, ticks)
	faultsAndCrashes.Crashes = DefaultCrashPlan(77, ticks).Crashes
	faultsAndCrashes.SnapshotEvery = 256

	// The default four-shard plan (its two shard crashes kept) plus a
	// split of shard 0 and the merge of the new shard 4 back into it.
	repartition := DefaultClusterPlan(99, ticks)
	repartition.Repartitions = []RepartitionEvent{
		{Tick: ticks / 4, Op: "split", Shard: 0},
		{Tick: ticks * 3 / 4, Op: "merge", Shard: 4, Into: 0},
	}
	crashAt := func(cp string) Plan {
		p := repartition
		p.Repartitions = append([]RepartitionEvent(nil), p.Repartitions...)
		if cp == cluster.CPSplitPreCommit {
			// The aborted split never creates shard 4, so the scripted
			// merge of it cannot run.
			p.Repartitions = p.Repartitions[:1]
		}
		p.Repartitions[len(p.Repartitions)-1].CrashPoint = cp
		return p
	}

	syncRepl := DefaultFailoverPlan(99, ticks)
	syncRepl.ReplAck = true

	crashedCluster := DefaultClusterPlan(99, ticks)
	crashedCluster.Crashes = DefaultCrashPlan(99, ticks).Crashes
	crashedFailover := DefaultFailoverPlan(99, ticks)
	crashedFailover.Crashes = []CrashEvent{{Tick: ticks / 3, Tear: store.TearTruncate, Down: 3}}

	lifecycle := lifecycleSource()
	mwpsr, pbsr := safeRegionStrategies[:1], safeRegionStrategies[2:]

	rows := []equalityRow{
		{name: "FaultInjection", src: small, plan: DefaultFaultPlan(77, ticks), check: checkFaults},
		{name: "CrashRecovery", src: small, plan: DefaultCrashPlan(99, ticks), check: checkCrashes},
		{name: "CrashRecoveryBatched", src: small, plan: batched(DefaultCrashPlan(99, ticks)), check: checkCrashes},
		{name: "FaultsAndCrashes", src: small, plan: faultsAndCrashes, check: checkCrashes},
		{name: "TortureRestart", src: workloadSource(t, tortureCfg), strategies: pbsr, plan: torture, check: checkTorture},
		{name: "CrashRecoveryCluster", src: small, plan: crashedCluster, check: checkCrashedCluster},
		{name: "CrashRecoveryFailover", src: small, plan: crashedFailover, check: checkCrashedCluster},
		{name: "Cluster", src: small, plan: DefaultClusterPlan(99, ticks), check: checkCluster},
		{name: "ClusterBatched", src: small, plan: batched(DefaultClusterPlan(99, ticks)), check: checkClusterBatched},
		{name: "Repartition", suffix: "/unbatched", src: small, plan: repartition, check: checkRepartition},
		{name: "Repartition", suffix: "/batched", src: small, plan: batched(repartition), check: checkRepartition},
		{name: "Failover", src: small, plan: DefaultFailoverPlan(99, ticks), check: checkFailover},
		{name: "FailoverBatched", src: small, plan: batched(DefaultFailoverPlan(99, ticks)), check: checkFailover},
		{name: "FailoverSyncReplication", suffix: "/ack", src: small, strategies: pbsr, plan: syncRepl, check: checkFailover},
		{name: "Lifecycle", suffix: "/clean", src: lifecycle, plan: Plan{Seed: 1, DrainTicks: 120}},
		{name: "Lifecycle", suffix: "/faulty", src: lifecycle, plan: Plan{
			Seed: 7,
			Links: LinkFaults{
				From: 10, Until: 530,
				DropProb: 0.12, DupProb: 0.08, DelayProb: 0.15, MaxDelayTicks: 3, ReorderProb: 0.10,
				ResetEvery: 3, ResetTick: 120,
			},
			DrainTicks: 250,
		}},
		{name: "Lifecycle", suffix: "/crashed", src: lifecycle, plan: Plan{
			Seed:          11,
			Crashes:       []CrashEvent{{Tick: 170, Tear: store.TearTruncate, Down: 25}},
			SnapshotEvery: 64,
			DrainTicks:    250,
		}},
		{name: "Lifecycle", suffix: "/clustered", src: lifecycle, check: checkPairSplit, plan: Plan{
			Seed:          13,
			Shards:        1,
			Repartitions:  []RepartitionEvent{{Tick: 150, Op: "split", Shard: 0}},
			ShardCrashes:  []ClusterCrashEvent{{Tick: 205, Shard: 1, Tear: store.TearTruncate, Down: 25}},
			SnapshotEvery: 64,
			DrainTicks:    250,
		}},
		// Four static shards: user 1 crosses x=2000 while Inside the
		// continuous region, so its machine travels with the handoff
		// (2→3 near tick 207, back 3→2 near tick 457). Shard 2 dies two
		// ticks after the first one, with the ExpireRec of the session it
		// handed away still waiting for a commit to ride — it recovers
		// holding a stale copy, which the handoff back merges into; shard 3
		// dies the same way with a torn tail after the second.
		{name: "Lifecycle", suffix: "/handoff-crashed", src: lifecycle, check: checkCluster, plan: Plan{
			Seed:   17,
			Shards: 4,
			ShardCrashes: []ClusterCrashEvent{
				{Tick: 209, Shard: 2, Tear: store.TearNone, Down: 10},
				{Tick: 459, Shard: 3, Tear: store.TearTruncate, Down: 10},
			},
			SnapshotEvery: 64,
			DrainTicks:    250,
		}},
	}
	for _, cp := range []string{
		cluster.CPDrainBeforeImport,
		cluster.CPDrainBeforeDrop,
		cluster.CPMergePreDrainDone,
		cluster.CPSplitPreCommit,
		cluster.CPMergePreCommit,
	} {
		rows = append(rows, equalityRow{name: "RepartitionCrashRecovery", suffix: "/" + cp, src: small,
			strategies: mwpsr, plan: crashAt(cp), check: checkCrashPoint(cp)})
	}

	for _, row := range rows {
		row := row
		strategies := row.strategies
		if strategies == nil {
			strategies = safeRegionStrategies
		}
		for _, st := range strategies {
			st := st
			t.Run(row.name+"/"+st.name+row.suffix, func(t *testing.T) {
				if testing.Short() && !row.src.quick {
					t.Skip("multi-strategy simulation")
				}
				want := row.src.want(t)
				got, err := Drive(row.src.traffic, st.sc, row.plan, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				checkPairEquality(t, want, got.Triggers)
				if row.plan.Session.Batch && got.UpdateBatches == 0 {
					t.Fatal("no UpdateBatch frames reached the server — batching never engaged")
				}
				if row.check != nil {
					row.check(t, st.name+row.suffix, want, got, row.plan)
				}
			})
		}
	}
}

// TestDriveDeterministic asserts Drive replays byte-identically: same
// traffic + plan (fresh data dirs) → the exact same trigger sequence,
// delivery ticks included, and the same traffic totals. CrashOneShard
// replays the Crash plan with Shards spelled out as 1, which must change
// nothing: 0 means one shard.
func TestDriveDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := SmallWorkload(5)
	cfg.Vehicles, cfg.DurationTicks, cfg.NumAlarms = 60, 200, 80
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := StrategyConfig{Strategy: wire.StrategyMWPSR}
	faults := DefaultFaultPlan(123, cfg.DurationTicks)
	crash := DefaultCrashPlan(123, cfg.DurationTicks)
	oneShard := crash
	oneShard.Shards = 1
	clustered := DefaultClusterPlan(123, cfg.DurationTicks)
	for _, tc := range []struct {
		name string
		a, b Plan
	}{
		{"Faults", faults, faults},
		{"Crash", crash, crash},
		{"CrashOneShard", crash, oneShard},
		{"Cluster", clustered, clustered},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := Drive(w, sc, tc.a, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := Drive(w, sc, tc.b, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Triggers) != len(b.Triggers) {
				t.Fatalf("trigger counts differ: %d vs %d", len(a.Triggers), len(b.Triggers))
			}
			for i := range a.Triggers {
				if a.Triggers[i] != b.Triggers[i] {
					t.Fatalf("trigger %d differs: %+v vs %+v", i, a.Triggers[i], b.Triggers[i])
				}
			}
			if a.UplinkMessages != b.UplinkMessages || a.DownlinkBytes != b.DownlinkBytes {
				t.Errorf("traffic not deterministic: %d/%d vs %d/%d uplink msgs / downlink bytes",
					a.UplinkMessages, a.DownlinkBytes, b.UplinkMessages, b.DownlinkBytes)
			}
		})
	}
}
