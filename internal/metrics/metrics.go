// Package metrics holds the evaluation counters and the deterministic
// server cost model behind the paper's Figures 4(b) and 6(d).
//
// The paper reports server load as CPU minutes split into "alarm
// processing" (evaluating position updates against the R*-tree alarm
// index) and "safe region computation". Re-measuring wall-clock time would
// make every run noisy and machine-dependent, so SABRE instead charges a
// fixed cost per elementary operation — R*-tree node accesses, alarm
// containment checks, skyline candidate/corner work, bitmap intersection
// tests — and converts operation counts to seconds with per-operation
// constants. The constants are calibrated so the default paper-scale
// workload lands in the same few-minutes range as the paper's Figure 4(b);
// only the shape of the curves (which approach wins, where the total is
// minimized) is meaningful, as explained in DESIGN.md §2.
package metrics

import (
	"reflect"
	"sync/atomic"
)

// CostParams converts operation counts into seconds of simulated server
// CPU time.
type CostParams struct {
	// NodeAccessSeconds per R*-tree node visited during alarm evaluation
	// or nearest-alarm (safe period) queries.
	NodeAccessSeconds float64
	// AlarmCheckSeconds per alarm region examined during update
	// processing (relevance filtering, containment).
	AlarmCheckSeconds float64
	// CandidateSeconds per MWPSR candidate point processed and
	// CornerSeconds per component-rectangle corner evaluated.
	CandidateSeconds float64
	CornerSeconds    float64
	// BitmapTestSeconds per rect-vs-alarm intersection test performed
	// while encoding a GBSR/PBSR bitmap.
	BitmapTestSeconds float64
}

// DefaultCosts is calibrated to put the default workload's totals in the
// paper's range: per-update index work (node accesses, per-alarm checks)
// is priced like the buffered-I/O-heavy operation it is on a loaded
// server, while the in-memory geometry of safe region construction is
// priced orders of magnitude cheaper. At the paper-scale default workload
// this puts periodic evaluation near the ~150 server-minutes of
// Figure 6(d) and the MWPSR total in the 2–15 minute band of Figure 4(b).
func DefaultCosts() CostParams {
	return CostParams{
		NodeAccessSeconds: 25e-6,
		AlarmCheckSeconds: 5e-6,
		CandidateSeconds:  18e-6,
		CornerSeconds:     6e-6,
		BitmapTestSeconds: 0.2e-6,
	}
}

// Server accumulates the server-side counters for one simulation run. All
// counters are atomics, so concurrent update handlers account without any
// external lock and Snapshot can be read while updates are in flight.
type Server struct {
	costs CostParams

	// Uplink (client → server).
	uplinkMessages atomic.Uint64
	uplinkBytes    atomic.Uint64
	// Downlink (server → client).
	downlinkMessages atomic.Uint64
	downlinkBytes    atomic.Uint64
	// Batched uplink: frames received and position updates they carried.
	// A batch charges uplinkBytes once for the whole frame; uplinkMessages
	// still counts the contained updates so update totals stay comparable
	// between batched and unbatched runs.
	updateBatches  atomic.Uint64
	batchedUpdates atomic.Uint64
	// Triggers delivered (alarm, subscriber) pairs.
	alarmsTriggered atomic.Uint64

	// Operation counters feeding the cost model.
	nodeAccesses     atomic.Uint64
	alarmChecks      atomic.Uint64
	srCandidates     atomic.Uint64
	srCorners        atomic.Uint64
	srBitmapTests    atomic.Uint64
	srNodeAccesses   atomic.Uint64
	srComputations   atomic.Uint64
	rectClips        atomic.Uint64
	alarmEvaluations atomic.Uint64

	// Session lifecycle counters (fault-tolerant connection path).
	sessionsOpened     atomic.Uint64
	sessionsResumed    atomic.Uint64
	heartbeats         atomic.Uint64
	redeliveredUpdates atomic.Uint64
	firedRedeliveries  atomic.Uint64

	// Durability counters (write-ahead log and snapshots; Server satisfies
	// store.Counters).
	walAppends        atomic.Uint64
	walBytes          atomic.Uint64
	walFsyncs         atomic.Uint64
	walGroupCommits   atomic.Uint64
	walGroupRecords   atomic.Uint64
	walDeferred       atomic.Uint64
	walSyncNs         atomic.Uint64
	walPreallocBytes  atomic.Uint64
	walPreallocNs     atomic.Int64
	snapshots         atomic.Uint64
	recoveries        atomic.Uint64
	recoveredRecords  atomic.Uint64
	walTruncatedBytes atomic.Uint64
	firedEvictions    atomic.Uint64
	sessionsExpired   atomic.Uint64
	fencedWrites      atomic.Uint64

	// Handoff counters (cluster shard membership changes).
	sessionsExported atomic.Uint64
	sessionsImported atomic.Uint64

	// Lifecycle alarm counters: per-kind installed-alarm gauges and the
	// cumulative count of lifecycle transitions (enter/exit/severity)
	// delivered.
	alarmsContinuous atomic.Uint64
	alarmsPair       atomic.Uint64
	alarmsComposite  atomic.Uint64
	alarmTransitions atomic.Uint64
}

// Snapshot is a consistent-enough point-in-time copy of the server
// counters: each field is an atomic load, so a snapshot taken while
// updates are in flight may split one update's charges across two
// snapshots but never tears an individual counter. Once the workload
// quiesces, Snapshot is exact.
type Snapshot struct {
	Costs CostParams

	UplinkMessages   uint64
	UplinkBytes      uint64
	DownlinkMessages uint64
	DownlinkBytes    uint64
	UpdateBatches    uint64 `json:"update_batches"`
	BatchedUpdates   uint64 `json:"batched_updates"`
	AlarmsTriggered  uint64

	NodeAccesses           uint64
	AlarmChecks            uint64
	SRCandidates           uint64
	SRCorners              uint64
	SRBitmapTests          uint64
	SRNodeAccesses         uint64
	SafeRegionComputations uint64
	RectClips              uint64
	AlarmEvaluations       uint64

	SessionsOpened     uint64
	SessionsResumed    uint64
	Heartbeats         uint64
	RedeliveredUpdates uint64
	FiredRedeliveries  uint64

	WALAppends      uint64
	WALBytes        uint64
	WALFsyncs       uint64
	WALGroupCommits uint64 `json:"wal_group_commits"`
	WALGroupRecords uint64 `json:"wal_group_records"`
	// WALDeferredRecords counts waiter-less records (a handed-off session's
	// ExpireRec) that landed with a group commit; they are included in
	// WALGroupRecords.
	WALDeferredRecords uint64 `json:"wal_deferred_records"`
	WALSyncNs          uint64 `json:"wal_sync_ns"`
	Snapshots          uint64
	Recoveries         uint64
	RecoveredRecords   uint64
	WALTruncatedBytes  uint64
	FiredEvictions     uint64
	SessionsExpired    uint64
	FencedWrites       uint64 `json:"fenced_writes"`

	// WALPreallocBytes counts the zeros written ahead of the WAL's log end
	// (not WALBytes) and WALPreallocNs the time those growths took, their
	// syncs included (not WALSyncNs, and none of them is a WALFsyncs). The
	// time is a duration, int64 like time.Duration.
	WALPreallocBytes uint64 `json:"wal_prealloc_bytes"`
	WALPreallocNs    int64  `json:"wal_prealloc_ns"`

	SessionsExported uint64
	SessionsImported uint64

	AlarmsContinuous uint64 `json:"alarms_continuous"`
	AlarmsPair       uint64 `json:"alarms_pair"`
	AlarmsComposite  uint64 `json:"alarms_composite"`
	AlarmTransitions uint64 `json:"alarm_transitions"`
}

// NewServer returns a counter set using the given cost model.
func NewServer(costs CostParams) *Server {
	return &Server{costs: costs}
}

// Snapshot returns a copy of every counter. Safe to call concurrently
// with in-flight updates.
func (s *Server) Snapshot() Snapshot {
	return Snapshot{
		Costs:                  s.costs,
		UplinkMessages:         s.uplinkMessages.Load(),
		UplinkBytes:            s.uplinkBytes.Load(),
		DownlinkMessages:       s.downlinkMessages.Load(),
		DownlinkBytes:          s.downlinkBytes.Load(),
		UpdateBatches:          s.updateBatches.Load(),
		BatchedUpdates:         s.batchedUpdates.Load(),
		AlarmsTriggered:        s.alarmsTriggered.Load(),
		NodeAccesses:           s.nodeAccesses.Load(),
		AlarmChecks:            s.alarmChecks.Load(),
		SRCandidates:           s.srCandidates.Load(),
		SRCorners:              s.srCorners.Load(),
		SRBitmapTests:          s.srBitmapTests.Load(),
		SRNodeAccesses:         s.srNodeAccesses.Load(),
		SafeRegionComputations: s.srComputations.Load(),
		RectClips:              s.rectClips.Load(),
		AlarmEvaluations:       s.alarmEvaluations.Load(),
		SessionsOpened:         s.sessionsOpened.Load(),
		SessionsResumed:        s.sessionsResumed.Load(),
		Heartbeats:             s.heartbeats.Load(),
		RedeliveredUpdates:     s.redeliveredUpdates.Load(),
		FiredRedeliveries:      s.firedRedeliveries.Load(),
		WALAppends:             s.walAppends.Load(),
		WALBytes:               s.walBytes.Load(),
		WALFsyncs:              s.walFsyncs.Load(),
		WALGroupCommits:        s.walGroupCommits.Load(),
		WALGroupRecords:        s.walGroupRecords.Load(),
		WALDeferredRecords:     s.walDeferred.Load(),
		WALSyncNs:              s.walSyncNs.Load(),
		WALPreallocBytes:       s.walPreallocBytes.Load(),
		WALPreallocNs:          s.walPreallocNs.Load(),
		Snapshots:              s.snapshots.Load(),
		Recoveries:             s.recoveries.Load(),
		RecoveredRecords:       s.recoveredRecords.Load(),
		WALTruncatedBytes:      s.walTruncatedBytes.Load(),
		FiredEvictions:         s.firedEvictions.Load(),
		SessionsExpired:        s.sessionsExpired.Load(),
		FencedWrites:           s.fencedWrites.Load(),
		SessionsExported:       s.sessionsExported.Load(),
		SessionsImported:       s.sessionsImported.Load(),
		AlarmsContinuous:       s.alarmsContinuous.Load(),
		AlarmsPair:             s.alarmsPair.Load(),
		AlarmsComposite:        s.alarmsComposite.Load(),
		AlarmTransitions:       s.alarmTransitions.Load(),
	}
}

// SetAlarmKinds sets the per-kind installed-alarm gauges (continuous,
// pair, composite); one-shot alarms are the registry total minus the sum.
func (s *Server) SetAlarmKinds(continuous, pair, composite uint64) {
	s.alarmsContinuous.Store(continuous)
	s.alarmsPair.Store(pair)
	s.alarmsComposite.Store(composite)
}

// AddAlarmTransitions records delivered lifecycle transitions
// (enter/exit re-arms and composite severity firings).
func (s *Server) AddAlarmTransitions(n uint64) { s.alarmTransitions.Add(n) }

// AddWALAppend records one durable log append of the given framed size.
func (s *Server) AddWALAppend(bytes int) {
	s.walAppends.Add(1)
	s.walBytes.Add(uint64(bytes))
}

// AddWALFsync records one fsync of the write-ahead log.
func (s *Server) AddWALFsync() { s.walFsyncs.Add(1) }

// AddWALGroupCommit records one group commit landing the given number of
// records with a single write (and fsync); syncNanos is the wall time
// that fsync took (0 when fsync is disabled).
func (s *Server) AddWALGroupCommit(records int, syncNanos int64) {
	s.walGroupCommits.Add(1)
	s.walGroupRecords.Add(uint64(records))
	if syncNanos > 0 {
		s.walSyncNs.Add(uint64(syncNanos))
	}
}

// AddWALDeferred records waiter-less records landed by a group commit.
func (s *Server) AddWALDeferred(records int) { s.walDeferred.Add(uint64(records)) }

// AddWALPrealloc records one growth of a WAL file's zero-filled region:
// the zero bytes written and the wall time of the write and its sync
// (0 when fsync is disabled).
func (s *Server) AddWALPrealloc(bytes int, nanos int64) {
	s.walPreallocBytes.Add(uint64(bytes))
	s.walPreallocNs.Add(nanos)
}

// AddSnapshot records one full-state snapshot written (WAL rotation).
func (s *Server) AddSnapshot() { s.snapshots.Add(1) }

// AddRecovery records one crash recovery: how many log records were
// replayed on top of the snapshot and how many torn-tail bytes were
// truncated away.
func (s *Server) AddRecovery(recordsReplayed int, truncatedBytes int64) {
	s.recoveries.Add(1)
	s.recoveredRecords.Add(uint64(recordsReplayed))
	s.walTruncatedBytes.Add(uint64(truncatedBytes))
}

// AddFencedWrite records a WAL append rejected because the store's
// fencing term was overtaken by a promoted follower.
func (s *Server) AddFencedWrite() { s.fencedWrites.Add(1) }

// AddFiredEvictions records pending firings evicted (oldest first) when a
// session exceeded its unacknowledged-firings cap.
func (s *Server) AddFiredEvictions(n uint64) { s.firedEvictions.Add(n) }

// AddSessionsExpired records reliable sessions reaped by the idle TTL
// sweep.
func (s *Server) AddSessionsExpired(n uint64) { s.sessionsExpired.Add(n) }

// AddSessionExported records a session handed off out of this shard.
func (s *Server) AddSessionExported() { s.sessionsExported.Add(1) }

// AddSessionImported records a session handed off into this shard.
func (s *Server) AddSessionImported() { s.sessionsImported.Add(1) }

// AddSessionOpened records a fresh session established via Hello.
func (s *Server) AddSessionOpened() { s.sessionsOpened.Add(1) }

// AddSessionResumed records a reconnecting client resuming its session.
func (s *Server) AddSessionResumed() { s.sessionsResumed.Add(1) }

// AddHeartbeat records a heartbeat received from a client.
func (s *Server) AddHeartbeat() { s.heartbeats.Add(1) }

// AddRedeliveredUpdates records position updates received more than once
// (client resend after a lost response).
func (s *Server) AddRedeliveredUpdates(n uint64) { s.redeliveredUpdates.Add(n) }

// AddFiredRedeliveries records unacknowledged alarm firings re-sent to a
// reliable client.
func (s *Server) AddFiredRedeliveries(n uint64) { s.firedRedeliveries.Add(n) }

// AddUplink records a client→server message of the given encoded size.
func (s *Server) AddUplink(bytes int) {
	s.uplinkMessages.Add(1)
	s.uplinkBytes.Add(uint64(bytes))
}

// AddUplinkBatch records one client→server UpdateBatch frame of the given
// encoded size carrying n position updates. The frame's bytes are charged
// once (that is the point of batching); the message counter advances by n
// so per-update totals stay comparable with unbatched runs.
func (s *Server) AddUplinkBatch(bytes, n int) {
	s.uplinkMessages.Add(uint64(n))
	s.uplinkBytes.Add(uint64(bytes))
	s.updateBatches.Add(1)
	s.batchedUpdates.Add(uint64(n))
}

// AddDownlink records a server→client message of the given encoded size.
func (s *Server) AddDownlink(bytes int) {
	s.downlinkMessages.Add(1)
	s.downlinkBytes.Add(uint64(bytes))
}

// AddAlarmsTriggered records delivered (alarm, subscriber) trigger pairs.
func (s *Server) AddAlarmsTriggered(n uint64) {
	s.alarmsTriggered.Add(n)
}

// AddAlarmEvaluation charges one position-update evaluation: the R*-tree
// node accesses it performed and the alarm regions it examined.
func (s *Server) AddAlarmEvaluation(nodeAccesses, alarmChecks uint64) {
	s.alarmEvaluations.Add(1)
	s.nodeAccesses.Add(nodeAccesses)
	s.alarmChecks.Add(alarmChecks)
}

// AddRectComputation charges one MWPSR safe region computation. clips is
// the number of post-assembly soundness clips that were needed; the
// skyline construction keeps it at zero, and the ablate-clipping benchmark
// reports it as evidence.
func (s *Server) AddRectComputation(candidates, corners, clips int) {
	s.srComputations.Add(1)
	s.srCandidates.Add(uint64(candidates))
	s.srCorners.Add(uint64(corners))
	s.rectClips.Add(uint64(clips))
}

// RectClips returns the cumulative soundness clips applied to MWPSR
// regions.
func (s *Server) RectClips() uint64 { return s.rectClips.Load() }

// AddBitmapComputation charges one GBSR/PBSR safe region computation.
func (s *Server) AddBitmapComputation(intersectionTests int) {
	s.srComputations.Add(1)
	s.srBitmapTests.Add(uint64(intersectionTests))
}

// AddSafeRegionIndexWork charges R*-tree node accesses performed while
// gathering the relevant alarms for a safe region computation (the
// SearchRect per update); it books into the safe-region bucket without
// counting as a separate computation.
func (s *Server) AddSafeRegionIndexWork(nodeAccesses uint64) {
	s.srNodeAccesses.Add(nodeAccesses)
}

// AddSafePeriodComputation charges one safe-period computation (the SP
// baseline's nearest-alarm query); the paper's Figure 6(d) buckets this
// with safe region computation.
func (s *Server) AddSafePeriodComputation(nodeAccesses uint64) {
	s.srComputations.Add(1)
	s.srNodeAccesses.Add(nodeAccesses)
}

// AlarmEvaluations returns the number of position updates evaluated.
func (s *Server) AlarmEvaluations() uint64 { return s.alarmEvaluations.Load() }

// SafeRegionComputations returns the number of safe regions computed.
func (s *Server) SafeRegionComputations() uint64 { return s.srComputations.Load() }

// AlarmProcessingSeconds converts the alarm evaluation work to seconds.
func (s *Server) AlarmProcessingSeconds() float64 { return s.Snapshot().AlarmProcessingSeconds() }

// SafeRegionSeconds converts the safe region computation work to seconds.
func (s *Server) SafeRegionSeconds() float64 { return s.Snapshot().SafeRegionSeconds() }

// TotalSeconds is alarm processing plus safe region computation.
func (s *Server) TotalSeconds() float64 { return s.Snapshot().TotalSeconds() }

// DownlinkMbps converts downstream bytes over a trace duration to the
// megabits per second the paper's Figure 6(b) plots.
func (s *Server) DownlinkMbps(traceSeconds float64) float64 {
	return s.Snapshot().DownlinkMbps(traceSeconds)
}

// AlarmProcessingSeconds converts the alarm evaluation work to seconds.
func (sn Snapshot) AlarmProcessingSeconds() float64 {
	return float64(sn.NodeAccesses)*sn.Costs.NodeAccessSeconds +
		float64(sn.AlarmChecks)*sn.Costs.AlarmCheckSeconds
}

// SafeRegionSeconds converts the safe region computation work to seconds.
func (sn Snapshot) SafeRegionSeconds() float64 {
	return float64(sn.SRCandidates)*sn.Costs.CandidateSeconds +
		float64(sn.SRCorners)*sn.Costs.CornerSeconds +
		float64(sn.SRBitmapTests)*sn.Costs.BitmapTestSeconds +
		float64(sn.SRNodeAccesses)*sn.Costs.NodeAccessSeconds
}

// TotalSeconds is alarm processing plus safe region computation.
func (sn Snapshot) TotalSeconds() float64 {
	return sn.AlarmProcessingSeconds() + sn.SafeRegionSeconds()
}

// Add folds o's counters into sn, as a cluster totals its shards: every
// integer field is a count or a duration and sums; the cost parameters
// are shared by every engine and are taken from o.
func (sn *Snapshot) Add(o Snapshot) {
	sn.Costs = o.Costs
	dst, src := reflect.ValueOf(sn).Elem(), reflect.ValueOf(o)
	for i := 0; i < dst.NumField(); i++ {
		switch f := dst.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + src.Field(i).Uint())
		case reflect.Int64:
			f.SetInt(f.Int() + src.Field(i).Int())
		}
	}
}

// DownlinkMbps converts downstream bytes over a trace duration to the
// megabits per second the paper's Figure 6(b) plots.
func (sn Snapshot) DownlinkMbps(traceSeconds float64) float64 {
	if traceSeconds <= 0 {
		return 0
	}
	return float64(sn.DownlinkBytes) * 8 / traceSeconds / 1e6
}

// Client accumulates per-fleet client-side counters.
type Client struct {
	// ContainmentChecks is the number of safe region containment checks
	// performed, and Probes the total elementary probe operations those
	// checks cost (1 for a rectangle, up to h for a pyramid descent, one
	// per alarm for the OPT local scan).
	ContainmentChecks uint64
	Probes            uint64
	// MessagesSent counts client→server reports.
	MessagesSent uint64
	// Session lifecycle counters (fault-tolerant connection path).
	Reconnects         uint64 // reconnect attempts that established a link
	HeartbeatsSent     uint64 // heartbeats transmitted
	RedeliveredReports uint64 // queued reports re-sent after reconnect/timeout
	DroppedReports     uint64 // reports evicted from a full offline queue
	Redirects          uint64 // shard redirects followed (cluster handoff)
	StaleRedirects     uint64 // redirects ignored for carrying an older partition-map epoch
	// BatchesSent counts UpdateBatch frames transmitted and BatchedReports
	// the position reports they carried (each also counted in
	// MessagesSent, which stays the per-report total either way).
	BatchesSent    uint64
	BatchedReports uint64
}

// AddCheck records one containment check costing the given probes.
func (c *Client) AddCheck(probes int) {
	c.ContainmentChecks++
	c.Probes += uint64(probes)
}

// Merge folds other into c (used to aggregate per-client counters).
func (c *Client) Merge(other Client) {
	c.ContainmentChecks += other.ContainmentChecks
	c.Probes += other.Probes
	c.MessagesSent += other.MessagesSent
	c.Reconnects += other.Reconnects
	c.HeartbeatsSent += other.HeartbeatsSent
	c.RedeliveredReports += other.RedeliveredReports
	c.DroppedReports += other.DroppedReports
	c.Redirects += other.Redirects
	c.StaleRedirects += other.StaleRedirects
	c.BatchesSent += other.BatchesSent
	c.BatchedReports += other.BatchedReports
}

// EnergyParams converts client-side work into energy, mirroring the
// paper's mWh reporting (the paper omits its exact energy calculation; the
// constants below are calibrated to land the default workload in the same
// hundreds-of-mWh range as Figures 5(b)/6(c)).
type EnergyParams struct {
	// ProbeMilliWattHours per elementary containment probe.
	ProbeMilliWattHours float64
	// RadioMilliWattHours per message transmitted.
	RadioMilliWattHours float64
}

// DefaultEnergy returns the calibrated energy model.
func DefaultEnergy() EnergyParams {
	return EnergyParams{
		ProbeMilliWattHours: 0.004,
		RadioMilliWattHours: 0.05,
	}
}

// Energy returns the fleet energy in milliwatt-hours under p.
func (c Client) Energy(p EnergyParams) float64 {
	return float64(c.Probes)*p.ProbeMilliWattHours +
		float64(c.MessagesSent)*p.RadioMilliWattHours
}
