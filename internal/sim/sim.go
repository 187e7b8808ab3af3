// Package sim runs end-to-end SABRE experiments: it wires a road-network
// mobility trace, a generated alarm workload, the server engine and a
// fleet of per-strategy clients, steps them tick by tick, and returns the
// evaluation metrics the paper reports (client→server messages, downstream
// bandwidth, client energy, server processing time) together with the
// exact set of delivered (user, alarm, tick) triggers.
//
// There is one driver. Drive puts each client behind the full session
// layer and an in-memory link to the TCP front end over a cluster — what
// alarmserver serves and alarmclient runs — and injects whatever its Plan
// scripts (link faults, process and shard crashes, resharding,
// failover). Run and RunMixed are Drive with a fault-free plan on one
// shard; every figure reads them.
//
// Determinism: for a fixed Workload, every strategy run sees bit-for-bit
// the same vehicle trace and alarm set, so trigger sets are directly
// comparable — the paper's "100% of the alarms are triggered in all
// scenarios" (§5) becomes an assertable equality against the periodic
// (PRD) ground truth.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/cluster"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/mobility"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/roadnet"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/stats"
	"github.com/sabre-geo/sabre/internal/wire"
)

// WorkloadConfig describes one experiment workload (paper §5.1 defaults:
// 1000 km², 10,000 vehicles, 1 h at 1 Hz, 10,000 alarms, 10% public,
// private:shared 2:1).
type WorkloadConfig struct {
	Seed           int64
	Vehicles       int
	DurationTicks  int
	NumAlarms      int
	PublicFraction float64
	// SharedSubscribers is how many extra subscribers each shared alarm
	// gets besides its owner.
	SharedSubscribers int
	// Alarm region side lengths in metres, drawn uniformly.
	AlarmMinSide, AlarmMaxSide float64
	// Network selects the road substrate; zero value means the paper-scale
	// default network.
	Network roadnet.Config
	// Lifecycle sets the fraction of alarms generated as each lifecycle
	// kind; the remainder (and the public prefix, which lifecycle kinds
	// cannot occupy) stays one-shot. The zero value reproduces the
	// pre-lifecycle workload exactly.
	Lifecycle LifecycleMix
}

// LifecycleMix is the per-kind alarm fraction of a mixed workload; 70%
// one-shot / 15% continuous / 10% pair / 5% composite is
// {Continuous: 0.15, Pair: 0.10, Composite: 0.05}.
type LifecycleMix struct {
	Continuous float64
	Pair       float64
	Composite  float64
}

func (m LifecycleMix) sum() float64 { return m.Continuous + m.Pair + m.Composite }

// DefaultWorkload returns the paper-scale configuration.
func DefaultWorkload(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:              seed,
		Vehicles:          10000,
		DurationTicks:     3600,
		NumAlarms:         10000,
		PublicFraction:    0.10,
		SharedSubscribers: 2,
		AlarmMinSide:      100,
		AlarmMaxSide:      400,
		Network:           roadnet.DefaultConfig(seed),
	}
}

// SmallWorkload returns a laptop-scale configuration for tests and quick
// benchmarks, preserving the default's densities (vehicles and alarms per
// km²) on a smaller universe.
func SmallWorkload(seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:              seed,
		Vehicles:          150,
		DurationTicks:     400,
		NumAlarms:         150,
		PublicFraction:    0.10,
		SharedSubscribers: 2,
		AlarmMinSide:      100,
		AlarmMaxSide:      400,
		Network:           roadnet.Config{Side: 4000, Spacing: 500, Jitter: 0.25, DropProb: 0.12, Seed: seed},
	}
}

// Validate reports configuration problems.
func (c WorkloadConfig) Validate() error {
	if c.Vehicles <= 0 || c.DurationTicks <= 0 {
		return fmt.Errorf("sim: need positive vehicles and duration")
	}
	if c.NumAlarms < 0 {
		return fmt.Errorf("sim: negative alarm count")
	}
	if c.PublicFraction < 0 || c.PublicFraction > 1 {
		return fmt.Errorf("sim: public fraction %v out of [0,1]", c.PublicFraction)
	}
	if c.AlarmMinSide <= 0 || c.AlarmMaxSide < c.AlarmMinSide {
		return fmt.Errorf("sim: alarm sides [%v, %v] invalid", c.AlarmMinSide, c.AlarmMaxSide)
	}
	m := c.Lifecycle
	if m.Continuous < 0 || m.Pair < 0 || m.Composite < 0 || m.sum() > 1 {
		return fmt.Errorf("sim: lifecycle mix %+v out of range", m)
	}
	if m.Pair > 0 && c.Vehicles < 2 {
		return fmt.Errorf("sim: pair alarms need at least two vehicles")
	}
	return nil
}

// Workload is a fully materialized experiment input, reusable across
// strategy runs.
type Workload struct {
	Config WorkloadConfig
	Net    *roadnet.Network
	Alarms []alarm.Alarm
}

// BuildWorkload generates the road network and alarm set.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := roadnet.Generate(cfg.Network)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	bounds := net.Bounds()
	alarms := make([]alarm.Alarm, 0, cfg.NumAlarms)
	// Lifecycle kinds occupy the tail of the index range; none of them
	// may be Public, so the public prefix shrinks if the mix crowds it.
	numCont := int(float64(cfg.NumAlarms) * cfg.Lifecycle.Continuous)
	numPair := int(float64(cfg.NumAlarms) * cfg.Lifecycle.Pair)
	numComp := int(float64(cfg.NumAlarms) * cfg.Lifecycle.Composite)
	oneShot := cfg.NumAlarms - numCont - numPair - numComp
	numPublic := int(float64(cfg.NumAlarms) * cfg.PublicFraction)
	if numPublic > oneShot {
		numPublic = oneShot
	}
	// Non-public one-shot alarms split private:shared = 2:1 (paper §5.1).
	numShared := (oneShot - numPublic) / 3
	for i := 0; i < cfg.NumAlarms; i++ {
		side := cfg.AlarmMinSide + rng.Float64()*(cfg.AlarmMaxSide-cfg.AlarmMinSide)
		target := geom.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
		owner := alarm.UserID(rng.Intn(cfg.Vehicles) + 1)
		switch {
		case i >= oneShot+numCont+numPair:
			// Composite risk zone: both factors must overlap at the
			// target to clear the threshold.
			alarms = append(alarms, alarm.Alarm{
				Scope: alarm.Private, Owner: owner, Kind: alarm.KindComposite,
				Factors: []alarm.Factor{
					{Region: geom.RectAround(target, side), Weight: 0.6},
					{Center: target, Radius: side / 2, Weight: 0.6},
				},
				Threshold: 1.0,
			})
			continue
		case i >= oneShot+numCont:
			// Pair proximity: the region is derived from the anchor's
			// position at evaluation time, never generated here.
			anchor := alarm.UserID(rng.Intn(cfg.Vehicles) + 1)
			for anchor == owner {
				anchor = alarm.UserID(rng.Intn(cfg.Vehicles) + 1)
			}
			alarms = append(alarms, alarm.Alarm{
				Scope: alarm.Shared, Owner: owner, Subscribers: []alarm.UserID{owner},
				Kind: alarm.KindPair, Anchor: anchor, Radius: side,
			})
			continue
		case i >= oneShot:
			alarms = append(alarms, alarm.Alarm{
				Scope: alarm.Private, Owner: owner, Kind: alarm.KindContinuous,
				Region: geom.RectAround(target, side),
			})
			continue
		}
		a := alarm.Alarm{Owner: owner, Region: geom.RectAround(target, side)}
		switch {
		case i < numPublic:
			a.Scope = alarm.Public
		case i < numPublic+numShared:
			a.Scope = alarm.Shared
			subs := []alarm.UserID{a.Owner}
			for s := 0; s < cfg.SharedSubscribers; s++ {
				subs = append(subs, alarm.UserID(rng.Intn(cfg.Vehicles)+1))
			}
			a.Subscribers = subs
		default:
			a.Scope = alarm.Private
		}
		alarms = append(alarms, a)
	}
	return &Workload{Config: cfg, Net: net, Alarms: alarms}, nil
}

// StrategyConfig selects the processing approach for one run.
type StrategyConfig struct {
	Strategy wire.Strategy
	// Model is the MWPSR motion model; the zero value (uniform) is the
	// paper's non-weighted variant.
	Model motion.Model
	// PyramidHeight is the PBSR height (h=1 is the GBSR); 0 defaults to 5,
	// the paper's comparison configuration.
	PyramidHeight int
	// BitmapMaxBits caps PBSR bitmap sizes (paper §4.2's size/coverage
	// trade-off); 0 defaults to 2048 bits (256 bytes on the wire).
	BitmapMaxBits int
	// CellAreaKM2 is the grid cell size; 0 defaults to 2.5 km², the
	// paper's optimum.
	CellAreaKM2 float64
	// PrecomputePublicBitmaps enables the §4.2 PBSR optimization.
	PrecomputePublicBitmaps bool
	// ExhaustiveAssembly switches MWPSR to the optimal quartic assembly.
	ExhaustiveAssembly bool
	// SafePeriodSpeedFactor scales the SP baseline's v_max bound (0 or
	// 1 = the paper's pessimistic guarantee; <1 trades accuracy for fewer
	// messages — the ablate-safeperiod experiment).
	SafePeriodSpeedFactor float64
}

// Trigger is one delivered alarm: alarm ID, subscriber, and the tick of
// delivery.
type Trigger struct {
	User  uint64
	Alarm uint64
	Tick  int
}

// Report is the outcome of one strategy run.
type Report struct {
	Strategy      string
	Vehicles      int
	DurationTicks int

	UplinkMessages   uint64
	UplinkBytes      uint64
	DownlinkMessages uint64
	DownlinkBytes    uint64
	DownlinkMbps     float64
	// UpdateBatches and BatchedUpdates count UpdateBatch frames the
	// servers received and the reports they carried (zero unless the
	// session config enables batching).
	UpdateBatches  uint64
	BatchedUpdates uint64

	ClientChecks uint64
	ClientProbes uint64
	// ClientEnergyMWh is total client energy (containment probes plus
	// radio); ClientProbeEnergyMWh counts the containment-detection work
	// only, which is what the paper's Figure 5(b) measures.
	ClientEnergyMWh      float64
	ClientProbeEnergyMWh float64
	// PerClientMessages summarizes the distribution of reports across the
	// fleet (fairness: a low total hiding a few chatty clients would show
	// up here).
	PerClientMessages stats.Summary

	AlarmProcessingMinutes float64
	SafeRegionMinutes      float64
	TotalServerMinutes     float64
	// MeasuredServerSeconds is actual wall-clock spent serving position
	// reports — machine-dependent, complementing the deterministic
	// cost-model minutes above.
	MeasuredServerSeconds  float64
	SafeRegionComputations uint64
	AlarmEvaluations       uint64
	RectClips              uint64

	Triggers []Trigger

	// Redirects counts the shard Redirects the client sessions followed.
	Redirects uint64
	// Cluster holds the cluster-level counters (handoffs, redirects sent,
	// shard crashes) of the run's final process incarnation.
	Cluster *metrics.ClusterSnapshot
	// PartitionEpoch is the run's final partition-map version. Scripted
	// splits, merges and crash recoveries all advance it, so tests can
	// assert the run ended in a consistent epoch.
	// PartitionMap is that final map itself.
	PartitionEpoch uint64
	PartitionMap   *cluster.PartitionMap
}

// TriggersEqual reports whether two runs delivered exactly the same
// (user, alarm, tick) set — the 100% accuracy check.
func TriggersEqual(a, b []Trigger) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]Trigger(nil), a...)
	bs := append([]Trigger(nil), b...)
	less := func(s []Trigger) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].User != s[j].User {
				return s[i].User < s[j].User
			}
			if s[i].Alarm != s[j].Alarm {
				return s[i].Alarm < s[j].Alarm
			}
			return s[i].Tick < s[j].Tick
		}
	}
	sort.Slice(as, less(as))
	sort.Slice(bs, less(bs))
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// withDefaults fills the zero strategy knobs with the paper's comparison
// configuration.
func (sc StrategyConfig) withDefaults() StrategyConfig {
	if sc.PyramidHeight == 0 {
		sc.PyramidHeight = 5
	}
	if sc.BitmapMaxBits == 0 {
		sc.BitmapMaxBits = 2048
	}
	if sc.CellAreaKM2 == 0 {
		sc.CellAreaKM2 = 2.5
	}
	return sc
}

// replay is one pass over a traffic source: who moves where, tick by
// tick, and the alarm table and world geometry every server sees.
type replay struct {
	users, ticks int
	universe     geom.Rect
	maxSpeed     float64
	tickSeconds  float64
	alarms       []alarm.Alarm
	// advance moves the source to tick (called once per tick, in order);
	// position then reads user index i's location at that tick.
	advance  func(tick int)
	position func(i int) geom.Point
}

// replay steps the road-network mobility simulator over the workload.
func (w *Workload) replay() (*replay, error) {
	mobCfg := mobility.DefaultConfig(w.Config.Vehicles, w.Config.Seed)
	mob, err := mobility.NewSimulator(w.Net, mobCfg)
	if err != nil {
		return nil, err
	}
	return &replay{
		users: w.Config.Vehicles,
		ticks: w.Config.DurationTicks,
		// The grid universe must strictly enclose the road network: the hull
		// roads run exactly along the network bounds, and a client on the
		// universe boundary could never be strictly inside a safe region.
		universe:    w.Net.Bounds().Expand(50),
		maxSpeed:    mob.MaxSpeed(),
		tickSeconds: mobCfg.TickSeconds,
		alarms:      w.Alarms,
		advance:     func(int) { mob.Step() },
		position:    mob.Position,
	}, nil
}

// engineConfig is the one StrategyConfig → server.Config mapping; sc must
// already carry its defaults.
func (tr *replay) engineConfig(sc StrategyConfig) server.Config {
	pp := pyramid.DefaultParams(sc.PyramidHeight)
	pp.MaxBits = sc.BitmapMaxBits
	return server.Config{
		Universe:                tr.universe,
		CellAreaM2:              sc.CellAreaKM2 * 1e6,
		Model:                   sc.Model,
		PyramidParams:           pp,
		MaxSpeed:                tr.maxSpeed,
		TickSeconds:             tr.tickSeconds,
		PrecomputePublicBitmaps: sc.PrecomputePublicBitmaps,
		ExhaustiveAssembly:      sc.ExhaustiveAssembly,
		SafePeriodSpeedFactor:   sc.SafePeriodSpeedFactor,
		Costs:                   metrics.DefaultCosts(),
	}
}

// report assembles the outcome of one run from the server counters, the
// per-client counters and the delivered triggers.
func (tr *replay) report(strategy wire.Strategy, met metrics.Snapshot, perClient []metrics.Client, triggers []Trigger, serverWall time.Duration) *Report {
	clientMet := &metrics.Client{}
	msgsPerClient := make([]uint64, len(perClient))
	for i := range perClient {
		clientMet.Merge(perClient[i])
		msgsPerClient[i] = perClient[i].MessagesSent
	}
	return &Report{
		Strategy:               strategy.String(),
		Vehicles:               tr.users,
		DurationTicks:          tr.ticks,
		UplinkMessages:         met.UplinkMessages,
		UplinkBytes:            met.UplinkBytes,
		DownlinkMessages:       met.DownlinkMessages,
		DownlinkBytes:          met.DownlinkBytes,
		DownlinkMbps:           met.DownlinkMbps(float64(tr.ticks) * tr.tickSeconds),
		UpdateBatches:          met.UpdateBatches,
		BatchedUpdates:         met.BatchedUpdates,
		ClientChecks:           clientMet.ContainmentChecks,
		ClientProbes:           clientMet.Probes,
		ClientEnergyMWh:        clientMet.Energy(metrics.DefaultEnergy()),
		ClientProbeEnergyMWh:   float64(clientMet.Probes) * metrics.DefaultEnergy().ProbeMilliWattHours,
		PerClientMessages:      stats.SummarizeUints(msgsPerClient),
		AlarmProcessingMinutes: met.AlarmProcessingSeconds() / 60,
		SafeRegionMinutes:      met.SafeRegionSeconds() / 60,
		TotalServerMinutes:     met.TotalSeconds() / 60,
		SafeRegionComputations: met.SafeRegionComputations,
		AlarmEvaluations:       met.AlarmEvaluations,
		RectClips:              met.RectClips,
		MeasuredServerSeconds:  serverWall.Seconds(),
		Redirects:              clientMet.Redirects,
		Triggers:               triggers,
	}
}

// settleTicks is the drain a fault-free run needs: a reply reaches its
// session one tick after the report, so one tick past the trace end
// delivers the last reports' replies and firings and empties every queue.
const settleTicks = 1

// Run executes one strategy over the workload and returns its report: a
// fault-free Drive against one in-memory shard.
func Run(w *Workload, sc StrategyConfig) (*Report, error) {
	return Drive(w, sc, Plan{DrainTicks: settleTicks}, "")
}
