// Package sim runs end-to-end SABRE experiments: it wires a road-network
// mobility trace, a generated alarm workload, the server engine and a
// fleet of per-strategy clients, steps them tick by tick, and returns the
// evaluation metrics the paper reports (client→server messages, downstream
// bandwidth, client energy, server processing time) together with the
// exact set of delivered (user, alarm, tick) triggers.
//
// There are two ways to run a workload. Run (and RunMixed) call the
// engine directly, one HandleUpdate per report — the paper's counted
// cost model, which every figure reads. Drive puts each client behind
// the full session layer and a fault-injectable link, against one engine
// or a sharded cluster, and injects whatever its Plan scripts (link
// faults, process and shard crashes, resharding, failover); it exists to
// prove that none of that changes the delivered set.
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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/client"
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

// LifecycleMix is the per-kind alarm fraction of a mixed workload. The
// benchmark mix is 70% one-shot / 15% continuous / 10% pair / 5%
// composite: {Continuous: 0.15, Pair: 0.10, Composite: 0.05}.
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
	// Parallel fans each tick's position updates across a worker pool
	// instead of the single-threaded loop, exercising the engine's
	// concurrent hot path. Triggers are reassembled in client order after
	// every tick, so for workloads without moving-target alarms the report
	// (messages, triggers, metric totals) is identical to a serial run.
	// Serial runs (Parallel=false) stay bit-for-bit reproducible across
	// releases.
	Parallel bool
	// Workers is the parallel driver's pool size; 0 means GOMAXPROCS.
	Workers int
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
	// MeasuredServerSeconds is actual wall-clock spent inside
	// Engine.HandleUpdate — machine-dependent, complementing the
	// deterministic cost-model minutes above.
	MeasuredServerSeconds  float64
	SafeRegionComputations uint64
	AlarmEvaluations       uint64
	RectClips              uint64

	Triggers []Trigger

	// Cluster holds the cluster-level counters (handoffs, suppressed
	// duplicates, shard crashes) when Drive ran a cluster topology; nil
	// for single-server runs.
	Cluster *metrics.ClusterSnapshot
	// PartitionEpoch is the cluster's final partition-map version
	// (cluster runs only; 0 for single-server runs). Scripted splits,
	// merges and crash recoveries all advance it, so tests can assert
	// the run ended in a consistent epoch. PartitionMap is that final
	// map itself.
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
		Triggers:               triggers,
	}
}

// Run executes one strategy over the workload and returns its report.
func Run(w *Workload, sc StrategyConfig) (*Report, error) {
	sc = sc.withDefaults()
	r, err := runDirect(w, sc, func(int) (wire.Strategy, int) { return sc.Strategy, sc.PyramidHeight })
	if err != nil {
		return nil, err
	}
	return r.tr.report(sc.Strategy, r.met, r.perClient, r.triggers, r.serverWall), nil
}

// directRun is what a session-less run leaves behind for its report.
type directRun struct {
	tr         *replay
	met        metrics.Snapshot
	perClient  []metrics.Client
	triggers   []Trigger
	serverWall time.Duration
}

// runDirect replays the workload with every client calling the engine
// directly — no sessions, no links — which is the paper's counted cost
// model. fleet gives vehicle i's strategy and pyramid height; sc (with
// its defaults filled) supplies the server knobs.
func runDirect(w *Workload, sc StrategyConfig, fleet func(i int) (wire.Strategy, int)) (*directRun, error) {
	tr, err := w.replay()
	if err != nil {
		return nil, err
	}
	eng, err := server.New(tr.engineConfig(sc))
	if err != nil {
		return nil, err
	}
	if _, err := eng.Registry().InstallBatch(tr.alarms); err != nil {
		return nil, err
	}

	perClient := make([]metrics.Client, tr.users)
	clients := make([]*client.Client, tr.users)
	for i := range clients {
		user := uint64(i + 1)
		strategy, height := fleet(i)
		clients[i] = client.New(user, strategy, &perClient[i])
		if err := eng.Register(wire.Register{
			User:      user,
			Strategy:  strategy,
			MaxHeight: uint8(height),
		}); err != nil {
			return nil, err
		}
	}

	// Moving-target invalidations reach silent clients through the push
	// callback (Seq-0 messages). The per-client mutexes make push delivery
	// safe when the parallel driver is active: a push for client B arriving
	// from a worker processing client A cannot race B's own tick. curTick
	// is written only between ticks, while no worker runs (the WaitGroup
	// barrier orders the write against every reader).
	curTick := 0
	clientMu := make([]sync.Mutex, len(clients))
	eng.SetPusher(func(user alarm.UserID, msgs []wire.Message) {
		idx := int(user) - 1
		if idx < 0 || idx >= len(clients) {
			return
		}
		clientMu[idx].Lock()
		defer clientMu[idx].Unlock()
		for _, m := range msgs {
			// Push decode errors cannot happen with in-process messages.
			_ = clients[idx].Handle(curTick, m)
		}
	})

	var triggers []Trigger
	var serverWall time.Duration
	if sc.Parallel {
		triggers, serverWall, err = runParallelTicks(tr, sc, eng, clients, clientMu, &curTick)
		if err != nil {
			return nil, err
		}
	} else {
		for tick := 0; tick < tr.ticks; tick++ {
			curTick = tick
			tr.advance(tick)
			for i, cl := range clients {
				upd := cl.Tick(tick, tr.position(i))
				if upd == nil {
					continue
				}
				start := time.Now()
				responses, err := eng.HandleUpdate(*upd)
				serverWall += time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("tick %d user %d: %w", tick, upd.User, err)
				}
				for _, resp := range responses {
					if fired, ok := resp.(wire.AlarmFired); ok {
						for _, id := range fired.Alarms {
							triggers = append(triggers, Trigger{User: upd.User, Alarm: id, Tick: tick})
						}
					}
					if err := cl.Handle(tick, resp); err != nil {
						return nil, err
					}
				}
				if len(responses) == 0 {
					cl.Acknowledge()
				}
			}
		}
	}
	return &directRun{
		tr:         tr,
		met:        eng.Metrics().Snapshot(),
		perClient:  perClient,
		triggers:   triggers,
		serverWall: serverWall,
	}, nil
}

// runParallelTicks drives the simulation with a worker pool: every tick,
// the client updates are distributed across sc.Workers goroutines (0 means
// GOMAXPROCS) via a shared atomic cursor, with a barrier between ticks.
// Per-tick triggers are buffered per client index and flattened in index
// order after the barrier, reproducing exactly the order the serial loop
// would have appended them in. The returned wall duration sums the time
// every worker spent inside Engine.HandleUpdate (aggregate CPU, not
// elapsed time).
func runParallelTicks(tr *replay, sc StrategyConfig, eng *server.Engine, clients []*client.Client, clientMu []sync.Mutex, curTick *int) ([]Trigger, time.Duration, error) {
	workers := sc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(clients) {
		workers = len(clients)
	}
	var triggers []Trigger
	var serverWall time.Duration
	var wallMu sync.Mutex
	for tick := 0; tick < tr.ticks; tick++ {
		*curTick = tick
		tr.advance(tick)
		// Per-client trigger buffers: workers append only to their current
		// client's slot, so no locking is needed and the post-barrier
		// flatten restores the serial (client-index) order.
		tickTriggers := make([][]Trigger, len(clients))
		var cursor atomic.Int64
		var wg sync.WaitGroup
		var errMu sync.Mutex
		var tickErr error
		errIdx := len(clients)
		record := func(i int, err error) {
			errMu.Lock()
			if err != nil && i < errIdx {
				tickErr, errIdx = err, i
			}
			errMu.Unlock()
		}
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var wall time.Duration
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(clients) {
						break
					}
					cl := clients[i]
					clientMu[i].Lock()
					upd := cl.Tick(tick, tr.position(i))
					clientMu[i].Unlock()
					if upd == nil {
						continue
					}
					// The engine call runs without the client lock: the
					// engine synchronizes itself, and holding clientMu here
					// would serialize pushes against their own trigger.
					start := time.Now()
					responses, err := eng.HandleUpdate(*upd)
					wall += time.Since(start)
					if err != nil {
						record(i, fmt.Errorf("tick %d user %d: %w", tick, upd.User, err))
						continue
					}
					clientMu[i].Lock()
					for _, resp := range responses {
						if fired, ok := resp.(wire.AlarmFired); ok {
							for _, id := range fired.Alarms {
								tickTriggers[i] = append(tickTriggers[i], Trigger{User: upd.User, Alarm: id, Tick: tick})
							}
						}
						if err := cl.Handle(tick, resp); err != nil {
							record(i, err)
							break
						}
					}
					if len(responses) == 0 {
						cl.Acknowledge()
					}
					clientMu[i].Unlock()
				}
				wallMu.Lock()
				serverWall += wall
				wallMu.Unlock()
			}()
		}
		wg.Wait()
		if tickErr != nil {
			return nil, 0, tickErr
		}
		for i := range tickTriggers {
			triggers = append(triggers, tickTriggers[i]...)
		}
	}
	return triggers, serverWall, nil
}
