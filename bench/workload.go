package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/mobility"
	"github.com/sabre-geo/sabre/internal/roadnet"
	"github.com/sabre-geo/sabre/internal/sim"
	"github.com/sabre-geo/sabre/internal/wire"
)

// warmupTicks is the prefix of every run that belongs to set-up:
// enrolment, every client's first safe region, public-bitmap cache fill.
const warmupTicks = 16

// spec is one workload. All share the paper's §5.1 densities (10
// vehicles/km², 10 alarms/km², 10 % public, private:shared 2:1, sides
// 100–400 m, 2.5 km² cells, 1 Hz road-network traces).
type spec struct {
	name string
	why  string
	// areaKM2 fixes the universe, and with the densities the fleet and
	// the alarm count.
	areaKM2  float64
	strategy wire.Strategy
	mode     string
	// batch ships one UpdateBatch per sender per tick instead of one
	// PositionUpdate per frame.
	batch bool
	// lifecycleMix turns 15 % of the alarms continuous and 5 % composite,
	// shared with 1 % of the fleet.
	lifecycleMix bool
	// ticksPerSecond is the frozen work size: a run measures
	// ticksPerSecond × -seconds ticks, tuned once so that on the 2-core
	// reference box the measured window lasts about -seconds. Work is
	// fixed rather than time so that every count repeats exactly.
	ticksPerSecond int
}

var specs = []spec{
	{
		name:     "steady_mwpsr",
		why:      "unbatched MWPSR on a memory-only engine: HandleUpdate is ~8 us of a ~70 us round trip, so transport, wire, dispatch and the socket dominate",
		areaKM2:  400,
		strategy: wire.StrategyMWPSR,
		mode:     modeMemory, ticksPerSecond: 200,
	},
	{
		name:     "steady_pbsr",
		why:      "same inputs with PBSR clients: HandleUpdate (pyramid bitmaps) costs ~8x what it does under MWPSR and replies are ~3x larger, so transport's share is small",
		areaKM2:  400,
		strategy: wire.StrategyPBSR,
		mode:     modeMemory, ticksPerSecond: 70,
	},
	{
		name:     "batch_mix_durable",
		why:      "one UpdateBatch per tick on a durable engine with continuous and composite alarms: HandleUpdateBatch, WAL group commit and lifecycle branches",
		areaKM2:  400,
		strategy: wire.StrategyMWPSR,
		mode:     modeDurable, batch: true, lifecycleMix: true, ticksPerSecond: 300,
	},
	{
		name:     "cluster_handoff_repl",
		why:      "2-shard fsynced cluster with a synchronous replica: the only workload with redirects, session export/import and follower applies",
		areaKM2:  100,
		strategy: wire.StrategyMWPSR,
		mode:     modeCluster, ticksPerSecond: 200,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scale shrinks a spec for the smoke test; full leaves it alone.
type scale struct {
	name string
	// maxAreaKM2 caps the universe (0 = no cap).
	maxAreaKM2 float64
	// ticks overrides ticksPerSecond × seconds (0 = no override).
	ticks int
	// setupRounds is how many times set-up runs for the setup_s median.
	setupRounds int
	// segments is how many equal slices of the measured window the rate
	// and percentile medians are taken over.
	segments int
}

var (
	scaleFull  = scale{name: "full", setupRounds: 5, segments: 16}
	scaleSmoke = scale{name: "smoke", maxAreaKM2: 20, ticks: 104, setupRounds: 1, segments: 2}
)

// inputs is a fully generated workload: what the driver knows and the
// system under test is fed piece by piece.
type inputs struct {
	spec     spec
	vehicles int
	mob      *mobility.Simulator
	alarms   []alarm.Alarm // IDs are filled in from the install reply
	stack    stackConfig   // DataDir left empty
}

// mapSeed draws the road network and the alarm table, which are the same
// on every run of a workload: they are the deployment. The -seed draws
// the traffic on it — where every vehicle starts, how fast it drives and
// which trips it makes — and so every report the server receives. Drawing
// the map from -seed too moved the count metrics by up to ±15 % from seed
// to seed (messages per client-tick follow how many alarms sit on busy
// roads), more than any bound a regression gate could use.
const mapSeed = 1

// generate builds the road network and alarm set, and the traces from
// the seed.
func generate(sp spec, sc scale, seed int64) (*inputs, error) {
	area := sp.areaKM2
	if sc.maxAreaKM2 > 0 && area > sc.maxAreaKM2 {
		area = sc.maxAreaKM2
	}
	n := int(area * 10)
	cfg := sim.WorkloadConfig{
		Seed:              mapSeed,
		Vehicles:          n,
		DurationTicks:     1, // the driver steps the simulator itself
		NumAlarms:         n,
		PublicFraction:    0.10,
		SharedSubscribers: 2,
		AlarmMinSide:      100,
		AlarmMaxSide:      400,
		Network:           roadnet.Config{Side: math.Sqrt(area) * 1000, Spacing: 500, Jitter: 0.25, DropProb: 0.12, Seed: mapSeed},
	}
	if sp.lifecycleMix {
		cfg.Lifecycle = sim.LifecycleMix{Continuous: 0.15, Composite: 0.05}
	}
	w, err := sim.BuildWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", sp.name, err)
	}
	if sp.lifecycleMix {
		shareLifecycleAlarms(w.Alarms, n)
	}
	mob, err := mobility.NewSimulator(w.Net, mobility.DefaultConfig(n, seed))
	if err != nil {
		return nil, err
	}
	return &inputs{
		spec:     sp,
		vehicles: n,
		mob:      mob,
		alarms:   w.Alarms,
		stack: stackConfig{
			Mode: sp.mode,
			// The universe strictly encloses the road network: hull roads
			// run along the network bounds, and a client on the universe
			// boundary could never be strictly inside a safe region.
			Universe: w.Net.Bounds().Expand(50),
			MaxSpeed: mob.MaxSpeed(),
		},
	}, nil
}

// shareLifecycleAlarms widens every continuous and composite alarm from
// its single random owner to 1 % of the fleet. As sim.BuildWorkload
// generates them they are private and almost never fire.
//
// It also replaces each composite's inscribed-circle factor with a second
// copy of its rectangle factor, so that the alarm fires exactly where its
// factors' bounding box begins. With the generated rect+circle pair the
// engine misses or delays firings (51 missed and 8 late of 34 348 events
// at seed 1, full scale): a vehicle inside the box but outside the circle
// is below threshold, yet is handed the box as its safe region and can
// drive on into the circle unreported. A benchmark needs a workload on
// which nothing fails; README.md lists this as a known gap.
func shareLifecycleAlarms(alarms []alarm.Alarm, vehicles int) {
	rng := rand.New(rand.NewSource(mapSeed + 0x11fe))
	subs := vehicles / 100
	if subs < 1 {
		subs = 1
	}
	for i := range alarms {
		a := &alarms[i]
		if a.Kind == alarm.KindOneShot {
			continue
		}
		if a.Kind == alarm.KindComposite {
			a.Factors[1] = a.Factors[0]
		}
		a.Scope = alarm.Shared
		a.Subscribers = []alarm.UserID{a.Owner}
		for len(a.Subscribers) < subs+1 {
			a.Subscribers = append(a.Subscribers, alarm.UserID(rng.Intn(vehicles)+1))
		}
	}
}

// ticksFor is the number of measured ticks of a run.
func ticksFor(sp spec, sc scale, seconds int) int {
	if sc.ticks > 0 {
		return sc.ticks
	}
	return sp.ticksPerSecond * seconds
}

func userOf(vehicle int) uint64 { return uint64(vehicle + 1) }
