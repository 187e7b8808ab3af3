// Package simulate exposes SABRE's experiment driver: build a workload (a
// synthetic road network, a vehicle fleet and an alarm table), run it
// under a processing strategy, and get back the paper's evaluation metrics
// plus the exact delivered trigger set.
//
// It is the public face of the machinery behind cmd/alarmbench:
//
//	w, _ := simulate.BuildWorkload(simulate.SmallWorkload(1))
//	truth, _ := simulate.Run(w, simulate.StrategyConfig{Strategy: sabre.StrategyPeriodic})
//	mwpsr, _ := simulate.Run(w, simulate.StrategyConfig{Strategy: sabre.StrategyMWPSR})
//	fmt.Println(simulate.TriggersEqual(truth.Triggers, mwpsr.Triggers)) // true
//	fmt.Println(truth.UplinkMessages / mwpsr.UplinkMessages)            // ~40×
//
// Runs are deterministic in the workload seed: identical configurations
// reproduce identical reports bit-for-bit.
package simulate

import (
	"github.com/sabre-geo/sabre/internal/sim"
)

// Re-exported experiment types; see the field documentation on each.
type (
	// WorkloadConfig describes a workload: fleet size, duration, alarm
	// table composition and the road network substrate.
	WorkloadConfig = sim.WorkloadConfig
	// Workload is a materialized workload, reusable across strategy runs.
	Workload = sim.Workload
	// StrategyConfig selects the processing approach and its knobs for
	// one run.
	StrategyConfig = sim.StrategyConfig
	// Report is the outcome of a run: messages, bandwidth, energy, server
	// cost-model minutes and the delivered triggers.
	Report = sim.Report
	// Trigger is one delivered alarm: (user, alarm, tick).
	Trigger = sim.Trigger
	// MixedClass describes one device class of a heterogeneous fleet.
	MixedClass = sim.MixedClass
	// MixedReport is the outcome of a heterogeneous-fleet run.
	MixedReport = sim.MixedReport
	// ClassReport summarizes one device class of a mixed run.
	ClassReport = sim.ClassReport
)

// DefaultWorkload returns the paper-scale configuration: 10,000 vehicles
// for one hour over 1,000 km² with 10,000 alarms (paper §5.1).
func DefaultWorkload(seed int64) WorkloadConfig { return sim.DefaultWorkload(seed) }

// SmallWorkload returns a laptop-scale configuration with the same
// densities (seconds per run instead of minutes).
func SmallWorkload(seed int64) WorkloadConfig { return sim.SmallWorkload(seed) }

// BuildWorkload generates the road network and alarm table for cfg.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) { return sim.BuildWorkload(cfg) }

// Run executes one strategy over the workload: every vehicle runs the
// client session alarmclient runs, against the one-shard server
// alarmserver boots, over a fault-free in-memory link.
func Run(w *Workload, sc StrategyConfig) (*Report, error) { return sim.Run(w, sc) }

// RunMixed executes one simulation with the fleet partitioned across
// device classes served by a single engine (paper §4's heterogeneity).
func RunMixed(w *Workload, classes []MixedClass, base StrategyConfig) (*MixedReport, error) {
	return sim.RunMixed(w, classes, base)
}

// TriggersEqual reports whether two runs delivered exactly the same
// (user, alarm, tick) set — the paper's 100% accuracy check.
func TriggersEqual(a, b []Trigger) bool { return sim.TriggersEqual(a, b) }
