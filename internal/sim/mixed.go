package sim

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/stats"
	"github.com/sabre-geo/sabre/internal/wire"
)

// MixedClass describes one device class in a heterogeneous fleet.
type MixedClass struct {
	Name string
	// Strategy is the processing approach for this class.
	Strategy wire.Strategy
	// PyramidHeight caps PBSR resolution for the class (0 = server
	// default) — the per-device capability knob of paper §4.
	PyramidHeight int
	// Fraction is the share of the fleet in this class; fractions are
	// normalized over the class list.
	Fraction float64
}

// ClassReport summarizes one class of a mixed run.
type ClassReport struct {
	Name              string
	Strategy          string
	Vehicles          int
	UplinkMessages    uint64
	ContainmentChecks uint64
	Probes            uint64
	EnergyMWh         float64
	PerClientMessages stats.Summary
}

// MixedReport is the outcome of a heterogeneous-fleet run.
type MixedReport struct {
	Classes  []ClassReport
	Triggers []Trigger

	DownlinkBytes      uint64
	TotalServerMinutes float64
}

// RunMixed executes one simulation in which the fleet is partitioned
// across device classes served by a single engine — the paper's
// heterogeneity argument (§4) at workload scale. The base StrategyConfig
// supplies every shared server knob (cell size, motion model, index,
// assembly, precompute, ...); its Strategy field is ignored.
func RunMixed(w *Workload, classes []MixedClass, base StrategyConfig) (*MixedReport, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("sim: no classes")
	}
	var totalFrac float64
	for _, c := range classes {
		if c.Fraction < 0 {
			return nil, fmt.Errorf("sim: negative fraction for class %q", c.Name)
		}
		totalFrac += c.Fraction
	}
	if totalFrac <= 0 {
		return nil, fmt.Errorf("sim: class fractions sum to zero")
	}

	// Assign vehicles to classes by cumulative fraction, preserving the
	// class order (deterministic).
	classOf := make([]int, w.Config.Vehicles)
	bound := 0
	for ci, c := range classes {
		share := int(float64(w.Config.Vehicles) * c.Fraction / totalFrac)
		if ci == len(classes)-1 {
			share = w.Config.Vehicles - bound // remainder
		}
		for i := bound; i < bound+share && i < w.Config.Vehicles; i++ {
			classOf[i] = ci
		}
		bound += share
	}

	base = base.withDefaults()
	r, perClient, err := drive(w, base, Plan{DrainTicks: settleTicks}, "", func(i int) (wire.Strategy, int) {
		c := classes[classOf[i]]
		if c.PyramidHeight == 0 {
			return c.Strategy, base.PyramidHeight
		}
		return c.Strategy, c.PyramidHeight
	})
	if err != nil {
		return nil, err
	}

	out := &MixedReport{
		Triggers:           r.Triggers,
		DownlinkBytes:      r.DownlinkBytes,
		TotalServerMinutes: r.TotalServerMinutes,
	}
	energy := metrics.DefaultEnergy()
	for ci, c := range classes {
		cr := ClassReport{Name: c.Name, Strategy: c.Strategy.String()}
		var msgs []uint64
		for i, pc := range perClient {
			if classOf[i] != ci {
				continue
			}
			cr.Vehicles++
			cr.UplinkMessages += pc.MessagesSent
			cr.ContainmentChecks += pc.ContainmentChecks
			cr.Probes += pc.Probes
			cr.EnergyMWh += pc.Energy(energy)
			msgs = append(msgs, pc.MessagesSent)
		}
		cr.PerClientMessages = stats.SummarizeUints(msgs)
		out.Classes = append(out.Classes, cr)
	}
	return out, nil
}
