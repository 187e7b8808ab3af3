package sim

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/wire"
)

func defaultClasses() []MixedClass {
	return []MixedClass{
		{Name: "feature", Strategy: wire.StrategySafePeriod, Fraction: 0.3},
		{Name: "budget", Strategy: wire.StrategyMWPSR, Fraction: 0.4},
		{Name: "flagship", Strategy: wire.StrategyPBSR, PyramidHeight: 6, Fraction: 0.3},
	}
}

// TestMixedFleetAccuracy: a heterogeneous fleet served by one engine must
// still deliver exactly the ground-truth trigger set.
func TestMixedFleetAccuracy(t *testing.T) {
	w := buildSmall(t, 31)
	truth := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPeriodic})
	mixed, err := RunMixed(w, defaultClasses(), StrategyConfig{Model: motion.MustNew(1, 32)})
	if err != nil {
		t.Fatal(err)
	}
	if !TriggersEqual(truth.Triggers, mixed.Triggers) {
		t.Fatalf("mixed fleet delivered %d triggers, ground truth %d",
			len(mixed.Triggers), len(truth.Triggers))
	}
}

func TestMixedFleetClassAccounting(t *testing.T) {
	w := buildSmall(t, 33)
	mixed, err := RunMixed(w, defaultClasses(), StrategyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.Classes) != 3 {
		t.Fatalf("classes = %d", len(mixed.Classes))
	}
	total := 0
	for _, c := range mixed.Classes {
		total += c.Vehicles
		if c.Vehicles == 0 {
			t.Errorf("class %s got no vehicles", c.Name)
		}
		if c.UplinkMessages == 0 {
			t.Errorf("class %s sent no messages", c.Name)
		}
		if c.PerClientMessages.Count != c.Vehicles {
			t.Errorf("class %s distribution count %d != vehicles %d",
				c.Name, c.PerClientMessages.Count, c.Vehicles)
		}
	}
	if total != w.Config.Vehicles {
		t.Errorf("class vehicles sum %d != fleet %d", total, w.Config.Vehicles)
	}
	// The safe-period class must be the chattiest per client (paper
	// Figure 6(a) ordering carries over to the mixed fleet).
	byName := map[string]ClassReport{}
	for _, c := range mixed.Classes {
		byName[c.Name] = c
	}
	spPer := byName["feature"].PerClientMessages.Mean
	mwPer := byName["budget"].PerClientMessages.Mean
	if spPer <= mwPer {
		t.Errorf("SP class mean %.1f should exceed MWPSR class mean %.1f", spPer, mwPer)
	}
}

func TestMixedValidation(t *testing.T) {
	w := buildSmall(t, 35)
	if _, err := RunMixed(w, nil, StrategyConfig{}); err == nil {
		t.Error("empty class list accepted")
	}
	if _, err := RunMixed(w, []MixedClass{{Name: "x", Strategy: wire.StrategyMWPSR, Fraction: -1}}, StrategyConfig{}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := RunMixed(w, []MixedClass{{Name: "x", Strategy: wire.StrategyMWPSR, Fraction: 0}}, StrategyConfig{}); err == nil {
		t.Error("zero total fraction accepted")
	}
}

// TestMixedFleetHonoursBaseConfig: every shared server knob of the base
// config must reach the engine, not just the ones RunMixed lists by hand.
func TestMixedFleetHonoursBaseConfig(t *testing.T) {
	w := buildSmall(t, 33)
	run := func(base StrategyConfig) *MixedReport {
		t.Helper()
		m, err := RunMixed(w, defaultClasses(), base)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := run(StrategyConfig{})
	if m := run(StrategyConfig{ExhaustiveAssembly: true}); m.DownlinkBytes == plain.DownlinkBytes {
		t.Error("ExhaustiveAssembly ignored: MWPSR regions cost the same downlink bytes")
	} else if !TriggersEqual(m.Triggers, plain.Triggers) {
		t.Error("ExhaustiveAssembly changed the delivered triggers")
	}
	// Class 0 is the safe-period class; halving its speed bound lengthens
	// every safe period.
	if m := run(StrategyConfig{SafePeriodSpeedFactor: 0.5}); m.Classes[0].UplinkMessages >= plain.Classes[0].UplinkMessages {
		t.Errorf("SafePeriodSpeedFactor ignored: SP class sent %d messages, %d without it",
			m.Classes[0].UplinkMessages, plain.Classes[0].UplinkMessages)
	}
}
