package sim

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/wire"
)

func buildSmall(t testing.TB, seed int64) *Workload {
	t.Helper()
	w, err := BuildWorkload(SmallWorkload(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runStrategy(t testing.TB, w *Workload, sc StrategyConfig) *Report {
	t.Helper()
	r, err := Run(w, sc)
	if err != nil {
		t.Fatalf("%v: %v", sc.Strategy, err)
	}
	return r
}

func TestWorkloadValidation(t *testing.T) {
	bad := SmallWorkload(1)
	bad.Vehicles = 0
	if _, err := BuildWorkload(bad); err == nil {
		t.Error("zero vehicles accepted")
	}
	bad = SmallWorkload(1)
	bad.PublicFraction = 1.5
	if _, err := BuildWorkload(bad); err == nil {
		t.Error("public fraction > 1 accepted")
	}
	bad = SmallWorkload(1)
	bad.AlarmMinSide = 0
	if _, err := BuildWorkload(bad); err == nil {
		t.Error("zero alarm side accepted")
	}
}

func TestWorkloadComposition(t *testing.T) {
	w := buildSmall(t, 3)
	counts := map[string]int{}
	for _, a := range w.Alarms {
		counts[a.Scope.String()]++
		if a.Region.Empty() {
			t.Fatal("empty alarm region generated")
		}
	}
	if counts["public"] != 15 {
		t.Errorf("public = %d, want 15 (10%% of 150)", counts["public"])
	}
	// private:shared = 2:1 among the rest.
	if counts["shared"] != 45 {
		t.Errorf("shared = %d, want 45", counts["shared"])
	}
	if counts["private"] != 90 {
		t.Errorf("private = %d, want 90", counts["private"])
	}
}

// TestAccuracyAcrossStrategies is the paper's central claim (§5): every
// approach must deliver exactly the same alarms at exactly the same ticks
// as the periodic ground truth.
func TestAccuracyAcrossStrategies(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		w := buildSmall(t, seed)
		truth := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPeriodic})
		if len(truth.Triggers) == 0 {
			t.Fatalf("seed %d: ground truth has no triggers; workload too sparse to test", seed)
		}
		configs := []StrategyConfig{
			{Strategy: wire.StrategySafePeriod},
			{Strategy: wire.StrategyMWPSR},                               // non-weighted
			{Strategy: wire.StrategyMWPSR, Model: motion.MustNew(1, 32)}, // weighted
			{Strategy: wire.StrategyPBSR, PyramidHeight: 1},              // GBSR
			{Strategy: wire.StrategyPBSR, PyramidHeight: 5},              // PBSR
			{Strategy: wire.StrategyPBSR, PyramidHeight: 5, PrecomputePublicBitmaps: true},
			{Strategy: wire.StrategyOptimal},
		}
		for _, sc := range configs {
			got := runStrategy(t, w, sc)
			if !TriggersEqual(truth.Triggers, got.Triggers) {
				t.Errorf("seed %d %v (h=%d pre=%v): %d triggers != ground truth %d",
					seed, sc.Strategy, sc.PyramidHeight, sc.PrecomputePublicBitmaps,
					len(got.Triggers), len(truth.Triggers))
			}
		}
	}
}

// TestMessageOrdering checks the paper's Figure 6(a) ordering: OPT <=
// safe region approaches < SP << PRD.
func TestMessageOrdering(t *testing.T) {
	w := buildSmall(t, 7)
	prd := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPeriodic})
	sp := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategySafePeriod})
	mw := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyMWPSR, Model: motion.MustNew(1, 32)})
	pb := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 5})
	opt := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyOptimal})

	if prd.UplinkMessages != uint64(w.Config.Vehicles*w.Config.DurationTicks) {
		t.Errorf("PRD messages = %d, want every tick (%d)",
			prd.UplinkMessages, w.Config.Vehicles*w.Config.DurationTicks)
	}
	for _, r := range []*Report{sp, mw, pb, opt} {
		if r.UplinkMessages >= prd.UplinkMessages {
			t.Errorf("%s messages %d not below periodic %d", r.Strategy, r.UplinkMessages, prd.UplinkMessages)
		}
	}
	if mw.UplinkMessages >= sp.UplinkMessages {
		t.Errorf("MWPSR %d should send fewer messages than SP %d", mw.UplinkMessages, sp.UplinkMessages)
	}
	if pb.UplinkMessages >= sp.UplinkMessages {
		t.Errorf("PBSR %d should send fewer messages than SP %d", pb.UplinkMessages, sp.UplinkMessages)
	}
	if opt.UplinkMessages > mw.UplinkMessages || opt.UplinkMessages > pb.UplinkMessages {
		t.Errorf("OPT %d should send fewest messages (MW %d, PB %d)",
			opt.UplinkMessages, mw.UplinkMessages, pb.UplinkMessages)
	}
	// Figure 6(c): OPT client energy far above safe region approaches.
	if opt.ClientEnergyMWh <= mw.ClientEnergyMWh || opt.ClientEnergyMWh <= pb.ClientEnergyMWh {
		t.Errorf("OPT energy %.1f should exceed MWPSR %.1f and PBSR %.1f",
			opt.ClientEnergyMWh, mw.ClientEnergyMWh, pb.ClientEnergyMWh)
	}
	// Figure 6(d): periodic server load far above safe region approaches.
	if prd.TotalServerMinutes <= mw.TotalServerMinutes || prd.TotalServerMinutes <= pb.TotalServerMinutes {
		t.Errorf("PRD server time %.2f should exceed MWPSR %.2f and PBSR %.2f",
			prd.TotalServerMinutes, mw.TotalServerMinutes, pb.TotalServerMinutes)
	}
}

// TestPyramidHeightReducesMessages mirrors Figure 5(a): messages drop
// sharply from GBSR (h=1) to tall pyramids.
func TestPyramidHeightReducesMessages(t *testing.T) {
	w := buildSmall(t, 11)
	h1 := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 1})
	h5 := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 5})
	if h5.UplinkMessages >= h1.UplinkMessages {
		t.Errorf("h=5 messages %d not below h=1 %d", h5.UplinkMessages, h1.UplinkMessages)
	}
	// Energy per check grows with height (more probes per descent).
	if h5.ClientProbes <= h5.ClientChecks {
		t.Error("pyramid descent should cost multiple probes per check")
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := buildSmall(t, 13)
	sc := StrategyConfig{Strategy: wire.StrategyMWPSR, Model: motion.MustNew(1, 16)}
	a := runStrategy(t, w, sc)
	b := runStrategy(t, w, sc)
	if a.UplinkMessages != b.UplinkMessages || a.DownlinkBytes != b.DownlinkBytes {
		t.Errorf("identical runs diverged: %d/%d vs %d/%d msgs/bytes",
			a.UplinkMessages, a.DownlinkBytes, b.UplinkMessages, b.DownlinkBytes)
	}
	if !TriggersEqual(a.Triggers, b.Triggers) {
		t.Error("identical runs delivered different triggers")
	}
}

func TestTriggersEqual(t *testing.T) {
	a := []Trigger{{1, 2, 3}, {4, 5, 6}}
	b := []Trigger{{4, 5, 6}, {1, 2, 3}}
	if !TriggersEqual(a, b) {
		t.Error("order should not matter")
	}
	if TriggersEqual(a, a[:1]) {
		t.Error("length mismatch should fail")
	}
	c := []Trigger{{1, 2, 3}, {4, 5, 7}}
	if TriggersEqual(a, c) {
		t.Error("tick mismatch should fail")
	}
}

// TestPrecomputeMatchesDirect: the §4.2 public-bitmap optimization must
// not change behaviour, only server work.
func TestPrecomputeMatchesDirect(t *testing.T) {
	w := buildSmall(t, 17)
	direct := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 4})
	pre := runStrategy(t, w, StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 4, PrecomputePublicBitmaps: true})
	if direct.UplinkMessages != pre.UplinkMessages {
		t.Errorf("message counts diverged: %d vs %d", direct.UplinkMessages, pre.UplinkMessages)
	}
	if !TriggersEqual(direct.Triggers, pre.Triggers) {
		t.Error("precompute changed delivered triggers")
	}
}
