package simulate_test

import (
	"fmt"
	"testing"

	sabre "github.com/sabre-geo/sabre"
	"github.com/sabre-geo/sabre/simulate"
)

// TestPublicExperimentFlow runs the headline comparison through the public
// package only: the safe region approach must match the periodic ground
// truth exactly while sending a small fraction of the messages.
func TestPublicExperimentFlow(t *testing.T) {
	w, err := simulate.BuildWorkload(simulate.SmallWorkload(2))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := simulate.Run(w, simulate.StrategyConfig{Strategy: sabre.StrategyPeriodic})
	if err != nil {
		t.Fatal(err)
	}
	mwpsr, err := simulate.Run(w, simulate.StrategyConfig{Strategy: sabre.StrategyMWPSR})
	if err != nil {
		t.Fatal(err)
	}
	if !simulate.TriggersEqual(truth.Triggers, mwpsr.Triggers) {
		t.Fatal("trigger sets differ")
	}
	if mwpsr.UplinkMessages*10 >= truth.UplinkMessages {
		t.Errorf("MWPSR sent %d messages vs periodic %d; expected >10× reduction",
			mwpsr.UplinkMessages, truth.UplinkMessages)
	}
}

func TestPublicMixedFlow(t *testing.T) {
	w, err := simulate.BuildWorkload(simulate.SmallWorkload(3))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := simulate.RunMixed(w, []simulate.MixedClass{
		{Name: "a", Strategy: sabre.StrategyMWPSR, Fraction: 0.5},
		{Name: "b", Strategy: sabre.StrategyPBSR, PyramidHeight: 4, Fraction: 0.5},
	}, simulate.StrategyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.Classes) != 2 {
		t.Fatalf("classes = %d", len(mixed.Classes))
	}
}

// ExampleRun demonstrates the experiment API end to end.
func ExampleRun() {
	w, err := simulate.BuildWorkload(simulate.SmallWorkload(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	truth, _ := simulate.Run(w, simulate.StrategyConfig{Strategy: sabre.StrategyPeriodic})
	mwpsr, _ := simulate.Run(w, simulate.StrategyConfig{Strategy: sabre.StrategyMWPSR})
	fmt.Println("accurate:", simulate.TriggersEqual(truth.Triggers, mwpsr.Triggers))
	fmt.Println("message reduction:", truth.UplinkMessages/mwpsr.UplinkMessages, "x")
	// Output:
	// accurate: true
	// message reduction: 42 x
}
