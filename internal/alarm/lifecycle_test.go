package alarm

import (
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

func noPartner(UserID) (geom.Point, bool) { return geom.Point{}, false }

// evalLC drives one lifecycle evaluation with explicit hits (the alarms
// whose regions a point query would surface, passed as their slots).
func evalLC(r *Registry, u UserID, p geom.Point, tick uint64, hits []ID, partner func(UserID) (geom.Point, bool)) []uint64 {
	raw := make([]uint64, len(hits))
	for i, id := range hits {
		raw[i] = uint64(r.byID[id])
	}
	if partner == nil {
		partner = noPartner
	}
	return r.EvaluateLifecycleInto(u, p, tick, raw, partner, nil)
}

func TestContinuousEnterExitRearm(t *testing.T) {
	r := NewRegistry()
	id, err := r.Install(Alarm{Scope: Private, Owner: 1, Kind: KindContinuous,
		Region: geom.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	in, out := geom.Pt(50, 50), geom.Pt(200, 200)

	got := evalLC(r, 1, in, 1, []ID{id}, nil)
	if want := []uint64{PackEvent(id, TransEnter, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("enter = %#x, want %#x", got, want)
	}
	// Staying inside transitions nothing.
	if got = evalLC(r, 1, in, 2, []ID{id}, nil); len(got) != 0 {
		t.Fatalf("dwell produced %#x", got)
	}
	got = evalLC(r, 1, out, 3, nil, nil)
	if want := []uint64{PackEvent(id, TransExit, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("exit = %#x, want %#x", got, want)
	}
	// Re-arm: a second crossing is occurrence 2.
	got = evalLC(r, 1, in, 4, []ID{id}, nil)
	if want := []uint64{PackEvent(id, TransEnter, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("re-enter = %#x, want %#x", got, want)
	}
}

func TestContinuousCooldownGate(t *testing.T) {
	r := NewRegistry()
	id, err := r.Install(Alarm{Scope: Private, Owner: 1, Kind: KindContinuous,
		Region: geom.R(0, 0, 100, 100), Cooldown: 10})
	if err != nil {
		t.Fatal(err)
	}
	in, out := geom.Pt(50, 50), geom.Pt(200, 200)
	evalLC(r, 1, in, 1, []ID{id}, nil)  // enter #1
	evalLC(r, 1, out, 5, []ID{id}, nil) // exit #1 at tick 5
	// Re-entry before lastTick+cooldown is suppressed...
	if got := evalLC(r, 1, in, 9, []ID{id}, nil); len(got) != 0 {
		t.Fatalf("cooldown violated: %#x", got)
	}
	// ...and the suppressed attempt must not have mutated the machine.
	got := evalLC(r, 1, in, 15, []ID{id}, nil)
	if want := []uint64{PackEvent(id, TransEnter, 2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cooldown enter = %#x, want %#x", got, want)
	}
}

func TestPairSymmetricOccurrences(t *testing.T) {
	r := NewRegistry()
	id, err := r.Install(Alarm{Scope: Shared, Owner: 2, Subscribers: []UserID{2},
		Kind: KindPair, Anchor: 3, Radius: 100})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[UserID]geom.Point{2: geom.Pt(0, 0), 3: geom.Pt(500, 0)}
	partner := func(u UserID) (geom.Point, bool) { p, ok := pos[u]; return p, ok }

	// Out of range: nothing fires either side.
	if got := evalLC(r, 2, pos[2], 1, nil, partner); len(got) != 0 {
		t.Fatalf("out-of-range fired %#x", got)
	}
	// Unknown partner: conservatively no transition.
	if got := r.EvaluatePairsInto(3, pos[3], 1, noPartner, nil); len(got) != 0 {
		t.Fatalf("unknown partner fired %#x", got)
	}
	// User 2 moves into range; each endpoint's machine is driven
	// independently but the occurrence counters must agree.
	pos[2] = geom.Pt(450, 0)
	if got, want := evalLC(r, 2, pos[2], 2, nil, partner), []uint64{PackEvent(id, TransEnter, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoint 2 enter = %#x, want %#x", got, want)
	}
	if got, want := r.EvaluatePairsInto(3, pos[3], 2, partner, nil), []uint64{PackEvent(id, TransEnter, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoint 3 enter = %#x, want %#x", got, want)
	}
	for _, u := range []UserID{2, 3} {
		if _, pairs := r.LifecycleViewInto(u, nil, nil); len(pairs) != 1 || !pairs[0].Inside {
			t.Fatalf("endpoint %d should be Inside: %+v", u, pairs)
		}
	}
	// Partner walks away: both exit with matching occurrence.
	pos[3] = geom.Pt(900, 0)
	if got, want := r.EvaluatePairsInto(3, pos[3], 3, partner, nil), []uint64{PackEvent(id, TransExit, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoint 3 exit = %#x, want %#x", got, want)
	}
	if got, want := evalLC(r, 2, pos[2], 3, nil, partner), []uint64{PackEvent(id, TransExit, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoint 2 exit = %#x, want %#x", got, want)
	}
}

func TestCompositeThresholdAndTTL(t *testing.T) {
	r := NewRegistry()
	id, err := r.Install(Alarm{Scope: Private, Owner: 7, Kind: KindComposite,
		Factors: []Factor{
			{Region: geom.R(0, 0, 1000, 1000), Weight: 0.4},
			{Center: geom.Pt(500, 500), Radius: 100, Weight: 0.5},
		}, Threshold: 0.8, ExpiresAt: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Only the rect factor: severity 0.4 < 0.8.
	if got := evalLC(r, 7, geom.Pt(900, 900), 1, []ID{id}, nil); len(got) != 0 {
		t.Fatalf("sub-threshold fired %#x", got)
	}
	// Both factors: 0.9 >= 0.8, fires once with the quantized severity.
	got := evalLC(r, 7, geom.Pt(500, 500), 2, []ID{id}, nil)
	if want := []uint64{PackEvent(id, TransSeverity, QuantizeSeverity(0.9))}; !reflect.DeepEqual(got, want) {
		t.Fatalf("severity event = %#x, want %#x", got, want)
	}
	// Once per user: a second visit is silent.
	if got = evalLC(r, 7, geom.Pt(500, 500), 3, []ID{id}, nil); len(got) != 0 {
		t.Fatalf("composite re-fired %#x", got)
	}
	// A different subscriber would still fire — but past the TTL the
	// alarm is inert even before GC collects it.
	id2, err := r.Install(Alarm{Scope: Private, Owner: 8, Kind: KindComposite,
		Factors:   []Factor{{Center: geom.Pt(100, 100), Radius: 50, Weight: 1}},
		Threshold: 0.5, ExpiresAt: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got = evalLC(r, 8, geom.Pt(100, 100), 50, []ID{id2}, nil); len(got) != 0 {
		t.Fatalf("expired composite fired %#x", got)
	}
	// ExpireDue reaps exactly the due alarms.
	due := r.ExpireDue(50)
	if len(due) != 2 {
		t.Fatalf("ExpireDue = %v, want both composites", due)
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("expired composite still installed")
	}
}

func TestEventPackUnpack(t *testing.T) {
	ev := PackEvent(MaxLifecycleID, TransSeverity, QuantizeSeverity(1.5))
	if EventAlarm(ev) != MaxLifecycleID || EventTransition(ev) != TransSeverity {
		t.Fatalf("unpack mismatch: %#x", ev)
	}
	if EventPayload(ev) != 1500 {
		t.Fatalf("payload = %d, want 1500", EventPayload(ev))
	}
	// A raw one-shot firing is the degenerate packed event.
	if raw := PackEvent(7, TransFired, 0); raw != 7 {
		t.Fatalf("one-shot event = %#x, want 7", raw)
	}
}

func TestResetFiredRearmsLifecycle(t *testing.T) {
	r := NewRegistry()
	id, err := r.Install(Alarm{Scope: Private, Owner: 1, Kind: KindContinuous,
		Region: geom.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	evalLC(r, 1, geom.Pt(50, 50), 1, []ID{id}, nil)
	if len(r.LifecycleStates()) == 0 {
		t.Fatal("no machine state after enter")
	}
	r.ResetFired()
	if got := r.LifecycleStates(); len(got) != 0 {
		t.Fatalf("ResetFired kept machines: %+v", got)
	}
	// The next entry is occurrence 1 again.
	got := evalLC(r, 1, geom.Pt(50, 50), 2, []ID{id}, nil)
	if want := []uint64{PackEvent(id, TransEnter, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reset enter = %#x, want %#x", got, want)
	}
}
