package alarm

import (
	"math"
	"sync"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/rstar"
)

func region(x, y, side float64) geom.Rect {
	return geom.RectAround(geom.Pt(x, y), side)
}

func evaluate(r *Registry, p geom.Point, u UserID) []ID {
	ids, _, _, _ := r.EvaluateInto(p, u, nil, nil)
	return ids
}

func relevantIn(r *Registry, w geom.Rect, u UserID) []Alarm {
	out, _, _ := r.RelevantInInto(w, u, nil, nil)
	return out
}

func nearestDist(r *Registry, p geom.Point, u UserID) float64 {
	d, _ := r.NearestRelevantDist(p, u)
	return d
}

func TestScopeString(t *testing.T) {
	if Private.String() != "private" || Shared.String() != "shared" || Public.String() != "public" {
		t.Error("scope strings wrong")
	}
	if Scope(9).String() != "Scope(9)" {
		t.Errorf("unknown scope string: %v", Scope(9))
	}
}

func TestRelevantTo(t *testing.T) {
	tests := []struct {
		name string
		a    Alarm
		u    UserID
		want bool
	}{
		{"private owner", Alarm{Scope: Private, Owner: 1}, 1, true},
		{"private other", Alarm{Scope: Private, Owner: 1}, 2, false},
		{"shared owner", Alarm{Scope: Shared, Owner: 1, Subscribers: []UserID{2}}, 1, true},
		{"shared subscriber", Alarm{Scope: Shared, Owner: 1, Subscribers: []UserID{2, 3}}, 3, true},
		{"shared outsider", Alarm{Scope: Shared, Owner: 1, Subscribers: []UserID{2}}, 4, false},
		{"public anyone", Alarm{Scope: Public, Owner: 1}, 99, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.RelevantTo(tt.u); got != tt.want {
				t.Errorf("RelevantTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestInstallValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Install(Alarm{Scope: Private, Owner: 1}); err == nil {
		t.Error("empty region should fail")
	}
	if _, err := r.Install(Alarm{Scope: 0, Owner: 1, Region: region(10, 10, 5)}); err == nil {
		t.Error("invalid scope should fail")
	}
	if _, err := r.Install(Alarm{Scope: Shared, Owner: 1, Region: region(10, 10, 5)}); err == nil {
		t.Error("shared without subscribers should fail")
	}
	id, err := r.Install(Alarm{Scope: Private, Owner: 1, Region: region(10, 10, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("expected nonzero ID")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestInstallCopiesSubscribers(t *testing.T) {
	r := NewRegistry()
	subs := []UserID{2, 3}
	id, err := r.Install(Alarm{Scope: Shared, Owner: 1, Subscribers: subs, Region: region(5, 5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	subs[0] = 99 // caller mutates its slice
	got, ok := r.Get(id)
	if !ok {
		t.Fatal("Get failed")
	}
	if got.Subscribers[0] != 2 {
		t.Error("registry aliased the caller's subscriber slice")
	}
	// And the returned copy is also detached.
	got.Subscribers[0] = 42
	got2, _ := r.Get(id)
	if got2.Subscribers[0] != 2 {
		t.Error("Get returned an aliased slice")
	}
}

func TestEvaluateAndOneShot(t *testing.T) {
	r := NewRegistry()
	id, _ := r.Install(Alarm{Scope: Private, Owner: 7, Region: region(100, 100, 20)})

	inside := geom.Pt(100, 100)
	if got := evaluate(r, inside, 7); len(got) != 1 || got[0] != id {
		t.Fatalf("Evaluate = %v, want [%d]", got, id)
	}
	// Irrelevant user sees nothing.
	if got := evaluate(r, inside, 8); len(got) != 0 {
		t.Errorf("other user triggered private alarm: %v", got)
	}
	// Outside the region nothing triggers.
	if got := evaluate(r, geom.Pt(500, 500), 7); len(got) != 0 {
		t.Errorf("outside point triggered: %v", got)
	}
	// One-shot: after firing, the alarm no longer triggers or counts as
	// relevant for that user.
	r.MarkFired(id, 7)
	if !r.Fired(id, 7) {
		t.Error("Fired not recorded")
	}
	if got := evaluate(r, inside, 7); len(got) != 0 {
		t.Errorf("fired alarm triggered again: %v", got)
	}
	if got := relevantIn(r, region(100, 100, 200), 7); len(got) != 0 {
		t.Errorf("fired alarm still relevant: %v", got)
	}
	// But it still triggers for other subscribers of a public alarm.
	pid, _ := r.Install(Alarm{Scope: Public, Owner: 1, Region: region(100, 100, 20)})
	r.MarkFired(pid, 7)
	if got := evaluate(r, inside, 9); len(got) != 1 || got[0] != pid {
		t.Errorf("public alarm should fire for another user: %v", got)
	}
	// ResetFired restores everything.
	r.ResetFired()
	if got := evaluate(r, inside, 7); len(got) != 2 {
		t.Errorf("after ResetFired, Evaluate = %v, want both alarms", got)
	}
}

func TestRelevantIn(t *testing.T) {
	r := NewRegistry()
	aPriv, _ := r.Install(Alarm{Scope: Private, Owner: 1, Region: region(50, 50, 10)})
	_, _ = r.Install(Alarm{Scope: Private, Owner: 2, Region: region(60, 60, 10)})
	aPub, _ := r.Install(Alarm{Scope: Public, Owner: 3, Region: region(70, 70, 10)})
	_, _ = r.Install(Alarm{Scope: Public, Owner: 3, Region: region(5000, 5000, 10)}) // far away

	got := relevantIn(r, geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}, 1)
	ids := map[ID]bool{}
	for _, a := range got {
		ids[a.ID] = true
	}
	if len(got) != 2 || !ids[aPriv] || !ids[aPub] {
		t.Errorf("RelevantIn = %v, want private(own)+public in window", ids)
	}
}

func TestRemove(t *testing.T) {
	r := NewRegistry()
	id, _ := r.Install(Alarm{Scope: Private, Owner: 1, Region: region(10, 10, 4)})
	if !r.Remove(id) {
		t.Fatal("Remove returned false")
	}
	if r.Remove(id) {
		t.Error("second Remove should return false")
	}
	if _, ok := r.Get(id); ok {
		t.Error("Get after Remove should fail")
	}
	if got := evaluate(r, geom.Pt(10, 10), 1); len(got) != 0 {
		t.Errorf("removed alarm evaluated: %v", got)
	}
}

func TestNearestRelevantDist(t *testing.T) {
	r := NewRegistry()
	r.Install(Alarm{Scope: Private, Owner: 1, Region: geom.Rect{MinX: 100, MinY: 0, MaxX: 110, MaxY: 10}})
	r.Install(Alarm{Scope: Private, Owner: 2, Region: geom.Rect{MinX: 20, MinY: 0, MaxX: 30, MaxY: 10}})

	// User 1 only sees its own alarm at distance 100-0=90... from origin
	// (0,5): dx to MinX=100 is 100.
	d := nearestDist(r, geom.Pt(0, 5), 1)
	if math.Abs(d-100) > 1e-9 {
		t.Errorf("dist = %v, want 100 (user 2's alarm must be ignored)", d)
	}
	// User with no relevant alarms gets +Inf.
	if d := nearestDist(r, geom.Pt(0, 5), 9); !math.IsInf(d, 1) {
		t.Errorf("dist = %v, want +Inf", d)
	}
	// After firing, the alarm stops pulling the distance in.
	id := func() ID {
		all := r.All()
		for _, a := range all {
			if a.Owner == 1 {
				return a.ID
			}
		}
		return 0
	}()
	r.MarkFired(id, 1)
	if d := nearestDist(r, geom.Pt(0, 5), 1); !math.IsInf(d, 1) {
		t.Errorf("dist after fire = %v, want +Inf", d)
	}
}

func TestMoveTarget(t *testing.T) {
	r := NewRegistry()
	id, _ := r.Install(Alarm{
		Scope:       Shared,
		Owner:       1,
		Subscribers: []UserID{2},
		Region:      region(100, 100, 20),
		Target:      5,
	})
	r.Install(Alarm{Scope: Private, Owner: 1, Region: region(300, 300, 20)}) // static

	moved := r.MoveTarget(5, geom.Pt(500, 600))
	want := region(500, 600, 20)
	if len(moved) != 1 || moved[0] != (Moved{ID: id, Scope: Shared, Old: region(100, 100, 20), New: want}) {
		t.Fatalf("MoveTarget = %v, want alarm %d from its old to its new region", moved, id)
	}
	got, _ := r.Get(id)
	if got.Region != want {
		t.Errorf("Region = %v, want %v", got.Region, want)
	}
	// Index moved with it: evaluation at new centre triggers for subscriber.
	if trig := evaluate(r, geom.Pt(500, 600), 2); len(trig) != 1 || trig[0] != id {
		t.Errorf("Evaluate at new target pos = %v", trig)
	}
	if trig := evaluate(r, geom.Pt(100, 100), 2); len(trig) != 0 {
		t.Errorf("old position still triggers: %v", trig)
	}
	// Moving a user no alarms track is a no-op.
	if moved := r.MoveTarget(99, geom.Pt(0, 0)); len(moved) != 0 {
		t.Errorf("unexpected moves: %v", moved)
	}
}

// TestConcurrentAccess hammers one registry from eight goroutines, each
// acting as one user whose shared alarms also post under its neighbour: the
// per-user records, the slab (slots are vacated and reused throughout) and
// the public tree are all read and written concurrently. Meaningful under
// -race.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const users = 8
	for g := 0; g < users; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u, neighbour := UserID(g+1), UserID((g+1)%users+1)
			for i := 0; i < 200; i++ {
				x := float64(g*1000 + i)
				a := Alarm{Scope: Public, Owner: u, Region: region(x, x, 10)}
				switch i % 4 {
				case 1:
					a.Scope, a.Subscribers, a.Target = Shared, []UserID{neighbour, u}, neighbour
				case 2:
					a.Scope, a.Kind = Private, KindContinuous
				case 3:
					a.Topic = "t"
				}
				id, err := r.Install(a)
				if err != nil {
					t.Error(err)
					return
				}
				p := geom.Pt(x, x)
				_, raw, _, _ := r.EvaluateInto(p, u, nil, nil)
				r.EvaluateLifecycleInto(u, p, uint64(i), raw, noPartner, nil)
				relevantIn(r, region(x, x, 100), u)
				r.RelevantNonPublicIn(region(x, x, 100), neighbour, nil)
				r.LifecycleViewInto(u, nil, nil)
				r.MarkFired(id, u)
				r.AnyFiredIn(region(x, x, 100), u)
				nearestDist(r, p, neighbour)
				r.MoveTarget(u, p)
				r.SubscribeTopic(u, "t")
				if i%3 == 0 {
					r.Remove(id)
					r.UnsubscribeTopic(u, "t")
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestInstallBatch(t *testing.T) {
	r := NewRegistry()
	batch := []Alarm{
		{Scope: Private, Owner: 1, Region: region(10, 10, 4)},
		{Scope: Public, Owner: 2, Region: region(50, 50, 4)},
		{Scope: Shared, Owner: 3, Subscribers: []UserID{4}, Region: region(90, 90, 4), Target: 7},
	}
	ids, err := r.InstallBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || r.Len() != 3 {
		t.Fatalf("ids=%v Len=%d", ids, r.Len())
	}
	if got := evaluate(r, geom.Pt(10, 10), 1); len(got) != 1 || got[0] != ids[0] {
		t.Errorf("bulk-loaded index missed alarm: %v", got)
	}
	if !r.IsTarget(7) {
		t.Error("target index not maintained by batch install")
	}
	// A second batch on a non-empty registry goes through inserts.
	more, err := r.InstallBatch([]Alarm{{Scope: Public, Owner: 9, Region: region(200, 200, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := evaluate(r, geom.Pt(200, 200), 5); len(got) != 1 || got[0] != more[0] {
		t.Errorf("incremental batch missed: %v", got)
	}
	// Validation rejects the whole batch atomically.
	if _, err := r.InstallBatch([]Alarm{
		{Scope: Public, Owner: 1, Region: region(1, 1, 2)},
		{Scope: Shared, Owner: 1, Region: region(2, 2, 2)}, // no subscribers
	}); err == nil {
		t.Error("invalid batch accepted")
	}
	if r.Len() != 4 {
		t.Errorf("failed batch mutated registry: Len=%d", r.Len())
	}
}

func TestInstallBatchLarge(t *testing.T) {
	r := NewRegistry()
	batch := make([]Alarm, 2000)
	for i := range batch {
		batch[i] = Alarm{Scope: Public, Owner: 1, Region: region(float64(i%100)*50, float64(i/100)*50, 10)}
	}
	if _, err := r.InstallBatch(batch); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2000 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Spot-check queries against per-alarm evaluation.
	for i := 0; i < 50; i++ {
		p := geom.Pt(float64(i*37%5000), float64(i*73%1000))
		got := evaluate(r, p, 1)
		want := 0
		for _, a := range r.All() {
			if a.Region.Contains(p) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("Evaluate(%v) = %d hits, want %d", p, len(got), want)
		}
	}
}

// TestIndexAccessCounting pins the cost model's unit: a query charges the
// public tree's node accesses plus one page per rstar.DefaultMaxEntries
// postings scanned, and every caller learns its own query's cost.
func TestIndexAccessCounting(t *testing.T) {
	r := NewRegistry()
	var batch []Alarm
	for i := 0; i < 100; i++ {
		batch = append(batch, Alarm{Scope: Public, Owner: 1, Region: region(float64(i*50), float64(i*50), 10)})
	}
	const posts = 2*rstar.DefaultMaxEntries + 1 // three pages
	for i := 0; i < posts; i++ {
		batch = append(batch, Alarm{Scope: Private, Owner: 7, Region: region(float64(i*50), 9000, 10)})
	}
	if _, err := r.InstallBatch(batch); err != nil {
		t.Fatal(err)
	}
	p, w := geom.Pt(250, 250), region(250, 250, 100)
	// User 1 has no postings: what it pays is the tree alone.
	_, _, _, treePoint := r.EvaluateInto(p, 1, nil, nil)
	_, _, treeRect := r.RelevantInInto(w, 1, nil, nil)
	_, treeNN := r.NearestRelevantDist(p, 1)
	if treePoint == 0 || treeRect == 0 || treeNN == 0 {
		t.Fatalf("tree searches uncounted: point %d, window %d, nearest %d", treePoint, treeRect, treeNN)
	}
	if _, got := r.PublicIn(w, nil); got != treeRect {
		t.Errorf("PublicIn accesses = %d, want the window search's %d", got, treeRect)
	}
	if _, _, _, got := r.EvaluateInto(p, 7, nil, nil); got != treePoint+3 {
		t.Errorf("EvaluateInto accesses = %d, want %d tree + 3 posting pages", got, treePoint)
	}
	if _, _, got := r.RelevantInInto(w, 7, nil, nil); got != treeRect+3 {
		t.Errorf("RelevantInInto accesses = %d, want %d tree + 3 posting pages", got, treeRect)
	}
	if _, got := r.NearestRelevantDist(p, 7); got != treeNN+3 {
		t.Errorf("NearestRelevantDist accesses = %d, want %d tree + 3 posting pages", got, treeNN)
	}
	// Without topic subscriptions the personal obstacles never touch the tree.
	if _, got := r.RelevantNonPublicIn(w, 7, nil); got != 3 {
		t.Errorf("RelevantNonPublicIn accesses = %d, want 3 posting pages and no tree", got)
	}
	r.SubscribeTopic(7, "traffic")
	if _, got := r.RelevantNonPublicIn(w, 7, nil); got != treeRect+3 {
		t.Errorf("RelevantNonPublicIn with a topic = %d accesses, want %d tree + 3 posting pages", got, treeRect)
	}
}

func TestTopicSubscriptions(t *testing.T) {
	r := NewRegistry()
	traffic, _ := r.Install(Alarm{Scope: Public, Owner: 1, Topic: "traffic/i85-north", Region: region(100, 100, 20)})
	broadcast, _ := r.Install(Alarm{Scope: Public, Owner: 1, Region: region(100, 100, 40)})

	inside := geom.Pt(100, 100)
	// Without a subscription only the broadcast alarm is relevant.
	if got := evaluate(r, inside, 5); len(got) != 1 || got[0] != broadcast {
		t.Fatalf("unsubscribed user: %v, want only broadcast %d", got, broadcast)
	}
	r.SubscribeTopic(5, "traffic/i85-north")
	got := evaluate(r, inside, 5)
	if len(got) != 2 {
		t.Fatalf("subscribed user: %v, want both alarms", got)
	}
	// Topic relevance feeds RelevantIn and NearestRelevantDist too.
	if got := relevantIn(r, region(100, 100, 200), 6); len(got) != 1 {
		t.Errorf("RelevantIn for unsubscribed = %d alarms, want 1", len(got))
	}
	if got := relevantIn(r, region(100, 100, 200), 5); len(got) != 2 {
		t.Errorf("RelevantIn for subscribed = %d alarms, want 2", len(got))
	}
	// Unsubscribe restores the filtered view.
	r.UnsubscribeTopic(5, "traffic/i85-north")
	if got := evaluate(r, inside, 5); len(got) != 1 {
		t.Errorf("after unsubscribe: %v", got)
	}
	// Unsubscribing a never-subscribed topic is a no-op.
	r.UnsubscribeTopic(99, "nothing")
	_ = traffic
}

func TestTopicDoesNotAffectPrivateShared(t *testing.T) {
	r := NewRegistry()
	// Topic on a private alarm is ignored: owner relevance still applies.
	id, _ := r.Install(Alarm{Scope: Private, Owner: 1, Topic: "ignored", Region: region(50, 50, 10)})
	if got := evaluate(r, geom.Pt(50, 50), 1); len(got) != 1 || got[0] != id {
		t.Errorf("private alarm with topic: %v", got)
	}
}
