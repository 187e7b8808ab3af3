package alarm

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

func buildPopulated(t *testing.T) (*Registry, []ID) {
	t.Helper()
	r := NewRegistry()
	ids := make([]ID, 0, 6)
	add := func(a Alarm) {
		id, err := r.Install(a)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	add(Alarm{Scope: Private, Owner: 1, Region: region(100, 100, 20)})
	add(Alarm{Scope: Private, Owner: 2, Region: region(300, 100, 20)})
	add(Alarm{Scope: Shared, Owner: 1, Subscribers: []UserID{2, 3}, Region: region(500, 500, 40)})
	add(Alarm{Scope: Public, Owner: 4, Region: region(700, 700, 60)})
	add(Alarm{Scope: Shared, Owner: 5, Subscribers: []UserID{6}, Region: region(900, 900, 30), Target: 7})
	r.MarkFired(ids[0], 1)
	r.MarkFired(ids[3], 2)
	r.MarkFired(ids[3], 9)
	return r, ids
}

func TestSnapshotRoundTrip(t *testing.T) {
	r, ids := buildPopulated(t)
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRegistry(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != r.Len() {
		t.Fatalf("Len = %d, want %d", restored.Len(), r.Len())
	}
	// Alarms identical, including subscribers and targets.
	for _, id := range ids {
		want, _ := r.Get(id)
		got, ok := restored.Get(id)
		if !ok {
			t.Fatalf("alarm %d missing after restore", id)
		}
		if got.Scope != want.Scope || got.Owner != want.Owner ||
			got.Region != want.Region || got.Target != want.Target ||
			len(got.Subscribers) != len(want.Subscribers) {
			t.Errorf("alarm %d differs: %+v vs %+v", id, got, want)
		}
	}
	// Fired state preserved: one-shot semantics resume.
	if evaluate(restored, geom.Pt(100, 100), 1) != nil {
		t.Error("fired private alarm re-armed after restore")
	}
	if got := evaluate(restored, geom.Pt(700, 700), 2); len(got) != 0 {
		t.Error("fired public pair re-armed after restore")
	}
	if got := evaluate(restored, geom.Pt(700, 700), 5); len(got) != 1 {
		t.Errorf("unfired public pair lost: %v", got)
	}
	// Target index rebuilt.
	if !restored.IsTarget(7) {
		t.Error("target index lost")
	}
	// ID allocation continues without collisions.
	newID, err := restored.Install(Alarm{Scope: Private, Owner: 9, Region: region(50, 50, 10)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if newID == id {
			t.Fatalf("restored registry reissued id %d", id)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	r, _ := buildPopulated(t)
	var a, b bytes.Buffer
	if err := r.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("snapshots of identical state differ")
	}
}

func TestLoadRegistryRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"wrong version":  `{"version": 99, "nextId": 1}`,
		"empty region":   `{"version": 1, "nextId": 2, "alarms": [{"id": 1, "scope": 1, "owner": 1, "region": [5,5,5,5]}]}`,
		"bad scope":      `{"version": 1, "nextId": 2, "alarms": [{"id": 1, "scope": 9, "owner": 1, "region": [0,0,5,5]}]}`,
		"duplicate id":   `{"version": 1, "nextId": 3, "alarms": [{"id": 1, "scope": 1, "owner": 1, "region": [0,0,5,5]}, {"id": 1, "scope": 1, "owner": 2, "region": [10,10,15,15]}]}`,
		"dangling fired": `{"version": 1, "nextId": 2, "alarms": [], "fired": [{"alarm": 5, "user": 1}]}`,
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadRegistry(strings.NewReader(input)); err == nil {
				t.Error("corrupt snapshot accepted")
			}
		})
	}
}

func TestSnapshotLargeRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRegistry()
	batch := make([]Alarm, 3000)
	for i := range batch {
		batch[i] = Alarm{
			Scope:  Public,
			Owner:  UserID(rng.Intn(100) + 1),
			Region: region(rng.Float64()*10000, rng.Float64()*10000, 50),
		}
	}
	ids, err := r.InstallBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		r.MarkFired(ids[rng.Intn(len(ids))], UserID(rng.Intn(100)+1))
	}
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadRegistry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Spatial queries agree between original and restored registries.
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		u := UserID(rng.Intn(100) + 1)
		a := evaluate(r, p, u)
		b := evaluate(restored, p, u)
		if len(a) != len(b) {
			t.Fatalf("query disagreement at %v: %d vs %d", p, len(a), len(b))
		}
	}
}
