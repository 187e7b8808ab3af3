package alarm

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

// Differential test of the relevance partition (slab + public tree +
// per-user postings): a brute-force reference that keeps every alarm in one
// map and answers every query with "for every installed alarm: relevant ∧
// predicate ∧ ¬fired" is driven through the same operation sequence as a
// Registry, and every query the server issues is compared after every step.
// The operations are decoded from a byte string, so the same body serves the
// seeded random test and FuzzRegistryMatchesReference.

type refKey struct {
	id ID
	u  UserID
}

type reference struct {
	alarms map[ID]Alarm
	fired  map[refKey]bool
	topics map[UserID]map[string]bool
	lc     map[refKey]lcState
	nextID ID
}

func newReference() *reference {
	return &reference{
		alarms: map[ID]Alarm{},
		fired:  map[refKey]bool{},
		topics: map[UserID]map[string]bool{},
		lc:     map[refKey]lcState{},
		nextID: 1,
	}
}

func (m *reference) relevant(a *Alarm, u UserID) bool {
	if !a.RelevantTo(u) {
		return false
	}
	return a.Scope != Public || a.Topic == "" || m.topics[u][a.Topic]
}

// ids returns, sorted, the installed alarms satisfying keep.
func (m *reference) ids(keep func(a *Alarm) bool) []ID {
	out := []ID{}
	for id, a := range m.alarms {
		if keep(&a) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (m *reference) store(a Alarm) {
	m.alarms[a.ID] = a
	if a.ID >= m.nextID {
		m.nextID = a.ID + 1
	}
}

func (m *reference) remove(id ID) bool {
	if _, ok := m.alarms[id]; !ok {
		return false
	}
	delete(m.alarms, id)
	for k := range m.lc {
		if k.id == id {
			delete(m.lc, k)
		}
	}
	return true
}

func (m *reference) apply(states []LifecycleState) {
	for _, s := range states {
		a, ok := m.alarms[s.Alarm]
		u := UserID(s.User)
		switch {
		case !ok:
			continue
		case a.Kind == KindContinuous && a.RelevantTo(u):
		case a.Kind == KindPair && (u == a.Owner || u == a.Anchor):
		default:
			continue
		}
		k := refKey{s.Alarm, u}
		cand := lcState{inside: s.Inside, occur: s.Occur, lastTick: s.LastTick}
		if cur, ok := m.lc[k]; ok && cur.progress() >= cand.progress() {
			continue
		}
		m.lc[k] = cand
	}
}

// opStream decodes operations from fuzz input; an exhausted stream reads
// zeros.
type opStream struct {
	data []byte
	i    int
}

func (s *opStream) next() int {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return int(s.data[s.i-1])
}

const (
	gridStep  = 10.0
	gridCells = 16
	testUsers = 6 // alarms belong to users 1..testUsers; 0 and testUsers+1 own nothing
)

// rect draws a grid-aligned rectangle, so windows and regions touch along
// shared edges all the time.
func (s *opStream) rect() geom.Rect {
	a, b := s.next(), s.next()
	x, y := float64(a%gridCells)*gridStep, float64(a/gridCells%gridCells)*gridStep
	return geom.R(x, y, x+float64(1+b%4)*gridStep, y+float64(1+b/4%4)*gridStep)
}

func (s *opStream) point() geom.Point {
	a := s.next()
	return geom.Pt(float64(a%gridCells)*gridStep, float64(a/gridCells%gridCells)*gridStep)
}

func (s *opStream) user() UserID { return UserID(s.next()%testUsers + 1) }

// alarm draws an alarm of any kind and scope that validation accepts, or,
// rarely, one it must reject.
func (s *opStream) alarm() Alarm {
	shape := s.next()
	a := Alarm{Owner: s.user(), Kind: LifecycleKind(shape % 4), Scope: Scope(shape/4%3 + 1)}
	if shape >= 250 {
		a.Scope = 0 // invalid
	}
	if a.Scope == Shared || a.Kind == KindPair {
		// Repeated subscribers and the owner among them are fair game.
		for n := 1 + s.next()%4; n > 0; n-- {
			a.Subscribers = append(a.Subscribers, s.user())
		}
	}
	switch a.Kind {
	case KindOneShot:
		a.Region = s.rect()
		if a.Scope == Public {
			a.Topic = []string{"", "", "a", "b"}[s.next()%4]
		}
		if t := s.next(); t%4 == 0 {
			a.Target = UserID(t/4%testUsers + 1)
		}
	case KindContinuous:
		if a.Scope == Public {
			a.Scope = Private
		}
		a.Region = s.rect()
		a.Cooldown = uint32(s.next() % 3)
	case KindPair:
		a.Scope = Shared
		a.Anchor = a.Owner%testUsers + 1
		a.Radius = float64(1 + s.next()%30)
	case KindComposite:
		if a.Scope == Public {
			a.Scope = Shared
			a.Subscribers = []UserID{s.user()}
		}
		r := s.rect()
		a.Factors = []Factor{{Region: r, Weight: 1}, {Center: r.Center(), Radius: 5 + float64(s.next()%20), Weight: 1}}
		a.Threshold = 1
		a.ExpiresAt = uint64(s.next() % 8) // 0 = no TTL
	}
	return a
}

// normalized returns the alarm as the registry stores it, or why it would
// be rejected, without touching the caller's slices.
func normalized(a Alarm) (Alarm, error) {
	a.Subscribers = slices.Clone(a.Subscribers)
	err := validate(&a)
	return a, err
}

// diff is one registry and its reference under the same operations.
type diff struct {
	t    testing.TB
	r    *Registry
	m    *reference
	tick uint64
}

func (d *diff) installed() []ID { return d.m.ids(func(*Alarm) bool { return true }) }

// pick draws an alarm ID: usually an installed one, sometimes not.
func (d *diff) pick(s *opStream) ID {
	b := s.next()
	if ids := d.installed(); len(ids) > 0 && b%8 != 0 {
		return ids[b%len(ids)]
	}
	return ID(b%40 + 1)
}

func (d *diff) step(s *opStream) {
	t, r, m := d.t, d.r, d.m
	switch op := s.next() % 16; op {
	case 0, 1, 2, 3: // install through each path
		batch := make([]Alarm, 1+s.next()%3)
		if op == 0 {
			batch = batch[:1]
		}
		ids := make([]ID, len(batch))
		var wantErr bool
		for i := range batch {
			batch[i] = s.alarm()
			ids[i] = m.nextID + ID(i)
			_, rejected := normalized(batch[i])
			wantErr = wantErr || rejected != nil
		}
		var err error
		switch op {
		case 0:
			ids[0], err = r.Install(batch[0])
		case 1, 2:
			ids, err = r.InstallBatch(batch)
		case 3:
			gap := ID(s.next() % 3)
			for i := range batch {
				ids[i] += gap
				batch[i].ID = ids[i]
			}
			err = r.InstallAssigned(batch)
		}
		if (err != nil) != wantErr {
			t.Fatalf("install op %d: err = %v, want error %v", op, err, wantErr)
		}
		if err != nil {
			break
		}
		for i, a := range batch {
			if op != 3 && ids[i] != m.nextID {
				t.Fatalf("install assigned ID %d, want %d", ids[i], m.nextID)
			}
			a.ID = ids[i]
			a, _ = normalized(a)
			m.store(a)
		}
	case 4, 5:
		id := d.pick(s)
		if got, want := r.Remove(id), m.remove(id); got != want {
			t.Fatalf("Remove(%d) = %v, want %v", id, got, want)
		}
	case 6:
		d.tick += uint64(s.next() % 3)
		want := m.ids(func(a *Alarm) bool {
			return a.Kind == KindComposite && a.ExpiresAt != 0 && d.tick >= a.ExpiresAt
		})
		for _, id := range want {
			m.remove(id)
		}
		if got := r.ExpireDue(d.tick); !slices.Equal(got, want) {
			t.Fatalf("ExpireDue(%d) = %v, want %v", d.tick, got, want)
		}
	case 7:
		u, pos := s.user(), s.point()
		want := map[ID]Moved{}
		for id, a := range m.alarms {
			if a.Target != u {
				continue
			}
			w, h := a.Region.Width(), a.Region.Height()
			old := a.Region
			a.Region = geom.Rect{MinX: pos.X - w/2, MinY: pos.Y - h/2, MaxX: pos.X + w/2, MaxY: pos.Y + h/2}
			m.alarms[id] = a
			want[id] = Moved{ID: id, Scope: a.Scope, Old: old, New: a.Region}
		}
		got := r.MoveTarget(u, pos)
		if len(got) != len(want) {
			t.Fatalf("MoveTarget(%d) moved %d alarms, want %d", u, len(got), len(want))
		}
		for _, mv := range got {
			if want[mv.ID] != mv {
				t.Fatalf("MoveTarget(%d): %+v, want %+v", u, mv, want[mv.ID])
			}
		}
	case 8, 9:
		id, u := d.pick(s), s.user()
		r.MarkFired(id, u)
		m.fired[refKey{id, u}] = true
	case 10:
		if s.next()%4 == 0 { // rare: it wipes what the other steps built up
			r.ResetFired()
			m.fired, m.lc = map[refKey]bool{}, map[refKey]lcState{}
		}
	case 11, 12:
		u, topic := s.user(), []string{"a", "b"}[s.next()%2]
		if op == 11 {
			r.SubscribeTopic(u, topic)
			if m.topics[u] == nil {
				m.topics[u] = map[string]bool{}
			}
			m.topics[u][topic] = true
		} else {
			r.UnsubscribeTopic(u, topic)
			delete(m.topics[u], topic)
		}
	case 13, 14:
		var states []LifecycleState
		for n := 1 + s.next()%3; n > 0; n-- {
			b := s.next()
			states = append(states, LifecycleState{
				Alarm: d.pick(s), User: uint64(s.user()),
				Inside: b%2 == 0, Occur: uint32(b / 2 % 4), LastTick: uint64(b / 8),
			})
		}
		r.ApplyLifecycleStates(states)
		m.apply(states)
	case 15: // recovery: topic subscriptions are soft state and do not survive
		var err error
		if s.next()%2 == 0 {
			var buf bytes.Buffer
			if err = r.Snapshot(&buf); err == nil {
				d.r, err = LoadRegistry(&buf)
			}
			for k := range m.fired { // a snapshot keeps the pairs of its own alarms only
				if _, ok := m.alarms[k.id]; !ok {
					delete(m.fired, k)
				}
			}
		} else {
			states := r.LifecycleStates()
			if d.r, err = Restore(r.All(), r.FiredPairs(), r.NextID()); err == nil {
				d.r.ApplyLifecycleStates(states)
			}
		}
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		m.topics = map[UserID]map[string]bool{}
	}
}

func idsOf(alarms []Alarm) []ID {
	out := []ID{}
	for _, a := range alarms {
		out = append(out, a.ID)
	}
	slices.Sort(out)
	return out
}

// check compares every query against the reference for every user, on a
// window and a point drawn from the stream and on the whole plane.
func (d *diff) check(s *opStream) {
	t, r, m := d.t, d.r, d.m
	d.structure()
	if got, want := r.Len(), len(m.alarms); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := r.NextID(), m.nextID; got != want {
		t.Fatalf("NextID = %d, want %d", got, want)
	}
	publics := 0
	for id, want := range m.alarms {
		got, ok := r.Get(id)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%d) = %+v, %v; want %+v", id, got, ok, want)
		}
		if want.Scope == Public {
			publics++
		}
		subs := r.SubscribersOf(id)
		slices.Sort(subs)
		var wantSubs []UserID
		switch want.Scope {
		case Private:
			wantSubs = []UserID{want.Owner}
		case Shared:
			wantSubs = append(slices.Clone(want.Subscribers), want.Owner)
			slices.Sort(wantSubs)
		}
		if !slices.Equal(slices.Compact(subs), slices.Compact(wantSubs)) {
			t.Fatalf("SubscribersOf(%d) = %v, want the set %v", id, subs, wantSubs)
		}
	}
	var wantFired []FiredPair
	for k := range m.fired {
		wantFired = append(wantFired, FiredPair{Alarm: k.id, User: uint64(k.u)})
	}
	gotFired := r.FiredPairs()
	sort.Slice(wantFired, func(i, j int) bool {
		a, b := wantFired[i], wantFired[j]
		return a.Alarm < b.Alarm || a.Alarm == b.Alarm && a.User < b.User
	})
	if !slices.Equal(gotFired, wantFired) {
		t.Fatalf("FiredPairs = %v, want %v", gotFired, wantFired)
	}

	everything := geom.R(-1e6, -1e6, 1e6, 1e6)
	windows := []geom.Rect{s.rect(), everything}
	points := []geom.Point{s.point(), geom.Pt(gridStep*gridCells/2+1, gridStep*gridCells/2-3)}
	for u := UserID(0); u <= testUsers+1; u++ {
		unfired := func(a *Alarm) bool { return a.indexed() && m.relevant(a, u) && !m.fired[refKey{a.ID, u}] }
		spent := func(a *Alarm) bool { return a.indexed() && m.relevant(a, u) && m.fired[refKey{a.ID, u}] }
		broadcast := func(a *Alarm) bool { return a.Scope == Public && a.Topic == "" }

		for _, w := range windows {
			in := func(a *Alarm) bool { return a.Region.Intersects(w) }

			got, _, accesses := r.RelevantInInto(w, u, nil, nil)
			if want := m.ids(func(a *Alarm) bool { return unfired(a) && in(a) }); !slices.Equal(idsOf(got), want) {
				t.Fatalf("RelevantInInto(%v, %d) = %v, want %v", w, u, idsOf(got), want)
			}
			for _, a := range got {
				if !reflect.DeepEqual(a, m.alarms[a.ID]) {
					t.Fatalf("RelevantInInto(%v, %d) returned %+v, installed is %+v", w, u, a, m.alarms[a.ID])
				}
			}
			if accesses == 0 {
				t.Fatalf("RelevantInInto(%v, %d) searched the tree for free", w, u)
			}

			got, _ = r.RelevantNonPublicIn(w, u, nil)
			if want := m.ids(func(a *Alarm) bool { return unfired(a) && in(a) && !broadcast(a) }); !slices.Equal(idsOf(got), want) {
				t.Fatalf("RelevantNonPublicIn(%v, %d) = %v, want %v", w, u, idsOf(got), want)
			}

			if got, want := r.AnyFiredIn(w, u), len(m.ids(func(a *Alarm) bool { return spent(a) && in(a) })) > 0; got != want {
				t.Fatalf("AnyFiredIn(%v, %d) = %v, want %v", w, u, got, want)
			}
			if got, want := r.AnyFiredPublicIn(w, u), len(m.ids(func(a *Alarm) bool { return spent(a) && in(a) && broadcast(a) })) > 0; got != want {
				t.Fatalf("AnyFiredPublicIn(%v, %d) = %v, want %v", w, u, got, want)
			}
		}

		for _, p := range points {
			at := func(a *Alarm) bool { return a.Region.Contains(p) }

			got, raw, candidates, accesses := r.EvaluateInto(p, u, nil, nil)
			slices.Sort(got)
			if want := m.ids(func(a *Alarm) bool { return unfired(a) && at(a) && a.Kind == KindOneShot }); !slices.Equal(got, want) {
				t.Fatalf("EvaluateInto(%v, %d) = %v, want %v", p, u, got, want)
			}
			// The raw hits: every public alarm containing p, and every
			// posted alarm relevant to u containing p, fired or not.
			hits := []ID{}
			for _, slot := range raw {
				hits = append(hits, r.slab[slot].ID)
			}
			slices.Sort(hits)
			if want := m.ids(func(a *Alarm) bool {
				return a.indexed() && at(a) && (a.Scope == Public || a.RelevantTo(u))
			}); !slices.Equal(hits, want) || candidates != len(raw) {
				t.Fatalf("EvaluateInto(%v, %d) raw hits = %v (%d candidates), want %v", p, u, hits, candidates, want)
			}
			if accesses == 0 {
				t.Fatalf("EvaluateInto(%v, %d) searched the tree for free", p, u)
			}

			want := math.Inf(1)
			for _, a := range m.alarms {
				if unfired(&a) {
					want = math.Min(want, a.Region.MinDist(p))
				}
			}
			if got, accesses := r.NearestRelevantDist(p, u); got != want || (publics > 0 && accesses == 0) {
				t.Fatalf("NearestRelevantDist(%v, %d) = %v (%d accesses), want %v", p, u, got, accesses, want)
			}
		}

		var wantLC []LifecycleState
		for k, st := range m.lc {
			if k.u == u {
				wantLC = append(wantLC, LifecycleState{Alarm: k.id, User: uint64(u), Inside: st.inside, Occur: st.occur, LastTick: st.lastTick})
			}
		}
		sortLifecycleStates(wantLC)
		if got := r.LifecycleStatesFor(u); !slices.Equal(got, wantLC) {
			t.Fatalf("LifecycleStatesFor(%d) = %+v, want %+v", u, got, wantLC)
		}
		inside, pairs := r.LifecycleViewInto(u, nil, nil)
		gotInside := []ID{}
		for _, in := range inside {
			if in.Region != m.alarms[in.ID].Region {
				t.Fatalf("LifecycleViewInto(%d): alarm %d at %v, installed at %v", u, in.ID, in.Region, m.alarms[in.ID].Region)
			}
			gotInside = append(gotInside, in.ID)
		}
		slices.Sort(gotInside)
		wantInside := m.ids(func(a *Alarm) bool { return a.Kind == KindContinuous && m.lc[refKey{a.ID, u}].inside })
		wantPairs := m.ids(func(a *Alarm) bool { return a.Kind == KindPair && (a.Owner == u || a.Anchor == u) })
		if !slices.Equal(gotInside, wantInside) || len(pairs) != len(wantPairs) {
			t.Fatalf("LifecycleViewInto(%d) = inside %v, %d pairs; want inside %v, %d pairs", u, gotInside, len(pairs), wantInside, len(wantPairs))
		}
		if got, want := r.IsTarget(u), len(m.ids(func(a *Alarm) bool { return a.Target == u && u != 0 })) > 0; got != want {
			t.Fatalf("IsTarget(%d) = %v, want %v", u, got, want)
		}
	}
	for _, w := range windows {
		got, accesses := r.PublicIn(w, nil)
		var want []geom.Rect
		for _, a := range m.alarms {
			if a.Scope == Public && a.Topic == "" && a.Region.Intersects(w) {
				want = append(want, a.Region)
			}
		}
		for _, l := range [][]geom.Rect{got, want} {
			sort.Slice(l, func(i, j int) bool {
				return l[i].MinX < l[j].MinX || l[i].MinX == l[j].MinX && (l[i].MinY < l[j].MinY ||
					l[i].MinY == l[j].MinY && (l[i].MaxX < l[j].MaxX || l[i].MaxX == l[j].MaxX && l[i].MaxY < l[j].MaxY))
			})
		}
		if !slices.Equal(got, want) || accesses == 0 {
			t.Fatalf("PublicIn(%v) = %v (%d accesses), want %v", w, got, accesses, want)
		}
	}
}

// structure checks the partition's own invariants: slots are live or on
// the free list, every alarm sits in exactly the index its scope and kind
// call for, once per subscriber, and no record outlives its content.
func (d *diff) structure() {
	t, r := d.t, d.r
	if len(r.byID)+len(r.free) != len(r.slab) {
		t.Fatalf("slab of %d slots holds %d alarms and %d free slots", len(r.slab), len(r.byID), len(r.free))
	}
	for _, slot := range r.free {
		if !reflect.DeepEqual(r.slab[slot], Alarm{}) {
			t.Fatalf("free slot %d still holds %+v", slot, r.slab[slot])
		}
	}
	posted, paired, targeted, publics, lifecycle := 0, 0, 0, 0, 0
	for id, slot := range r.byID {
		a := &r.slab[slot]
		if a.ID != id {
			t.Fatalf("byID[%d] = slot %d, which holds alarm %d", id, slot, a.ID)
		}
		if a.Scope == Public {
			publics++
		}
		if a.Kind != KindOneShot {
			lifecycle++
		}
	}
	if r.public.Len() != publics || int(r.lifecycle.Load()) != lifecycle {
		t.Fatalf("tree holds %d of %d public alarms; lifecycle gate reads %d of %d", r.public.Len(), publics, r.lifecycle.Load(), lifecycle)
	}
	for u, rec := range r.users {
		if rec.empty() {
			t.Fatalf("user %d keeps an empty record", u)
		}
		seen := map[uint32]bool{}
		for _, slot := range rec.posts {
			if a := &r.slab[slot]; seen[slot] || !a.posted() || !a.RelevantTo(u) {
				t.Fatalf("user %d: posting of slot %d (%+v) is a duplicate or does not belong", u, slot, *a)
			}
			seen[slot] = true
			posted++
		}
		for _, slot := range rec.pairs {
			if a := &r.slab[slot]; a.Kind != KindPair || (a.Owner != u && a.Anchor != u) {
				t.Fatalf("user %d: pair list holds slot %d (%+v)", u, slot, *a)
			}
			paired++
		}
		for _, slot := range rec.targets {
			if r.slab[slot].Target != u {
				t.Fatalf("user %d: target list holds slot %d (%+v)", u, slot, r.slab[slot])
			}
			targeted++
		}
		for _, mc := range rec.lc {
			if !slices.Contains(rec.posts, mc.slot) && !slices.Contains(rec.pairs, mc.slot) {
				t.Fatalf("user %d: machine for slot %d, which is not posted under them", u, mc.slot)
			}
		}
		if !slices.IsSorted(rec.fired) {
			t.Fatalf("user %d: fired set %v is not sorted", u, rec.fired)
		}
	}
	wantPosted, wantPaired, wantTargeted := 0, 0, 0
	for _, a := range d.m.alarms {
		switch {
		case a.Kind == KindPair:
			wantPaired += 2
		case a.Scope == Private:
			wantPosted++
		case a.Scope == Shared:
			users := append(slices.Clone(a.Subscribers), a.Owner)
			slices.Sort(users)
			wantPosted += len(slices.Compact(users))
		}
		if a.Target != 0 {
			wantTargeted++
		}
	}
	if posted != wantPosted || paired != wantPaired || targeted != wantTargeted || int(r.moving.Load()) != targeted {
		t.Fatalf("%d postings, %d pair entries, %d targets; want %d, %d, %d", posted, paired, targeted, wantPosted, wantPaired, wantTargeted)
	}
}

func runRegistryDiff(t testing.TB, data []byte) {
	d := &diff{t: t, r: NewRegistry(), m: newReference()}
	s := &opStream{data: data}
	d.check(s)
	for s.i < len(s.data) {
		d.step(s)
		d.check(s)
	}
}

func TestRegistryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for run := 0; run < 150; run++ {
		data := make([]byte, 100+rng.Intn(900))
		rng.Read(data)
		runRegistryDiff(t, data)
	}
}

func FuzzRegistryMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		data := make([]byte, 300)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step is followed by a full comparison, so a sequence costs
		// its length squared; a few hundred bytes already reach slot reuse,
		// recovery and every install path.
		runRegistryDiff(t, data[:min(len(data), 600)])
	})
}
