// Package alarm models spatial alarms and their server-side registry.
//
// A spatial alarm (paper §1) is a one-shot, location-triggered notification
// defined by an alarm target (a future location reference), an owner (the
// publisher) and a set of subscribers. By publish–subscribe scope, alarms
// are private (owner only), shared (owner plus an authorized subscriber
// list) or public (all mobile users; the paper's evaluation assumes public
// alarms are subscribed to by everyone).
//
// The registry partitions alarms by relevance, as the paper's §4.2 already
// does: public alarms, which concern everyone, sit in one R*-tree (paper
// §5.1); private and shared alarms are posted under each user they can fire
// for, so a position report only ever touches its own. It also tracks
// per-(alarm, subscriber) trigger state: an alarm fires at most once per
// subscriber and stops being relevant to that subscriber afterwards.
//
// Alarms on moving targets are supported by re-anchoring the alarm region
// when the target reports a new position (paper §1's "moving target"
// classes); the experiments use static targets, matching the paper's
// evaluation setup.
package alarm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/rstar"
)

// ID identifies an installed alarm.
type ID uint64

// UserID identifies a mobile user.
type UserID uint64

// Scope is the publish–subscribe scope of an alarm.
type Scope int

// Alarm scopes (paper §1).
const (
	Private Scope = iota + 1
	Shared
	Public
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case Private:
		return "private"
	case Shared:
		return "shared"
	case Public:
		return "public"
	default:
		return fmt.Sprintf("Scope(%d)", int(s))
	}
}

// Alarm is one installed spatial alarm.
type Alarm struct {
	ID    ID
	Scope Scope
	// Owner is the publisher. For private alarms the owner is the sole
	// subscriber; for shared alarms the owner is typically also in
	// Subscribers.
	Owner UserID
	// Subscribers is the authorized subscriber list for shared alarms.
	// Ignored for private (owner only) and public (everyone) alarms.
	Subscribers []UserID
	// Region is the spatial trigger region.
	Region geom.Rect
	// Target, when non-zero, names the mobile user the alarm region is
	// anchored to ("moving target" alarms). The region is recentred on the
	// target's position, preserving its extent, whenever the target moves.
	Target UserID
	// Topic optionally scopes a public alarm to a subscription topic
	// (paper §1: "mobile users may subscribe to public alarms by topic
	// categories or keywords, such as 'traffic information on highway 85
	// North'"). Empty means broadcast to everyone — the paper's
	// evaluation default. Ignored for private and shared alarms.
	Topic string
	// Kind selects the alarm's trigger lifecycle (lifecycle.go). The
	// zero value is the paper's one-shot alarm; the fields below apply
	// only to the kind that names them.
	Kind LifecycleKind
	// Cooldown (continuous, pair) is the minimum number of logical ticks
	// after an exit before the alarm may fire an entry again (0 = none).
	Cooldown uint32
	// Anchor (pair) is the second mobile endpoint; the alarm fires when
	// Owner and Anchor come within Radius of each other.
	Anchor UserID
	// Radius (pair) is the proximity threshold in meters.
	Radius float64
	// Factors (composite) are the weighted risk factors; Region is
	// derived as the union of their bounds.
	Factors []Factor
	// Threshold (composite) is the severity at or above which the alarm
	// fires.
	Threshold float64
	// ExpiresAt (composite) is the logical tick at which the alarm
	// expires and is GC'd (0 = never).
	ExpiresAt uint64
}

// RelevantTo reports whether the alarm can trigger for user u, ignoring
// trigger state and topic subscriptions (topic filtering needs the
// registry's subscription table; see Registry).
func (a *Alarm) RelevantTo(u UserID) bool {
	switch a.Scope {
	case Public:
		return true
	case Private:
		return a.Owner == u
	case Shared:
		if a.Owner == u {
			return true
		}
		for _, s := range a.Subscribers {
			if s == u {
				return true
			}
		}
	}
	return false
}

// userRec is everything the registry knows about one user: which alarms
// can fire for them and what already has. A position report looks its
// user's record up once and from then on only touches that user's alarms.
// Slot numbers index Registry.slab.
type userRec struct {
	// posts are the indexed private and shared alarms the user owns or
	// subscribes to, each once, in install order.
	posts []uint32
	// fired holds, sorted, the alarms spent for the user. Entries outlive
	// the alarm's removal: IDs are never reused, and an alarm GC'd off a
	// shard and later re-adopted must not fire twice.
	fired []ID
	// stamp marks the record as visited during one walk over an alarm's
	// subscribers, so a user listed twice is posted once.
	stamp uint64
	// Most users are the owner of an alarm or two and nothing else, and
	// there is a record per user: the rest is shared (noExtra, read-only)
	// until own gives the user a private copy to write to.
	*userExtra
}

// userExtra is the part of a user's record that few users have.
type userExtra struct {
	// pairs are the pair alarms the user is an endpoint of (pair alarms
	// have no static region, so nothing spatial can reach them).
	pairs []uint32
	// targets are the alarms anchored to the user's position, so MoveTarget
	// costs O(alarms on that target), not O(all alarms).
	targets []uint32
	// lc holds the user's continuous and pair machines that have left the
	// initial Armed state.
	lc []machine
	// topics are the user's public-alarm topic subscriptions.
	topics []string
}

var (
	noExtra userExtra
	// noUser stands in for users the registry holds no record of. Read-only.
	noUser = userRec{userExtra: &noExtra}
)

// own returns the record's userExtra for writing.
func (u *userRec) own() *userExtra {
	if u.userExtra == &noExtra {
		u.userExtra = &userExtra{}
	}
	return u.userExtra
}

func (u *userRec) hasFired(id ID) bool {
	_, ok := slices.BinarySearch(u.fired, id)
	return ok
}

// wantsPublic reports whether public alarm a can still fire for the user:
// broadcast or on a subscribed topic, and not spent.
func (u *userRec) wantsPublic(a *Alarm) bool {
	return (a.Topic == "" || slices.Contains(u.topics, a.Topic)) && !u.hasFired(a.ID)
}

func (u *userRec) empty() bool {
	return len(u.posts)+len(u.pairs)+len(u.targets)+len(u.fired)+len(u.lc)+len(u.topics) == 0
}

// dropSlot removes slot from a posting list, keeping install order.
func dropSlot(list []uint32, slot uint32) []uint32 {
	if i := slices.Index(list, slot); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// postingPages is what scanning n postings costs in the cost model's unit,
// R*-tree node accesses: a posting list is a chain of full leaf pages.
func postingPages(n int) uint64 {
	return uint64((n + rstar.DefaultMaxEntries - 1) / rstar.DefaultMaxEntries)
}

// Registry is the server-side store of installed alarms. It is safe for
// concurrent use: queries share a read lock; installs, removals, MarkFired
// and lifecycle transitions take the write lock.
type Registry struct {
	mu sync.RWMutex
	// slab holds the installed alarms densely. A slot number is the payload
	// of the public tree, of every posting and of every lifecycle machine;
	// a vacant slot has ID 0 and waits in free for reuse.
	slab []Alarm
	free []uint32
	// byID resolves an ID to its slot for Get, Remove and recovery — never
	// on the report path.
	byID map[ID]uint32
	// public indexes the regions of public alarms only, broadcast and
	// topic-scoped alike.
	public *rstar.Tree
	users  map[UserID]*userRec
	// stamp is the current subscriber walk (see userRec.stamp).
	stamp  uint64
	nextID ID
	// lifecycle counts the installed non-one-shot alarms, moving the
	// installed alarms anchored to a moving target: lock-free gates that
	// keep lifecycle evaluation and target re-anchoring out of workloads
	// that have neither.
	lifecycle, moving atomic.Int32
	// nextExpiry is a lower bound on the earliest ExpiresAt among the
	// installed alarms (0 = none has a TTL), so ExpireDue scans only on a
	// tick something can be due. Every install lowers it; a removal leaves
	// it stale, which costs one scan that finds nothing and recomputes it.
	nextExpiry uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[ID]uint32),
		public: rstar.New(rstar.DefaultMaxEntries),
		users:  make(map[UserID]*userRec),
		nextID: 1,
	}
}

// user returns u's record for reading; callers hold r.mu.
func (r *Registry) user(u UserID) *userRec {
	if rec := r.users[u]; rec != nil {
		return rec
	}
	return &noUser
}

// userLocked returns u's record for writing, creating it on first use.
// Callers hold the write lock.
func (r *Registry) userLocked(u UserID) *userRec {
	rec := r.users[u]
	if rec == nil {
		rec = &userRec{userExtra: &noExtra}
		r.users[u] = rec
	}
	return rec
}

// releaseLocked forgets u's record once nothing is left in it.
func (r *Registry) releaseLocked(u UserID, rec *userRec) {
	if rec.empty() {
		delete(r.users, u)
	}
}

// posted reports whether the alarm lives in posting lists: every indexed
// alarm that is not public.
func (a *Alarm) posted() bool { return a.Scope != Public && a.indexed() }

// eachSubscriberLocked calls f once with the record of every user the
// alarm is posted under — the owner and each distinct subscriber.
func (r *Registry) eachSubscriberLocked(a *Alarm, f func(UserID, *userRec)) {
	r.stamp++
	visit := func(u UserID) {
		if rec := r.userLocked(u); rec.stamp != r.stamp {
			rec.stamp = r.stamp
			f(u, rec)
		}
	}
	visit(a.Owner)
	if a.Scope == Shared {
		for _, s := range a.Subscribers {
			visit(s)
		}
	}
}

// validate checks an alarm before any install or restore path stores it,
// normalizing derived fields in place (see validateLifecycle).
func validate(a *Alarm) error {
	if err := validateLifecycle(a); err != nil {
		return err
	}
	if a.indexed() && a.Region.Empty() {
		return fmt.Errorf("empty region %v", a.Region)
	}
	switch a.Scope {
	case Private, Shared, Public:
	default:
		return fmt.Errorf("invalid scope %d", a.Scope)
	}
	if a.Scope == Shared && len(a.Subscribers) == 0 {
		return fmt.Errorf("shared alarm requires subscribers")
	}
	return nil
}

// Install validates and stores an alarm, assigning its ID. The returned ID
// identifies the alarm in all other calls.
func (r *Registry) Install(a Alarm) (ID, error) {
	ids, err := r.InstallBatch([]Alarm{a})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InstallBatch validates and stores a whole alarm table at once, assigning
// consecutive IDs (written back into alarms, as validation's normalized
// fields are). Either all alarms are installed or none.
func (r *Registry) InstallBatch(alarms []Alarm) ([]ID, error) {
	for i := range alarms {
		if err := validate(&alarms[i]); err != nil {
			return nil, fmt.Errorf("alarm %d: %w", i, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextID+ID(len(alarms)) > MaxLifecycleID+1 {
		return nil, fmt.Errorf("alarm: ID space exhausted")
	}
	ids := make([]ID, len(alarms))
	for i := range alarms {
		ids[i] = r.nextID + ID(i)
		alarms[i].ID = ids[i]
	}
	r.installLocked(alarms)
	return ids, nil
}

// installLocked stores validated alarms that carry their IDs. Into an empty
// registry the slab and the posting lists are sized exactly first and the
// public tree is STR bulk-loaded (40× faster than one-by-one insertion for
// the paper's 10,000-alarm default); otherwise everything grows by append
// and the tree takes individual inserts.
func (r *Registry) installLocked(alarms []Alarm) {
	if len(r.slab) == 0 {
		r.reserveLocked(alarms)
	}
	var items []rstar.Item
	for i := range alarms {
		slot := r.storeLocked(&alarms[i])
		if alarms[i].Scope == Public {
			items = append(items, rstar.Item{ID: uint64(slot), Rect: alarms[i].Region})
		}
	}
	r.public.InsertBatch(items)
}

// reserveLocked gives the slab, and every posting list the alarms will
// fill, its exact capacity — count, then carve the lists out of one array.
func (r *Registry) reserveLocked(alarms []Alarm) {
	r.slab = make([]Alarm, 0, len(alarms))
	counts := make(map[*userRec]int)
	total := 0
	for i := range alarms {
		if a := &alarms[i]; a.posted() {
			r.eachSubscriberLocked(a, func(_ UserID, rec *userRec) {
				counts[rec]++
				total++
			})
		}
	}
	pool := make([]uint32, total)
	for rec, n := range counts {
		rec.posts, pool = pool[:0:n], pool[n:]
	}
}

// storeLocked puts one validated alarm in a slab slot and in every index
// but the public tree (installLocked batches those inserts), and returns
// the slot.
func (r *Registry) storeLocked(a *Alarm) uint32 {
	var slot uint32
	if n := len(r.free); n > 0 {
		slot, r.free = r.free[n-1], r.free[:n-1]
	} else {
		slot = uint32(len(r.slab))
		r.slab = append(r.slab, Alarm{})
	}
	stored := &r.slab[slot]
	*stored = *a
	stored.Subscribers = append([]UserID(nil), a.Subscribers...)
	r.byID[a.ID] = slot
	if a.ID >= r.nextID {
		r.nextID = a.ID + 1
	}
	switch {
	case a.Kind == KindPair:
		for _, u := range [2]UserID{a.Owner, a.Anchor} {
			x := r.userLocked(u).own()
			x.pairs = append(x.pairs, slot)
		}
	case a.Scope != Public:
		r.eachSubscriberLocked(stored, func(_ UserID, rec *userRec) {
			rec.posts = append(rec.posts, slot)
		})
	}
	if a.Target != 0 {
		x := r.userLocked(a.Target).own()
		x.targets = append(x.targets, slot)
		r.moving.Add(1)
	}
	if a.Kind != KindOneShot {
		r.lifecycle.Add(1)
		r.noteExpiryLocked(a.ExpiresAt)
	}
	return slot
}

// dropLocked uninstalls the alarm in slot: out of the tree or the posting
// lists, its lifecycle machines dropped subscriber by subscriber, the slot
// vacated for reuse. Fired state stays (see userRec.fired).
func (r *Registry) dropLocked(slot uint32) {
	a := &r.slab[slot]
	forget := func(u UserID, rec *userRec) {
		rec.posts = dropSlot(rec.posts, slot)
		if x := rec.userExtra; x != &noExtra {
			x.pairs = dropSlot(x.pairs, slot)
			x.lc = slices.DeleteFunc(x.lc, func(m machine) bool { return m.slot == slot })
		}
		r.releaseLocked(u, rec)
	}
	switch {
	case a.Kind == KindPair:
		forget(a.Owner, r.userLocked(a.Owner))
		forget(a.Anchor, r.userLocked(a.Anchor))
	case a.Scope == Public:
		r.public.Delete(rstar.Item{ID: uint64(slot), Rect: a.Region})
	default:
		r.eachSubscriberLocked(a, forget)
	}
	if a.Target != 0 {
		rec := r.userLocked(a.Target)
		rec.own().targets = dropSlot(rec.targets, slot)
		r.releaseLocked(a.Target, rec)
		r.moving.Add(-1)
	}
	if a.Kind != KindOneShot {
		r.lifecycle.Add(-1)
	}
	delete(r.byID, a.ID)
	*a = Alarm{}
	r.free = append(r.free, slot)
}

// Remove uninstalls an alarm. It reports whether the alarm existed.
func (r *Registry) Remove(id ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, ok := r.byID[id]
	if ok {
		r.dropLocked(slot)
	}
	return ok
}

// Get returns a copy of the alarm with the given ID.
func (r *Registry) Get(id ID) (Alarm, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	slot, ok := r.byID[id]
	if !ok {
		return Alarm{}, false
	}
	out := r.slab[slot]
	out.Subscribers = append([]UserID(nil), out.Subscribers...)
	return out, true
}

// Len returns the number of installed alarms.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// Moved is one alarm re-anchored by MoveTarget: where its region was and
// where it is now. Anything derived from the old position (safe regions
// held by subscribers, per-cell public bitmaps) is stale.
type Moved struct {
	ID       ID
	Scope    Scope
	Old, New geom.Rect
}

// MoveTarget re-anchors every alarm whose Target is user onto the new
// position, preserving each region's extent, and returns the alarms that
// moved. Alarm processing for the affected subscribers must be re-run by
// the caller (the server invalidates their safe regions).
func (r *Registry) MoveTarget(user UserID, pos geom.Point) []Moved {
	r.mu.Lock()
	defer r.mu.Unlock()
	var moved []Moved
	for _, slot := range r.user(user).targets {
		a := &r.slab[slot]
		old := a.Region
		w, h := old.Width(), old.Height()
		a.Region = geom.Rect{
			MinX: pos.X - w/2, MinY: pos.Y - h/2,
			MaxX: pos.X + w/2, MaxY: pos.Y + h/2,
		}
		// Postings read the region through the slot; only the tree holds a
		// copy of it.
		if a.Scope == Public {
			r.public.Delete(rstar.Item{ID: uint64(slot), Rect: old})
			r.public.Insert(rstar.Item{ID: uint64(slot), Rect: a.Region})
		}
		moved = append(moved, Moved{ID: a.ID, Scope: a.Scope, Old: old, New: a.Region})
	}
	return moved
}

// IsTarget reports whether any installed alarm is anchored to user u.
func (r *Registry) IsTarget(u UserID) bool {
	if r.moving.Load() == 0 {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.user(u).targets) > 0
}

// SubscribersOf returns the users an alarm can trigger for: the owner for
// private alarms, the subscriber list for shared ones. Public alarms
// return nil (everyone; callers handle that case explicitly).
func (r *Registry) SubscribersOf(id ID) []UserID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	slot, ok := r.byID[id]
	if !ok {
		return nil
	}
	a := &r.slab[slot]
	switch a.Scope {
	case Private:
		return []UserID{a.Owner}
	case Shared:
		out := append([]UserID(nil), a.Subscribers...)
		if a.Owner != 0 && !slices.Contains(out, a.Owner) {
			out = append(out, a.Owner)
		}
		return out
	default:
		return nil
	}
}

// SubscribeTopic subscribes user u to topic-scoped public alarms.
func (r *Registry) SubscribeTopic(u UserID, topic string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.userLocked(u); !slices.Contains(rec.topics, topic) {
		rec.own().topics = append(rec.topics, topic)
	}
}

// UnsubscribeTopic removes a topic subscription.
func (r *Registry) UnsubscribeTopic(u UserID, topic string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.users[u]; rec != nil && len(rec.topics) > 0 {
		rec.topics = slices.DeleteFunc(rec.topics, func(t string) bool { return t == topic })
		r.releaseLocked(u, rec)
	}
}

// Fired reports whether the alarm already triggered for user u.
func (r *Registry) Fired(id ID, u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.user(u).hasFired(id)
}

// MarkFired records that the alarm triggered for user u (one-shot
// semantics). Subsequent relevance and evaluation calls for u skip it.
// The alarm need not be installed here.
func (r *Registry) MarkFired(id ID, u UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.markFiredLocked(id, r.userLocked(u))
}

func (r *Registry) markFiredLocked(id ID, rec *userRec) {
	if i, found := slices.BinarySearch(rec.fired, id); !found {
		rec.fired = slices.Insert(rec.fired, i, id)
	}
}

// ResetFired clears all trigger state (used between experiment runs),
// with explicit per-lifecycle-kind semantics:
//
//   - one-shot: fired (alarm, user) pairs are cleared — every alarm can
//     fire again for every user;
//   - composite: the once-per-user severity firings live in the same
//     fired set and are cleared with it (expired alarms are gone from
//     the registry and do not come back);
//   - continuous and pair: every lifecycle machine returns to Armed with
//     a zero occurrence count — the next entry is occurrence 1 again, so
//     clients that deduplicate delivered events must reset alongside.
func (r *Registry) ResetFired() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for u, rec := range r.users {
		rec.fired = nil
		if len(rec.lc) > 0 {
			rec.lc = nil
		}
		r.releaseLocked(u, rec)
	}
}

// RelevantInInto appends to dst the alarms relevant to user u whose regions
// intersect window w (typically the user's grid cell), excluding alarms
// already fired for u: the public tree's hits in tree order, then u's
// postings in install order. The copies share the stored alarms' slices and
// must be treated as read-only snapshots. raw is scratch for the tree hits
// (truncated and refilled); with warm slices the query allocates nothing.
// Also returned are the grown scratch — pass it back on the next call — and
// the node accesses this query alone performed (tree nodes plus posting
// pages), so concurrent callers each charge their own exact cost.
func (r *Registry) RelevantInInto(w geom.Rect, u UserID, dst []Alarm, raw []uint64) ([]Alarm, []uint64, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.user(u)
	raw, accesses := r.public.SearchRectCounted(w, raw[:0])
	for _, slot := range raw {
		if a := &r.slab[slot]; rec.wantsPublic(a) {
			dst = append(dst, *a)
		}
	}
	dst = r.postingsInLocked(w, rec, dst)
	return dst, raw, accesses + postingPages(len(rec.posts))
}

// postingsInLocked appends the unfired posted alarms of rec intersecting w.
func (r *Registry) postingsInLocked(w geom.Rect, rec *userRec, dst []Alarm) []Alarm {
	for _, slot := range rec.posts {
		if a := &r.slab[slot]; a.Region.Intersects(w) && !rec.hasFired(a.ID) {
			dst = append(dst, *a)
		}
	}
	return dst
}

// EvaluateInto returns in dst the one-shot alarms that trigger for user u
// at position p: relevant, not yet fired, and whose region contains p. It
// does not change trigger state; callers decide when to MarkFired (the
// server does so when it delivers the alert). raw receives the slot of
// every indexed alarm containing p that the query surfaced — public ones
// relevant or not, then u's own — which EvaluateLifecycleInto takes as its
// hits; both slices are truncated and refilled, and with warm slices the
// evaluation allocates nothing — this is the per-update fast path of
// server.Engine. Also returned are len(raw), the candidate count the
// server cost model charges, and the node accesses performed (as in
// RelevantInInto).
func (r *Registry) EvaluateInto(p geom.Point, u UserID, dst []ID, raw []uint64) ([]ID, []uint64, int, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.user(u)
	raw, accesses := r.public.SearchPointCounted(p, raw[:0])
	dst = dst[:0]
	for _, slot := range raw {
		// Public alarms are always one-shot.
		if a := &r.slab[slot]; rec.wantsPublic(a) {
			dst = append(dst, a.ID)
		}
	}
	for _, slot := range rec.posts {
		a := &r.slab[slot]
		if !a.Region.Contains(p) {
			continue
		}
		raw = append(raw, uint64(slot))
		// Non-one-shot alarms never trigger here: their transitions come
		// from EvaluateLifecycleInto.
		if a.Kind == KindOneShot && !rec.hasFired(a.ID) {
			dst = append(dst, a.ID)
		}
	}
	return dst, raw, len(raw), accesses + postingPages(len(rec.posts))
}

// PublicIn appends to dst the regions of all broadcast public alarms
// intersecting w, regardless of per-user trigger state — the input to the
// PBSR public-alarm bitmap precomputation (paper §4.2), which every client
// in the cell shares. Topic-scoped public alarms are obstacles for their
// subscribers only and come from RelevantNonPublicIn. Also returns the
// node accesses performed.
func (r *Registry) PublicIn(w geom.Rect, dst []geom.Rect) ([]geom.Rect, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	slots, accesses := r.public.SearchRectCounted(w, nil)
	for _, slot := range slots {
		if a := &r.slab[slot]; a.Topic == "" {
			dst = append(dst, a.Region)
		}
	}
	return dst, accesses
}

// firedInLocked reports whether any installed alarm spent for user u
// intersects w and is relevant to u — or, with broadcastOnly, is one of the
// alarms PublicIn returns. It walks u's fired set: O(fired), no tree.
func (r *Registry) firedInLocked(w geom.Rect, u UserID, broadcastOnly bool) bool {
	rec := r.user(u)
	for _, id := range rec.fired {
		slot, ok := r.byID[id]
		if !ok {
			continue
		}
		a := &r.slab[slot]
		if !a.indexed() || !a.Region.Intersects(w) {
			continue
		}
		// The alarm was reached by ID, not through u's postings, so its
		// relevance has to be established.
		switch {
		case broadcastOnly:
			ok = a.Scope == Public && a.Topic == ""
		case a.Scope == Public:
			ok = a.Topic == "" || slices.Contains(rec.topics, a.Topic)
		default:
			ok = a.RelevantTo(u)
		}
		if ok {
			return true
		}
	}
	return false
}

// AnyFiredPublicIn reports whether any broadcast public alarm intersecting
// w — the set PublicIn returns — has already fired for user u. The PBSR
// public-bitmap precomputation is shared across users, so it cannot
// reflect per-user fired state; the server falls back to direct
// computation for exactly these users to keep their safe regions maximal.
func (r *Registry) AnyFiredPublicIn(w geom.Rect, u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.firedInLocked(w, u, true)
}

// AnyFiredIn reports whether any alarm relevant to user u intersecting w
// has already fired for u — i.e. whether a bitmap computed earlier for
// this window is stale (too conservative) for this user.
func (r *Registry) AnyFiredIn(w geom.Rect, u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.firedInLocked(w, u, false)
}

// RelevantNonPublicIn is RelevantInInto restricted to what the shared
// public bitmap of PublicIn does not cover: u's private and shared alarms
// and the topic-scoped public alarms u subscribes to. Only a user with
// topic subscriptions pays for a tree search.
func (r *Registry) RelevantNonPublicIn(w geom.Rect, u UserID, dst []Alarm) ([]Alarm, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.user(u)
	accesses := postingPages(len(rec.posts))
	if len(rec.topics) > 0 {
		slots, n := r.public.SearchRectCounted(w, nil)
		accesses += n
		for _, slot := range slots {
			if a := &r.slab[slot]; a.Topic != "" && rec.wantsPublic(a) {
				dst = append(dst, *a)
			}
		}
	}
	return r.postingsInLocked(w, rec, dst), accesses
}

// NearestRelevantDist returns the minimum distance from p to the region of
// any alarm relevant to u and not yet fired for u (+Inf when none exists),
// and the node accesses performed. The safe-period baseline divides this
// distance by the maximum speed.
func (r *Registry) NearestRelevantDist(p geom.Point, u UserID) (float64, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.user(u)
	best, accesses := r.public.NearestDistCounted(p, func(slot uint64) bool {
		return rec.wantsPublic(&r.slab[slot])
	})
	for _, slot := range rec.posts {
		if a := &r.slab[slot]; !rec.hasFired(a.ID) {
			best = min(best, a.Region.MinDist(p))
		}
	}
	return best, accesses + postingPages(len(rec.posts))
}

// All returns a snapshot of every installed alarm, in unspecified order.
func (r *Registry) All() []Alarm {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.allLocked()
}

func (r *Registry) allLocked() []Alarm {
	out := make([]Alarm, 0, len(r.byID))
	for i := range r.slab {
		if r.slab[i].ID != 0 {
			out = append(out, r.slab[i])
		}
	}
	return out
}
