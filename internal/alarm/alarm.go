// Package alarm models spatial alarms and their server-side registry.
//
// A spatial alarm (paper §1) is a one-shot, location-triggered notification
// defined by an alarm target (a future location reference), an owner (the
// publisher) and a set of subscribers. By publish–subscribe scope, alarms
// are private (owner only), shared (owner plus an authorized subscriber
// list) or public (all mobile users; the paper's evaluation assumes public
// alarms are subscribed to by everyone).
//
// The registry indexes alarm regions in an R*-tree (paper §5.1) and tracks
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
	"sync"

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

type pairKey struct {
	alarm ID
	user  UserID
}

// SpatialIndex is the query surface the registry needs from its spatial
// index. *rstar.Tree (the paper's choice) and *gridindex.Index (the
// bucket-grid ablation) both satisfy it.
type SpatialIndex interface {
	Insert(rstar.Item)
	InsertBatch(items []rstar.Item)
	Delete(rstar.Item) bool
	SearchPoint(geom.Point, []uint64) []uint64
	SearchRect(geom.Rect, []uint64) []uint64
	NearestDist(geom.Point, func(uint64) bool) float64
	// Counted variants additionally return the node (or bucket) accesses
	// performed by that query alone. Concurrent callers each get their own
	// exact cost, which the server's cost model charges per update; the
	// cumulative NodeAccesses counter still advances.
	SearchPointCounted(geom.Point, []uint64) ([]uint64, uint64)
	SearchRectCounted(geom.Rect, []uint64) ([]uint64, uint64)
	NearestDistCounted(geom.Point, func(uint64) bool) (float64, uint64)
	NodeAccesses() uint64
	ResetStats()
	Len() int
}

// Registry is the server-side store of installed alarms. It is safe for
// concurrent use.
type Registry struct {
	mu     sync.RWMutex
	alarms map[ID]*Alarm
	index  SpatialIndex
	fired  map[pairKey]struct{}
	// byTarget indexes alarms anchored to a moving target, so MoveTarget
	// costs O(alarms on that target), not O(all alarms).
	byTarget map[UserID][]ID
	// topics holds per-user public-alarm topic subscriptions.
	topics map[UserID]map[string]struct{}
	nextID ID
	// lifecycle counts installed non-one-shot alarms: the cheap gate
	// that keeps lifecycle evaluation out of legacy workloads.
	lifecycle int
	// pairsByUser indexes pair alarms by endpoint (pair alarms have no
	// static region, so the spatial index cannot reach them).
	pairsByUser map[UserID][]ID
	// lcStates holds the per-(alarm, user) lifecycle machines of
	// continuous and pair alarms.
	lcStates map[pairKey]lcState
	// insideByUser indexes continuous machines in the Inside phase, so
	// exit detection is O(regions the user is inside).
	insideByUser map[UserID]map[ID]struct{}
	// nextExpiry is a lower bound on the earliest ExpiresAt among the
	// installed alarms (0 = none has a TTL), so ExpireDue scans only on a
	// tick something can be due. Every install lowers it; a removal leaves
	// it stale, which costs one scan that finds nothing and recomputes it.
	nextExpiry uint64
}

// NewRegistry returns an empty registry indexed by an R*-tree (the
// paper's configuration).
func NewRegistry() *Registry {
	return NewRegistryWithIndex(rstar.New(rstar.DefaultMaxEntries))
}

// NewRegistryWithIndex returns an empty registry over a caller-supplied
// spatial index (used by the index ablation).
func NewRegistryWithIndex(idx SpatialIndex) *Registry {
	return &Registry{
		alarms:       make(map[ID]*Alarm),
		index:        idx,
		fired:        make(map[pairKey]struct{}),
		byTarget:     make(map[UserID][]ID),
		topics:       make(map[UserID]map[string]struct{}),
		nextID:       1,
		pairsByUser:  make(map[UserID][]ID),
		lcStates:     make(map[pairKey]lcState),
		insideByUser: make(map[UserID]map[ID]struct{}),
	}
}

// Install validates and stores an alarm, assigning its ID. The returned ID
// identifies the alarm in all other calls.
func (r *Registry) Install(a Alarm) (ID, error) {
	if err := validateLifecycle(&a); err != nil {
		return 0, fmt.Errorf("alarm: %w", err)
	}
	if a.Kind != KindPair && a.Region.Empty() {
		return 0, fmt.Errorf("alarm: empty region %v", a.Region)
	}
	switch a.Scope {
	case Private, Shared, Public:
	default:
		return 0, fmt.Errorf("alarm: invalid scope %d", a.Scope)
	}
	if a.Scope == Shared && len(a.Subscribers) == 0 {
		return 0, fmt.Errorf("alarm: shared alarm requires subscribers")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextID > MaxLifecycleID {
		return 0, fmt.Errorf("alarm: ID space exhausted")
	}
	a.ID = r.nextID
	r.nextID++
	stored := a
	stored.Subscribers = append([]UserID(nil), a.Subscribers...)
	r.alarms[stored.ID] = &stored
	if stored.indexed() {
		r.index.Insert(rstar.Item{ID: uint64(stored.ID), Rect: stored.Region})
	}
	if stored.Target != 0 {
		r.byTarget[stored.Target] = append(r.byTarget[stored.Target], stored.ID)
	}
	r.trackLifecycleLocked(&stored)
	return stored.ID, nil
}

// InstallBatch validates and stores a whole alarm table at once. When the
// registry is empty the spatial index is STR bulk-loaded (40× faster than
// one-by-one insertion for the paper's 10,000-alarm default); otherwise
// it falls back to individual inserts. Either all alarms are installed or
// none (validation runs first).
func (r *Registry) InstallBatch(alarms []Alarm) ([]ID, error) {
	for i := range alarms {
		a := &alarms[i]
		if err := validateLifecycle(a); err != nil {
			return nil, fmt.Errorf("alarm %d: %w", i, err)
		}
		if a.Kind != KindPair && a.Region.Empty() {
			return nil, fmt.Errorf("alarm %d: empty region %v", i, a.Region)
		}
		switch a.Scope {
		case Private, Shared, Public:
		default:
			return nil, fmt.Errorf("alarm %d: invalid scope %d", i, a.Scope)
		}
		if a.Scope == Shared && len(a.Subscribers) == 0 {
			return nil, fmt.Errorf("alarm %d: shared alarm requires subscribers", i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]ID, len(alarms))
	items := make([]rstar.Item, 0, len(alarms))
	for i, a := range alarms {
		stored := a
		stored.ID = r.nextID
		r.nextID++
		stored.Subscribers = append([]UserID(nil), a.Subscribers...)
		r.alarms[stored.ID] = &stored
		if stored.Target != 0 {
			r.byTarget[stored.Target] = append(r.byTarget[stored.Target], stored.ID)
		}
		r.trackLifecycleLocked(&stored)
		ids[i] = stored.ID
		if stored.indexed() {
			items = append(items, rstar.Item{ID: uint64(stored.ID), Rect: stored.Region})
		}
	}
	r.index.InsertBatch(items)
	return ids, nil
}

// Remove uninstalls an alarm. It reports whether the alarm existed.
func (r *Registry) Remove(id ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.alarms[id]
	if !ok {
		return false
	}
	if a.indexed() {
		r.index.Delete(rstar.Item{ID: uint64(id), Rect: a.Region})
	}
	delete(r.alarms, id)
	r.untrackLifecycleLocked(a)
	if a.Target != 0 {
		ids := r.byTarget[a.Target]
		for i, v := range ids {
			if v == id {
				r.byTarget[a.Target] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(r.byTarget[a.Target]) == 0 {
			delete(r.byTarget, a.Target)
		}
	}
	return true
}

// Get returns a copy of the alarm with the given ID.
func (r *Registry) Get(id ID) (Alarm, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.alarms[id]
	if !ok {
		return Alarm{}, false
	}
	out := *a
	out.Subscribers = append([]UserID(nil), a.Subscribers...)
	return out, true
}

// Len returns the number of installed alarms.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.alarms)
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
	for _, id := range r.byTarget[user] {
		a := r.alarms[id]
		if a == nil {
			continue
		}
		old := a.Region
		w, h := old.Width(), old.Height()
		a.Region = geom.Rect{
			MinX: pos.X - w/2, MinY: pos.Y - h/2,
			MaxX: pos.X + w/2, MaxY: pos.Y + h/2,
		}
		r.index.Delete(rstar.Item{ID: uint64(id), Rect: old})
		r.index.Insert(rstar.Item{ID: uint64(id), Rect: a.Region})
		moved = append(moved, Moved{ID: id, Scope: a.Scope, Old: old, New: a.Region})
	}
	return moved
}

// IsTarget reports whether any installed alarm is anchored to user u.
func (r *Registry) IsTarget(u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byTarget[u]) > 0
}

// SubscribersOf returns the users an alarm can trigger for: the owner for
// private alarms, the subscriber list for shared ones. Public alarms
// return nil (everyone; callers handle that case explicitly).
func (r *Registry) SubscribersOf(id ID) []UserID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a := r.alarms[id]
	if a == nil {
		return nil
	}
	switch a.Scope {
	case Private:
		return []UserID{a.Owner}
	case Shared:
		out := append([]UserID(nil), a.Subscribers...)
		if a.Owner != 0 && !containsUser(out, a.Owner) {
			out = append(out, a.Owner)
		}
		return out
	default:
		return nil
	}
}

func containsUser(s []UserID, u UserID) bool {
	for _, v := range s {
		if v == u {
			return true
		}
	}
	return false
}

// SubscribeTopic subscribes user u to topic-scoped public alarms.
func (r *Registry) SubscribeTopic(u UserID, topic string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.topics[u]
	if set == nil {
		set = make(map[string]struct{})
		r.topics[u] = set
	}
	set[topic] = struct{}{}
}

// UnsubscribeTopic removes a topic subscription.
func (r *Registry) UnsubscribeTopic(u UserID, topic string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if set := r.topics[u]; set != nil {
		delete(set, topic)
		if len(set) == 0 {
			delete(r.topics, u)
		}
	}
}

// relevantToLocked combines scope relevance with topic filtering. Callers
// hold r.mu.
func (r *Registry) relevantToLocked(a *Alarm, u UserID) bool {
	if !a.RelevantTo(u) {
		return false
	}
	if a.Scope == Public && a.Topic != "" {
		set := r.topics[u]
		if set == nil {
			return false
		}
		_, ok := set[a.Topic]
		return ok
	}
	return true
}

// Fired reports whether the alarm already triggered for user u.
func (r *Registry) Fired(id ID, u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.fired[pairKey{alarm: id, user: u}]
	return ok
}

// MarkFired records that the alarm triggered for user u (one-shot
// semantics). Subsequent relevance and evaluation calls for u skip it.
func (r *Registry) MarkFired(id ID, u UserID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fired[pairKey{alarm: id, user: u}] = struct{}{}
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
	r.fired = make(map[pairKey]struct{})
	r.lcStates = make(map[pairKey]lcState)
	r.insideByUser = make(map[UserID]map[ID]struct{})
}

// RelevantIn appends to dst the alarms relevant to user u whose regions
// intersect window w (typically the user's grid cell), excluding alarms
// already fired for u, and returns the extended slice. The returned
// pointers must be treated as read-only snapshots.
func (r *Registry) RelevantIn(w geom.Rect, u UserID, dst []Alarm) []Alarm {
	dst, _ = r.RelevantInCounted(w, u, dst)
	return dst
}

// RelevantInCounted is RelevantIn plus the index node accesses this query
// performed, so concurrent callers can charge their own exact cost.
func (r *Registry) RelevantInCounted(w geom.Rect, u UserID, dst []Alarm) ([]Alarm, uint64) {
	dst, _, accesses := r.RelevantInInto(w, u, dst, nil)
	return dst, accesses
}

// RelevantInInto is RelevantInCounted against caller-owned scratch: raw
// receives the R*-tree hits (truncated and refilled), dst is appended to
// as in RelevantIn. With warm slices the query allocates nothing. The
// returned slices are the grown scratch; pass them back on the next call.
func (r *Registry) RelevantInInto(w geom.Rect, u UserID, dst []Alarm, raw []uint64) ([]Alarm, []uint64, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	raw, accesses := r.index.SearchRectCounted(w, raw[:0])
	for _, rawID := range raw {
		id := ID(rawID)
		a := r.alarms[id]
		if a == nil || !r.relevantToLocked(a, u) {
			continue
		}
		if _, gone := r.fired[pairKey{alarm: id, user: u}]; gone {
			continue
		}
		dst = append(dst, *a)
	}
	return dst, raw, accesses
}

// Evaluate returns the alarms that trigger for user u at position p:
// relevant, not yet fired, and whose region contains p. It does not change
// trigger state; callers decide when to MarkFired (the server does so when
// it delivers the alert).
func (r *Registry) Evaluate(p geom.Point, u UserID) []ID {
	ids, _, _ := r.EvaluateCounted(p, u)
	return ids
}

// EvaluateCounted is Evaluate plus the number of candidate alarm regions
// the index query surfaced (relevant or not) and the index node accesses
// it performed — the per-update work the server cost model charges.
func (r *Registry) EvaluateCounted(p geom.Point, u UserID) ([]ID, int, uint64) {
	out, _, candidates, accesses := r.EvaluateInto(p, u, nil, nil)
	return out, candidates, accesses
}

// EvaluateInto is EvaluateCounted against caller-owned scratch: raw
// receives the R*-tree hits and dst the triggered IDs (both truncated and
// refilled). With warm slices the evaluation allocates nothing — this is
// the per-update fast path of server.Engine. The returned slices are the
// grown scratch; pass them back on the next call.
func (r *Registry) EvaluateInto(p geom.Point, u UserID, dst []ID, raw []uint64) ([]ID, []uint64, int, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	raw, accesses := r.index.SearchPointCounted(p, raw[:0])
	dst = dst[:0]
	for _, rawID := range raw {
		id := ID(rawID)
		a := r.alarms[id]
		// Non-one-shot alarms never trigger here: their transitions come
		// from EvaluateLifecycleInto, fed the same raw hits.
		if a == nil || a.Kind != KindOneShot || !r.relevantToLocked(a, u) {
			continue
		}
		if _, gone := r.fired[pairKey{alarm: id, user: u}]; gone {
			continue
		}
		dst = append(dst, id)
	}
	return dst, raw, len(raw), accesses
}

// PublicIn appends to dst the regions of all public alarms intersecting w,
// regardless of per-user trigger state — the input to the PBSR public-
// alarm bitmap precomputation (paper §4.2).
func (r *Registry) PublicIn(w geom.Rect, dst []geom.Rect) []geom.Rect {
	dst, _ = r.PublicInCounted(w, dst)
	return dst
}

// PublicInCounted is PublicIn plus the index node accesses this query
// performed.
func (r *Registry) PublicInCounted(w geom.Rect, dst []geom.Rect) ([]geom.Rect, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids, accesses := r.index.SearchRectCounted(w, nil)
	for _, raw := range ids {
		a := r.alarms[ID(raw)]
		if a != nil && a.Scope == Public {
			dst = append(dst, a.Region)
		}
	}
	return dst, accesses
}

// AnyFiredPublicIn reports whether any public alarm intersecting w has
// already fired for user u. The PBSR public-bitmap precomputation is
// shared across users, so it cannot reflect per-user fired state; the
// server falls back to direct computation for exactly these users to keep
// their safe regions maximal.
func (r *Registry) AnyFiredPublicIn(w geom.Rect, u UserID) bool {
	fired, _ := r.AnyFiredPublicInCounted(w, u)
	return fired
}

// AnyFiredPublicInCounted is AnyFiredPublicIn plus the index node accesses
// this query performed.
func (r *Registry) AnyFiredPublicInCounted(w geom.Rect, u UserID) (bool, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids, accesses := r.index.SearchRectCounted(w, nil)
	for _, raw := range ids {
		id := ID(raw)
		a := r.alarms[id]
		if a == nil || a.Scope != Public {
			continue
		}
		if _, gone := r.fired[pairKey{alarm: id, user: u}]; gone {
			return true, accesses
		}
	}
	return false, accesses
}

// AnyFiredIn reports whether any alarm relevant to user u intersecting w
// has already fired for u — i.e. whether a bitmap computed earlier for
// this window is stale (too conservative) for this user.
func (r *Registry) AnyFiredIn(w geom.Rect, u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, raw := range r.index.SearchRect(w, nil) {
		id := ID(raw)
		a := r.alarms[id]
		if a == nil || !r.relevantToLocked(a, u) {
			continue
		}
		if _, gone := r.fired[pairKey{alarm: id, user: u}]; gone {
			return true
		}
	}
	return false
}

// RelevantNonPublicIn is RelevantIn restricted to private and shared
// alarms; combined with a precomputed public bitmap it covers the full
// relevant set.
func (r *Registry) RelevantNonPublicIn(w geom.Rect, u UserID, dst []Alarm) []Alarm {
	dst, _ = r.RelevantNonPublicInCounted(w, u, dst)
	return dst
}

// RelevantNonPublicInCounted is RelevantNonPublicIn plus the index node
// accesses this query performed.
func (r *Registry) RelevantNonPublicInCounted(w geom.Rect, u UserID, dst []Alarm) ([]Alarm, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids, accesses := r.index.SearchRectCounted(w, nil)
	for _, raw := range ids {
		id := ID(raw)
		a := r.alarms[id]
		if a == nil || a.Scope == Public || !r.relevantToLocked(a, u) {
			continue
		}
		if _, gone := r.fired[pairKey{alarm: id, user: u}]; gone {
			continue
		}
		dst = append(dst, *a)
	}
	return dst, accesses
}

// NearestRelevantDist returns the minimum distance from p to the region of
// any alarm relevant to u and not yet fired for u; +Inf when none exists.
// The safe-period baseline divides this distance by the maximum speed.
func (r *Registry) NearestRelevantDist(p geom.Point, u UserID) float64 {
	d, _ := r.NearestRelevantDistCounted(p, u)
	return d
}

// NearestRelevantDistCounted is NearestRelevantDist plus the index node
// accesses this query performed.
func (r *Registry) NearestRelevantDistCounted(p geom.Point, u UserID) (float64, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index.NearestDistCounted(p, func(raw uint64) bool {
		id := ID(raw)
		a := r.alarms[id]
		if a == nil || !r.relevantToLocked(a, u) {
			return false
		}
		_, gone := r.fired[pairKey{alarm: id, user: u}]
		return !gone
	})
}

// IndexAccesses returns the cumulative R*-tree node accesses performed by
// queries, feeding the server cost model.
func (r *Registry) IndexAccesses() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.index.NodeAccesses()
}

// ResetIndexStats zeroes the node access counter.
func (r *Registry) ResetIndexStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.index.ResetStats()
}

// All returns a snapshot of every installed alarm, in unspecified order.
func (r *Registry) All() []Alarm {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Alarm, 0, len(r.alarms))
	for _, a := range r.alarms {
		out = append(out, *a)
	}
	return out
}
