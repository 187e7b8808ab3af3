package alarm

import (
	"fmt"
	"math"
	"sort"

	"github.com/sabre-geo/sabre/internal/geom"
)

// Lifecycle subsystem: beyond the paper's one-shot alarm, the registry
// supports three richer alarm kinds, each with its own trigger lifecycle
// and its own conservative safe-region story (DESIGN.md §15):
//
//   - Continuous alarms fire on region entry AND exit and re-arm, running
//     the per-(alarm, user) state machine
//     Armed → FiredEnter → InsideArmed → FiredExit → Armed,
//     with an optional re-arm cooldown between an exit and the next entry.
//   - Pair (moving-anchor proximity) alarms fire when the owner and the
//     anchor user come within Radius of each other, and again (Exit) when
//     they separate. Both endpoints run their own state machine, so each
//     endpoint is notified on its own shard.
//   - Composite risk-zone alarms combine weighted circular/rect factors;
//     they fire once per user when the summed weight of the factors
//     containing the user's position reaches Threshold, and expire at a
//     TTL tick.
//
// Transition events are packed into a single uint64 so they flow through
// every delivery, dedup, persistence and replication path built for
// one-shot alarm IDs without modification: a one-shot firing packs to the
// raw alarm ID, keeping legacy behaviour bit-identical.

// LifecycleKind selects an alarm's trigger lifecycle.
type LifecycleKind uint8

// Alarm lifecycle kinds. KindOneShot is the zero value: the paper's
// fire-once-per-subscriber alarm.
const (
	KindOneShot LifecycleKind = iota
	KindContinuous
	KindPair
	KindComposite
)

// String implements fmt.Stringer.
func (k LifecycleKind) String() string {
	switch k {
	case KindOneShot:
		return "one-shot"
	case KindContinuous:
		return "continuous"
	case KindPair:
		return "pair"
	case KindComposite:
		return "composite"
	default:
		return fmt.Sprintf("LifecycleKind(%d)", int(k))
	}
}

// Transition is the lifecycle transition a fired event carries.
type Transition uint8

// Transitions. TransFired is the zero value so a packed one-shot event is
// numerically equal to its alarm ID.
const (
	TransFired    Transition = iota // one-shot firing (legacy)
	TransEnter                      // continuous/pair: entered region / came into range
	TransExit                       // continuous/pair: left region / went out of range
	TransSeverity                   // composite: severity threshold reached
)

// String implements fmt.Stringer.
func (t Transition) String() string {
	switch t {
	case TransFired:
		return "fired"
	case TransEnter:
		return "enter"
	case TransExit:
		return "exit"
	case TransSeverity:
		return "severity"
	default:
		return fmt.Sprintf("Transition(%d)", int(t))
	}
}

// Packed event layout: bits 0..39 alarm ID, bits 40..42 transition,
// bits 43..63 payload (occurrence count for enter/exit, quantized
// severity for composite firings). 2^40 alarm IDs is far beyond any
// deployment here; Install enforces the bound.
const (
	eventAlarmBits  = 40
	eventAlarmMask  = uint64(1)<<eventAlarmBits - 1
	eventTransShift = eventAlarmBits
	eventTransMask  = uint64(7)
	eventPayloadOff = eventAlarmBits + 3
	EventPayloadMax = uint64(1)<<(64-eventPayloadOff) - 1
	severityQuantum = 1000.0 // severities carry 3 decimal places
	MaxLifecycleID  = ID(eventAlarmMask)
)

// PackEvent packs an alarm transition into the uint64 that rides the
// existing fired-ID machinery (AlarmFired frames, pendingFired sets,
// FiredAck, WAL records, client dedup). A TransFired event with zero
// payload is the raw alarm ID.
func PackEvent(id ID, tr Transition, payload uint32) uint64 {
	p := uint64(payload)
	if p > EventPayloadMax {
		p = EventPayloadMax
	}
	return uint64(id)&eventAlarmMask |
		uint64(tr)&eventTransMask<<eventTransShift |
		p<<eventPayloadOff
}

// EventAlarm extracts the alarm ID from a packed event.
func EventAlarm(ev uint64) ID { return ID(ev & eventAlarmMask) }

// EventTransition extracts the transition from a packed event.
func EventTransition(ev uint64) Transition {
	return Transition(ev >> eventTransShift & eventTransMask)
}

// EventPayload extracts the payload (occurrence or quantized severity).
func EventPayload(ev uint64) uint32 { return uint32(ev >> eventPayloadOff) }

// QuantizeSeverity maps a severity to the integer payload carried in a
// TransSeverity event (3 decimal places).
func QuantizeSeverity(sev float64) uint32 {
	q := math.Round(sev * severityQuantum)
	if q < 0 {
		return 0
	}
	if q > float64(EventPayloadMax) {
		return uint32(EventPayloadMax)
	}
	return uint32(q)
}

// EventSeverity reverses QuantizeSeverity.
func EventSeverity(ev uint64) float64 {
	return float64(EventPayload(ev)) / severityQuantum
}

// Factor is one weighted component of a composite risk-zone alarm:
// a circle (Center, Radius > 0) or an axis-aligned rect. A user's
// severity is the sum of the weights of the factors containing them.
type Factor struct {
	Center geom.Point `json:"center,omitempty"`
	Radius float64    `json:"radius,omitempty"`
	Region geom.Rect  `json:"region,omitempty"`
	Weight float64    `json:"weight"`
}

// Circle reports whether the factor is circular.
func (f Factor) Circle() bool { return f.Radius > 0 }

// Bound returns the factor's bounding rectangle — the conservative
// obstacle a safe-region computation must avoid.
func (f Factor) Bound() geom.Rect {
	if f.Circle() {
		return geom.Rect{
			MinX: f.Center.X - f.Radius, MinY: f.Center.Y - f.Radius,
			MaxX: f.Center.X + f.Radius, MaxY: f.Center.Y + f.Radius,
		}
	}
	return f.Region
}

// Contains reports whether the factor covers p.
func (f Factor) Contains(p geom.Point) bool {
	if f.Circle() {
		return p.DistanceSqTo(f.Center) <= f.Radius*f.Radius
	}
	return f.Region.Contains(p)
}

// FactorsBound returns the union of the factors' bounds.
func FactorsBound(factors []Factor) geom.Rect {
	var b geom.Rect
	for i, f := range factors {
		if i == 0 {
			b = f.Bound()
		} else {
			b = b.Union(f.Bound())
		}
	}
	return b
}

// Severity returns the summed weight of the factors containing p.
func Severity(factors []Factor, p geom.Point) float64 {
	var sev float64
	for _, f := range factors {
		if f.Contains(p) {
			sev += f.Weight
		}
	}
	return sev
}

// lcState is the per-(alarm, user) lifecycle machine for continuous and
// pair alarms. The machine has two stable phases — Armed (outside /
// out of range) and Inside — and transitions emit events:
//
//	Armed --enter--> Inside --exit--> Armed (cooldown) --enter--> ...
//
// occur counts entries, so the k-th enter and the k-th exit pack
// distinct, idempotently dedupable event IDs.
type lcState struct {
	inside   bool
	occur    uint32
	lastTick uint64 // tick of the last transition (cooldown anchor)
}

// progress orders lifecycle states monotonically: each transition
// strictly increases it. Used by the idempotent merge in
// ApplyLifecycleStates (WAL replay, session handoff, shard adoption).
func (s lcState) progress() uint64 {
	if s.occur == 0 {
		return 0
	}
	p := uint64(s.occur) * 2
	if s.inside {
		p--
	}
	return p
}

// LifecycleState is the portable form of one lifecycle machine, carried
// in snapshots, handoff records and adoption transfers.
type LifecycleState struct {
	Alarm    ID     `json:"alarm"`
	User     uint64 `json:"user"`
	Inside   bool   `json:"inside,omitempty"`
	Occur    uint32 `json:"occur"`
	LastTick uint64 `json:"lastTick,omitempty"`
}

// Progress exposes the machine's monotone transition counter, so replay
// and merge paths outside this package (store's state builder) apply the
// same keep-the-further-side rule.
func (s LifecycleState) Progress() uint64 {
	return lcState{inside: s.Inside, occur: s.Occur}.progress()
}

// Event returns the packed transition event that most recently produced
// this machine state — the inverse of TransitionState. A zero-progress
// machine has produced no event.
func (s LifecycleState) Event() (uint64, bool) {
	if s.Occur == 0 {
		return 0, false
	}
	tr := TransExit
	if s.Inside {
		tr = TransEnter
	}
	return PackEvent(s.Alarm, tr, s.Occur), true
}

// TransitionState reconstructs the machine state a delivered enter/exit
// event implies — the WAL-replay inverse of the event packing.
func TransitionState(user UserID, ev uint64, tick uint64) (LifecycleState, bool) {
	tr := EventTransition(ev)
	if tr != TransEnter && tr != TransExit {
		return LifecycleState{}, false
	}
	return LifecycleState{
		Alarm:    EventAlarm(ev),
		User:     uint64(user),
		Inside:   tr == TransEnter,
		Occur:    EventPayload(ev),
		LastTick: tick,
	}, true
}

// validateLifecycle checks kind-specific invariants and normalizes
// derived fields (a composite alarm's Region is always the union of its
// factor bounds). Called by every install/restore path before the
// legacy region/scope checks.
func validateLifecycle(a *Alarm) error {
	switch a.Kind {
	case KindOneShot:
		if a.Anchor != 0 || a.Radius != 0 || len(a.Factors) != 0 ||
			a.Threshold != 0 || a.ExpiresAt != 0 || a.Cooldown != 0 {
			return fmt.Errorf("one-shot alarm carries lifecycle fields")
		}
	case KindContinuous:
		if a.Scope == Public {
			return fmt.Errorf("continuous alarm cannot be public")
		}
		if a.Target != 0 {
			return fmt.Errorf("continuous alarm cannot have a moving target")
		}
		if a.Anchor != 0 || a.Radius != 0 || len(a.Factors) != 0 || a.Threshold != 0 || a.ExpiresAt != 0 {
			return fmt.Errorf("continuous alarm carries foreign lifecycle fields")
		}
	case KindPair:
		if a.Scope != Shared {
			return fmt.Errorf("pair alarm must be shared between its endpoints")
		}
		if a.Owner == 0 || a.Anchor == 0 || a.Owner == a.Anchor {
			return fmt.Errorf("pair alarm needs two distinct endpoints")
		}
		if !(a.Radius > 0) {
			return fmt.Errorf("pair alarm needs a positive radius")
		}
		if a.Target != 0 || len(a.Factors) != 0 || a.Threshold != 0 || a.ExpiresAt != 0 {
			return fmt.Errorf("pair alarm carries foreign lifecycle fields")
		}
		if !a.Region.Empty() {
			return fmt.Errorf("pair alarm region is derived, must be empty")
		}
		if !containsUser(a.Subscribers, a.Anchor) {
			a.Subscribers = append(a.Subscribers, a.Anchor)
		}
	case KindComposite:
		if a.Scope == Public {
			return fmt.Errorf("composite alarm cannot be public")
		}
		if a.Target != 0 || a.Anchor != 0 || a.Radius != 0 || a.Cooldown != 0 {
			return fmt.Errorf("composite alarm carries foreign lifecycle fields")
		}
		if len(a.Factors) == 0 {
			return fmt.Errorf("composite alarm needs factors")
		}
		if !(a.Threshold > 0) {
			return fmt.Errorf("composite alarm needs a positive threshold")
		}
		for i, f := range a.Factors {
			if !(f.Weight > 0) {
				return fmt.Errorf("composite factor %d needs a positive weight", i)
			}
			if !f.Circle() && f.Region.Empty() {
				return fmt.Errorf("composite factor %d needs a circle or a non-empty rect", i)
			}
		}
		a.Region = FactorsBound(a.Factors)
	default:
		return fmt.Errorf("invalid lifecycle kind %d", a.Kind)
	}
	return nil
}

// indexed reports whether the alarm lives in the spatial index. Pair
// alarms have no static region — they are reached through pairsByUser.
func (a *Alarm) indexed() bool { return a.Kind != KindPair }

// trackLifecycleLocked updates the registry's lifecycle indexes for a
// freshly stored alarm. Callers hold r.mu.
func (r *Registry) trackLifecycleLocked(a *Alarm) {
	if a.Kind == KindOneShot {
		return
	}
	r.lifecycle++
	r.noteExpiryLocked(a.ExpiresAt)
	if a.Kind == KindPair {
		r.pairsByUser[a.Owner] = append(r.pairsByUser[a.Owner], a.ID)
		r.pairsByUser[a.Anchor] = append(r.pairsByUser[a.Anchor], a.ID)
	}
}

// untrackLifecycleLocked reverses trackLifecycleLocked on removal and
// drops every lifecycle machine of the alarm. Callers hold r.mu.
func (r *Registry) untrackLifecycleLocked(a *Alarm) {
	if a.Kind == KindOneShot {
		return
	}
	r.lifecycle--
	if a.Kind == KindPair {
		for _, u := range [2]UserID{a.Owner, a.Anchor} {
			ids := r.pairsByUser[u]
			for i, v := range ids {
				if v == a.ID {
					r.pairsByUser[u] = append(ids[:i], ids[i+1:]...)
					break
				}
			}
			if len(r.pairsByUser[u]) == 0 {
				delete(r.pairsByUser, u)
			}
		}
	}
	for k := range r.lcStates {
		if k.alarm == a.ID {
			delete(r.lcStates, k)
		}
	}
	for u, set := range r.insideByUser {
		if _, ok := set[a.ID]; ok {
			delete(set, a.ID)
			if len(set) == 0 {
				delete(r.insideByUser, u)
			}
		}
	}
}

// HasLifecycle reports whether any non-one-shot alarm is installed — the
// gate that keeps every lifecycle code path out of legacy workloads.
func (r *Registry) HasLifecycle() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lifecycle > 0
}

// KindCounts returns the number of installed continuous, pair, and
// composite alarms, in that order (one-shots are Registry.Len minus the
// sum). Feeds the per-kind metrics gauges.
func (r *Registry) KindCounts() (continuous, pair, composite int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, a := range r.alarms {
		switch a.Kind {
		case KindContinuous:
			continuous++
		case KindPair:
			pair++
		case KindComposite:
			composite++
		}
	}
	return continuous, pair, composite
}

// IsPairEndpoint reports whether user u is an endpoint of any pair alarm.
func (r *Registry) IsPairEndpoint(u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pairsByUser[u]) > 0
}

// PairAlarmsOf appends to dst the pair alarms user u is an endpoint of.
func (r *Registry) PairAlarmsOf(u UserID, dst []Alarm) []Alarm {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, id := range r.pairsByUser[u] {
		if a := r.alarms[id]; a != nil {
			dst = append(dst, *a)
		}
	}
	return dst
}

// PairPartner returns the other endpoint of a pair alarm relative to u.
func (a *Alarm) PairPartner(u UserID) UserID {
	if a.Owner == u {
		return a.Anchor
	}
	return a.Owner
}

// InsideAlarmsOf appends to dst the IDs of the continuous alarms user u
// is currently inside — the regions a safe-region computation must treat
// as carve-INTO rather than carve-AROUND obstacles.
func (r *Registry) InsideAlarmsOf(u UserID, dst []ID) []ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for id := range r.insideByUser[u] {
		dst = append(dst, id)
	}
	return dst
}

// PairInside reports whether user u's machine for pair alarm id is in
// the Inside (in-contact) phase.
func (r *Registry) PairInside(id ID, u UserID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lcStates[pairKey{alarm: id, user: u}].inside
}

// canEnterLocked applies the re-arm cooldown gate.
func canEnter(st lcState, cooldown uint32, tick uint64) bool {
	if st.inside {
		return false
	}
	if st.occur == 0 || cooldown == 0 {
		return true
	}
	return tick >= st.lastTick+uint64(cooldown)
}

// EvaluateLifecycleInto runs every lifecycle machine of user u against
// position p at the given logical tick, appending the packed transition
// events that fire to dst. hits are the spatial-index point hits already
// collected for this update (EvaluateInto's raw slice) — continuous
// entries and composite firings are drawn from them, exits from the
// registry's inside-set, and pair transitions from the pair index via
// the partner callback (last known partner position, or ok=false when
// the partner has never reported). Transitions mutate machine state;
// the caller must log the returned events before releasing any response
// that reveals them (write-ahead discipline).
func (r *Registry) EvaluateLifecycleInto(u UserID, p geom.Point, tick uint64, hits []uint64, partner func(UserID) (geom.Point, bool), dst []uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lifecycle == 0 {
		return dst
	}
	// Continuous entries and composite firings from the index hits.
	for _, rawID := range hits {
		id := ID(rawID)
		a := r.alarms[id]
		if a == nil || a.Kind == KindOneShot || a.Kind == KindPair || !r.relevantToLocked(a, u) {
			continue
		}
		switch a.Kind {
		case KindContinuous:
			if !a.Region.Contains(p) {
				continue
			}
			k := pairKey{alarm: id, user: u}
			st := r.lcStates[k]
			if !canEnter(st, a.Cooldown, tick) {
				continue
			}
			st.inside = true
			st.occur++
			st.lastTick = tick
			r.lcStates[k] = st
			r.markInsideLocked(u, id)
			dst = append(dst, PackEvent(id, TransEnter, st.occur))
		case KindComposite:
			if a.ExpiresAt != 0 && tick >= a.ExpiresAt {
				continue
			}
			if _, gone := r.fired[pairKey{alarm: id, user: u}]; gone {
				continue
			}
			sev := Severity(a.Factors, p)
			if sev < a.Threshold {
				continue
			}
			r.fired[pairKey{alarm: id, user: u}] = struct{}{}
			dst = append(dst, PackEvent(id, TransSeverity, QuantizeSeverity(sev)))
		}
	}
	// Continuous exits: machines in the Inside phase whose region no
	// longer contains p. Point queries cannot surface non-containing
	// regions, hence the dedicated inside-set.
	if set := r.insideByUser[u]; len(set) > 0 {
		var exited []ID
		for id := range set {
			a := r.alarms[id]
			if a == nil || a.Region.Contains(p) {
				continue
			}
			exited = append(exited, id)
		}
		// Deterministic event order for multi-exit updates.
		sort.Slice(exited, func(i, j int) bool { return exited[i] < exited[j] })
		for _, id := range exited {
			k := pairKey{alarm: id, user: u}
			st := r.lcStates[k]
			st.inside = false
			st.lastTick = tick
			r.lcStates[k] = st
			delete(set, id)
			dst = append(dst, PackEvent(id, TransExit, st.occur))
		}
		if len(set) == 0 {
			delete(r.insideByUser, u)
		}
	}
	return r.evalPairsLocked(u, p, tick, partner, dst)
}

// EvaluatePairsInto runs only user u's pair machines — the cross-user
// invalidation path: when u's partner reports, the partner's shard calls
// this with u's last known position to wake u's endpoint of the pair.
func (r *Registry) EvaluatePairsInto(u UserID, p geom.Point, tick uint64, partner func(UserID) (geom.Point, bool), dst []uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evalPairsLocked(u, p, tick, partner, dst)
}

func (r *Registry) evalPairsLocked(u UserID, p geom.Point, tick uint64, partner func(UserID) (geom.Point, bool), dst []uint64) []uint64 {
	for _, id := range r.pairsByUser[u] {
		a := r.alarms[id]
		if a == nil || !r.relevantToLocked(a, u) {
			continue
		}
		pp, ok := partner(a.PairPartner(u))
		if !ok {
			continue
		}
		k := pairKey{alarm: id, user: u}
		st := r.lcStates[k]
		inRange := p.DistanceSqTo(pp) <= a.Radius*a.Radius
		switch {
		case inRange && canEnter(st, a.Cooldown, tick):
			st.inside = true
			st.occur++
			st.lastTick = tick
			r.lcStates[k] = st
			dst = append(dst, PackEvent(id, TransEnter, st.occur))
		case !inRange && st.inside:
			st.inside = false
			st.lastTick = tick
			r.lcStates[k] = st
			dst = append(dst, PackEvent(id, TransExit, st.occur))
		}
	}
	return dst
}

func (r *Registry) markInsideLocked(u UserID, id ID) {
	set := r.insideByUser[u]
	if set == nil {
		set = make(map[ID]struct{})
		r.insideByUser[u] = set
	}
	set[id] = struct{}{}
}

// noteExpiryLocked lowers the expiry watermark to an installed alarm's
// ExpiresAt (0 = no TTL, ignored). Callers hold r.mu.
func (r *Registry) noteExpiryLocked(at uint64) {
	if at != 0 && (r.nextExpiry == 0 || at < r.nextExpiry) {
		r.nextExpiry = at
	}
}

// ExpireDue removes every composite alarm whose TTL has passed at the
// given logical tick and returns their IDs (sorted). The caller logs an
// expiry record per ID so recovery never resurrects an expired alarm's
// firings.
func (r *Registry) ExpireDue(tick uint64) []ID {
	r.mu.RLock()
	next := r.nextExpiry
	r.mu.RUnlock()
	if next == 0 || tick < next {
		return nil
	}
	r.mu.Lock()
	var due []ID
	r.nextExpiry = 0
	for id, a := range r.alarms {
		switch {
		case a.Kind != KindComposite || a.ExpiresAt == 0:
		case tick >= a.ExpiresAt:
			due = append(due, id)
		default:
			r.noteExpiryLocked(a.ExpiresAt)
		}
	}
	r.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, id := range due {
		r.Remove(id)
	}
	return due
}

// LifecycleStates returns a snapshot of every lifecycle machine, sorted
// by (alarm, user) for deterministic output.
func (r *Registry) LifecycleStates() []LifecycleState {
	r.mu.RLock()
	out := make([]LifecycleState, 0, len(r.lcStates))
	for k, st := range r.lcStates {
		out = append(out, LifecycleState{
			Alarm: k.alarm, User: uint64(k.user),
			Inside: st.inside, Occur: st.occur, LastTick: st.lastTick,
		})
	}
	r.mu.RUnlock()
	sortLifecycleStates(out)
	return out
}

// LifecycleStatesFor returns user u's lifecycle machines, sorted by
// alarm — the per-session slice a handoff export carries.
func (r *Registry) LifecycleStatesFor(u UserID) []LifecycleState {
	r.mu.RLock()
	var out []LifecycleState
	for k, st := range r.lcStates {
		if k.user != u {
			continue
		}
		out = append(out, LifecycleState{
			Alarm: k.alarm, User: uint64(u),
			Inside: st.inside, Occur: st.occur, LastTick: st.lastTick,
		})
	}
	r.mu.RUnlock()
	sortLifecycleStates(out)
	return out
}

// LifecycleStatesForAlarms returns the machines of the given alarms,
// sorted — the slice a shard split's alarm adoption carries.
func (r *Registry) LifecycleStatesForAlarms(ids map[ID]bool) []LifecycleState {
	r.mu.RLock()
	var out []LifecycleState
	for k, st := range r.lcStates {
		if !ids[k.alarm] {
			continue
		}
		out = append(out, LifecycleState{
			Alarm: k.alarm, User: uint64(k.user),
			Inside: st.inside, Occur: st.occur, LastTick: st.lastTick,
		})
	}
	r.mu.RUnlock()
	sortLifecycleStates(out)
	return out
}

func sortLifecycleStates(s []LifecycleState) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Alarm != s[j].Alarm {
			return s[i].Alarm < s[j].Alarm
		}
		return s[i].User < s[j].User
	})
}

// ApplyLifecycleStates merges portable lifecycle states into the
// registry, keeping whichever side has progressed further (transitions
// strictly increase progress, so replaying a state twice — or importing
// a stale copy after a handoff bounce — is a no-op). States referencing
// unknown alarms are skipped.
func (r *Registry) ApplyLifecycleStates(states []LifecycleState) {
	if len(states) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range states {
		a := r.alarms[s.Alarm]
		if a == nil || (a.Kind != KindContinuous && a.Kind != KindPair) {
			continue
		}
		k := pairKey{alarm: s.Alarm, user: UserID(s.User)}
		cand := lcState{inside: s.Inside, occur: s.Occur, lastTick: s.LastTick}
		if cur, ok := r.lcStates[k]; ok && cur.progress() >= cand.progress() {
			continue
		}
		r.lcStates[k] = cand
		if a.Kind == KindContinuous {
			if cand.inside {
				r.markInsideLocked(k.user, k.alarm)
			} else if set := r.insideByUser[k.user]; set != nil {
				delete(set, k.alarm)
				if len(set) == 0 {
					delete(r.insideByUser, k.user)
				}
			}
		}
	}
}

// ApplyTransition folds one logged transition event into the lifecycle
// machine it belongs to — the WAL-replay form of ApplyLifecycleStates.
func (r *Registry) ApplyTransition(user UserID, ev uint64, tick uint64) {
	id := EventAlarm(ev)
	occur := EventPayload(ev)
	switch EventTransition(ev) {
	case TransEnter:
		r.ApplyLifecycleStates([]LifecycleState{{
			Alarm: id, User: uint64(user), Inside: true, Occur: occur, LastTick: tick,
		}})
	case TransExit:
		r.ApplyLifecycleStates([]LifecycleState{{
			Alarm: id, User: uint64(user), Inside: false, Occur: occur, LastTick: tick,
		}})
	case TransSeverity:
		r.MarkFired(id, user)
	}
}
