package alarm

import (
	"fmt"
	"math"
	"slices"
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
// factor bounds). The first half of validate.
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
		if !slices.Contains(a.Subscribers, a.Anchor) {
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

// indexed reports whether the alarm has a static region that queries can
// reach. Pair alarms do not — they are reached through their endpoints'
// pair lists.
func (a *Alarm) indexed() bool { return a.Kind != KindPair }

// machine is one lifecycle machine in its user's record, keyed by the
// alarm's slab slot. Only alarms posted under the user have machines
// there, which is where removal looks for them.
type machine struct {
	slot uint32
	st   lcState
}

// machineOf returns the user's machine for the alarm in slot, nil while it
// is still in the initial Armed state.
func (u *userRec) machineOf(slot uint32) *machine {
	for i := range u.lc {
		if u.lc[i].slot == slot {
			return &u.lc[i]
		}
	}
	return nil
}

func (u *userRec) stateOf(slot uint32) lcState {
	if m := u.machineOf(slot); m != nil {
		return m.st
	}
	return lcState{}
}

func (u *userRec) setState(slot uint32, st lcState) {
	if m := u.machineOf(slot); m != nil {
		m.st = st
		return
	}
	u.own().lc = append(u.lc, machine{slot: slot, st: st})
}

// HasLifecycle reports whether any non-one-shot alarm is installed — the
// gate that keeps every lifecycle code path out of legacy workloads.
func (r *Registry) HasLifecycle() bool { return r.lifecycle.Load() > 0 }

// KindCounts returns the number of installed continuous, pair, and
// composite alarms, in that order (one-shots are Registry.Len minus the
// sum). Feeds the per-kind metrics gauges.
func (r *Registry) KindCounts() (continuous, pair, composite int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.slab {
		switch r.slab[i].Kind {
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
	return len(r.user(u).pairs) > 0
}

// PairPartner returns the other endpoint of a pair alarm relative to u.
func (a *Alarm) PairPartner(u UserID) UserID {
	if a.Owner == u {
		return a.Anchor
	}
	return a.Owner
}

// InsideRegion is a continuous alarm whose region its user is currently
// inside — a region a safe-region computation must treat as a carve-INTO
// rather than a carve-AROUND obstacle.
type InsideRegion struct {
	ID     ID
	Region geom.Rect
}

// PairView is one pair alarm as seen from one of its endpoints: the other
// endpoint, the proximity threshold, and whether this endpoint's machine
// is in the Inside (in-contact) phase.
type PairView struct {
	Partner UserID
	Radius  float64
	Inside  bool
}

// LifecycleViewInto appends to inside and pairs what a safe-region
// computation for user u needs from u's lifecycle machines, read under one
// lock. With warm slices it allocates nothing.
func (r *Registry) LifecycleViewInto(u UserID, inside []InsideRegion, pairs []PairView) ([]InsideRegion, []PairView) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec := r.user(u)
	for _, m := range rec.lc {
		if a := &r.slab[m.slot]; m.st.inside && a.Kind == KindContinuous {
			inside = append(inside, InsideRegion{ID: a.ID, Region: a.Region})
		}
	}
	for _, slot := range rec.pairs {
		a := &r.slab[slot]
		pairs = append(pairs, PairView{Partner: a.PairPartner(u), Radius: a.Radius, Inside: rec.stateOf(slot).inside})
	}
	return inside, pairs
}

// canEnter applies the re-arm cooldown gate.
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
// events that fire to dst. hits are the slots EvaluateInto collected for
// this update (its raw slice) — continuous entries and composite firings
// are drawn from them, exits from the user's Inside-phase machines, and
// pair transitions from the user's pair list via the partner callback
// (last known partner position, or ok=false when the partner has never
// reported). Transitions mutate machine state; the caller must log the
// returned events before releasing any response that reveals them
// (write-ahead discipline).
func (r *Registry) EvaluateLifecycleInto(u UserID, p geom.Point, tick uint64, hits []uint64, partner func(UserID) (geom.Point, bool), dst []uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := r.users[u]
	if rec == nil || r.lifecycle.Load() == 0 {
		return dst
	}
	// Continuous entries and composite firings from the hits.
	for _, h := range hits {
		slot := uint32(h)
		if int(slot) >= len(r.slab) {
			continue
		}
		a := &r.slab[slot]
		// The hits were collected under an earlier read lock and the slot
		// may have been vacated or reused since: it must still be one of
		// u's postings.
		if (a.Kind != KindContinuous && a.Kind != KindComposite) || !slices.Contains(rec.posts, slot) {
			continue
		}
		switch a.Kind {
		case KindContinuous:
			if !a.Region.Contains(p) {
				continue
			}
			st := rec.stateOf(slot)
			if !canEnter(st, a.Cooldown, tick) {
				continue
			}
			st.inside = true
			st.occur++
			st.lastTick = tick
			rec.setState(slot, st)
			dst = append(dst, PackEvent(a.ID, TransEnter, st.occur))
		case KindComposite:
			if a.ExpiresAt != 0 && tick >= a.ExpiresAt {
				continue
			}
			if rec.hasFired(a.ID) {
				continue
			}
			sev := Severity(a.Factors, p)
			if sev < a.Threshold {
				continue
			}
			r.markFiredLocked(a.ID, rec)
			dst = append(dst, PackEvent(a.ID, TransSeverity, QuantizeSeverity(sev)))
		}
	}
	// Continuous exits: machines in the Inside phase whose region no
	// longer contains p. Point queries cannot surface non-containing
	// regions, hence the walk over the user's machines.
	var exited []*machine
	for i := range rec.lc {
		m := &rec.lc[i]
		if a := &r.slab[m.slot]; m.st.inside && a.Kind == KindContinuous && !a.Region.Contains(p) {
			exited = append(exited, m)
		}
	}
	// Deterministic event order for multi-exit updates.
	if len(exited) > 1 {
		sort.Slice(exited, func(i, j int) bool { return r.slab[exited[i].slot].ID < r.slab[exited[j].slot].ID })
	}
	for _, m := range exited {
		m.st.inside = false
		m.st.lastTick = tick
		dst = append(dst, PackEvent(r.slab[m.slot].ID, TransExit, m.st.occur))
	}
	return r.evalPairsLocked(rec, u, p, tick, partner, dst)
}

// EvaluatePairsInto runs only user u's pair machines — the cross-user
// invalidation path: when u's partner reports, the partner's shard calls
// this with u's last known position to wake u's endpoint of the pair.
func (r *Registry) EvaluatePairsInto(u UserID, p geom.Point, tick uint64, partner func(UserID) (geom.Point, bool), dst []uint64) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.users[u]; rec != nil {
		dst = r.evalPairsLocked(rec, u, p, tick, partner, dst)
	}
	return dst
}

func (r *Registry) evalPairsLocked(rec *userRec, u UserID, p geom.Point, tick uint64, partner func(UserID) (geom.Point, bool), dst []uint64) []uint64 {
	for _, slot := range rec.pairs {
		a := &r.slab[slot]
		pp, ok := partner(a.PairPartner(u))
		if !ok {
			continue
		}
		st := rec.stateOf(slot)
		inRange := p.DistanceSqTo(pp) <= a.Radius*a.Radius
		switch {
		case inRange && canEnter(st, a.Cooldown, tick):
			st.inside = true
			st.occur++
			st.lastTick = tick
			rec.setState(slot, st)
			dst = append(dst, PackEvent(a.ID, TransEnter, st.occur))
		case !inRange && st.inside:
			st.inside = false
			st.lastTick = tick
			rec.setState(slot, st)
			dst = append(dst, PackEvent(a.ID, TransExit, st.occur))
		}
	}
	return dst
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
	defer r.mu.Unlock()
	var due []ID
	r.nextExpiry = 0
	for i := range r.slab {
		a := &r.slab[i]
		switch {
		case a.Kind != KindComposite || a.ExpiresAt == 0:
		case tick >= a.ExpiresAt:
			due = append(due, a.ID)
		default:
			r.noteExpiryLocked(a.ExpiresAt)
		}
	}
	slices.Sort(due)
	for _, id := range due {
		r.dropLocked(r.byID[id])
	}
	return due
}

// portableLocked returns the portable form of one of u's machines.
func (r *Registry) portableLocked(u UserID, m machine) LifecycleState {
	return LifecycleState{
		Alarm: r.slab[m.slot].ID, User: uint64(u),
		Inside: m.st.inside, Occur: m.st.occur, LastTick: m.st.lastTick,
	}
}

// LifecycleStates returns a snapshot of every lifecycle machine, sorted
// by (alarm, user) for deterministic output.
func (r *Registry) LifecycleStates() []LifecycleState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lifecycleStatesLocked()
}

func (r *Registry) lifecycleStatesLocked() []LifecycleState {
	out := []LifecycleState{}
	for u, rec := range r.users {
		for _, m := range rec.lc {
			out = append(out, r.portableLocked(u, m))
		}
	}
	sortLifecycleStates(out)
	return out
}

// LifecycleStatesFor returns user u's lifecycle machines, sorted by
// alarm — the per-session slice a handoff export carries.
func (r *Registry) LifecycleStatesFor(u UserID) []LifecycleState {
	r.mu.RLock()
	var out []LifecycleState
	for _, m := range r.user(u).lc {
		out = append(out, r.portableLocked(u, m))
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
	for u, rec := range r.users {
		for _, m := range rec.lc {
			if ids[r.slab[m.slot].ID] {
				out = append(out, r.portableLocked(u, m))
			}
		}
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
// unknown alarms, or users the alarm cannot fire for, are skipped.
func (r *Registry) ApplyLifecycleStates(states []LifecycleState) {
	if len(states) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range states {
		slot, ok := r.byID[s.Alarm]
		if !ok {
			continue
		}
		a, u := &r.slab[slot], UserID(s.User)
		rec := r.user(u)
		switch a.Kind {
		case KindContinuous:
			ok = slices.Contains(rec.posts, slot)
		case KindPair:
			ok = slices.Contains(rec.pairs, slot)
		default:
			ok = false
		}
		if !ok {
			continue
		}
		cand := lcState{inside: s.Inside, occur: s.Occur, lastTick: s.LastTick}
		if m := rec.machineOf(slot); m == nil {
			rec.own().lc = append(rec.lc, machine{slot: slot, st: cand})
		} else if m.st.progress() < cand.progress() {
			m.st = cand
		}
	}
}

// ApplyTransition folds one logged transition event into the lifecycle
// machine it belongs to — the WAL-replay form of ApplyLifecycleStates.
func (r *Registry) ApplyTransition(user UserID, ev uint64, tick uint64) {
	if st, ok := TransitionState(user, ev, tick); ok {
		r.ApplyLifecycleStates([]LifecycleState{st})
	} else if EventTransition(ev) == TransSeverity {
		r.MarkFired(EventAlarm(ev), user)
	}
}
