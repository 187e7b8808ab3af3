package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/wire"
)

// DefaultPendingCap is the per-session bound on unacknowledged firings a
// server retains (PROTOCOL.md "Sessions"): a reliable client that never
// sends FiredAck would otherwise grow its pending set forever. When the
// cap is exceeded the oldest ids are evicted — they stay marked fired
// (never re-trigger) but are no longer redelivered.
const DefaultPendingCap = 1024

// snapshotVersion guards the on-disk snapshot format.
const snapshotVersion = 1

// ClientRec is one client's durable registration state.
type ClientRec struct {
	User      uint64        `json:"user"`
	Strategy  wire.Strategy `json:"strategy"`
	MaxHeight uint8         `json:"maxHeight,omitempty"`
	Reliable  bool          `json:"reliable,omitempty"`
	// PendingFired holds fired-but-unacknowledged alarm ids, oldest first.
	PendingFired []uint64 `json:"pendingFired,omitempty"`
	// Fired carries the alarms already spent for the user across a session
	// handoff, for every session kind, so an alarm installed on both sides
	// of a partition boundary fires once. Populated only in handoff records
	// — the registry-wide fired set lives in State.Fired.
	Fired []uint64 `json:"fired,omitempty"`
	// Epoch is the partition-map epoch of the shard that exported this
	// session (zero for non-cluster sessions). The importer uses it to
	// stamp Redirects so stale-epoch clients can be told the map moved.
	Epoch uint64 `json:"epoch,omitempty"`
	// Lifecycle carries the user's continuous/pair machines across a
	// session handoff, so the importing shard resumes every Armed/Inside
	// phase and occurrence count. Populated only in exported session
	// records — registry-wide lifecycle state lives in State.Lifecycle.
	Lifecycle []alarm.LifecycleState `json:"lifecycle,omitempty"`
	// LastSeq is the newest report sequence the exporting shard accepted.
	// The importer seeds its stale-report gate with it, so a queued resend
	// that chases the session across a handoff cannot replay an old
	// position into the lifecycle machines as if it were fresh.
	LastSeq uint32 `json:"lastSeq,omitempty"`
}

// SessionRec maps one resume token to its user.
type SessionRec struct {
	Token uint64 `json:"token"`
	User  uint64 `json:"user"`
}

// State is the full durable server state: everything a restarted engine
// needs so its observable behaviour matches an uninterrupted run. Soft
// state (last positions, bitmap base cells, motion headings, public-
// bitmap caches) is deliberately absent — it regenerates from the next
// report and never affects which alarms are delivered.
type State struct {
	NextAlarmID uint64            `json:"nextAlarmId"`
	Alarms      []alarm.Alarm     `json:"alarms,omitempty"`
	Fired       []alarm.FiredPair `json:"fired,omitempty"`
	Clients     []ClientRec       `json:"clients,omitempty"`
	Sessions    []SessionRec      `json:"sessions,omitempty"`
	LastToken   uint64            `json:"lastToken"`
	// Epoch is the highest partition-map epoch this shard has served
	// (zero outside a cluster). Epochs only move forward.
	Epoch uint64 `json:"epoch,omitempty"`
	// Lifecycle holds every mid-flight continuous/pair machine
	// (Inside/Armed phase + occurrence counts), sorted by (alarm, user).
	Lifecycle []alarm.LifecycleState `json:"lifecycle,omitempty"`
}

// snapshotFile is the on-disk envelope around a State.
type snapshotFile struct {
	Version int   `json:"version"`
	State   State `json:"state"`
}

// stateBuilder holds State in map form for efficient record application.
type stateBuilder struct {
	alarms     map[alarm.ID]alarm.Alarm
	fired      map[alarm.FiredPair]struct{}
	lifecycle  map[lcKey]alarm.LifecycleState
	clients    map[uint64]*ClientRec
	sessions   map[uint64]uint64   // token -> user
	userTokens map[uint64][]uint64 // user -> its tokens, for ExpireRec
	nextID     uint64
	lastToken  uint64
	epoch      uint64
	pendingCap int
}

// lcKey identifies one lifecycle machine: (alarm, user).
type lcKey struct {
	alarm alarm.ID
	user  uint64
}

func newBuilder(base *State, pendingCap int) *stateBuilder {
	if pendingCap == 0 {
		pendingCap = DefaultPendingCap
	}
	b := &stateBuilder{
		alarms:     make(map[alarm.ID]alarm.Alarm),
		fired:      make(map[alarm.FiredPair]struct{}),
		lifecycle:  make(map[lcKey]alarm.LifecycleState),
		clients:    make(map[uint64]*ClientRec),
		sessions:   make(map[uint64]uint64),
		userTokens: make(map[uint64][]uint64),
		nextID:     1,
		pendingCap: pendingCap,
	}
	if base == nil {
		return b
	}
	b.nextID = base.NextAlarmID
	if b.nextID == 0 {
		b.nextID = 1
	}
	b.lastToken = base.LastToken
	b.epoch = base.Epoch
	for _, a := range base.Alarms {
		b.alarms[a.ID] = a
	}
	for _, p := range base.Fired {
		b.fired[p] = struct{}{}
	}
	for _, st := range base.Lifecycle {
		b.lifecycle[lcKey{st.Alarm, st.User}] = st
	}
	for _, c := range base.Clients {
		cc := c
		cc.PendingFired = append([]uint64(nil), c.PendingFired...)
		b.clients[c.User] = &cc
	}
	for _, s := range base.Sessions {
		b.addSession(s.Token, s.User)
	}
	return b
}

// apply folds one record into the state. Every case is idempotent: a
// record whose effect is already present (because the snapshot captured
// state between a mutation and its log append) re-applies harmlessly.
func (b *stateBuilder) apply(rec Record) {
	switch r := rec.(type) {
	case InstallRec:
		if _, ok := b.alarms[r.Alarm.ID]; !ok {
			b.alarms[r.Alarm.ID] = r.Alarm
		}
		if uint64(r.Alarm.ID) >= b.nextID {
			b.nextID = uint64(r.Alarm.ID) + 1
		}
	case RemoveRec:
		delete(b.alarms, r.ID)
		b.dropLifecycle(r.ID)
	case AlarmExpireRec:
		delete(b.alarms, r.ID)
		b.dropLifecycle(r.ID)
	case RegisterRec:
		b.clients[r.User] = &ClientRec{User: r.User, Strategy: r.Strategy, MaxHeight: r.MaxHeight}
	case HelloRec:
		var carried []uint64
		if old := b.clients[r.User]; old != nil && old.Reliable {
			carried = append([]uint64(nil), old.PendingFired...)
		}
		b.clients[r.User] = &ClientRec{
			User: r.User, Strategy: r.Strategy, MaxHeight: r.MaxHeight,
			Reliable: true, PendingFired: carried,
		}
		b.addSession(r.Token, r.User)
		if r.Token > b.lastToken {
			b.lastToken = r.Token
		}
	case FiredRec:
		cl := b.clients[r.User]
		for _, id := range r.Alarms {
			// Ids may be packed lifecycle events (carried pending firings
			// logged on session import). Only one-shot firings and
			// composite severity events mark a fired pair; enter/exit
			// events re-arm and must never suppress future evaluation.
			switch alarm.EventTransition(id) {
			case alarm.TransFired:
				b.fired[alarm.FiredPair{Alarm: alarm.ID(id), User: r.User}] = struct{}{}
			case alarm.TransSeverity:
				b.fired[alarm.FiredPair{Alarm: alarm.EventAlarm(id), User: r.User}] = struct{}{}
			}
			if cl != nil && cl.Reliable && !containsID(cl.PendingFired, id) {
				cl.PendingFired = append(cl.PendingFired, id)
			}
		}
		b.capPending(cl)
	case TransitionRec:
		switch alarm.EventTransition(r.Event) {
		case alarm.TransFired:
			// A spent alarm carried in by a session import: fired here too,
			// and (Delivered false) owed to nobody.
			b.fired[alarm.FiredPair{Alarm: alarm.ID(r.Event), User: r.User}] = struct{}{}
		case alarm.TransSeverity:
			b.fired[alarm.FiredPair{Alarm: alarm.EventAlarm(r.Event), User: r.User}] = struct{}{}
		case alarm.TransEnter, alarm.TransExit:
			if st, ok := alarm.TransitionState(alarm.UserID(r.User), r.Event, r.Tick); ok {
				k := lcKey{st.Alarm, st.User}
				// Progress is monotone per machine, so replaying out of
				// snapshot order (or twice) keeps the furthest state.
				if old, exists := b.lifecycle[k]; !exists || st.Progress() > old.Progress() {
					b.lifecycle[k] = st
				}
			}
		}
		if r.Delivered {
			if cl := b.clients[r.User]; cl != nil && cl.Reliable {
				if !containsID(cl.PendingFired, r.Event) {
					cl.PendingFired = append(cl.PendingFired, r.Event)
				}
				b.capPending(cl)
			}
		}
	case FiredAckRec:
		cl := b.clients[r.User]
		if cl == nil || len(cl.PendingFired) == 0 {
			return
		}
		acked := make(map[uint64]bool, len(r.Alarms))
		for _, id := range r.Alarms {
			acked[id] = true
		}
		keep := cl.PendingFired[:0]
		for _, id := range cl.PendingFired {
			if !acked[id] {
				keep = append(keep, id)
			}
		}
		cl.PendingFired = keep
	case ExpireRec:
		delete(b.clients, r.User)
		for _, tok := range b.userTokens[r.User] {
			if b.sessions[tok] == r.User {
				delete(b.sessions, tok)
			}
		}
		delete(b.userTokens, r.User)
	case EpochRec:
		if r.Epoch > b.epoch {
			b.epoch = r.Epoch
		}
	}
}

// addSession maps token to user and indexes it under the user. A token
// that moves to another user stays in its old user's list; ExpireRec
// skips such stale entries.
func (b *stateBuilder) addSession(token, user uint64) {
	if u, ok := b.sessions[token]; !ok || u != user {
		b.userTokens[user] = append(b.userTokens[user], token)
	}
	b.sessions[token] = user
}

// dropLifecycle scrubs every lifecycle machine of one alarm, mirroring
// what registry removal does in memory.
func (b *stateBuilder) dropLifecycle(id alarm.ID) {
	for k := range b.lifecycle {
		if k.alarm == id {
			delete(b.lifecycle, k)
		}
	}
}

// capPending enforces the per-session pending-firings bound, evicting
// oldest first (same policy the engine applies).
func (b *stateBuilder) capPending(cl *ClientRec) {
	if cl != nil && len(cl.PendingFired) > b.pendingCap {
		drop := len(cl.PendingFired) - b.pendingCap
		cl.PendingFired = append(cl.PendingFired[:0], cl.PendingFired[drop:]...)
	}
}

func containsID(s []uint64, id uint64) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

// finish converts the builder back into a deterministic (sorted) State.
func (b *stateBuilder) finish() *State {
	st := &State{NextAlarmID: b.nextID, LastToken: b.lastToken, Epoch: b.epoch}
	for _, a := range b.alarms {
		st.Alarms = append(st.Alarms, a)
	}
	sort.Slice(st.Alarms, func(i, j int) bool { return st.Alarms[i].ID < st.Alarms[j].ID })
	for p := range b.fired {
		st.Fired = append(st.Fired, p)
	}
	sort.Slice(st.Fired, func(i, j int) bool {
		if st.Fired[i].Alarm != st.Fired[j].Alarm {
			return st.Fired[i].Alarm < st.Fired[j].Alarm
		}
		return st.Fired[i].User < st.Fired[j].User
	})
	for _, st2 := range b.lifecycle {
		st.Lifecycle = append(st.Lifecycle, st2)
	}
	sort.Slice(st.Lifecycle, func(i, j int) bool {
		if st.Lifecycle[i].Alarm != st.Lifecycle[j].Alarm {
			return st.Lifecycle[i].Alarm < st.Lifecycle[j].Alarm
		}
		return st.Lifecycle[i].User < st.Lifecycle[j].User
	})
	for _, c := range b.clients {
		st.Clients = append(st.Clients, *c)
	}
	sort.Slice(st.Clients, func(i, j int) bool { return st.Clients[i].User < st.Clients[j].User })
	for tok, user := range b.sessions {
		st.Sessions = append(st.Sessions, SessionRec{Token: tok, User: user})
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].Token < st.Sessions[j].Token })
	return st
}

// Normalize sorts the state slices so two captures of identical state
// compare equal; engines capture maps in arbitrary order.
func (s *State) Normalize() {
	b := newBuilder(s, 0)
	*s = *b.finish()
}

// EncodeState serializes a full state in the snapshot format (the
// payload of a ReplSnapshot frame).
func EncodeState(s *State) []byte {
	var buf bytes.Buffer
	// writeSnapshot only fails on writer errors; bytes.Buffer has none.
	_ = writeSnapshot(&buf, s)
	return buf.Bytes()
}

// DecodeState parses an EncodeState payload, with the same validation a
// snapshot file gets.
func DecodeState(data []byte) (*State, error) {
	return readSnapshot(bytes.NewReader(data))
}

// Applier folds a record stream into a live State incrementally — the
// follower's warm-state builder, sharing the exact apply logic recovery
// uses. Not safe for concurrent use.
type Applier struct {
	b *stateBuilder
}

// NewApplier starts from base (nil means empty) with the given
// pending-firings cap (0 means DefaultPendingCap).
func NewApplier(base *State, pendingCap int) *Applier {
	return &Applier{b: newBuilder(base, pendingCap)}
}

// Apply folds one record.
func (a *Applier) Apply(rec Record) { a.b.apply(rec) }

// State materializes the current state (sorted, deterministic). The
// applier remains usable afterwards.
func (a *Applier) State() *State { return a.b.finish() }

// writeSnapshot serializes the state deterministically.
func writeSnapshot(w io.Writer, s *State) error {
	cp := *s
	cp.Normalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snapshotFile{Version: snapshotVersion, State: cp}); err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	return nil
}

// readSnapshot parses and validates a snapshot stream.
func readSnapshot(r io.Reader) (*State, error) {
	var f snapshotFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("store: decode snapshot: %w", err)
	}
	if f.Version != snapshotVersion {
		return nil, fmt.Errorf("store: snapshot version %d, want %d", f.Version, snapshotVersion)
	}
	for i := range f.State.Alarms {
		a := &f.State.Alarms[i]
		// Pair alarms have no static region — their trigger zone moves
		// with the anchor — so an empty region is only valid for them.
		if a.Region.Empty() && a.Kind != alarm.KindPair {
			return nil, fmt.Errorf("store: snapshot alarm %d has empty region %v", a.ID, a.Region)
		}
		switch a.Scope {
		case alarm.Private, alarm.Shared, alarm.Public:
		default:
			return nil, fmt.Errorf("store: snapshot alarm %d has invalid scope %d", a.ID, a.Scope)
		}
	}
	return &f.State, nil
}
