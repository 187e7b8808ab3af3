package alarm

import (
	"fmt"
	"sort"
)

// Persistence surface: the durable store (internal/store) snapshots a
// registry as (alarms, fired pairs, next ID) and rebuilds it with
// Restore. Topic subscriptions are soft state — clients re-subscribe on
// reconnect — and are deliberately excluded.

// FiredPair is one (alarm, user) trigger event: the alarm has fired for
// the user and is permanently spent for them.
type FiredPair struct {
	Alarm ID     `json:"alarm"`
	User  uint64 `json:"user"`
}

// FiredPairs returns a snapshot of all trigger state, sorted by
// (alarm, user) for deterministic output.
func (r *Registry) FiredPairs() []FiredPair {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.firedPairsLocked()
}

func (r *Registry) firedPairsLocked() []FiredPair {
	out := []FiredPair{}
	for u, rec := range r.users {
		for _, id := range rec.fired {
			out = append(out, FiredPair{Alarm: id, User: uint64(u)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alarm != out[j].Alarm {
			return out[i].Alarm < out[j].Alarm
		}
		return out[i].User < out[j].User
	})
	return out
}

// FiredBy returns the alarms spent for user u, ascending, in the portable
// form a session handoff carries (nil when there are none).
func (r *Registry) FiredBy(u UserID) []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fired := r.user(u).fired
	if len(fired) == 0 {
		return nil
	}
	out := make([]uint64, len(fired))
	for i, id := range fired {
		out[i] = uint64(id)
	}
	return out
}

// MarkFiredInstalled marks for user u those of ids whose alarm is
// installed here and not yet spent, and returns exactly those — what a
// session import has to log. Alarms this registry does not hold are
// skipped: they cannot fire here, and if one is adopted later its fired
// pairs come with it (Engine.AdoptAlarms).
func (r *Registry) MarkFiredInstalled(u UserID, ids []uint64) []uint64 {
	if len(ids) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var marked []uint64
	var rec *userRec
	for _, id := range ids {
		if _, ok := r.byID[ID(id)]; !ok {
			continue
		}
		if rec == nil {
			rec = r.userLocked(u)
		}
		if !rec.hasFired(ID(id)) {
			r.markFiredLocked(ID(id), rec)
			marked = append(marked, id)
		}
	}
	return marked
}

// NextID returns the ID the next installed alarm would be assigned.
func (r *Registry) NextID() ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nextID
}

// InstallAssigned stores alarms that already carry their IDs — a cluster
// installing one globally numbered alarm table onto several shard
// registries, where every shard must agree on every ID, or a recovery
// reinstating a saved table. Validation runs first (either all alarms
// install or none); the ID counter advances past every installed alarm so
// local installs never collide.
func (r *Registry) InstallAssigned(alarms []Alarm) error {
	for i := range alarms {
		a := &alarms[i]
		if a.ID == 0 {
			return fmt.Errorf("alarm %d: install assigned: zero ID", i)
		}
		if a.ID > MaxLifecycleID {
			return fmt.Errorf("alarm %d: install assigned: ID exceeds event space", a.ID)
		}
		if err := validate(a); err != nil {
			return fmt.Errorf("alarm %d: %w", a.ID, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	batch := make(map[ID]struct{}, len(alarms))
	for i := range alarms {
		id := alarms[i].ID
		_, dup := r.byID[id]
		if _, again := batch[id]; dup || again {
			return fmt.Errorf("alarm %d: install assigned: duplicate ID", id)
		}
		batch[id] = struct{}{}
	}
	r.installLocked(alarms)
	return nil
}

// Restore builds a registry from recovered state: alarms keep their
// original IDs (unlike Install, which assigns fresh ones), trigger state
// is reinstated, and the ID counter resumes past every restored alarm so
// new installs never collide with recovered ones.
func Restore(alarms []Alarm, fired []FiredPair, nextID ID) (*Registry, error) {
	r := NewRegistry()
	// Validation normalizes in place; the caller keeps its table as it was.
	if err := r.InstallAssigned(append([]Alarm(nil), alarms...)); err != nil {
		return nil, fmt.Errorf("alarm: restore: %w", err)
	}
	for _, p := range fired {
		r.markFiredLocked(p.Alarm, r.userLocked(UserID(p.User)))
	}
	if nextID > r.nextID {
		r.nextID = nextID
	}
	return r, nil
}
