package alarm

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/sabre-geo/sabre/internal/geom"
)

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// snapshot is the JSON form of a registry: the full alarm table plus the
// per-(alarm, subscriber) trigger state, so a restarted server resumes
// with identical one-shot semantics.
type snapshot struct {
	Version int             `json:"version"`
	NextID  ID              `json:"nextId"`
	Alarms  []snapshotAlarm `json:"alarms"`
	Fired   []snapshotPair  `json:"fired"`
	// Lifecycle carries the continuous/pair machines mid-lifecycle, so a
	// restart resumes every Armed/Inside phase and occurrence count.
	Lifecycle []LifecycleState `json:"lifecycle,omitempty"`
}

type snapshotAlarm struct {
	ID          ID            `json:"id"`
	Scope       Scope         `json:"scope"`
	Owner       UserID        `json:"owner"`
	Subscribers []UserID      `json:"subscribers,omitempty"`
	Region      [4]float64    `json:"region"` // MinX, MinY, MaxX, MaxY
	Target      UserID        `json:"target,omitempty"`
	Topic       string        `json:"topic,omitempty"`
	Kind        LifecycleKind `json:"kind,omitempty"`
	Cooldown    uint32        `json:"cooldown,omitempty"`
	Anchor      UserID        `json:"anchor,omitempty"`
	Radius      float64       `json:"radius,omitempty"`
	Factors     []Factor      `json:"factors,omitempty"`
	Threshold   float64       `json:"threshold,omitempty"`
	ExpiresAt   uint64        `json:"expiresAt,omitempty"`
}

type snapshotPair struct {
	Alarm ID     `json:"alarm"`
	User  UserID `json:"user"`
}

// Snapshot serializes the registry (alarms, trigger state, ID counter) so
// a restarted server can resume exactly where it stopped. Output is
// deterministic: alarms and fired pairs are sorted.
func (r *Registry) Snapshot(w io.Writer) error {
	r.mu.RLock()
	snap := snapshot{Version: snapshotVersion, NextID: r.nextID, Lifecycle: r.lifecycleStatesLocked()}
	alarms, fired := r.allLocked(), r.firedPairsLocked()
	r.mu.RUnlock()
	for _, a := range alarms {
		snap.Alarms = append(snap.Alarms, snapshotAlarm{
			ID:          a.ID,
			Scope:       a.Scope,
			Owner:       a.Owner,
			Subscribers: a.Subscribers,
			Region:      [4]float64{a.Region.MinX, a.Region.MinY, a.Region.MaxX, a.Region.MaxY},
			Target:      a.Target,
			Topic:       a.Topic,
			Kind:        a.Kind,
			Cooldown:    a.Cooldown,
			Anchor:      a.Anchor,
			Radius:      a.Radius,
			Factors:     a.Factors,
			Threshold:   a.Threshold,
			ExpiresAt:   a.ExpiresAt,
		})
	}
	sort.Slice(snap.Alarms, func(i, j int) bool { return snap.Alarms[i].ID < snap.Alarms[j].ID })
	// Fired state outlives an alarm's removal (a cluster shard may re-adopt
	// it); a snapshot's alarm table is final, so only pairs of alarms in it
	// mean anything — and LoadRegistry rejects the rest as corruption.
	for _, p := range fired {
		if _, ok := slices.BinarySearchFunc(snap.Alarms, p.Alarm, func(a snapshotAlarm, id ID) int { return cmp.Compare(a.ID, id) }); ok {
			snap.Fired = append(snap.Fired, snapshotPair{Alarm: p.Alarm, User: UserID(p.User)})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("alarm: encode snapshot: %w", err)
	}
	return nil
}

// LoadRegistry rebuilds a registry from a Snapshot stream.
func LoadRegistry(rd io.Reader) (*Registry, error) {
	var snap snapshot
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("alarm: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("alarm: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	alarms := make([]Alarm, len(snap.Alarms))
	for i, sa := range snap.Alarms {
		alarms[i] = Alarm{
			ID:          sa.ID,
			Scope:       sa.Scope,
			Owner:       sa.Owner,
			Subscribers: sa.Subscribers,
			Region:      geom.Rect{MinX: sa.Region[0], MinY: sa.Region[1], MaxX: sa.Region[2], MaxY: sa.Region[3]},
			Target:      sa.Target,
			Topic:       sa.Topic,
			Kind:        sa.Kind,
			Cooldown:    sa.Cooldown,
			Anchor:      sa.Anchor,
			Radius:      sa.Radius,
			Factors:     sa.Factors,
			Threshold:   sa.Threshold,
			ExpiresAt:   sa.ExpiresAt,
		}
	}
	fired := make([]FiredPair, len(snap.Fired))
	for i, p := range snap.Fired {
		fired[i] = FiredPair{Alarm: p.Alarm, User: uint64(p.User)}
	}
	r, err := Restore(alarms, fired, snap.NextID)
	if err != nil {
		return nil, fmt.Errorf("alarm: snapshot: %w", err)
	}
	for _, p := range fired {
		if _, ok := r.byID[p.Alarm]; !ok {
			return nil, fmt.Errorf("alarm: snapshot fired pair references unknown alarm %d", p.Alarm)
		}
	}
	r.ApplyLifecycleStates(snap.Lifecycle)
	return r, nil
}
