package server

import (
	"sort"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
)

// This file moves a client's session between shards (internal/cluster).
// One invariant orders everything: IMPORT DURABLE, THEN DROP — and the
// drop is cleanup, not an acknowledgement.
//
//   - PeekSession snapshots the session at the source without touching it.
//   - ImportSession enrolls the snapshot at the destination and logs every
//     record that reconstructs it — carried machine states and spent
//     alarms (TransitionRec, Delivered false), the session itself
//     (RegisterRec, or HelloRec with the minted token) and the pending
//     firings (FiredRec) — as ONE AppendBatch: the handoff's only
//     synchronous commit. The Redirect or Resume that tells the client
//     about the move is released after it returns, so everything the
//     client can observe is durable (and replicated) first.
//   - DropSession forgets the session at the source. Its ExpireRec is
//     enqueued without a waiter (store.AppendDeferred) and lands with the
//     source log's next group commit. Nothing depends on it: a crash first
//     leaves the session on both shards, and the next handoff towards the
//     stale copy merges into it — ImportSession is a union, so replaying
//     or repeating an import is a no-op.
//
// There is no state in which the session is on neither shard.

// PeekSession returns the user's durable session record without removing
// anything; false when the user has no state here. Soft state (last
// position, bitmap base cell, heading) is deliberately left out — it
// regenerates from the client's next report, exactly as it does across
// a crash.
func (e *Engine) PeekSession(user alarm.UserID) (store.ClientRec, bool) {
	sh := e.shardFor(user)
	sh.mu.RLock()
	st := sh.m[user]
	sh.mu.RUnlock()
	if st == nil {
		return store.ClientRec{}, false
	}
	reg := e.reg.Load()
	st.mu.Lock()
	rec := store.ClientRec{
		User:         uint64(user),
		Strategy:     st.strategy,
		MaxHeight:    uint8(st.maxHeight),
		Reliable:     st.reliable,
		PendingFired: append([]uint64(nil), st.pendingFired...),
		Fired:        reg.FiredBy(user),
		Lifecycle:    reg.LifecycleStatesFor(user),
		LastSeq:      st.lastSeq,
		Epoch:        e.epoch.Load(),
	}
	st.mu.Unlock()
	return rec, true
}

// ImportSession enrolls a session peeked on another shard and returns
// the resume token minted for it (0 for a plain Register client). It is
// a merge: the user's machines advance monotonically, the carried spent
// alarms this shard holds are marked so an alarm installed on both sides
// of the boundary fires once, and a session already resident — a stale
// copy a crash left behind, or a retried import — absorbs the record by
// union: the newer stale-report watermark wins, a reliable record
// re-declares the registration (as a fresh Hello would) and adds the
// pending firings it does not hold yet. Everything that changed is
// logged as one atomic group; replaying it, or a torn prefix of it, is
// idempotent and never adds to a plain client's pending set.
func (e *Engine) ImportSession(rec store.ClientRec) (uint64, error) {
	user := alarm.UserID(rec.User)
	reg := e.reg.Load()
	reg.ApplyLifecycleStates(rec.Lifecycle)
	recs := lifecycleRecs(rec.Lifecycle)
	for _, id := range reg.MarkFiredInstalled(user, rec.Fired) {
		// A raw alarm ID is its own TransFired event; Delivered false keeps
		// it out of every pending set on replay.
		recs = append(recs, store.TransitionRec{User: rec.User, Event: id})
	}

	sh := e.shardFor(user)
	sh.mu.Lock()
	st := sh.m[user]
	fresh := st == nil
	if fresh {
		st = &clientState{strategy: rec.Strategy, maxHeight: int(rec.MaxHeight)}
		sh.m[user] = st
	}
	sh.mu.Unlock()

	var added []uint64
	st.mu.Lock()
	// Whichever side accepted the newer report wins, so a resend replayed
	// after the move still reads as stale.
	if st.lastSeq == 0 || (rec.LastSeq != 0 && int32(rec.LastSeq-st.lastSeq) > 0) {
		st.lastSeq = rec.LastSeq
	}
	if rec.Reliable {
		st.strategy, st.maxHeight = rec.Strategy, int(rec.MaxHeight)
		st.reliable = true
		st.lastActive = e.now()
		for _, id := range rec.PendingFired {
			if !containsU64(st.pendingFired, id) {
				st.pendingFired = append(st.pendingFired, id)
				added = append(added, id)
			}
		}
	}
	st.mu.Unlock()

	var token uint64
	switch {
	case rec.Reliable:
		token = e.mintToken(user)
		recs = append(recs, store.HelloRec{User: rec.User, Token: token, Strategy: rec.Strategy, MaxHeight: rec.MaxHeight})
		if len(added) > 0 {
			// A pending firing was delivered (or is being redelivered): the
			// local copy of its alarm is spent here too. FiredRec replay
			// re-marks it and re-enters it into the pending set.
			for _, id := range added {
				markFiredEvent(reg, user, id)
			}
			recs = append(recs, store.FiredRec{User: rec.User, Alarms: added})
		}
	case fresh:
		recs = append(recs, store.RegisterRec{User: rec.User, Strategy: rec.Strategy, MaxHeight: rec.MaxHeight})
	}
	e.met.AddSessionImported()
	return token, e.logRecords(recs)
}

// DropSession forgets the user's session after it was imported
// elsewhere: client state and resume tokens go, and the ExpireRec that
// makes replay re-drop them rides the log's next group commit. A missing
// user is a no-op. The error is the store's when the deferred-record
// bound made this call commit.
func (e *Engine) DropSession(user alarm.UserID) error {
	if !e.dropClient(user) {
		return nil
	}
	e.met.AddSessionExported()
	if e.wal == nil {
		return nil
	}
	return e.wal.AppendDeferred(store.ExpireRec{User: uint64(user)})
}

// ExportSession is PeekSession followed by DropSession, for callers that
// hold the record themselves between the two shards.
func (e *Engine) ExportSession(user alarm.UserID) (store.ClientRec, bool, error) {
	rec, ok := e.PeekSession(user)
	if !ok {
		return rec, false, nil
	}
	return rec, true, e.DropSession(user)
}

// HasSession reports whether the user has client state on this engine.
func (e *Engine) HasSession(user alarm.UserID) bool {
	sh := e.shardFor(user)
	sh.mu.RLock()
	_, ok := sh.m[user]
	sh.mu.RUnlock()
	return ok
}

// markFiredEvent folds one pending delivery entry (a packed event) into
// the fired map: one-shot firings by raw ID, composite severities by the
// alarm the event was packed from. Enter/exit events carry no fired state
// — their machine travels in ClientRec.Lifecycle.
func markFiredEvent(reg *alarm.Registry, user alarm.UserID, ev uint64) {
	switch alarm.EventTransition(ev) {
	case alarm.TransFired:
		reg.MarkFired(alarm.ID(ev), user)
	case alarm.TransSeverity:
		reg.MarkFired(alarm.EventAlarm(ev), user)
	}
}

// lifecycleRecs converts carried machine states into the TransitionRecs
// that reconstruct them on replay. Delivered is false: the delivery (if
// still owed) travels separately in the pending set.
func lifecycleRecs(states []alarm.LifecycleState) []store.Record {
	var recs []store.Record
	for _, s := range states {
		if ev, ok := s.Event(); ok {
			recs = append(recs, store.TransitionRec{User: s.User, Event: ev, Tick: s.LastTick, Delivered: false})
		}
	}
	return recs
}

// SessionUsers returns every user with client state on this engine,
// sorted for deterministic drain order.
func (e *Engine) SessionUsers() []alarm.UserID {
	var users []alarm.UserID
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for u := range sh.m {
			users = append(users, u)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return users
}

// SessionPositions returns the last reported position of every resident
// client that has reported one — the load profile a population-aware
// split cuts at the median of. Order is unspecified.
func (e *Engine) SessionPositions() []geom.Point {
	var pts []geom.Point
	for _, st := range e.clientsSnapshot() {
		st.mu.Lock()
		if st.hasPos {
			pts = append(pts, st.lastPos)
		}
		st.mu.Unlock()
	}
	return pts
}

// GCAlarmsOutside removes every alarm whose region does not intersect
// keep — the shard's install footprint after its rectangle shrank in a
// split. Safe by the margin rule: an alarm outside the margin cannot
// shape any safe region this shard computes, and its fired pairs stay
// in the registry's fired set (MarkFired tolerates absent alarms), so
// nothing refires if the alarm is ever re-adopted. Returns how many
// alarms were dropped; on a log error the count so far is returned with
// the error.
func (e *Engine) GCAlarmsOutside(keep geom.Rect) (int, error) {
	dropped := 0
	for _, a := range e.Registry().All() {
		// Pair alarms have no static region and follow their endpoints,
		// not the shard rectangle: never GC them on a split.
		if a.Kind == alarm.KindPair || a.Region.Intersects(keep) {
			continue
		}
		ok, err := e.RemoveAlarm(a.ID)
		if ok {
			dropped++
		}
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// ClientCount returns the number of resident client states (the load
// balancer's session-count signal).
func (e *Engine) ClientCount() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// AdoptAlarms installs alarm copies this shard is missing and re-marks
// their fired pairs — a repartition transition widening the shard's
// responsibility. Copies already present are skipped (alarm IDs are
// global, so identity is exact), as are pairs already fired. Replay of
// the appended InstallRec/FiredRec records is idempotent; a FiredRec
// for a user with a live reliable session here would re-append the ids
// to its pending set on replay, which at worst redelivers an already-
// acknowledged firing that the client's dedup absorbs.
func (e *Engine) AdoptAlarms(alarms []alarm.Alarm, fired []alarm.FiredPair, states []alarm.LifecycleState) error {
	reg := e.reg.Load()
	var fresh []alarm.Alarm
	for _, a := range alarms {
		if _, ok := reg.Get(a.ID); !ok {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) > 0 {
		if err := reg.InstallAssigned(fresh); err != nil {
			return err
		}
		e.InvalidatePublicBitmaps()
		e.syncAlarmGauges(reg)
		for _, a := range fresh {
			if err := e.logRecord(store.InstallRec{Alarm: a}); err != nil {
				return err
			}
		}
	}
	if len(states) > 0 {
		reg.ApplyLifecycleStates(states)
		if err := e.logRecords(lifecycleRecs(states)); err != nil {
			return err
		}
	}

	byUser := make(map[uint64][]uint64)
	var users []uint64
	for _, p := range fired {
		if reg.Fired(p.Alarm, alarm.UserID(p.User)) {
			continue
		}
		reg.MarkFired(p.Alarm, alarm.UserID(p.User))
		if _, ok := byUser[uint64(p.User)]; !ok {
			users = append(users, uint64(p.User))
		}
		byUser[uint64(p.User)] = append(byUser[uint64(p.User)], uint64(p.Alarm))
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		if err := e.logRecord(store.FiredRec{User: u, Alarms: byUser[u]}); err != nil {
			return err
		}
	}
	return nil
}

func containsU64(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
