package server

import (
	"fmt"
	"sort"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/store"
)

// This file wires the engine to its durable backend (internal/store).
// Write-ahead discipline: every state-changing handler mutates in-memory
// state under the appropriate lock, releases the lock, appends a typed
// record, and only then returns its response — so nothing a client can
// observe precedes the log entry that reconstructs it. Appends happen
// OUTSIDE engine locks: a checkpoint (which holds the store mutex while
// capturing engine state through DurableState) can therefore never
// deadlock against an appender, and replay stays correct because records
// are applied idempotently and each client's operations are causally
// ordered by the client itself (a FiredAck can only follow the fired
// response, which was only released after its own append).

// NewDurable builds an engine backed by st, reconstructing registry,
// client table and session table from the recovered state. The store's
// metrics sink is pointed at the engine's counters and the recovery
// itself is recorded there.
func NewDurable(cfg Config, st *store.Store, state *store.State, info store.RecoveryInfo) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restoreState(state); err != nil {
		return nil, err
	}
	e.wal = st
	st.SetCounters(e.met)
	e.met.AddRecovery(info.Replayed, info.TruncatedBytes)
	st.SetStateSource(e.DurableState)
	return e, nil
}

// restoreState loads recovered durable state into a fresh engine.
func (e *Engine) restoreState(state *store.State) error {
	if state == nil {
		return nil
	}
	if len(state.Alarms) > 0 || len(state.Fired) > 0 || state.NextAlarmID > 1 {
		reg, err := alarm.Restore(state.Alarms, state.Fired, alarm.ID(state.NextAlarmID))
		if err != nil {
			return fmt.Errorf("server: restore registry: %w", err)
		}
		reg.ApplyLifecycleStates(state.Lifecycle)
		e.ReplaceRegistry(reg)
		e.syncAlarmGauges(reg)
	}
	for _, c := range state.Clients {
		sh := e.shardFor(alarm.UserID(c.User))
		sh.mu.Lock()
		sh.m[alarm.UserID(c.User)] = &clientState{
			strategy:     c.Strategy,
			maxHeight:    int(c.MaxHeight),
			reliable:     c.Reliable,
			pendingFired: append([]uint64(nil), c.PendingFired...),
			lastSeq:      c.LastSeq,
			lastActive:   e.now(),
		}
		sh.mu.Unlock()
	}
	e.sessMu.Lock()
	for _, s := range state.Sessions {
		e.addTokenLocked(s.Token, alarm.UserID(s.User))
	}
	e.lastToken = state.LastToken
	e.sessMu.Unlock()
	e.epoch.Store(state.Epoch)
	return nil
}

// DurableState captures the full durable state of the engine, normalized
// for deterministic snapshots. It is installed as the store's state
// source; no caller of store.Append holds engine locks, so taking them
// here cannot deadlock a concurrent checkpoint.
func (e *Engine) DurableState() *store.State {
	reg := e.reg.Load()
	st := &store.State{
		NextAlarmID: uint64(reg.NextID()),
		Alarms:      reg.All(),
		Fired:       reg.FiredPairs(),
		Lifecycle:   reg.LifecycleStates(),
	}
	for user, cs := range e.clientsSnapshot() {
		cs.mu.Lock()
		st.Clients = append(st.Clients, store.ClientRec{
			User:         uint64(user),
			Strategy:     cs.strategy,
			MaxHeight:    uint8(cs.maxHeight),
			Reliable:     cs.reliable,
			PendingFired: append([]uint64(nil), cs.pendingFired...),
			LastSeq:      cs.lastSeq,
		})
		cs.mu.Unlock()
	}
	e.sessMu.Lock()
	for tok, user := range e.sessions {
		st.Sessions = append(st.Sessions, store.SessionRec{Token: tok, User: uint64(user)})
	}
	st.LastToken = e.lastToken
	e.sessMu.Unlock()
	st.Epoch = e.epoch.Load()
	st.Normalize()
	return st
}

// Store returns the durable backend, nil for a memory-only engine.
func (e *Engine) Store() *store.Store { return e.wal }

// logRecord appends one record to the durable log; a memory-only engine
// logs nothing. An append failure is fatal (store.ErrCrashed): the caller
// must withhold its response, because the mutation it covers would not
// survive recovery.
func (e *Engine) logRecord(rec store.Record) error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Append(rec)
}

// logRecords appends a batch of records as one atomic group commit — a
// single WAL write and fsync for the whole batch. Same failure
// discipline as logRecord: on error the caller withholds every response
// the batch covers.
func (e *Engine) logRecords(recs []store.Record) error {
	if e.wal == nil || len(recs) == 0 {
		return nil
	}
	return e.wal.AppendBatch(recs)
}

// InstallAlarms durably installs a batch of alarms: registry insertion,
// then one InstallRec per alarm (carrying the assigned ID) before the IDs
// are returned to the caller.
func (e *Engine) InstallAlarms(alarms []alarm.Alarm) ([]alarm.ID, error) {
	reg := e.reg.Load()
	ids, err := reg.InstallBatch(alarms)
	if err != nil {
		return nil, err
	}
	e.InvalidatePublicBitmaps()
	e.syncAlarmGauges(reg)
	for _, id := range ids {
		a, ok := reg.Get(id)
		if !ok {
			continue
		}
		if err := e.logRecord(store.InstallRec{Alarm: a}); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// InstallAlarmsAssigned durably installs alarms that already carry their
// globally assigned IDs — the cluster path, where every shard must agree
// on every alarm's identity. One InstallRec per alarm is appended;
// InstallRec replay preserves the ID and advances the counter, so a
// recovered shard rebuilds the identical table.
func (e *Engine) InstallAlarmsAssigned(alarms []alarm.Alarm) error {
	reg := e.reg.Load()
	if err := reg.InstallAssigned(alarms); err != nil {
		return err
	}
	e.InvalidatePublicBitmaps()
	e.syncAlarmGauges(reg)
	for _, a := range alarms {
		if err := e.logRecord(store.InstallRec{Alarm: a}); err != nil {
			return err
		}
	}
	return nil
}

// RemoveAlarm durably cancels an alarm.
func (e *Engine) RemoveAlarm(id alarm.ID) (bool, error) {
	reg := e.reg.Load()
	if !reg.Remove(id) {
		return false, nil
	}
	e.InvalidatePublicBitmaps()
	e.syncAlarmGauges(reg)
	if err := e.logRecord(store.RemoveRec{ID: id}); err != nil {
		return true, err
	}
	return true, nil
}

// ExpireSessions reaps reliable sessions idle longer than ttl: the client
// state and every resume token for the user are dropped, an ExpireRec is
// logged per reaped session, and the count is returned. A client that
// expires mid-flight simply re-enrolls with a fresh Hello — its fired
// state lives in the registry, so no alarm fires twice.
func (e *Engine) ExpireSessions(ttl time.Duration) (int, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("server: non-positive session TTL %v", ttl)
	}
	cutoff := e.now().Add(-ttl)
	var expired []alarm.UserID
	for user, cs := range e.clientsSnapshot() {
		cs.mu.Lock()
		idle := cs.reliable && !cs.lastActive.IsZero() && cs.lastActive.Before(cutoff)
		cs.mu.Unlock()
		if idle {
			expired = append(expired, user)
		}
	}
	// Deterministic reap (and log) order.
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, user := range expired {
		e.dropClient(user)
	}
	e.met.AddSessionsExpired(uint64(len(expired)))
	for _, user := range expired {
		if err := e.logRecord(store.ExpireRec{User: uint64(user)}); err != nil {
			return len(expired), err
		}
	}
	return len(expired), nil
}

// now returns the engine clock (overridable in tests; only session
// expiry consults it, so simulations stay deterministic).
func (e *Engine) now() time.Time {
	if e.nowFn != nil {
		return e.nowFn()
	}
	return time.Now()
}
