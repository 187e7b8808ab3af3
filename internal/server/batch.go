// Batched and allocation-free update handling.
//
// Three entry points share one core (processUpdate in engine.go):
//
//   - HandleUpdate: one update, self-contained response values. Scratch
//     comes from the engine pool and never escapes.
//   - HandleUpdateScratch: one update against caller-owned scratch; the
//     returned messages are the scratch's embedded fields boxed by
//     pointer, so the steady-state MWPSR path performs zero heap
//     allocations. The result aliases the scratch.
//   - HandleUpdateBatch: one UpdateBatch frame; updates are grouped by
//     user, each user's striped lock is taken once per group, and only
//     the chronologically last update of a group earns the full strategy
//     response — the monitoring state of earlier positions would be stale
//     before the reply hits the wire. Every update is still individually
//     evaluated against the alarm index, so triggers are never skipped
//     and batched delivery equals unbatched delivery.
//
// Ownership rules (DESIGN.md §10): whoever takes a scratch from the pool
// returns it; pooled scratches never back a message that outlives the
// handler call; pointer-boxed (scratch-backed) messages never travel
// through a transport.Pipe, which retains messages un-serialized.
package server

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// UpdateScratch holds every reusable buffer of one update evaluation. A
// zero value is ready; after a few updates the buffers are warm and the
// MWPSR steady path stops allocating entirely. A scratch must not be
// shared between concurrent calls.
type UpdateScratch struct {
	// Index query results.
	triggered []alarm.ID
	raw       []uint64
	relevant  []alarm.Alarm
	rects     []geom.Rect
	// The user's lifecycle machines as loadLifecycleView read them.
	inside []alarm.InsideRegion
	pairs  []alarm.PairView
	// Safe-region computation scratch.
	rect saferegion.RectScratch
	// Response slice handed back by HandleUpdateScratch.
	out []wire.Message
	// Embedded response values boxed by pointer on the zero-alloc path. A
	// single update emits at most one message of each kind, so one field
	// per kind suffices.
	firedMsg wire.AlarmFired
	rectMsg  wire.RectRegion
	spMsg    wire.SafePeriod
	ackMsg   wire.Ack
	// Batch grouping, filled by groupByUser.
	groups  []batchGroup
	next    []int
	groupOf map[uint64]int
}

// batchGroup is one user's updates in a batch: the indices of the first
// and the last; UpdateScratch.next chains the ones between.
type batchGroup struct{ first, last int }

// groupByUser walks the batch once and leaves in sc.groups every distinct
// user's group, in order of first appearance, and in sc.next[i] the index
// of the next update by update i's user (-1 after the last).
func (sc *UpdateScratch) groupByUser(updates []wire.PositionUpdate) {
	if sc.groupOf == nil {
		sc.groupOf = make(map[uint64]int)
	}
	clear(sc.groupOf)
	sc.groups, sc.next = sc.groups[:0], sc.next[:0]
	for i, u := range updates {
		sc.next = append(sc.next, -1)
		g, seen := sc.groupOf[u.User]
		if !seen {
			sc.groupOf[u.User] = len(sc.groups)
			sc.groups = append(sc.groups, batchGroup{first: i, last: i})
			continue
		}
		sc.next[sc.groups[g].last] = i
		sc.groups[g].last = i
	}
}

// NewUpdateScratch returns an empty scratch; buffers grow on first use.
func NewUpdateScratch() *UpdateScratch { return &UpdateScratch{} }

func (e *Engine) getScratch() *UpdateScratch {
	return e.scratchPool.Get().(*UpdateScratch)
}

func (e *Engine) putScratch(sc *UpdateScratch) { e.scratchPool.Put(sc) }

// HandleUpdateScratch is HandleUpdate against caller-owned scratch
// buffers. Once sc is warm the MWPSR/SP/periodic steady paths allocate
// nothing: evaluation, safe-region computation and the response all run
// in sc.
//
// The returned slice and its messages alias sc: they are valid only until
// the next call with the same scratch, must not be retained, and must not
// be sent through an in-process transport.Pipe (serialize them, as the
// TCP path does, or copy). HandleUpdate is the safe general-purpose
// entry point.
func (e *Engine) HandleUpdateScratch(u wire.PositionUpdate, sc *UpdateScratch) ([]wire.Message, error) {
	if err := e.validatePosition(u.Pos); err != nil {
		return nil, err
	}
	user := alarm.UserID(u.User)
	st := e.clientFor(user, wire.StrategyPeriodic)
	reg := e.reg.Load()
	e.met.AddUplink(wire.SizePositionUpdate)

	pushes := e.moveTargetPushes(reg, user, u.Pos)

	st.mu.Lock()
	out, newFired, newTrans, err := e.processUpdate(reg, u, user, st, sc, sc.out[:0], true, true)
	st.mu.Unlock()
	sc.out = out

	if err == nil {
		if lerr := e.logFired(u.User, newFired, newTrans); lerr != nil {
			return nil, lerr
		}
		if reg.IsPairEndpoint(user) {
			wrecs, wpushes := e.wakePartners(reg, user)
			if lerr := e.logRecords(wrecs); lerr != nil {
				return nil, lerr
			}
			pushes = append(pushes, wpushes...)
		}
	}
	e.deliverPushes(pushes)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HandleUpdateBatch processes one UpdateBatch frame and returns the
// per-user reply entries, in first-appearance order of each user in the
// batch. Same-user updates are processed in batch (chronological) order
// under one acquisition of that user's lock; every position is evaluated
// for triggers, but only the last update of a user's group receives the
// strategy response — earlier updates get their AlarmFired or a bare Ack.
//
// The whole batch shares one uplink charge (the encoded frame), per the
// batching accounting rules. Any invalid position rejects the whole
// batch before any state changes; a WAL append failure withholds the
// whole reply (clients resend, and replay re-derives the firings) — the
// same discipline as HandleUpdate. One combined FiredRec per user is
// logged, not one per update, and all of the batch's FiredRecs land as
// one store.AppendBatch group commit: a single write(2) and fsync.
func (e *Engine) HandleUpdateBatch(b wire.UpdateBatch) (wire.BatchReply, error) {
	for _, u := range b.Updates {
		if err := e.validatePosition(u.Pos); err != nil {
			return wire.BatchReply{}, fmt.Errorf("server: batch rejected: %w", err)
		}
	}
	reply := wire.BatchReply{}
	if len(b.Updates) == 0 {
		return reply, nil
	}
	reg := e.reg.Load()
	e.met.AddUplinkBatch(wire.SizeUpdateBatch(len(b.Updates)), len(b.Updates))

	// Moving-target re-anchoring happens in batch order, before any group
	// is processed, mirroring the single-update path where the move
	// precedes the mover's own evaluation.
	var pushes []pendingPush
	for _, u := range b.Updates {
		if p := e.moveTargetPushes(reg, alarm.UserID(u.User), u.Pos); len(p) > 0 {
			pushes = append(pushes, p...)
		}
	}

	sc := e.getScratch()
	defer e.putScratch(sc)
	sc.groupByUser(b.Updates)
	reply.Entries = make([]wire.BatchEntry, 0, len(sc.groups))
	var firedRecs []store.Record
	for _, g := range sc.groups {
		user64 := b.Updates[g.first].User
		user := alarm.UserID(user64)
		st := e.clientFor(user, wire.StrategyPeriodic)
		var msgs []wire.Message
		var combined, combinedTrans []uint64
		st.mu.Lock()
		for j := g.first; j >= 0; j = sc.next[j] {
			var newFired, newTrans []uint64
			var err error
			msgs, newFired, newTrans, err = e.processUpdate(reg, b.Updates[j], user, st, sc, msgs, false, j == g.last)
			if err != nil {
				st.mu.Unlock()
				return wire.BatchReply{}, err
			}
			combined = append(combined, newFired...)
			combinedTrans = append(combinedTrans, newTrans...)
		}
		st.mu.Unlock()
		if len(combined) > 0 || len(combinedTrans) > 0 {
			all := append(append([]uint64(nil), combined...), combinedTrans...)
			firedRecs = append(firedRecs, store.FiredRec{User: user64, Alarms: all})
			tick := e.tick.Load()
			for _, ev := range combinedTrans {
				firedRecs = append(firedRecs, store.TransitionRec{User: user64, Event: ev, Tick: tick, Delivered: true})
			}
		}
		reply.Entries = append(reply.Entries, wire.BatchEntry{User: user64, Msgs: msgs})
	}
	// Pair endpoints that reported in this batch wake their partners once,
	// after every group has settled, against each reporter's final anchor.
	if reg.HasLifecycle() {
		for _, g := range sc.groups {
			user := alarm.UserID(b.Updates[g.first].User)
			if !reg.IsPairEndpoint(user) {
				continue
			}
			wrecs, wpushes := e.wakePartners(reg, user)
			firedRecs = append(firedRecs, wrecs...)
			pushes = append(pushes, wpushes...)
		}
	}
	// One group commit for the whole batch — a B-user batch costs one
	// write(2) + one fsync, not B. The write-ahead discipline holds: an
	// append failure withholds every entry of the reply, and no entry is
	// released before the group is handed to the OS.
	if err := e.logRecords(firedRecs); err != nil {
		return wire.BatchReply{}, err
	}
	e.deliverPushes(pushes)
	return reply, nil
}
