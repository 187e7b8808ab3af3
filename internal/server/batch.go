// The update pipeline (DESIGN.md §10). Every position report, alone or in
// an UpdateBatch frame, goes through handleUpdates: a single report is a
// batch of one, so HandleUpdate and HandleUpdateBatch differ only in the
// uplink charge and the shape of the reply.
//
// The pipeline validates every position before any state changes, moves
// the alarms of reporting targets (in batch order), groups the updates by
// user and takes each user's lock once per group. Under it every update is
// evaluated in chronological order; only the last of a group earns the
// strategy response — the monitoring state of an earlier position would
// be stale before the reply hits the wire — so triggers are never skipped
// and batched delivery equals unbatched delivery. Everything the reports
// fired or transitioned, and the transitions of the pair partners they
// woke, lands in one group commit before any reply or push is released.
package server

import (
	"slices"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// UpdateScratch holds every reusable buffer of one update evaluation. A
// zero value is ready; scratches come from the engine's pool, are owned
// by one call at a time and never back a message that outlives it.
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
	// The batch being served, grouped by user.
	groups UserGroups
}

// UserGroups is a batch's updates grouped by user, the order every batch
// is served in: First holds each distinct user's first update index, in
// order of first appearance, and Next[i] the index of the next update by
// update i's user (-1 after its last). The zero value is ready and keeps
// its buffers across Group calls.
type UserGroups struct {
	First []int
	Next  []int
	last  []int          // per group, its last update so far
	index map[uint64]int // user → group; empty between Group calls
}

// Group indexes updates in one pass.
func (g *UserGroups) Group(updates []wire.PositionUpdate) {
	g.First, g.Next, g.last = g.First[:0], g.Next[:0], g.last[:0]
	if len(updates) == 1 {
		g.First, g.Next = append(g.First, 0), append(g.Next, -1)
		return
	}
	if g.index == nil {
		g.index = make(map[uint64]int)
	}
	for i, u := range updates {
		g.Next = append(g.Next, -1)
		k, seen := g.index[u.User]
		if !seen {
			g.index[u.User] = len(g.First)
			g.First = append(g.First, i)
			g.last = append(g.last, i)
			continue
		}
		g.Next[g.last[k]] = i
		g.last[k] = i
	}
	// Deleting the keys, not clearing the map, keeps the next call O(B)
	// however large a batch the map once held.
	for _, i := range g.First {
		delete(g.index, updates[i].User)
	}
}

func (e *Engine) getScratch() *UpdateScratch {
	return e.scratchPool.Get().(*UpdateScratch)
}

func (e *Engine) putScratch(sc *UpdateScratch) { e.scratchPool.Put(sc) }

// HandleUpdate processes one client position report and returns the
// messages to send back: any AlarmFired notification first, then the
// strategy-specific monitoring state (safe region, safe period or alarm
// push). Unknown clients are treated as periodic.
//
// HandleUpdate is safe for concurrent use; updates for distinct users run
// in parallel, updates for one user serialize.
func (e *Engine) HandleUpdate(u wire.PositionUpdate) ([]wire.Message, error) {
	var one [1]wire.BatchEntry // the reply entry stays off the heap
	entries, err := e.handleUpdates([]wire.PositionUpdate{u}, false, one[:0])
	if err != nil {
		return nil, err
	}
	return entries[0].Msgs, nil
}

// HandleUpdateBatch processes one UpdateBatch frame and returns the
// per-user reply entries, in first-appearance order of each user in the
// batch. Every position is evaluated for triggers, but only the last
// update of a user's group receives the strategy response — earlier
// updates get their AlarmFired or a bare Ack. The whole frame is one
// uplink charge, per the batching accounting rules.
func (e *Engine) HandleUpdateBatch(b wire.UpdateBatch) (wire.BatchReply, error) {
	entries, err := e.handleUpdates(b.Updates, true, nil)
	if err != nil {
		return wire.BatchReply{}, err
	}
	return wire.BatchReply{Entries: entries}, nil
}

// handleUpdates is the update pipeline. It appends one reply entry per
// distinct user of updates to entries, charging the uplink as one
// UpdateBatch frame when batched and as one PositionUpdate otherwise.
// Any invalid position rejects every update before any state changes. A
// WAL append failure withholds the whole reply (clients resend, and
// replay re-derives the firings).
func (e *Engine) handleUpdates(updates []wire.PositionUpdate, batched bool, entries []wire.BatchEntry) ([]wire.BatchEntry, error) {
	for _, u := range updates {
		if err := e.validatePosition(u.Pos); err != nil {
			return nil, err
		}
	}
	if len(updates) == 0 {
		return entries, nil
	}
	if batched {
		e.met.AddUplinkBatch(wire.SizeUpdateBatch(len(updates)), len(updates))
	} else {
		e.met.AddUplink(wire.SizePositionUpdate)
	}
	reg := e.reg.Load()

	// A target's alarms move before any report is evaluated, so the
	// target's own evaluation already sees them where they are now.
	var pushes []pendingPush
	for _, u := range updates {
		pushes = append(pushes, e.moveTargetPushes(reg, alarm.UserID(u.User), u.Pos)...)
	}

	sc := e.getScratch()
	defer e.putScratch(sc)
	g := &sc.groups
	g.Group(updates)
	entries = slices.Grow(entries, len(g.First))
	var recs []store.Record
	for _, first := range g.First {
		user := updates[first].User
		st := e.clientFor(alarm.UserID(user), wire.StrategyPeriodic)
		var msgs []wire.Message
		var fired, trans []uint64
		st.mu.Lock()
		for j := first; j >= 0; j = g.Next[j] {
			out, f, tr, err := e.processUpdate(reg, updates[j], st, sc, msgs, g.Next[j] < 0)
			if err != nil {
				st.mu.Unlock()
				return nil, err
			}
			msgs, fired, trans = out, append(fired, f...), append(trans, tr...)
		}
		st.mu.Unlock()
		recs = e.appendEventRecs(recs, user, fired, trans)
		entries = append(entries, wire.BatchEntry{User: user, Msgs: msgs})
	}
	// Pair endpoints that reported wake their resident partners once,
	// after every group has settled, against each reporter's final anchor.
	if reg.HasLifecycle() {
		for _, first := range g.First {
			user := alarm.UserID(updates[first].User)
			if !reg.IsPairEndpoint(user) {
				continue
			}
			wrecs, wpushes := e.wakePartners(reg, user)
			recs = append(recs, wrecs...)
			pushes = append(pushes, wpushes...)
		}
	}
	// Write-ahead discipline: one group commit — one write(2) and one
	// fsync however many users reported — before any reply or push is
	// released, outside st.mu (see persist.go for why).
	if err := e.logRecords(recs); err != nil {
		return nil, err
	}
	// The Pusher may block or re-enter the engine freely: every engine
	// lock is released by now.
	e.deliverPushes(pushes)
	return entries, nil
}

// appendEventRecs appends the log records of one user's delivered events
// to recs: a FiredRec listing the firings and then the lifecycle events,
// plus one TransitionRec per lifecycle event carrying the machine state
// replay needs. Both land in the same group, so recovery never sees a
// firing without its transition or vice versa.
func (e *Engine) appendEventRecs(recs []store.Record, user uint64, fired, trans []uint64) []store.Record {
	if len(fired) == 0 && len(trans) == 0 {
		return recs
	}
	recs = append(recs, store.FiredRec{User: user, Alarms: append(fired, trans...)})
	tick := e.tick.Load()
	for _, ev := range trans {
		recs = append(recs, store.TransitionRec{User: user, Event: ev, Tick: tick, Delivered: true})
	}
	return recs
}
