// Lifecycle support: the engine-side half of the continuous / pair /
// composite alarm subsystem (DESIGN.md §15). The registry owns the state
// machines; this file owns the logical clock, the pair-endpoint anchor
// table, the cross-user wake path, and the per-scenario safe-region
// transforms that keep MWPSR/GBSR/PBSR regions sound for each kind:
//
//   - continuous, Armed phase: the region is an ordinary obstacle;
//   - continuous, Inside phase: the safe region must stay INSIDE the
//     alarm region (silence may only prove "no exit yet"), so the
//     complement of the region within the cell becomes the obstacle set;
//   - composite: each factor's bounding rect is an obstacle — reporting
//     before entering any factor re-evaluates the severity before it can
//     change;
//   - pair: no static region is sound against a moving partner, so the
//     partner's last position grown by its maximum displacement since is
//     an obstacle AND every region response is time-limited by a
//     safe-period cap that both endpoints' worst-case closing speed
//     (2·v_max) cannot beat.
package server

import (
	"slices"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// anchorObs is one pair endpoint's last reported position and the logical
// tick it was reported at (the staleness bound grows from the latter).
type anchorObs struct {
	pos  geom.Point
	tick uint64
}

// SetTick advances the engine's logical clock and expires every composite
// alarm whose TTL has passed, logging an AlarmExpireRec per removal so a
// recovered engine never resurrects an expired alarm's firings. The clock
// only moves forward; a stale tick is a no-op.
func (e *Engine) SetTick(tick uint64) error {
	for {
		cur := e.tick.Load()
		if tick <= cur {
			return nil
		}
		if e.tick.CompareAndSwap(cur, tick) {
			break
		}
	}
	reg := e.reg.Load()
	if !reg.HasLifecycle() {
		return nil
	}
	due := reg.ExpireDue(tick)
	if len(due) == 0 {
		return nil
	}
	e.syncAlarmGauges(reg)
	recs := make([]store.Record, 0, len(due))
	for _, id := range due {
		recs = append(recs, store.AlarmExpireRec{ID: id})
	}
	return e.logRecords(recs)
}

// Tick returns the engine's current logical tick.
func (e *Engine) Tick() uint64 { return e.tick.Load() }

// observeAnchor records a pair endpoint's reported position.
func (e *Engine) observeAnchor(user alarm.UserID, pos geom.Point, tick uint64) {
	e.anchorMu.Lock()
	e.anchors[user] = anchorObs{pos: pos, tick: tick}
	e.anchorMu.Unlock()
}

// anchor returns a pair endpoint's last observed position and its tick.
func (e *Engine) anchor(user alarm.UserID) (geom.Point, uint64, bool) {
	e.anchorMu.Lock()
	o, ok := e.anchors[user]
	e.anchorMu.Unlock()
	return o.pos, o.tick, ok
}

// anchorOf is the partner-position callback lifecycle evaluation uses; it
// is a leaf lock, safe to call under the registry mutex.
func (e *Engine) anchorOf(user alarm.UserID) (geom.Point, bool) {
	p, _, ok := e.anchor(user)
	return p, ok
}

// Anchor returns the engine's newest accepted position for a pair
// endpoint. The cluster broadcasts THIS — not the raw report
// position — to other shards: the anchor table only advances on fresh
// (in-seq) reports, so a redelivered stale report cannot ripple an old
// position across shards and flip a remote pair machine backward.
func (e *Engine) Anchor(user alarm.UserID) (geom.Point, bool) {
	return e.anchorOf(user)
}

// ObserveAnchor folds a pair endpoint's position observed on another
// shard into the local anchor table and wakes resident partner machines —
// the cluster fans each pair endpoint's report to every other live
// shard through this, so a pair split across shards transitions on both.
func (e *Engine) ObserveAnchor(user alarm.UserID, pos geom.Point) error {
	reg := e.reg.Load()
	if !reg.HasLifecycle() || !reg.IsPairEndpoint(user) {
		return nil
	}
	e.observeAnchor(user, pos, e.tick.Load())
	recs, pushes := e.wakePartners(reg, user)
	if err := e.logRecords(recs); err != nil {
		return err
	}
	e.deliverPushes(pushes)
	return nil
}

// wakePartners evaluates the pair machines of every partner of mover that
// is resident on this engine, using the partners' last known positions
// against mover's fresh anchor. Transitions are appended to each reliable
// partner's pending set and returned as TransitionRecs for the caller to
// log (write-ahead) before the pushes — an AlarmFired plus fresh
// monitoring state per woken partner — are delivered.
func (e *Engine) wakePartners(reg *alarm.Registry, mover alarm.UserID) ([]store.Record, []pendingPush) {
	tick := e.tick.Load()
	var partners []alarm.UserID
	_, pairs := reg.LifecycleViewInto(mover, nil, nil)
	for _, pv := range pairs {
		partners = append(partners, pv.Partner)
	}
	slices.Sort(partners)
	partners = slices.Compact(partners)
	var recs []store.Record
	var pushes []pendingPush
	var sc *UpdateScratch
	for _, p := range partners {
		sh := e.shardFor(p)
		sh.mu.RLock()
		st := sh.m[p]
		sh.mu.RUnlock()
		if st == nil {
			continue // not resident here: the cluster's anchor fan-out covers it
		}
		ppos, _, ok := e.anchor(p)
		if !ok {
			continue // partner has not reported a position yet
		}
		st.mu.Lock()
		events := reg.EvaluatePairsInto(p, ppos, tick, e.anchorOf, nil)
		var msgs []wire.Message
		if len(events) > 0 {
			e.met.AlarmTransitions.Add(uint64(len(events)))
			deliver := events
			if st.reliable {
				st.pendingFired = append(st.pendingFired, events...)
				if len(st.pendingFired) > e.pendingCap {
					drop := len(st.pendingFired) - e.pendingCap
					st.pendingFired = append(st.pendingFired[:0], st.pendingFired[drop:]...)
					e.met.FiredEvictions.Add(uint64(drop))
				}
				deliver = append([]uint64(nil), st.pendingFired...)
			}
			msgs = append(msgs, wire.AlarmFired{Seq: 0, Alarms: deliver})
			for _, ev := range events {
				recs = append(recs, store.TransitionRec{User: uint64(p), Event: ev, Tick: tick, Delivered: true})
			}
			// The partner's held region was computed against the anchor's
			// old position; refresh it along with the transition.
			if sc == nil {
				sc = e.getScratch()
			}
			msgs = append(msgs, e.invalidationFor(reg, p, st, sc)...)
		}
		st.mu.Unlock()
		if len(msgs) > 0 {
			pushes = append(pushes, pendingPush{user: p, msgs: msgs})
		}
	}
	if sc != nil {
		e.putScratch(sc)
	}
	return recs, pushes
}

// loadLifecycleView fills sc with what the obstacle transform and the
// pair cap need from user's lifecycle machines — one locked registry read
// per report, after the report's own transitions have been applied. With
// no lifecycle alarm installed the view is empty and the registry is not
// asked.
func (e *Engine) loadLifecycleView(reg *alarm.Registry, user alarm.UserID, sc *UpdateScratch) {
	sc.inside, sc.pairs = sc.inside[:0], sc.pairs[:0]
	if reg.HasLifecycle() {
		sc.inside, sc.pairs = reg.LifecycleViewInto(user, sc.inside, sc.pairs)
	}
}

// regionCap converts pairCapTicks into the atomic Cap field carried by
// every monitoring-state response (0 = no cap, v = expire after v-1
// ticks). The cap must travel inside the region/ack message itself: a
// separately shipped SafePeriod can be dropped while the region is
// delivered, leaving a pair endpoint with an uncapped region that its
// partner's motion silently invalidates.
func (e *Engine) regionCap(sc *UpdateScratch, pos geom.Point) uint32 {
	ticks, ok := e.pairCapTicks(sc.pairs, pos)
	if !ok {
		return 0
	}
	return ticks + 1
}

// pairCapTicks returns the safe-period cap bounding how long the user
// whose pair alarms are pairs may stay silent before a pair transition
// could be missed, and whether the user has any pair alarms at all. The
// margin to the nearest transition boundary (Radius minus distance while
// in contact, distance minus Radius otherwise, both shrunk by the
// partner's possible displacement since its last report) closes at up to
// 2·v_max — both endpoints move.
func (e *Engine) pairCapTicks(pairs []alarm.PairView, pos geom.Point) (uint32, bool) {
	if len(pairs) == 0 {
		return 0, false
	}
	tick := e.tick.Load()
	step := e.cfg.MaxSpeed * e.cfg.TickSeconds
	best := ^uint32(0)
	for _, a := range pairs {
		var t uint32
		pp, ptick, ok := e.anchor(a.Partner)
		if ok {
			slack := float64(tick-ptick) * step
			d := pos.DistanceTo(pp)
			margin := d - a.Radius - slack
			if a.Inside {
				margin = a.Radius - d - slack
			}
			if margin < 0 {
				margin = 0
			}
			t = uint32(saferegion.SafePeriodTicks(margin/2, e.cfg.MaxSpeed, e.cfg.TickSeconds, 1<<30))
		}
		// Unknown partner: t stays 0, forcing a report every tick until
		// the partner's first report establishes an anchor.
		if t < best {
			best = t
		}
	}
	return best, true
}

// obstacles turns sc.relevant — the alarms a region for the user must
// avoid within cell — into the obstacle list for the lifecycle scenarios
// (see the package comment above), using the view loadLifecycleView left
// in sc, and appends it to dst. For one-shot alarms it is the plain region
// copy.
func (e *Engine) obstacles(sc *UpdateScratch, cell geom.Rect, dst []geom.Rect) []geom.Rect {
	for i := range sc.relevant {
		a := &sc.relevant[i]
		switch {
		case a.Kind == alarm.KindContinuous && insideContains(sc.inside, a.ID):
			// Inside phase: handled below as a carve-INTO constraint.
		case a.Kind == alarm.KindComposite:
			for _, f := range a.Factors {
				if b := f.Bound(); b.Intersects(cell) {
					dst = append(dst, b)
				}
			}
		default:
			dst = append(dst, a.Region)
		}
	}
	for _, in := range sc.inside {
		dst = appendComplement(dst, cell, in.Region)
	}
	tick := e.tick.Load()
	step := e.cfg.MaxSpeed * e.cfg.TickSeconds
	for _, a := range sc.pairs {
		if a.Inside {
			continue // in contact: no static region is sound, the cap is the guard
		}
		pp, ptick, ok := e.anchor(a.Partner)
		if !ok {
			continue // no anchor: the zero cap already forces per-tick reports
		}
		r := a.Radius + float64(tick-ptick)*step
		disc := geom.Rect{MinX: pp.X - r, MinY: pp.Y - r, MaxX: pp.X + r, MaxY: pp.Y + r}
		if disc.Intersects(cell) {
			dst = append(dst, disc)
		}
	}
	return dst
}

// appendComplement appends the parts of cell NOT covered by region (≤4
// rects) — the obstacle set that confines a safe region to the interior
// of an Inside-phase continuous alarm.
func appendComplement(dst []geom.Rect, cell, region geom.Rect) []geom.Rect {
	rc := region.Intersect(cell)
	if rc.Empty() {
		// The region misses the cell entirely (the user just crossed a
		// cell boundary while inside): nothing here is provably exit-free.
		return append(dst, cell)
	}
	if rc.MinX > cell.MinX {
		dst = append(dst, geom.Rect{MinX: cell.MinX, MinY: cell.MinY, MaxX: rc.MinX, MaxY: cell.MaxY})
	}
	if rc.MaxX < cell.MaxX {
		dst = append(dst, geom.Rect{MinX: rc.MaxX, MinY: cell.MinY, MaxX: cell.MaxX, MaxY: cell.MaxY})
	}
	if rc.MinY > cell.MinY {
		dst = append(dst, geom.Rect{MinX: rc.MinX, MinY: cell.MinY, MaxX: rc.MaxX, MaxY: rc.MinY})
	}
	if rc.MaxY < cell.MaxY {
		dst = append(dst, geom.Rect{MinX: rc.MinX, MinY: rc.MaxY, MaxX: rc.MaxX, MaxY: cell.MaxY})
	}
	return dst
}

// syncAlarmGauges refreshes the per-kind installed-alarm gauges on the
// metrics endpoints. Called from every durable install/remove path.
func (e *Engine) syncAlarmGauges(reg *alarm.Registry) {
	c, p, k := reg.KindCounts()
	e.met.AlarmsContinuous.Store(uint64(c))
	e.met.AlarmsPair.Store(uint64(p))
	e.met.AlarmsComposite.Store(uint64(k))
}

func insideContains(s []alarm.InsideRegion, id alarm.ID) bool {
	for i := range s {
		if s[i].ID == id {
			return true
		}
	}
	return false
}
