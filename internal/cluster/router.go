package cluster

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// ShardDownError reports that a message could not be processed because
// the shard that must process it is down (or a handoff is blocked on
// it). It carries the shard ID and the partition-map epoch the router
// observed, so callers can distinguish "wait for this shard" from a
// real failure and can tell whether a later epoch (a promotion or
// recovery) has superseded the observation.
type ShardDownError struct {
	Shard int
	Epoch uint64
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("cluster: shard %d down (map epoch %d)", e.Shard, e.Epoch)
}

// IsShardDown unwraps err as a *ShardDownError.
func IsShardDown(err error) (*ShardDownError, bool) {
	var sd *ShardDownError
	if errors.As(err, &sd) {
		return sd, true
	}
	return nil, false
}

// Router forwards one client population's wire messages to the shard
// owning each client's position, performing cross-shard session handoff
// when a client crosses a partition boundary and deduplicating alarm
// firings that overlapping installs would otherwise deliver twice
// (PROTOCOL.md "Redirect and handoff").
//
// Handlers return *ShardDownError when the owning shard is down (or a
// handoff is blocked on a down shard) and nothing was processed — the
// caller sends nothing and the client's session machinery resends until
// the shard recovers or a follower is promoted in its place. A
// write-ahead failure inside a shard (store.ErrCrashed) is treated
// identically: the shard is dying, and the client's retry lands after
// recovery. Any other error is a real protocol failure.
//
// The router itself holds no durable state, and no session state at all:
// a handoff that cannot complete leaves the session on the shard it was
// on (moveSession imports before it drops). The per-user dedup map
// rebuilds trivially because it shadows durable shard state: firing
// attribution re-derives from redelivery (a pair delivered twice is
// acknowledged back to the duplicate's shard).
type Router struct {
	cl *Cluster

	mu     sync.Mutex
	routes map[uint64]*route
}

// route is one client's routing state. Its mutex serializes that
// client's messages through the router (mirroring the engine's
// per-client serialization); distinct clients proceed in parallel.
type route struct {
	mu   sync.Mutex
	user uint64
	// shard owns the session; -1 before first enrollment. It moves only
	// once a handoff's import is durable on the new shard.
	shard int
	// pushToken is a token minted by an ImportSession that the client has
	// not been told about yet; delivered as a Resume on the next handled
	// response. If that frame is lost the client's stale token simply
	// misses on its next Hello and the shard re-enrolls it fresh,
	// carrying the pending set — safe, just slower.
	pushToken uint64
	// Last declared registration, used to synthesize a handoff record
	// when the old shard has no state for the user (e.g. it expired the
	// session while the client was offline).
	strategy  wire.Strategy
	maxHeight uint8
	reliable  bool
	// fired attributes each delivered alarm id to the shard that first
	// delivered it. Ids arriving from any other shard are duplicates from
	// overlapping installs: stripped, and acknowledged back to that shard
	// so it stops redelivering.
	fired map[uint64]int
	// parked marks a handoff currently waiting on a down target shard
	// (the session stays where it is meanwhile); parkedPromotions is the
	// cluster's promotion count at park time, so the import that finally
	// lands can tell whether a follower promotion (rather than the old
	// primary's recovery) revived the target.
	parked           bool
	parkedPromotions uint64
}

// NewRouter routes for cl.
func NewRouter(cl *Cluster) *Router {
	return &Router{cl: cl, routes: make(map[uint64]*route)}
}

func (r *Router) route(user uint64) *route {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt := r.routes[user]
	if rt == nil {
		rt = &route{user: user, shard: -1, fired: make(map[uint64]int)}
		r.routes[user] = rt
	}
	return rt
}

// resolveShard re-points a route whose shard was retired by a merge:
// the drain moved its session to the absorbing shard. The caller holds
// rt.mu.
func (r *Router) resolveShard(rt *route) {
	if rt.shard < 0 {
		return
	}
	if to, ok := r.cl.retiredTarget(rt.shard); ok {
		rt.shard = to
	}
}

// HandleRegister enrolls a plain (fire-and-forget) client. Without a
// position the session starts on the lowest live shard; the first
// update hands it off to its true owner.
func (r *Router) HandleRegister(m wire.Register) bool {
	rt := r.route(m.User)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.strategy, rt.maxHeight, rt.reliable = m.Strategy, m.MaxHeight, false
	r.resolveShard(rt)
	if rt.shard < 0 {
		rt.shard = r.cl.firstShard()
	}
	eng := r.cl.Engine(rt.shard)
	return eng != nil && eng.Register(m) == nil
}

// downErr builds the typed down-shard error for the current map epoch.
func (r *Router) downErr(shard int) error {
	return &ShardDownError{Shard: shard, Epoch: r.cl.Epoch()}
}

// HandleHello establishes or resumes a session on the client's current
// shard. A client that never reported yet starts on the lowest live
// shard.
func (r *Router) HandleHello(m wire.Hello) ([]wire.Message, error) {
	rt := r.route(m.User)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.strategy, rt.maxHeight, rt.reliable = m.Strategy, m.MaxHeight, true
	r.resolveShard(rt)
	if rt.shard < 0 {
		rt.shard = r.cl.firstShard()
	}
	eng := r.cl.Engine(rt.shard)
	if eng == nil {
		return nil, r.downErr(rt.shard)
	}
	out, _, err := eng.HandleHello(m)
	if err != nil {
		if errors.Is(err, store.ErrCrashed) {
			return nil, r.downErr(rt.shard)
		}
		return nil, err
	}
	rt.pushToken = 0 // the Hello response carries a fresh Resume already
	return r.filterFired(rt, rt.shard, nil, out), nil
}

// HandleUpdate routes one position report, handing the session off first
// when the position crossed into another shard's partition: a run of one
// through routeUserRun, served by the shard as a single-update frame.
func (r *Router) HandleUpdate(u wire.PositionUpdate) ([]wire.Message, error) {
	r.cl.met.AddRoutedUpdate()
	return r.routeUserRun(u.User, []wire.PositionUpdate{u}, false)
}

// HandleUpdateBatch routes one UpdateBatch frame. Updates are grouped by
// user (server.UserGroups: first-appearance order, chronological within a
// user, the engine's batch contract) and each group is split into maximal
// runs of positions owned by the same shard; the handoff dance between
// runs is exactly the single-update path's, so a mis-routed entry falls
// back to the normal cross-shard handoff. Each run is forwarded as its own
// engine-level batch, so the shard charges uplink per run frame — the
// router re-frames per shard.
//
// Entries for users whose owning shard is down (or whose handoff parked)
// are omitted from the reply and the client's resend machinery
// redelivers those reports. A *ShardDownError is returned only when no
// update in the whole frame was processed.
func (r *Router) HandleUpdateBatch(b wire.UpdateBatch) (wire.BatchReply, error) {
	if len(b.Updates) == 0 {
		return wire.BatchReply{}, nil
	}
	r.cl.met.AddRoutedBatch(len(b.Updates))
	var g server.UserGroups
	g.Group(b.Updates)
	reply := wire.BatchReply{Entries: make([]wire.BatchEntry, 0, len(g.First))}
	var down error
	var ups []wire.PositionUpdate
	for _, first := range g.First {
		ups = ups[:0]
		for j := first; j >= 0; j = g.Next[j] {
			ups = append(ups, b.Updates[j])
		}
		user := ups[0].User
		msgs, err := r.routeUserRun(user, ups, true)
		if err != nil {
			if _, ok := IsShardDown(err); ok {
				if down == nil {
					down = err
				}
				continue // this user's reports resend; others proceed
			}
			return wire.BatchReply{}, err
		}
		reply.Entries = append(reply.Entries, wire.BatchEntry{User: user, Msgs: msgs})
	}
	if len(reply.Entries) == 0 && down != nil {
		return wire.BatchReply{}, down
	}
	return reply, nil
}

// routeUserRun forwards one user's chronological updates, splitting them
// into maximal same-shard runs with a handoff between runs. Each run is
// one engine call: HandleUpdateBatch when batched, otherwise HandleUpdate
// on the lone update. It returns a *ShardDownError when nothing could be
// processed. The returned messages may cover a prefix of ups when a shard
// died mid-group; the client resends the unanswered tail.
func (r *Router) routeUserRun(user uint64, ups []wire.PositionUpdate, batched bool) ([]wire.Message, error) {
	rt := r.route(user)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var msgs []wire.Message
	var blocked error
	processed := false
	for i := 0; i < len(ups); {
		owner := r.cl.locate(ups[i].Pos)
		r.resolveShard(rt)
		if rt.shard < 0 {
			rt.shard = owner // first contact: enroll where the client is
		}
		if rt.shard != owner {
			if blocked = r.handoff(rt, owner); blocked != nil {
				break
			}
		}
		j := i + 1
		for j < len(ups) && r.cl.locate(ups[j].Pos) == rt.shard {
			j++
		}
		eng := r.cl.Engine(rt.shard)
		if eng == nil {
			blocked = r.downErr(rt.shard)
			break
		}
		var out []wire.Message
		var err error
		if batched {
			var br wire.BatchReply
			if br, err = eng.HandleUpdateBatch(wire.UpdateBatch{Updates: ups[i:j]}); err == nil {
				out = br.Entries[0].Msgs // one user: one entry
			}
		} else {
			out, err = eng.HandleUpdate(ups[i])
		}
		if err != nil {
			if errors.Is(err, store.ErrCrashed) {
				blocked = r.downErr(rt.shard)
				break
			}
			return nil, err
		}
		processed = true
		r.cl.fanOutAnchor(rt.shard, user, ups[j-1].Pos)
		start := len(msgs)
		msgs = r.filterFired(rt, rt.shard, msgs, out)
		if batched {
			// Dedup may strip an update's only response (an AlarmFired another
			// shard already delivered). Every processed update of a batch
			// must still be answered or the client resends it forever, so
			// backfill a bare Ack for any seq the filtered reply no longer
			// covers. A lone update is answered by its front end instead.
			answered := make(map[uint32]bool, len(msgs)-start)
			for _, m := range msgs[start:] {
				if seq, ok := wire.SeqOf(m); ok {
					answered[seq] = true
				}
			}
			for _, u := range ups[i:j] {
				if !answered[u.Seq] {
					msgs = append(msgs, wire.Ack{Seq: u.Seq})
				}
			}
		}
		i = j
	}
	if !processed {
		return nil, blocked
	}
	if rt.pushToken != 0 {
		// Tell the client its session moved: adopt the new shard's token.
		msg := wire.Resume{Token: rt.pushToken, Resumed: true}
		if eng := r.cl.Engine(rt.shard); eng != nil {
			eng.Metrics().AddDownlink(wire.EncodedSize(msg))
		}
		msgs = append([]wire.Message{msg}, msgs...)
		rt.pushToken = 0
	}
	return msgs, nil
}

// handoff moves rt's session from rt.shard to owner (moveSession: import
// durable, then drop). While either shard is down the session stays on
// rt.shard and the returned *ShardDownError names the shard the handoff
// waits for — the old shard when it cannot be read, otherwise the
// import target. The caller holds rt.mu.
func (r *Router) handoff(rt *route, owner int) error {
	if to, ok := r.cl.retiredTarget(rt.shard); ok {
		// The old shard was merged away; its drain already moved the
		// session to the absorbing shard.
		rt.shard = to
		if rt.shard == owner {
			return nil
		}
	}
	oldEng := r.cl.Engine(rt.shard)
	if oldEng == nil {
		r.cl.met.AddHandoffDeferred()
		return r.downErr(rt.shard)
	}
	newEng := r.cl.Engine(owner)
	if newEng == nil {
		return r.park(rt, owner)
	}
	user := alarm.UserID(rt.user)
	rec, tok, moved, err := moveSession(oldEng, newEng, user, nil)
	switch {
	case moved:
		// An error here means only the old shard's cleanup failed: that
		// shard is dying, and if its recovery resurrects a stale copy the
		// next handoff towards it merges the copy away — harmless, because
		// firing attribution dedups redeliveries.
	case err != nil:
		return r.park(rt, owner)
	case newEng.HasSession(user):
		// The old shard no longer knows the client but the owner already
		// holds the session (a merge drain moved it there while this
		// route still named the source): adopt the owner's copy rather
		// than importing a fresh empty record over the drained pending
		// set.
		rt.shard = owner
		return nil
	default:
		// Idle-expired everywhere: enroll the declared registration with
		// no pending firings.
		rec = store.ClientRec{
			User: rt.user, Strategy: rt.strategy,
			MaxHeight: rt.maxHeight, Reliable: rt.reliable,
		}
		if tok, err = newEng.ImportSession(rec); err != nil {
			return r.park(rt, owner)
		}
	}
	// The new shard redelivers the carried pending set from now on;
	// re-attribute those ids so dedup lets its redeliveries through.
	for _, id := range rec.PendingFired {
		rt.fired[id] = owner
	}
	if rec.Reliable {
		rt.pushToken = tok
	}
	rt.shard = owner
	if rt.parked {
		if r.cl.met.Snapshot().Promotions > rt.parkedPromotions {
			r.cl.met.AddHandoffFailedOver()
		}
		rt.parked = false
	}
	r.cl.met.AddHandoff()
	return nil
}

// park books a handoff that has to wait for its target shard (down, or
// dying mid-import) and names that shard. The session has not moved. It
// remembers the promotion count once per wait, so the import that
// finally lands can report whether a failover (not a recovery) ended it.
// The caller holds rt.mu.
func (r *Router) park(rt *route, owner int) error {
	r.cl.met.AddHandoffDeferred()
	if !rt.parked {
		rt.parked = true
		rt.parkedPromotions = r.cl.met.Snapshot().Promotions
		r.cl.met.AddHandoffParked()
	}
	return r.downErr(owner)
}

// HandleHeartbeat forwards a heartbeat to the owning shard, or echoes it
// locally while that shard is down — the link is healthy, only the shard
// is gone, and the client must not tear the connection down for it.
func (r *Router) HandleHeartbeat(user uint64, hb wire.Heartbeat) []wire.Message {
	rt := r.route(user)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r.resolveShard(rt)
	if rt.shard < 0 {
		return []wire.Message{hb}
	}
	eng := r.cl.Engine(rt.shard)
	if eng == nil {
		return []wire.Message{hb}
	}
	return r.filterFired(rt, rt.shard, nil, eng.HandleHeartbeat(alarm.UserID(user), hb))
}

// HandleAck forwards a FiredAck to the owning shard. While the shard is
// down the ack is dropped: the shard keeps the pending set, redelivers
// after recovery, and the client's session re-acks — converging with no
// router-side buffering.
func (r *Router) HandleAck(user uint64, ids []uint64) {
	rt := r.route(user)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	r.resolveShard(rt)
	if rt.shard < 0 {
		return
	}
	eng := r.cl.Engine(rt.shard)
	if eng == nil {
		return
	}
	_ = eng.AckFired(alarm.UserID(user), ids) // ErrCrashed: redelivery re-acks
}

// filterFired appends shard's responses to dst, stripping duplicate
// firings. The first shard to deliver an id owns it; the same shard may
// redeliver (the client's session dedups and re-acks), but an id arriving
// from a different shard is an overlapping-install duplicate — it is
// removed from the response and acknowledged straight back to that shard
// so it stops redelivering. The caller holds rt.mu.
func (r *Router) filterFired(rt *route, shard int, dst, msgs []wire.Message) []wire.Message {
	for _, m := range msgs {
		af, isFired := m.(wire.AlarmFired)
		if !isFired {
			dst = append(dst, m)
			continue
		}
		pass := make([]uint64, 0, len(af.Alarms))
		var strip []uint64
		for _, id := range af.Alarms {
			prev, seen := rt.fired[id]
			switch {
			case !seen:
				rt.fired[id] = shard
				pass = append(pass, id)
			case prev == shard:
				pass = append(pass, id)
			default:
				strip = append(strip, id)
			}
		}
		if len(strip) > 0 {
			r.cl.met.AddDuplicateFiringsSuppressed(uint64(len(strip)))
			if eng := r.cl.Engine(shard); eng != nil {
				_ = eng.AckFired(alarm.UserID(rt.user), strip)
			}
		}
		if len(pass) == 0 {
			continue // fully deduplicated: drop the frame
		}
		dst = append(dst, wire.AlarmFired{Seq: af.Seq, Alarms: pass})
	}
	return dst
}
