package cluster

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

func hello(t *testing.T, rt *Router, user uint64) uint64 {
	t.Helper()
	out, err := rt.HandleHello(wire.Hello{User: user, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	for _, m := range out {
		if r, ok := m.(wire.Resume); ok {
			return r.Token
		}
	}
	t.Fatal("hello response carries no Resume")
	return 0
}

func update(t *testing.T, rt *Router, user uint64, seq uint32, pos geom.Point) []wire.Message {
	t.Helper()
	out, err := rt.HandleUpdate(wire.PositionUpdate{User: user, Seq: seq, Pos: pos})
	if err != nil {
		t.Fatalf("update seq %d: %v", seq, err)
	}
	return out
}

func firedIDs(msgs []wire.Message) []uint64 {
	var ids []uint64
	for _, m := range msgs {
		if af, ok := m.(wire.AlarmFired); ok {
			ids = append(ids, af.Alarms...)
		}
	}
	return ids
}

// TestRouterHandoffMovesSession: crossing the partition boundary exports
// the session from the old shard, imports it at the new one, and pushes
// the freshly minted token to the client as a Resume.
func TestRouterHandoffMovesSession(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	rt := NewRouter(c)
	hello(t, rt, 1)
	update(t, rt, 1, 1, geom.Pt(2000, 5000)) // enrolls on shard 0

	out := update(t, rt, 1, 2, geom.Pt(8000, 5000)) // crosses to shard 1
	var pushed *wire.Resume
	for _, m := range out {
		if r, ok := m.(wire.Resume); ok {
			pushed = &r
		}
	}
	if pushed == nil || pushed.Token == 0 || !pushed.Resumed {
		t.Fatalf("no token push after handoff: %v", out)
	}
	met := c.Metrics().Snapshot()
	if met.Handoffs != 1 {
		t.Errorf("Handoffs = %d, want 1", met.Handoffs)
	}
	if got := c.Engine(0).Metrics().Snapshot().SessionsExported; got != 1 {
		t.Errorf("shard 0 SessionsExported = %d, want 1", got)
	}
	if got := c.Engine(1).Metrics().Snapshot().SessionsImported; got != 1 {
		t.Errorf("shard 1 SessionsImported = %d, want 1", got)
	}
	// The pushed token resumes the session on the new shard.
	out, err := rt.HandleHello(wire.Hello{User: 1, Token: pushed.Token, Strategy: wire.StrategyMWPSR, MaxHeight: 5})
	if err != nil {
		t.Fatalf("resume hello: %v", err)
	}
	for _, m := range out {
		if r, ok := m.(wire.Resume); ok && !r.Resumed {
			t.Error("token minted by handoff did not resume on the new shard")
		}
	}
}

// TestRouterSuppressesCrossShardDuplicate: an alarm straddling a boundary
// is installed on both of its shards. A direct crossing carries the spent
// alarm with the session, so the new shard never refires it. A detour
// through shards that do not hold the alarm loses the mark (an importer
// keeps only the ids whose alarm it holds), so the far side's stale
// registry refires on arrival — the router must strip that duplicate and
// ack it back to the shard.
func TestRouterSuppressesCrossShardDuplicate(t *testing.T) {
	c := newTestCluster(t, 2, 2, "")
	ids, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 1,
		Region: geom.RectAround(geom.Pt(5000, 500), 1000), // x 4500..5500, y 0..1000
	}})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(ids[0])
	right := c.locate(geom.Pt(5200, 500))
	for _, far := range []int{c.locate(geom.Pt(4800, 8000)), c.locate(geom.Pt(5200, 8000))} {
		if _, held := c.Engine(far).Registry().Get(ids[0]); held {
			t.Fatalf("shard %d holds the alarm; the detour would carry the mark", far)
		}
	}
	rt := NewRouter(c)
	hello(t, rt, 1)

	out := update(t, rt, 1, 1, geom.Pt(4800, 500)) // inside region, left shard
	if got := firedIDs(out); len(got) != 1 || got[0] != id {
		t.Fatalf("first firing = %v, want [%d]", got, id)
	}
	rt.HandleAck(1, []uint64{id})

	out = update(t, rt, 1, 2, geom.Pt(5200, 500)) // direct crossing; still inside region
	if got := firedIDs(out); len(got) != 0 {
		t.Fatalf("duplicate firing after a direct crossing: %v", got)
	}
	if trig := c.Engine(right).Metrics().Snapshot().AlarmsTriggered; trig != 0 {
		t.Errorf("shard %d refired the carried pair (AlarmsTriggered = %d)", right, trig)
	}
	if got := c.Metrics().Snapshot().DuplicateFiringsSuppressed; got != 0 {
		t.Errorf("DuplicateFiringsSuppressed = %d after a direct crossing, want 0", got)
	}

	// User 2 fires on the left shard, then reaches the right shard the long
	// way round.
	hello(t, rt, 2)
	if _, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 2,
		Region: geom.RectAround(geom.Pt(5000, 500), 1000),
	}}); err != nil {
		t.Fatal(err)
	}
	out = update(t, rt, 2, 1, geom.Pt(4800, 500))
	got := firedIDs(out)
	if len(got) != 1 {
		t.Fatalf("user 2 first firing = %v, want one id", got)
	}
	rt.HandleAck(2, got)
	update(t, rt, 2, 2, geom.Pt(4800, 8000))
	update(t, rt, 2, 3, geom.Pt(5200, 8000))
	out = update(t, rt, 2, 4, geom.Pt(5200, 500))
	if dup := firedIDs(out); len(dup) != 0 {
		t.Fatalf("duplicate firing leaked through the router: %v", dup)
	}
	if got := c.Metrics().Snapshot().DuplicateFiringsSuppressed; got != 1 {
		t.Errorf("DuplicateFiringsSuppressed = %d, want 1", got)
	}
	// The synthetic ack drained the right shard's pending set: nothing
	// redelivers.
	if pending := c.Engine(right).PendingFired(2); len(pending) != 0 {
		t.Errorf("shard %d still holds pending %v after synthetic ack", right, pending)
	}
}

// TestRouterHandoffCarriesPending: an unacknowledged firing survives the
// handoff — the new shard both knows it fired (no refire) and redelivers
// it until the client acks.
func TestRouterHandoffCarriesPending(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	ids, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 1,
		Region: geom.RectAround(geom.Pt(5000, 5000), 1000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(ids[0])
	rt := NewRouter(c)
	hello(t, rt, 1)
	out := update(t, rt, 1, 1, geom.Pt(4800, 5000))
	if got := firedIDs(out); len(got) != 1 {
		t.Fatalf("no firing on shard 0: %v", out)
	}
	// No ack: the firing is pending when the client crosses the boundary.
	// The new shard redelivers it (the client session dedups) — but must
	// not REFIRE it, which would double-count the pair.
	out = update(t, rt, 1, 2, geom.Pt(5200, 5000))
	if got := firedIDs(out); len(got) != 1 || got[0] != id {
		t.Fatalf("handoff response = %v, want redelivery of [%d]", got, id)
	}
	s1 := c.Engine(1).Metrics().Snapshot()
	if s1.AlarmsTriggered != 0 {
		t.Errorf("shard 1 refired the carried pair (AlarmsTriggered = %d)", s1.AlarmsTriggered)
	}
	if s1.FiredRedeliveries == 0 {
		t.Error("shard 1 did not count the redelivery")
	}
	if pending := c.Engine(1).PendingFired(1); len(pending) != 1 || pending[0] != id {
		t.Fatalf("shard 1 pending = %v, want [%d]", pending, id)
	}
	// Redelivery from the NEW shard passes dedup (the pair re-attributed).
	hb := rt.HandleHeartbeat(1, wire.Heartbeat{})
	if got := firedIDs(hb); len(got) != 1 || got[0] != id {
		t.Fatalf("heartbeat redelivery = %v, want [%d]", got, id)
	}
	rt.HandleAck(1, []uint64{id})
	if pending := c.Engine(1).PendingFired(1); len(pending) != 0 {
		t.Errorf("pending not drained after ack: %v", pending)
	}
}

// TestRouterDownShardDefers: messages for a dead shard go unanswered
// (the session resends), heartbeats are echoed locally so the link stays
// up, and a handoff into a dead shard parks until it recovers.
func TestRouterDownShardDefers(t *testing.T) {
	c := newTestCluster(t, 2, 1, t.TempDir())
	rt := NewRouter(c)
	hello(t, rt, 1)
	update(t, rt, 1, 1, geom.Pt(2000, 5000))

	rng := rand.New(rand.NewSource(7))
	if err := c.KillShard(0, store.TearNone, rng); err != nil {
		t.Fatal(err)
	}
	_, err := rt.HandleUpdate(wire.PositionUpdate{User: 1, Seq: 2, Pos: geom.Pt(2100, 5000)})
	if sd, ok := IsShardDown(err); !ok || sd.Shard != 0 {
		t.Fatalf("update to dead shard: err=%v, want ShardDownError{Shard: 0}", err)
	}
	hb := rt.HandleHeartbeat(1, wire.Heartbeat{})
	if len(hb) != 1 {
		t.Fatalf("heartbeat to dead shard: %v, want local echo", hb)
	}
	if err := c.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	update(t, rt, 1, 2, geom.Pt(2100, 5000)) // resumes after recovery

	// Handoff INTO a dead shard parks the carried session.
	if err := c.KillShard(1, store.TearNone, rng); err != nil {
		t.Fatal(err)
	}
	_, err = rt.HandleUpdate(wire.PositionUpdate{User: 1, Seq: 3, Pos: geom.Pt(8000, 5000)})
	if sd, ok := IsShardDown(err); !ok || sd.Shard != 1 {
		t.Fatalf("handoff into dead shard: err=%v, want ShardDownError{Shard: 1}", err)
	}
	if got := c.Metrics().Snapshot().HandoffsParked; got != 1 {
		t.Errorf("HandoffsParked = %d, want 1", got)
	}
	if got := c.Metrics().Snapshot().HandoffsDeferred; got == 0 {
		t.Error("no deferred handoff counted")
	}
	hb = rt.HandleHeartbeat(1, wire.Heartbeat{})
	if len(hb) != 1 {
		t.Fatalf("heartbeat while parked: %v, want local echo", hb)
	}
	if err := c.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	out := update(t, rt, 1, 3, geom.Pt(8000, 5000))
	var pushed bool
	for _, m := range out {
		if r, ok := m.(wire.Resume); ok && r.Token != 0 {
			pushed = true
		}
	}
	if !pushed {
		t.Errorf("no token push after parked handoff landed: %v", out)
	}
	if got := c.Metrics().Snapshot().Handoffs; got != 1 {
		t.Errorf("Handoffs = %d, want 1", got)
	}
}

// TestRouterConcurrent hammers one router from many goroutines, each
// driving its own user back and forth across the partition boundary.
// Run under -race (make cluster); correctness here is the absence of
// data races and deadlocks, plus every update eventually handled.
func TestRouterConcurrent(t *testing.T) {
	c := newTestCluster(t, 2, 2, "")
	if _, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Public, Owner: 1,
		Region: geom.RectAround(geom.Pt(5000, 5000), 800),
	}}); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(c)
	const users = 16
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 1; u <= users; u++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(user)))
			if _, err := rt.HandleHello(wire.Hello{User: user, Strategy: wire.StrategyPBSR, MaxHeight: 5}); err != nil {
				errs <- err
				return
			}
			for seq := uint32(1); seq <= 200; seq++ {
				pos := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				if _, err := rt.HandleUpdate(wire.PositionUpdate{User: user, Seq: seq, Pos: pos}); err != nil {
					errs <- err
					return
				}
				if rng.Intn(8) == 0 {
					rt.HandleHeartbeat(user, wire.Heartbeat{})
				}
			}
		}(uint64(u))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent routing failed: %v", err)
	}
	met := c.Metrics().Snapshot()
	if met.Handoffs == 0 {
		t.Error("random walks produced no handoffs")
	}
}

// TestRouterBatchInterleavedDuplicates mirrors the engine's test of the
// same name through a 2-shard router: a 2 000-update batch in which 250
// users each report eight times, interleaved and in a shuffled user order
// per round, walking across the partition boundary. The batched router
// must deliver what an unbatched twin delivers — entries in
// first-appearance order, the same firings in the same order, and the
// final region each user's last unbatched report earned.
func TestRouterBatchInterleavedDuplicates(t *testing.T) {
	const users, rounds = 250, 8
	var routers [2]*Router
	for i := range routers {
		c := newTestCluster(t, 2, 1, "") // split at x=5000
		if _, err := c.InstallAlarms([]alarm.Alarm{
			{Scope: alarm.Public, Owner: 999, Region: geom.R(1200, 400, 1400, 600)}, // shard 0, round 1
			{Scope: alarm.Public, Owner: 999, Region: geom.R(6200, 400, 6400, 600)}, // shard 1, round 6
		}); err != nil {
			t.Fatal(err)
		}
		routers[i] = NewRouter(c)
		for u := uint64(1); u <= users; u++ {
			if !routers[i].HandleRegister(wire.Register{User: u, Strategy: wire.StrategyMWPSR, MaxHeight: 5}) {
				t.Fatalf("register user %d", u)
			}
		}
	}
	single, batched := routers[0], routers[1]
	var batch wire.UpdateBatch
	var firstSeen []uint64
	for r := 0; r < rounds; r++ {
		for k := 0; k < users; k++ {
			u := uint64((k*7+r*31)%users) + 1
			if r == 0 {
				firstSeen = append(firstSeen, u)
			}
			pos := geom.Pt(300+float64(r)*1000, 450+float64(u%100))
			batch.Updates = append(batch.Updates, wire.PositionUpdate{User: u, Seq: uint32(r + 1), Pos: pos})
		}
	}

	wantFired := map[uint64][]uint64{}
	wantLast := map[uint64]wire.Message{}
	for _, u := range batch.Updates {
		out := update(t, single, u.User, u.Seq, u.Pos)
		wantFired[u.User] = append(wantFired[u.User], firedIDs(out)...)
		wantLast[u.User] = out[len(out)-1]
	}
	if got := single.cl.Metrics().Snapshot().Handoffs; got != users {
		t.Fatalf("unbatched run made %d handoffs, want one per user", got)
	}

	reply, err := batched.HandleUpdateBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Entries) != users {
		t.Fatalf("entries = %d, want %d", len(reply.Entries), users)
	}
	for i, ent := range reply.Entries {
		if ent.User != firstSeen[i] {
			t.Fatalf("entry %d is user %d, want %d (first-appearance order)", i, ent.User, firstSeen[i])
		}
		if len(ent.Msgs) < rounds {
			t.Errorf("user %d: %d msgs for %d updates", ent.User, len(ent.Msgs), rounds)
		}
		if got, want := firedIDs(ent.Msgs), wantFired[ent.User]; !reflect.DeepEqual(got, want) || len(got) != 2 {
			t.Errorf("user %d fired %v, unbatched %v", ent.User, got, want)
		}
		if got, want := ent.Msgs[len(ent.Msgs)-1], wantLast[ent.User]; !reflect.DeepEqual(got, want) {
			t.Errorf("user %d final message %v, unbatched %v", ent.User, got, want)
		}
	}
	if got := batched.cl.Metrics().Snapshot().Handoffs; got != users {
		t.Errorf("batched run made %d handoffs, want one per user", got)
	}
}
