package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// The cluster's tests reach its shards the way every client does: through
// the shared front end over the shards topology. A memFront binds no
// socket; a memClient's frames go to Dispatch synchronously, and whatever
// the front end wrote back — replies and pushes — is read off an
// in-memory pipe before the call returns.

// newMemFront fronts c with no socket bound: listener i is named
// memAddr(i), the address its Redirects carry.
func newMemFront(t testing.TB, c *Cluster) *TCPCluster {
	t.Helper()
	fe, err := NewTCP(c, make([]string, c.N()), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		fe.Name(i, memAddr(i))
	}
	return fe
}

func memAddr(i int) string { return "shard" + strconv.Itoa(i) }

var (
	errUnanswered = errors.New("report left unanswered")
	errDropped    = errors.New("connection dropped")
)

// memClient is one user's client on an in-memory connection to a
// memFront. Like client.Session it enrolls on listener 0, follows
// Redirects to the listener they name (resuming there with Hello and the
// token they carry when reliable), reconnects once when the front end
// drops its connection, and deduplicates firings; it acknowledges
// nothing until asked.
type memClient struct {
	t        testing.TB
	fe       *TCPCluster
	user     uint64
	reliable bool
	strategy wire.Strategy

	listener int
	cli      transport.PollingConn
	srv      *server.ConnState // nil while disconnected
	token    uint64
	seq      uint32
	// sent counts how often each event id reached the client; fired lists
	// each once, in first-delivery order — what the client delivers.
	sent  map[uint64]int
	fired []uint64
}

// hello enrolls a reliable MWPSR client on listener 0.
func hello(t testing.TB, fe *TCPCluster, user uint64) *memClient {
	return enroll(t, fe, user, true, wire.StrategyMWPSR)
}

// register enrolls a plain (fire-and-forget) MWPSR client on listener 0.
func register(t testing.TB, fe *TCPCluster, user uint64) *memClient {
	return enroll(t, fe, user, false, wire.StrategyMWPSR)
}

func enroll(t testing.TB, fe *TCPCluster, user uint64, reliable bool, strategy wire.Strategy) *memClient {
	m := &memClient{t: t, fe: fe, user: user, reliable: reliable, strategy: strategy, sent: map[uint64]int{}}
	if reliable {
		if _, ok := resumeOf(m.reconnect()); !ok {
			t.Errorf("user %d: Hello not answered with a Resume", user)
		}
		return m
	}
	m.reconnect()
	if _, open := m.roundTrip(wire.Register{User: user, Strategy: strategy, MaxHeight: 5}); !open {
		t.Errorf("user %d: Register dropped the connection", user)
	}
	return m
}

// reconnect opens a fresh connection to the client's listener and, when
// reliable, presents its token there; it returns the Hello's reply.
func (m *memClient) reconnect() []wire.Message {
	if m.srv != nil {
		m.cli.Close()
	}
	cEnd, sEnd := transport.Pipe(1024)
	m.cli, m.srv = transport.Poller(cEnd), &server.ConnState{Conn: sEnd}
	if !m.reliable {
		return nil
	}
	out, _ := m.roundTrip(wire.Hello{User: m.user, Token: m.token, Strategy: m.strategy, MaxHeight: 5})
	return out
}

// roundTrip hands msg to the front end and returns every frame waiting
// for the client afterwards; open is false when the front end dropped
// the connection.
func (m *memClient) roundTrip(msg wire.Message) (out []wire.Message, open bool) {
	open = m.fe.Dispatch(m.listener, m.srv, msg)
	out = m.drain()
	if !open {
		m.cli.Close()
		m.srv = nil
	}
	return out, open
}

// drain reads every frame waiting for the client.
func (m *memClient) drain() []wire.Message {
	var out []wire.Message
	for {
		r, ok, err := m.cli.TryRecv()
		if err != nil || !ok {
			break
		}
		out = append(out, r)
	}
	m.absorb(out)
	return out
}

func (m *memClient) absorb(msgs []wire.Message) {
	for _, msg := range msgs {
		switch v := msg.(type) {
		case wire.Resume:
			m.token = v.Token
		case wire.AlarmFired:
			for _, id := range v.Alarms {
				if m.sent[id]++; m.sent[id] == 1 {
					m.fired = append(m.fired, id)
				}
			}
		case wire.BatchReply:
			for _, ent := range v.Entries {
				m.absorb(ent.Msgs)
			}
		}
	}
}

// follow adopts a Redirect: the token it carries, and a connection to
// the listener it names. It returns the reply to the Hello presented
// there.
func (m *memClient) follow(rd wire.Redirect) []wire.Message {
	i, err := strconv.Atoi(strings.TrimPrefix(rd.Addr, "shard"))
	if err != nil {
		m.t.Fatalf("redirect to unknown address %q", rd.Addr)
	}
	m.token, m.listener = rd.Token, i
	return m.reconnect()
}

// send delivers msg over the client's connection, reconnecting first if
// the front end dropped it.
func (m *memClient) send(msg wire.Message) ([]wire.Message, bool) {
	var hello []wire.Message
	if m.srv == nil {
		if hello = m.reconnect(); m.srv == nil {
			return hello, false
		}
	}
	out, open := m.roundTrip(msg)
	return append(hello, out...), open
}

// report sends the client's next position report and returns every frame
// it brought back, redirect hops included. A dropped connection is
// re-dialled and the report resent once. On failure the report is
// neither answered nor spent: the next call resends the same seq, as a
// session's resend machinery would.
func (m *memClient) report(pos geom.Point) ([]wire.Message, error) {
	u := wire.PositionUpdate{User: m.user, Seq: m.seq + 1, Pos: pos}
	var all []wire.Message
	retried := false
	for hop := 0; hop < 4; hop++ {
		out, open := m.send(u)
		all = append(all, out...)
		if answers(out, u.Seq) {
			m.seq++
			return all, nil
		}
		if rd, ok := redirectOf(out); ok {
			all = append(all, m.follow(rd)...)
			continue
		}
		if open {
			return all, errUnanswered
		}
		if retried {
			return all, errDropped
		}
		retried = true
	}
	return all, errors.New("redirected in circles")
}

func (m *memClient) mustReport(pos geom.Point) []wire.Message {
	m.t.Helper()
	out, err := m.report(pos)
	if err != nil {
		m.t.Fatalf("user %d report %v: %v", m.user, pos, err)
	}
	return out
}

func (m *memClient) heartbeat() []wire.Message {
	out, _ := m.send(wire.Heartbeat{})
	return out
}

func (m *memClient) ack(ids []uint64) {
	m.send(wire.FiredAck{Alarms: ids})
}

// resumes reconnects and checks that the client's token resumes its
// session on the listener it is on.
func (m *memClient) resumes() {
	m.t.Helper()
	if !m.reliable {
		return
	}
	if r, ok := resumeOf(m.reconnect()); !ok || !r.Resumed {
		m.t.Errorf("token %d did not resume on listener %d", m.token, m.listener)
	}
}

// events returns every event id the client delivered, sorted.
func (m *memClient) events() []uint64 {
	ids := append([]uint64(nil), m.fired...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func answers(msgs []wire.Message, seq uint32) bool {
	for _, msg := range msgs {
		if s, ok := wire.SeqOf(msg); ok && s == seq {
			return true
		}
		if br, ok := msg.(wire.BatchReply); ok {
			for _, ent := range br.Entries {
				if answers(ent.Msgs, seq) {
					return true
				}
			}
		}
	}
	return false
}

func redirectOf(msgs []wire.Message) (wire.Redirect, bool) {
	for _, msg := range msgs {
		if rd, ok := msg.(wire.Redirect); ok {
			return rd, true
		}
	}
	return wire.Redirect{}, false
}

func resumeOf(msgs []wire.Message) (wire.Resume, bool) {
	for _, msg := range msgs {
		if r, ok := msg.(wire.Resume); ok {
			return r, true
		}
	}
	return wire.Resume{}, false
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

// TestFrontEndHandoffMovesSession: a report across the partition boundary
// moves the session — exported from the old shard, imported at the new
// one — and is answered with a Redirect whose freshly minted token
// resumes the session there. The client's connection to the old shard
// closes behind the Redirect.
func TestFrontEndHandoffMovesSession(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	cl := hello(t, newMemFront(t, c), 1)
	cl.mustReport(geom.Pt(2000, 5000)) // served where the session enrolled: shard 0

	out, open := cl.roundTrip(wire.PositionUpdate{User: 1, Seq: 2, Pos: geom.Pt(8000, 5000)})
	rd, ok := redirectOf(out)
	if open || !ok || rd.Token == 0 || rd.Addr != memAddr(1) {
		t.Fatalf("crossing report answered with %v (open %v), want a tokened Redirect to shard 1, then the close", out, open)
	}
	met := c.Metrics().Snapshot()
	if met.Handoffs != 1 || met.RedirectsSent != 1 {
		t.Errorf("Handoffs = %d, RedirectsSent = %d, want 1 and 1", met.Handoffs, met.RedirectsSent)
	}
	if got := c.Engine(0).Metrics().Snapshot().SessionsExported; got != 1 {
		t.Errorf("shard 0 SessionsExported = %d, want 1", got)
	}
	if got := c.Engine(1).Metrics().Snapshot().SessionsImported; got != 1 {
		t.Errorf("shard 1 SessionsImported = %d, want 1", got)
	}
	if r, ok := resumeOf(cl.follow(rd)); !ok || !r.Resumed {
		t.Error("the token minted by the handoff did not resume on the new shard")
	}
}

// TestFrontEndHandoffCarriesPending: an unacknowledged firing survives the
// handoff — the new shard knows it fired (no refire) and redelivers it,
// on the Resume and on every heartbeat, until the client acknowledges.
func TestFrontEndHandoffCarriesPending(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	ids, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 1,
		Region: geom.RectAround(geom.Pt(5000, 5000), 1000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(ids[0])
	cl := hello(t, newMemFront(t, c), 1)
	if got := firedIDs(cl.mustReport(geom.Pt(4800, 5000))); len(got) != 1 {
		t.Fatalf("no firing on shard 0: %v", got)
	}
	// No ack: the firing is pending when the client crosses the boundary.
	// The new shard redelivers it (the client dedups) but must not REFIRE
	// it, which would double-count the pair.
	if got := firedIDs(cl.mustReport(geom.Pt(5200, 5000))); len(got) == 0 || got[0] != id {
		t.Fatalf("handoff reply redelivered %v, want [%d]", got, id)
	}
	if cl.listener != 1 || len(cl.fired) != 1 {
		t.Fatalf("client on listener %d delivered %v, want shard 1 and one firing", cl.listener, cl.fired)
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
	if got := firedIDs(cl.heartbeat()); len(got) != 1 || got[0] != id {
		t.Fatalf("heartbeat redelivery = %v, want [%d]", got, id)
	}
	cl.ack([]uint64{id})
	if pending := c.Engine(1).PendingFired(1); len(pending) != 0 {
		t.Errorf("pending not drained after ack: %v", pending)
	}
}

// TestFrontEndRedirectClosesClientConnection: a session sends a report
// that crosses into shard 1 and, right behind it on the same connection,
// one back inside an alarm on shard 0. The Redirect moves the session to
// shard 1, so the second report must not be served on shard 0 without
// it: the firing would be spent there and its reply lost on the link the
// client is leaving. The front end closes the client's connection behind
// the Redirect instead, and the client's replay delivers the firing.
func TestFrontEndRedirectClosesClientConnection(t *testing.T) {
	c := newTestCluster(t, 2, 1, "")
	ids, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Private, Owner: 1,
		Region: geom.RectAround(geom.Pt(3000, 5000), 200),
	}})
	if err != nil {
		t.Fatal(err)
	}
	cl := hello(t, newMemFront(t, c), 1)
	cl.mustReport(geom.Pt(2000, 5000))

	crossing := wire.PositionUpdate{User: 1, Seq: 2, Pos: geom.Pt(8000, 5000)}
	back := wire.PositionUpdate{User: 1, Seq: 3, Pos: geom.Pt(3000, 5000)}
	// Both frames are on the wire before any reply is read; a read loop
	// hands the second to Dispatch only if the first left the link open.
	if cl.fe.Dispatch(cl.listener, cl.srv, crossing) {
		cl.fe.Dispatch(cl.listener, cl.srv, back)
	}
	// Like a session, the client reads up to the Redirect and leaves.
	var out []wire.Message
	for {
		m, ok, err := cl.cli.TryRecv()
		if err != nil || !ok {
			break
		}
		if out = append(out, m); m.Kind() == wire.KindRedirect {
			break
		}
	}
	cl.absorb(out)
	rd, ok := redirectOf(out)
	if !ok {
		t.Fatalf("crossing report answered with %v, want a Redirect", out)
	}
	// The client follows the Redirect and replays its queue in order.
	cl.follow(rd)
	cl.seq = 1
	cl.mustReport(crossing.Pos)
	cl.mustReport(back.Pos)
	if want := []uint64{uint64(ids[0])}; !reflect.DeepEqual(cl.fired, want) {
		t.Fatalf("client delivered %v, want %v", cl.fired, want)
	}
}

// TestFrontEndDownShardDefers: a dead shard's listener drops the
// connections that reach it, and the client's reconnect fails the same
// way until the shard recovers. A report whose owner is dead goes
// unanswered with the session left where it is, and counts as a deferred
// handoff; once the owner recovers, the resent report is redirected.
func TestFrontEndDownShardDefers(t *testing.T) {
	c := newTestCluster(t, 2, 1, t.TempDir())
	cl := hello(t, newMemFront(t, c), 1)
	cl.mustReport(geom.Pt(2000, 5000))

	rng := rand.New(rand.NewSource(7))
	if err := c.KillShard(0, store.TearNone, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.report(geom.Pt(2100, 5000)); err != errDropped {
		t.Fatalf("report to a dead shard: %v, want the connection dropped", err)
	}
	if out := cl.heartbeat(); len(out) != 0 || cl.srv != nil {
		t.Fatalf("heartbeat to a dead shard answered %v, want the connection dropped", out)
	}
	if err := c.RecoverShard(0); err != nil {
		t.Fatal(err)
	}
	cl.mustReport(geom.Pt(2100, 5000)) // reconnects, resumes, resends

	if err := c.KillShard(1, store.TearNone, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.report(geom.Pt(8000, 5000)); err != errUnanswered {
		t.Fatalf("report owned by a dead shard: %v, want it unanswered", err)
	}
	met := c.Metrics().Snapshot()
	if met.HandoffsDeferred == 0 || met.Handoffs != 0 {
		t.Errorf("HandoffsDeferred = %d, Handoffs = %d, want a deferral and no handoff", met.HandoffsDeferred, met.Handoffs)
	}
	if !c.Engine(0).HasSession(1) {
		t.Fatal("the session left shard 0 although its new owner was down")
	}
	if err := c.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	cl.mustReport(geom.Pt(8000, 5000))
	if met := c.Metrics().Snapshot(); met.Handoffs != 1 || met.RedirectsSent != 1 {
		t.Errorf("Handoffs = %d, RedirectsSent = %d after recovery, want 1 and 1", met.Handoffs, met.RedirectsSent)
	}
	if c.Engine(0).HasSession(1) || !c.Engine(1).HasSession(1) || cl.listener != 1 {
		t.Error("the session did not move to shard 1 once it recovered")
	}
}

// TestFrontEndMultiHopDuplicateDeliveredOnce: an alarm straddling a
// boundary is installed on both of its shards. A direct crossing carries
// the spent alarm with the session, so the new shard never refires it. A
// detour through shards that do not hold the alarm loses the mark (an
// importer keeps only the marks of alarms it holds), so the far holder
// fires it again on arrival: the client's dedup delivers it once, and
// acknowledging everything it received drains that shard's pending set.
func TestFrontEndMultiHopDuplicateDeliveredOnce(t *testing.T) {
	c := newTestCluster(t, 2, 2, "")
	region := geom.RectAround(geom.Pt(5000, 500), 1000) // x 4500..5500, y 0..1000
	ids, err := c.InstallAlarms([]alarm.Alarm{
		{Scope: alarm.Private, Owner: 1, Region: region},
		{Scope: alarm.Private, Owner: 2, Region: region},
	})
	if err != nil {
		t.Fatal(err)
	}
	right := c.locate(geom.Pt(5200, 500))
	for _, far := range []int{c.locate(geom.Pt(4800, 8000)), c.locate(geom.Pt(5200, 8000))} {
		if _, held := c.Engine(far).Registry().Get(ids[0]); held {
			t.Fatalf("shard %d holds the alarm; the detour would carry the mark", far)
		}
	}
	fe := newMemFront(t, c)

	direct := hello(t, fe, 1)
	if got := firedIDs(direct.mustReport(geom.Pt(4800, 500))); len(got) != 1 || got[0] != uint64(ids[0]) {
		t.Fatalf("first firing = %v, want [%d]", got, ids[0])
	}
	direct.ack(direct.events())
	if got := firedIDs(direct.mustReport(geom.Pt(5200, 500))); len(got) != 0 {
		t.Fatalf("firing sent again after a direct crossing: %v", got)
	}
	if trig := c.Engine(right).Metrics().Snapshot().AlarmsTriggered; trig != 0 {
		t.Errorf("shard %d refired the carried pair (AlarmsTriggered = %d)", right, trig)
	}

	detour := hello(t, fe, 2)
	detour.mustReport(geom.Pt(4800, 500))
	detour.ack(detour.events())
	detour.mustReport(geom.Pt(4800, 8000))
	detour.mustReport(geom.Pt(5200, 8000))
	out := detour.mustReport(geom.Pt(5200, 500))
	id := uint64(ids[1])
	if detour.sent[id] != 2 || !reflect.DeepEqual(detour.fired, []uint64{id}) {
		t.Fatalf("alarm %d sent %d times, delivered %v; want the refire sent and delivered once", id, detour.sent[id], detour.fired)
	}
	detour.ack(firedIDs(out))
	if pending := c.Engine(right).PendingFired(2); len(pending) != 0 {
		t.Errorf("shard %d still holds pending %v after the client's ack", right, pending)
	}
}

// TestFrontEndConcurrent drives 16 connections through one front end at
// once, each a user random-walking across a 2×2 grid — every crossing a
// Redirect, a handoff and a resume. Run under -race (make cluster);
// correctness here is the absence of data races and deadlocks, plus every
// report answered.
func TestFrontEndConcurrent(t *testing.T) {
	c := newTestCluster(t, 2, 2, "")
	if _, err := c.InstallAlarms([]alarm.Alarm{{
		Scope: alarm.Public, Owner: 1,
		Region: geom.RectAround(geom.Pt(5000, 5000), 800),
	}}); err != nil {
		t.Fatal(err)
	}
	fe := newMemFront(t, c)
	const users = 16
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 1; u <= users; u++ {
		wg.Add(1)
		go func(user uint64) {
			defer wg.Done()
			cl := enroll(t, fe, user, true, wire.StrategyPBSR)
			rng := rand.New(rand.NewSource(int64(user)))
			for i := 0; i < 200; i++ {
				if _, err := cl.report(geom.Pt(rng.Float64()*10000, rng.Float64()*10000)); err != nil {
					errs <- err
					return
				}
				if rng.Intn(8) == 0 {
					cl.heartbeat()
				}
			}
		}(uint64(u))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent serving failed: %v", err)
	}
	if met := c.Metrics().Snapshot(); met.Handoffs == 0 || met.RedirectsSent == 0 {
		t.Errorf("random walks made %d handoffs and %d redirects, want both > 0", met.Handoffs, met.RedirectsSent)
	}
}

// gateway is one connection per listener multiplexing many plain users,
// as a batching client does: it tracks which listener each user's
// session is on and moves a user when a Redirect names it.
type gateway struct {
	t     *testing.T
	conns []*memClient // a per-listener connection; the user field is unused
	where map[uint64]int
}

func newGateway(t *testing.T, fe *TCPCluster, users int) *gateway {
	g := &gateway{t: t, where: map[uint64]int{}}
	for i := 0; i < fe.cl.N(); i++ {
		m := &memClient{t: t, fe: fe, listener: i, sent: map[uint64]int{}}
		m.reconnect()
		g.conns = append(g.conns, m)
	}
	for u := uint64(1); u <= uint64(users); u++ {
		if _, open := g.conns[0].roundTrip(wire.Register{User: u, Strategy: wire.StrategyMWPSR, MaxHeight: 5}); !open {
			t.Fatalf("register user %d", u)
		}
		g.where[u] = 0
	}
	return g
}

// lone sends u by itself to its user's listener, following Redirects,
// and returns the reply.
func (g *gateway) lone(u wire.PositionUpdate) []wire.Message {
	for hop := 0; hop < 2; hop++ {
		out, _ := g.conns[g.where[u.User]].roundTrip(u)
		rd, ok := redirectOf(out)
		if !ok {
			return out
		}
		g.where[u.User] = g.listenerOf(rd)
	}
	g.t.Fatalf("update %+v redirected twice", u)
	return nil
}

// batch sends ups in UpdateBatch frames: each frame carries the pending
// updates of the users on one listener, and the front end serves its
// owned prefix and redirects on the first update it does not own. The
// redirected user moves, and what the frame left unserved goes out again
// in a later one. It returns each frame's reply entries, in order.
func (g *gateway) batch(ups []wire.PositionUpdate) [][]wire.BatchEntry {
	var frames [][]wire.BatchEntry
	for len(ups) > 0 {
		to := g.where[ups[0].User]
		var frame []wire.PositionUpdate
		var at []int // frame[k] is ups[at[k]]
		for i, u := range ups {
			if g.where[u.User] == to {
				frame, at = append(frame, u), append(at, i)
			}
		}
		out, _ := g.conns[to].roundTrip(wire.UpdateBatch{Updates: frame})
		served := 0
		for _, m := range out {
			if br, ok := m.(wire.BatchReply); ok {
				frames = append(frames, br.Entries)
				for served < len(frame) && answeredFor(br, frame[served]) {
					served++
				}
			}
		}
		if rd, ok := redirectOf(out); ok {
			g.where[frame[served].User] = g.listenerOf(rd)
		} else if served < len(frame) {
			g.t.Fatalf("frame of %d updates: %d served and no Redirect", len(frame), served)
		}
		done := make(map[int]bool, served)
		for _, i := range at[:served] {
			done[i] = true
		}
		rest := make([]wire.PositionUpdate, 0, len(ups)-served)
		for i, u := range ups {
			if !done[i] {
				rest = append(rest, u)
			}
		}
		ups = rest
	}
	return frames
}

func (g *gateway) listenerOf(rd wire.Redirect) int {
	i, err := strconv.Atoi(strings.TrimPrefix(rd.Addr, "shard"))
	if err != nil {
		g.t.Fatalf("redirect to unknown address %q", rd.Addr)
	}
	return i
}

// answeredFor reports whether br's entry for u's user answers u's seq.
func answeredFor(br wire.BatchReply, u wire.PositionUpdate) bool {
	for _, ent := range br.Entries {
		if ent.User == u.User && answers(ent.Msgs, u.Seq) {
			return true
		}
	}
	return false
}

// TestFrontEndBatchInterleavedDuplicates mirrors the engine's test of the
// same name through a 2-shard front end: a 2 000-update batch in which
// 250 users each report eight times, interleaved and in a shuffled user
// order per round, walking across the partition boundary. Sent in
// UpdateBatch frames, it must deliver what its unbatched twin delivers —
// the first frame's entries in first-appearance order, the same firings
// in the same order per user, the final region each user's last
// unbatched report earned, and one handoff per user.
func TestFrontEndBatchInterleavedDuplicates(t *testing.T) {
	const users, rounds = 250, 8
	var twins [2]*gateway
	var clusters [2]*Cluster
	for i := range twins {
		c := newTestCluster(t, 2, 1, "") // split at x=5000
		if _, err := c.InstallAlarms([]alarm.Alarm{
			{Scope: alarm.Public, Owner: 999, Region: geom.R(1200, 400, 1400, 600)}, // shard 0, round 1
			{Scope: alarm.Public, Owner: 999, Region: geom.R(6200, 400, 6400, 600)}, // shard 1, round 6
		}); err != nil {
			t.Fatal(err)
		}
		clusters[i], twins[i] = c, newGateway(t, newMemFront(t, c), users)
	}
	single, batched := twins[0], twins[1]
	var ups []wire.PositionUpdate
	var firstSeen []uint64
	for r := 0; r < rounds; r++ {
		for k := 0; k < users; k++ {
			u := uint64((k*7+r*31)%users) + 1
			if r == 0 {
				firstSeen = append(firstSeen, u)
			}
			pos := geom.Pt(300+float64(r)*1000, 450+float64(u%100))
			ups = append(ups, wire.PositionUpdate{User: u, Seq: uint32(r + 1), Pos: pos})
		}
	}

	wantFired := map[uint64][]uint64{}
	wantLast := map[uint64]wire.Message{}
	for _, u := range ups {
		out := single.lone(u)
		wantFired[u.User] = append(wantFired[u.User], firedIDs(out)...)
		wantLast[u.User] = out[len(out)-1]
	}

	frames := batched.batch(ups)
	if len(frames[0]) != users {
		t.Fatalf("first frame answered %d users, want %d", len(frames[0]), users)
	}
	for i, ent := range frames[0] {
		if ent.User != firstSeen[i] {
			t.Fatalf("entry %d is user %d, want %d (first-appearance order)", i, ent.User, firstSeen[i])
		}
	}
	gotFired := map[uint64][]uint64{}
	gotLast := map[uint64]wire.Message{}
	msgs := map[uint64]int{}
	for _, entries := range frames {
		for _, ent := range entries {
			gotFired[ent.User] = append(gotFired[ent.User], firedIDs(ent.Msgs)...)
			gotLast[ent.User] = ent.Msgs[len(ent.Msgs)-1]
			msgs[ent.User] += len(ent.Msgs)
		}
	}
	for u := uint64(1); u <= users; u++ {
		if msgs[u] < rounds {
			t.Errorf("user %d: %d msgs for %d updates", u, msgs[u], rounds)
		}
		if got, want := gotFired[u], wantFired[u]; !reflect.DeepEqual(got, want) || len(got) != 2 {
			t.Errorf("user %d fired %v, unbatched %v", u, got, want)
		}
		if got, want := gotLast[u], wantLast[u]; !reflect.DeepEqual(got, want) {
			t.Errorf("user %d final message %v, unbatched %v", u, got, want)
		}
	}
	for i, c := range clusters {
		if got := c.Metrics().Snapshot().Handoffs; got != users {
			t.Errorf("twin %d made %d handoffs, want one per user", i, got)
		}
	}
}
