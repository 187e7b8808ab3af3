package cluster

import (
	"fmt"
	"log"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/wire"
)

// TCPCluster fronts a Cluster with one TCP listener per shard: the shared
// front end (server.TCPServer) over the cluster's topology. Clients
// connect to any shard; a position update owned by a different shard
// triggers an in-process handoff (the shards share this process) and a
// wire.Redirect reply pointing the client at the owning shard's address
// with its freshly minted resume token. The user's spent alarms move
// with the session, so a direct crossing never refires an alarm
// installed on both shards; what duplicates remain (a detour through
// shards that do not hold the alarm) are deduplicated client-side in
// this mode: the client acknowledges everything it receives — including
// duplicates it suppresses — so each shard's pending set drains
// (PROTOCOL.md "Redirect and handoff").
type TCPCluster struct {
	*server.TCPServer
	cl *Cluster
}

// NewTCP listens on one address per shard (len(addrs) must equal
// cl.N()); ":0" addresses are supported, with the bound addresses
// available from Addrs. Serving starts with Serve; shards created by a
// later split get listeners through ServeShard.
func NewTCP(cl *Cluster, addrs []string, logger *log.Logger, idleTimeout time.Duration) (*TCPCluster, error) {
	if len(addrs) != cl.N() {
		return nil, fmt.Errorf("cluster: %d addresses for %d shards", len(addrs), cl.N())
	}
	topo := &shards{Cluster: cl, log: logger}
	srv, err := server.NewTCPFrontEnd(topo, addrs, logger, idleTimeout)
	if err != nil {
		return nil, err
	}
	topo.srv = srv
	return &TCPCluster{TCPServer: srv, cl: cl}, nil
}

// ServeShard adds a listener for a shard created after NewTCP (a
// runtime split) and starts accepting on it immediately. Until a shard
// has a listener, reports it owns go unanswered and their clients
// resend them.
func (c *TCPCluster) ServeShard(shard int, addr string) (string, error) {
	if shard < 0 || shard >= c.cl.N() {
		return "", fmt.Errorf("cluster: no shard %d", shard)
	}
	return c.Listen(shard, addr)
}

// shards is the cluster's server.Topology: listener i fronts shard i.
type shards struct {
	*Cluster
	srv *server.TCPServer
	log *log.Logger // nil: discard
}

// addrOf returns the listener address serving shard, "" when none.
func (t *shards) addrOf(shard int) string {
	if addrs := t.srv.Addrs(); shard >= 0 && shard < len(addrs) {
		return addrs[shard]
	}
	return ""
}

// Owned counts the leading updates positioned inside shard's partition.
func (t *shards) Owned(shard int, ups []wire.PositionUpdate) int {
	n := 0
	for n < len(ups) && t.locate(ups[n].Pos) == shard {
		n++
	}
	return n
}

// Served fans each served pair endpoint's anchor out to the other shards.
func (t *shards) Served(shard int, ups []wire.PositionUpdate) {
	for _, u := range ups {
		t.fanOutAnchor(shard, u.User, u.Pos)
	}
}

// Redirect hands u's session to the shard owning u.Pos and points the
// client there. An owner without a listener yet, or down, drops u: the
// client resends it.
func (t *shards) Redirect(shard int, u wire.PositionUpdate) (wire.Redirect, bool) {
	owner := t.locate(u.Pos)
	addr := t.addrOf(owner)
	if addr == "" {
		return wire.Redirect{}, false
	}
	tok, ok := t.redirectSession(shard, owner, u.User)
	if !ok {
		return wire.Redirect{}, false
	}
	t.met.AddRedirectSent()
	return wire.Redirect{Token: tok, Epoch: t.Epoch(), Addr: addr}, true
}

// Retired sends the clients of a merged-away shard to the shard that
// absorbed it, with token 0: the drained session re-enrolls there and
// carries its pending firings. A merely-down shard has no such target.
func (t *shards) Retired(shard int) (wire.Redirect, bool) {
	to, ok := t.retiredTarget(shard)
	if !ok {
		return wire.Redirect{}, false
	}
	addr := t.addrOf(to)
	if addr == "" {
		return wire.Redirect{}, false
	}
	t.met.AddRedirectSent()
	return wire.Redirect{Epoch: t.Epoch(), Addr: addr}, true
}

// redirectSession moves user's session from shard `from` to shard `to`
// (moveSession: import durable, then drop) and returns the token the
// client should present there. A missing session (never enrolled, or
// already expired) redirects with token 0 — the client re-enrolls fresh
// at the owner. Reports false, with the session still on `from`, when
// the owning shard is down or its import failed.
func (t *shards) redirectSession(from, to int, user uint64) (uint64, bool) {
	newEng := t.Engine(to)
	if newEng == nil {
		t.met.AddHandoffDeferred()
		return 0, false
	}
	oldEng := t.Engine(from)
	if oldEng == nil {
		return 0, false
	}
	_, tok, moved, err := moveSession(oldEng, newEng, alarm.UserID(user), nil)
	if err != nil && t.log != nil {
		t.log.Printf("shard %d→%d: move user %d: %v", from, to, user, err)
	}
	if moved {
		t.met.AddHandoff()
	}
	return tok, moved || err == nil
}
