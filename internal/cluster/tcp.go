package cluster

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// TCPCluster fronts a Cluster with one TCP listener per shard. Clients
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
	cl          *Cluster
	log         *log.Logger
	idleTimeout time.Duration
	listeners   []net.Listener
	addrs       []string

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewTCP listens on one address per shard (len(addrs) must equal
// cl.N()); ":0" addresses are supported, with the bound addresses
// available from Addrs. Serving starts with Serve; shards created by a
// later split get listeners through ServeShard.
func NewTCP(cl *Cluster, addrs []string, logger *log.Logger, idleTimeout time.Duration) (*TCPCluster, error) {
	if len(addrs) != cl.N() {
		return nil, fmt.Errorf("cluster: %d addresses for %d shards", len(addrs), cl.N())
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	c := &TCPCluster{
		cl:          cl,
		log:         logger,
		idleTimeout: idleTimeout,
		conns:       make(map[net.Conn]struct{}),
	}
	for i, addr := range addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range c.listeners {
				l.Close()
			}
			return nil, fmt.Errorf("cluster: listen shard %d on %s: %w", i, addr, err)
		}
		c.listeners = append(c.listeners, ln)
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	return c, nil
}

// Addrs returns the bound per-shard listener addresses ("" for shards
// without one yet).
func (c *TCPCluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

// addrOf returns the listener address serving shard, "" when none.
func (c *TCPCluster) addrOf(shard int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if shard < 0 || shard >= len(c.addrs) {
		return ""
	}
	return c.addrs[shard]
}

// ServeShard adds a listener for a shard created after NewTCP (a
// runtime split) and starts accepting on it immediately. Until a shard
// has a listener, the router cannot redirect clients to it and keeps
// serving them through in-process handoffs from the shard they dialed.
func (c *TCPCluster) ServeShard(shard int, addr string) (string, error) {
	if shard < 0 || shard >= c.cl.N() {
		return "", fmt.Errorf("cluster: no shard %d", shard)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", errors.New("cluster: closed")
	}
	for len(c.addrs) < c.cl.N() {
		c.addrs = append(c.addrs, "")
		c.listeners = append(c.listeners, nil)
	}
	if c.addrs[shard] != "" {
		bound := c.addrs[shard]
		c.mu.Unlock()
		return bound, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		c.mu.Unlock()
		return "", fmt.Errorf("cluster: listen shard %d on %s: %w", shard, addr, err)
	}
	c.listeners[shard] = ln
	c.addrs[shard] = ln.Addr().String()
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		if err := c.serveShard(shard, ln); err != nil {
			c.log.Printf("shard %d: %v", shard, err)
		}
	}()
	return c.addrOf(shard), nil
}

// Serve accepts on every shard listener until Close; it returns the
// first accept error after all listeners stop.
func (c *TCPCluster) Serve() error {
	errs := make(chan error, len(c.listeners))
	var wg sync.WaitGroup
	for i, ln := range c.listeners {
		if ln == nil {
			continue
		}
		wg.Add(1)
		go func(shard int, ln net.Listener) {
			defer wg.Done()
			errs <- c.serveShard(shard, ln)
		}(i, ln)
	}
	wg.Wait()
	return <-errs
}

func (c *TCPCluster) serveShard(shard int, ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return fmt.Errorf("cluster: closed: %w", err)
			}
			return fmt.Errorf("cluster: shard %d accept: %w", shard, err)
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return errors.New("cluster: closed")
		}
		c.conns[nc] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go func() {
			defer c.wg.Done()
			c.serveConn(shard, nc)
		}()
	}
}

// Close stops every listener and connection, waits for serving
// goroutines, and closes the cluster's durable stores.
func (c *TCPCluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	var first error
	for _, ln := range c.listeners {
		if ln == nil {
			continue
		}
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	for nc := range c.conns {
		nc.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return first
}

func (c *TCPCluster) serveConn(shard int, nc net.Conn) {
	defer func() {
		nc.Close()
		c.mu.Lock()
		delete(c.conns, nc)
		c.mu.Unlock()
	}()
	conn := transport.NewTCPDeadline(nc, c.idleTimeout, 30*time.Second)
	var registeredUser uint64
	reply := func(responses []wire.Message) bool {
		for _, m := range responses {
			if err := conn.Send(m); err != nil {
				c.log.Printf("shard %d conn %s: send: %v", shard, nc.RemoteAddr(), err)
				return false
			}
		}
		return true
	}
	for {
		msg, err := conn.Recv()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			case errors.Is(err, os.ErrDeadlineExceeded):
				c.log.Printf("shard %d conn %s: idle timeout, reaping", shard, nc.RemoteAddr())
			default:
				c.log.Printf("shard %d conn %s: recv: %v", shard, nc.RemoteAddr(), err)
			}
			return
		}
		eng := c.cl.Engine(shard)
		if eng == nil {
			// A merged-away shard redirects its clients to the absorbing
			// shard (token 0: the drained session re-enrolls there and
			// carries its pending firings). A merely-down shard drops the
			// connection and the client's resend machinery retries.
			if to, ok := c.cl.retiredTarget(shard); ok {
				if addr := c.addrOf(to); addr != "" {
					c.cl.met.AddRedirectSent()
					reply([]wire.Message{wire.Redirect{Epoch: c.cl.Epoch(), Addr: addr}})
				}
			}
			c.log.Printf("shard %d conn %s: shard down, dropping %v", shard, nc.RemoteAddr(), msg.Kind())
			return
		}
		switch m := msg.(type) {
		case wire.Register:
			if err := eng.Register(m); err != nil {
				c.log.Printf("shard %d conn %s: register: %v", shard, nc.RemoteAddr(), err)
				return
			}
			registeredUser = m.User
		case wire.Hello:
			responses, _, err := eng.HandleHello(m)
			if err != nil {
				c.log.Printf("shard %d conn %s: hello: %v", shard, nc.RemoteAddr(), err)
				return
			}
			registeredUser = m.User
			if !reply(responses) {
				return
			}
		case wire.Heartbeat:
			if !reply(eng.HandleHeartbeat(alarm.UserID(registeredUser), m)) {
				return
			}
		case wire.FiredAck:
			if registeredUser != 0 {
				if err := eng.AckFired(alarm.UserID(registeredUser), m.Alarms); err != nil {
					c.log.Printf("shard %d conn %s: fired-ack: %v", shard, nc.RemoteAddr(), err)
					return
				}
			}
		case wire.PositionUpdate:
			if !c.serveUpdates(shard, nc, eng, []wire.PositionUpdate{m}, false, reply) {
				return
			}
		case wire.UpdateBatch:
			if !c.serveUpdates(shard, nc, eng, m.Updates, true, reply) {
				return
			}
		default:
			c.log.Printf("shard %d conn %s: unexpected %v", shard, nc.RemoteAddr(), msg.Kind())
			return
		}
	}
}

// serveUpdates serves the maximal prefix of ups this shard owns, then
// redirects the client on the first update it does not own, exactly as a
// stand-alone update would be redirected; the rest of the frame is left
// for the client's resend machinery to retry at the new shard. A lone
// PositionUpdate (batched false) is answered with the engine's messages,
// or a bare Ack when there are none; a batch with one BatchReply. It
// reports false when the connection must close.
func (c *TCPCluster) serveUpdates(shard int, nc net.Conn, eng *server.Engine, ups []wire.PositionUpdate, batched bool, reply func([]wire.Message) bool) bool {
	n := 0
	for n < len(ups) && c.cl.locate(ups[n].Pos) == shard {
		n++
	}
	if n > 0 {
		var out []wire.Message
		var err error
		if batched {
			var br wire.BatchReply
			br, err = eng.HandleUpdateBatch(wire.UpdateBatch{Updates: ups[:n]})
			out = []wire.Message{br}
		} else {
			out, err = eng.HandleUpdate(ups[0])
			if len(out) == 0 {
				out = []wire.Message{wire.Ack{Seq: ups[0].Seq}} // periodic clients get a bare Ack
			}
		}
		if err != nil {
			c.log.Printf("shard %d conn %s: update: %v", shard, nc.RemoteAddr(), err)
			return false
		}
		if !reply(out) {
			return false
		}
	}
	if n == len(ups) {
		return true
	}
	u := ups[n]
	owner := c.cl.locate(u.Pos)
	addr := c.addrOf(owner)
	if addr == "" {
		return true // no listener yet: drop, client resends
	}
	tok, ok := c.redirectSession(shard, owner, u.User)
	if !ok {
		return true // owner down: drop, client resends
	}
	rd := wire.Redirect{Token: tok, Epoch: c.cl.Epoch(), Addr: addr}
	eng.Metrics().AddDownlink(wire.EncodedSize(rd))
	c.cl.met.AddRedirectSent()
	return reply([]wire.Message{rd})
}

// redirectSession moves user's session from shard `from` to shard `to`
// (moveSession: import durable, then drop) and returns the token the
// client should present there. A missing session (never enrolled, or
// already expired) redirects with token 0 — the client re-enrolls fresh
// at the owner. Reports false, with the session still on `from`, when
// the owning shard is down or its import failed.
func (c *TCPCluster) redirectSession(from, to int, user uint64) (uint64, bool) {
	newEng := c.cl.Engine(to)
	if newEng == nil {
		c.cl.met.AddHandoffDeferred()
		return 0, false
	}
	oldEng := c.cl.Engine(from)
	if oldEng == nil {
		return 0, false
	}
	_, tok, moved, err := moveSession(oldEng, newEng, alarm.UserID(user), nil)
	if err != nil {
		c.log.Printf("shard %d→%d: move user %d: %v", from, to, user, err)
	}
	if moved {
		c.cl.met.AddHandoff()
	}
	return tok, moved || err == nil
}
