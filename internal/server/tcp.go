package server

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
	"github.com/sabre-geo/sabre/internal/transport"
	"github.com/sabre-geo/sabre/internal/wire"
)

// DefaultIdleTimeout is how long a connection may stay silent before the
// server reaps it as a dead peer. Clients heartbeat well inside this
// window, so only a truly dead link times out; its session state stays in
// the engine for a later resume.
const DefaultIdleTimeout = 2 * time.Minute

// Topology is what a TCP front end needs to know about the deployment
// behind its listeners. Everything else — accepting, the per-connection
// message loop, typed installs and the user→connection binding pushes
// follow — is the same however many engines serve the space. A single
// engine is one listener that owns every position (NewTCPServerIdle); a
// sharded cluster puts one listener in front of each shard.
type Topology interface {
	// Engine returns the engine behind listener i, nil while it is down.
	Engine(i int) *Engine
	// Owned returns how many leading updates of ups listener i serves.
	Owned(i int, ups []wire.PositionUpdate) int
	// Redirect moves u's session from listener i to the listener owning
	// u.Pos and returns the Redirect to answer u with; false leaves u
	// unanswered for the client to resend.
	Redirect(i int, u wire.PositionUpdate) (wire.Redirect, bool)
	// Retired returns where the clients of listener i, whose engine is
	// down, should go; false when they should just retry.
	Retired(i int) (wire.Redirect, bool)
	// Served runs after listener i's engine served ups.
	Served(i int, ups []wire.PositionUpdate)
	// InstallAlarms durably installs alarms deployment-wide.
	InstallAlarms(alarms []alarm.Alarm) ([]alarm.ID, error)
	// SetPusher routes every engine's server-initiated pushes to p.
	SetPusher(p Pusher)
}

// TCPServer fronts a Topology with TCP listeners speaking length-prefixed
// wire frames: one connection per client, one serving goroutine per
// connection. cmd/alarmserver and the benchmark wrap it.
type TCPServer struct {
	topo        Topology
	log         *log.Logger
	idleTimeout time.Duration

	mu      sync.Mutex
	closed  bool
	serving bool
	// listeners and addrs are indexed by listener; nil and "" where none
	// is bound yet.
	listeners []net.Listener
	addrs     []string
	conns     map[net.Conn]struct{}
	// userConns maps registered users to their connection so the engines'
	// pushes reach them.
	userConns map[uint64]transport.Conn
	wg        sync.WaitGroup
}

// NewTCPServerIdle fronts one engine with a listener on addr (e.g.
// ":7700"); a zero idle timeout disables dead-peer reaping. Serving
// starts with Serve.
func NewTCPServerIdle(eng *Engine, addr string, logger *log.Logger, idleTimeout time.Duration) (*TCPServer, error) {
	return NewTCPFrontEnd(single{eng}, []string{addr}, logger, idleTimeout)
}

// NewTCPFrontEnd listens on addrs[i] for listener i (":0" picks a port;
// Addrs reports the bound ones) and installs the front end's pusher on
// the topology. Serving starts with Serve.
func NewTCPFrontEnd(topo Topology, addrs []string, logger *log.Logger, idleTimeout time.Duration) (*TCPServer, error) {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &TCPServer{
		topo:        topo,
		log:         logger,
		idleTimeout: idleTimeout,
		conns:       make(map[net.Conn]struct{}),
		userConns:   make(map[uint64]transport.Conn),
	}
	for _, addr := range addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range s.listeners {
				l.Close()
			}
			return nil, fmt.Errorf("server: listen %s: %w", addr, err)
		}
		s.listeners = append(s.listeners, ln)
		s.addrs = append(s.addrs, ln.Addr().String())
	}
	// The engines invoke the pusher after releasing their locks, so a
	// blocking Send (or even a callback into an engine) is safe there.
	topo.SetPusher(s.push)
	return s, nil
}

// Addr returns listener 0's bound address.
func (s *TCPServer) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listeners[0].Addr()
}

// Addrs returns every listener's bound address ("" where none is bound).
func (s *TCPServer) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs...)
}

// Listen binds listener i on addr unless it is bound already, and
// returns its address. A listener added after Serve started accepts at
// once.
func (s *TCPServer) Listen(i int, addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("server: closed")
	}
	for len(s.addrs) <= i {
		s.addrs = append(s.addrs, "")
		s.listeners = append(s.listeners, nil)
	}
	if s.addrs[i] != "" {
		return s.addrs[i], nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %d on %s: %w", i, addr, err)
	}
	s.listeners[i], s.addrs[i] = ln, ln.Addr().String()
	if s.serving {
		s.acceptInBackground(i, ln)
	}
	return s.addrs[i], nil
}

// Serve accepts on every listener until Close, and on each listener
// Listen adds meanwhile. It returns listener 0's error, always non-nil;
// after Close it wraps net.ErrClosed.
func (s *TCPServer) Serve() error {
	s.mu.Lock()
	s.serving = true
	for i := 1; i < len(s.listeners); i++ {
		if s.listeners[i] != nil {
			s.acceptInBackground(i, s.listeners[i])
		}
	}
	ln := s.listeners[0]
	s.mu.Unlock()
	return s.accept(0, ln)
}

// acceptInBackground accepts on listener i from its own goroutine, which
// Close waits for. The caller holds s.mu.
func (s *TCPServer) acceptInBackground(i int, ln net.Listener) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.accept(i, ln); !errors.Is(err, net.ErrClosed) {
			s.log.Printf("listener %d: %v", i, err)
		}
	}()
}

func (s *TCPServer) accept(i int, ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return fmt.Errorf("server: closed: %w", err)
			}
			return fmt.Errorf("server: listener %d accept: %w", i, err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return fmt.Errorf("server: closed: %w", net.ErrClosed)
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(i, nc)
		}()
	}
}

// Close stops every listener and connection, then waits for the serving
// goroutines to exit.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var first error
	for _, ln := range s.listeners {
		if ln == nil {
			continue
		}
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return first
}

// push delivers an engine's server-initiated messages (Seq-0 region
// refreshes, partner wake-ups) to the user's connection, if any.
func (s *TCPServer) push(user alarm.UserID, msgs []wire.Message) {
	s.mu.Lock()
	conn := s.userConns[uint64(user)]
	s.mu.Unlock()
	if conn == nil {
		return
	}
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			s.log.Printf("push to user %d: %v", user, err)
			return
		}
	}
}

// send writes msgs in order, reporting false (after logging) on the
// first failure.
func (s *TCPServer) send(conn transport.Conn, peer string, msgs ...wire.Message) bool {
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			s.log.Printf("%s: send: %v", peer, err)
			return false
		}
	}
	return true
}

func (s *TCPServer) serveConn(i int, nc net.Conn) {
	// The read deadline doubles as dead-peer detection: a client that
	// neither reports nor heartbeats within the idle window is reaped. Its
	// session state stays in the engine for a later Hello+token resume.
	conn := transport.NewTCPDeadline(nc, s.idleTimeout, 30*time.Second)
	peer := fmt.Sprintf("listener %d conn %s", i, nc.RemoteAddr())
	// user is the connection's latest enrolled user; bound is every user
	// it enrolled (a batching client enrolls many), unbound on exit.
	var user uint64
	var bound []uint64
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		for _, u := range bound {
			if s.userConns[u] == conn {
				delete(s.userConns, u)
			}
		}
		s.mu.Unlock()
	}()
	bind := func(u uint64) {
		user = u
		bound = append(bound, u)
		s.mu.Lock()
		s.userConns[u] = conn
		s.mu.Unlock()
	}
	// A lone report is served as a run of one.
	one := make([]wire.PositionUpdate, 1)
	for {
		msg, err := conn.Recv()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			case errors.Is(err, os.ErrDeadlineExceeded):
				s.log.Printf("%s: idle timeout, reaping", peer)
			default:
				s.log.Printf("%s: recv: %v", peer, err)
			}
			return
		}
		eng := s.topo.Engine(i)
		if eng == nil {
			// A retired listener sends its clients where the topology says
			// (a merged-away shard: to the shard that absorbed it). A
			// merely-down engine drops the connection and the client's
			// resend machinery retries.
			if rd, ok := s.topo.Retired(i); ok {
				s.send(conn, peer, rd)
			}
			s.log.Printf("%s: engine down, dropping %v", peer, msg.Kind())
			return
		}
		switch m := msg.(type) {
		case wire.Register:
			if err := eng.Register(m); err != nil {
				s.log.Printf("%s: register: %v", peer, err)
				return
			}
			bind(m.User)
		case wire.Hello:
			responses, resumed, err := eng.HandleHello(m)
			if err != nil {
				s.log.Printf("%s: hello: %v", peer, err)
				return
			}
			bind(m.User)
			if !s.send(conn, peer, responses...) {
				return
			}
			if resumed {
				s.log.Printf("%s: user %d resumed session", peer, m.User)
			}
		case wire.Heartbeat:
			if !s.send(conn, peer, eng.HandleHeartbeat(alarm.UserID(user), m)...) {
				return
			}
		case wire.FiredAck:
			if user != 0 {
				if err := eng.AckFired(alarm.UserID(user), m.Alarms); err != nil {
					s.log.Printf("%s: fired-ack: %v", peer, err)
					return
				}
			}
		case wire.InstallContinuous:
			if !s.send(conn, peer, s.installReply(alarm.Alarm{
				Scope:       scopeFor(m.Subscribers),
				Owner:       alarm.UserID(m.Owner),
				Subscribers: toUserIDs(m.Subscribers),
				Region:      m.Region,
				Kind:        alarm.KindContinuous,
				Cooldown:    m.Cooldown,
			})) {
				return
			}
		case wire.InstallPair:
			if !s.send(conn, peer, s.installReply(alarm.Alarm{
				Scope:       alarm.Shared,
				Owner:       alarm.UserID(m.Owner),
				Subscribers: []alarm.UserID{alarm.UserID(m.Owner)},
				Kind:        alarm.KindPair,
				Anchor:      alarm.UserID(m.Anchor),
				Radius:      m.Radius,
				Cooldown:    m.Cooldown,
			})) {
				return
			}
		case wire.InstallComposite:
			factors := make([]alarm.Factor, len(m.Factors))
			for i, f := range m.Factors {
				factors[i] = alarm.Factor{Center: f.Center, Radius: f.Radius, Region: f.Region, Weight: f.Weight}
			}
			if !s.send(conn, peer, s.installReply(alarm.Alarm{
				Scope:       scopeFor(m.Subscribers),
				Owner:       alarm.UserID(m.Owner),
				Subscribers: toUserIDs(m.Subscribers),
				Kind:        alarm.KindComposite,
				Factors:     factors,
				Threshold:   m.Threshold,
				ExpiresAt:   m.ExpiresAt,
			})) {
				return
			}
		case wire.PositionUpdate:
			one[0] = m
			if !s.serveUpdates(i, conn, peer, eng, one, false) {
				return
			}
		case wire.UpdateBatch:
			if !s.serveUpdates(i, conn, peer, eng, m.Updates, true) {
				return
			}
		default:
			s.log.Printf("%s: unexpected %v", peer, msg.Kind())
			return
		}
	}
}

// serveUpdates serves the maximal prefix of ups listener i owns, then
// redirects the client on the first update it does not own, exactly as a
// stand-alone update would be redirected; the rest of the frame is left
// for the client's resend machinery to retry at the owner. A lone
// PositionUpdate (batched false) is answered with the engine's messages,
// or a bare Ack when there are none; a batch with one BatchReply. It
// reports false when the connection must close.
func (s *TCPServer) serveUpdates(i int, conn transport.Conn, peer string, eng *Engine, ups []wire.PositionUpdate, batched bool) bool {
	n := s.topo.Owned(i, ups)
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
			s.log.Printf("%s: update: %v", peer, err)
			return false
		}
		s.topo.Served(i, ups[:n])
		if !s.send(conn, peer, out...) {
			return false
		}
	}
	if n == len(ups) {
		return true
	}
	rd, ok := s.topo.Redirect(i, ups[n])
	if !ok {
		return true // dropped: the client resends
	}
	eng.Metrics().AddDownlink(wire.EncodedSize(rd))
	return s.send(conn, peer, rd)
}

// installReply durably installs one lifecycle alarm and builds the typed
// reply: the assigned ID, or 0 when validation (or the log) rejected it.
// A rejected install is an application-level failure, not a protocol
// one, so the connection stays up.
func (s *TCPServer) installReply(a alarm.Alarm) wire.InstallReply {
	ids, err := s.topo.InstallAlarms([]alarm.Alarm{a})
	if err != nil || len(ids) == 0 {
		s.log.Printf("install %v rejected: %v", a.Kind, err)
		return wire.InstallReply{}
	}
	return wire.InstallReply{ID: uint64(ids[0])}
}

// scopeFor maps a typed install's subscriber list to the alarm scope:
// owner-only installs are private, anything with subscribers is shared.
func scopeFor(subs []uint64) alarm.Scope {
	if len(subs) == 0 {
		return alarm.Private
	}
	return alarm.Shared
}

func toUserIDs(subs []uint64) []alarm.UserID {
	out := make([]alarm.UserID, len(subs))
	for i, s := range subs {
		out[i] = alarm.UserID(s)
	}
	return out
}

// single is the Topology of one engine behind one listener: it owns every
// position, so nothing is ever redirected or fanned out.
type single struct{ eng *Engine }

func (t single) Engine(int) *Engine                                    { return t.eng }
func (single) Owned(_ int, ups []wire.PositionUpdate) int              { return len(ups) }
func (single) Redirect(int, wire.PositionUpdate) (wire.Redirect, bool) { return wire.Redirect{}, false }
func (single) Retired(int) (wire.Redirect, bool)                       { return wire.Redirect{}, false }
func (single) Served(int, []wire.PositionUpdate)                       {}
func (t single) SetPusher(p Pusher)                                    { t.eng.SetPusher(p) }
func (t single) InstallAlarms(alarms []alarm.Alarm) ([]alarm.ID, error) {
	return t.eng.InstallAlarms(alarms)
}
