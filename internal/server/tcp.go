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
// behind its listeners. Everything else — accepting, the per-frame
// Dispatch, typed installs and the user→connection binding pushes
// follow — is the same however many engines serve the space. A bare
// engine is one listener that owns every position (NewTCPServerIdle, for
// the benchmark child and tests); a cluster, one shard or many, puts one
// listener in front of each shard.
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
// connection. cmd/alarmserver wraps it over a cluster and the benchmark
// child over a cluster or a bare engine; the simulator boots the cluster
// alarmserver does and serves its in-memory links through the same
// Dispatch.
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
// ":7700"; "" binds none); a zero idle timeout disables dead-peer
// reaping. Serving starts with Serve.
func NewTCPServerIdle(eng *Engine, addr string, logger *log.Logger, idleTimeout time.Duration) (*TCPServer, error) {
	return NewTCPFrontEnd(single{eng}, []string{addr}, logger, idleTimeout)
}

// NewTCPFrontEnd listens on addrs[i] for listener i (":0" picks a port;
// Addrs reports the bound ones) and installs the front end's pusher on
// the topology. An empty addrs[i] leaves listener i unbound, for Listen
// or Name to fill in later. Serving starts with Serve.
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
		if addr == "" {
			s.listeners = append(s.listeners, nil)
			s.addrs = append(s.addrs, "")
			continue
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range s.listeners {
				if l != nil {
					l.Close()
				}
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

// Addrs returns every listener's address ("" where it has none).
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
	s.growLocked(i)
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

// Name gives listener i the address addr without binding a socket:
// Addrs reports it and redirects point clients at it, while whoever owns
// addr carries the frames that arrive there to Dispatch.
func (s *TCPServer) Name(i int, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growLocked(i)
	s.addrs[i] = addr
}

// growLocked extends the listener table to hold listener i. The caller
// holds s.mu.
func (s *TCPServer) growLocked(i int) {
	for len(s.addrs) <= i {
		s.addrs = append(s.addrs, "")
		s.listeners = append(s.listeners, nil)
	}
}

// Serve accepts on every listener until Close, and on each listener
// Listen adds meanwhile; listener 0 must be bound. It returns listener
// 0's error, always non-nil; after Close it wraps net.ErrClosed.
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

// send writes msgs to c in order, reporting false (after logging) on the
// first failure.
func (s *TCPServer) send(c *ConnState, msgs ...wire.Message) bool {
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			s.log.Printf("%s: send: %v", c.peer, err)
			return false
		}
	}
	return true
}

func (s *TCPServer) serveConn(i int, nc net.Conn) {
	// The read deadline doubles as dead-peer detection: a client that
	// neither reports nor heartbeats within the idle window is reaped. Its
	// session state stays in the engine for a later Hello+token resume.
	c := &ConnState{
		Conn: transport.NewTCPDeadline(nc, s.idleTimeout, 30*time.Second),
		peer: fmt.Sprintf("listener %d conn %s", i, nc.RemoteAddr()),
	}
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		for _, u := range c.bound {
			if s.userConns[u] == c.Conn {
				delete(s.userConns, u)
			}
		}
		s.mu.Unlock()
	}()
	for {
		msg, err := c.Recv()
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
			case errors.Is(err, os.ErrDeadlineExceeded):
				s.log.Printf("%s: idle timeout, reaping", c.peer)
			default:
				s.log.Printf("%s: recv: %v", c.peer, err)
			}
			return
		}
		if !s.Dispatch(i, c, msg) {
			return
		}
	}
}

// ConnState is one client connection as the front end sees it: the
// transport it answers on and the users it enrolled, whose pushes it
// carries. A fresh connection is a ConnState holding just its Conn.
type ConnState struct {
	transport.Conn
	peer string // names the connection in log lines
	// eng is the engine that served the connection's last frame.
	eng *Engine
	// user is the latest enrolled user; bound is every user the
	// connection enrolled (a batching client enrolls many), and shared
	// marks a connection that enrolled more than one.
	user   uint64
	bound  []uint64
	shared bool
	// one carries a lone report, served as a run of one.
	one [1]wire.PositionUpdate
}

// Dispatch serves one frame that arrived on listener i over c and
// reports whether the connection stays open; the caller closes it on
// false. Each connection's read loop calls it frame by frame, and so
// does a caller that carries frames itself (the simulator, one tick at
// a time). Replies and pushes go out on c's Conn before it returns. A
// Register also takes in the Register frames already whole in c's read
// buffer behind it (register).
func (s *TCPServer) Dispatch(i int, c *ConnState, msg wire.Message) bool {
	eng := s.topo.Engine(i)
	if eng == nil {
		// A retired listener sends its clients where the topology says (a
		// merged-away shard: to the shard that absorbed it). A merely-down
		// engine drops the connection and the client's resend machinery
		// retries.
		if rd, ok := s.topo.Retired(i); ok {
			s.send(c, rd)
		}
		s.log.Printf("%s: engine down, dropping %v", c.peer, msg.Kind())
		return false
	}
	if c.eng != nil && c.eng != eng {
		// The engine restarted (recovery or promotion) since the last
		// frame. The connection goes with the incarnation it talked to, as
		// a socket dies with its process: the client's Hello then
		// re-establishes its session against what the new one recovered.
		s.log.Printf("%s: engine restarted, dropping %v", c.peer, msg.Kind())
		return false
	}
	c.eng = eng
	switch m := msg.(type) {
	case wire.Register:
		return s.register(c, eng, m)
	case wire.Hello:
		responses, resumed, err := eng.HandleHello(m)
		if err != nil {
			s.log.Printf("%s: hello: %v", c.peer, err)
			return false
		}
		s.bind(c, m.User)
		if resumed {
			s.log.Printf("%s: user %d resumed session", c.peer, m.User)
		}
		return s.send(c, responses...)
	case wire.Heartbeat:
		return s.send(c, eng.HandleHeartbeat(alarm.UserID(c.user), m)...)
	case wire.FiredAck:
		if c.user != 0 {
			if err := eng.AckFired(alarm.UserID(c.user), m.Alarms); err != nil {
				s.log.Printf("%s: fired-ack: %v", c.peer, err)
				return false
			}
		}
	case wire.InstallContinuous:
		return s.send(c, s.installReply(alarm.Alarm{
			Scope:       scopeFor(m.Subscribers),
			Owner:       alarm.UserID(m.Owner),
			Subscribers: toUserIDs(m.Subscribers),
			Region:      m.Region,
			Kind:        alarm.KindContinuous,
			Cooldown:    m.Cooldown,
		}))
	case wire.InstallPair:
		return s.send(c, s.installReply(alarm.Alarm{
			Scope:       alarm.Shared,
			Owner:       alarm.UserID(m.Owner),
			Subscribers: []alarm.UserID{alarm.UserID(m.Owner)},
			Kind:        alarm.KindPair,
			Anchor:      alarm.UserID(m.Anchor),
			Radius:      m.Radius,
			Cooldown:    m.Cooldown,
		}))
	case wire.InstallComposite:
		factors := make([]alarm.Factor, len(m.Factors))
		for i, f := range m.Factors {
			factors[i] = alarm.Factor{Center: f.Center, Radius: f.Radius, Region: f.Region, Weight: f.Weight}
		}
		return s.send(c, s.installReply(alarm.Alarm{
			Scope:       scopeFor(m.Subscribers),
			Owner:       alarm.UserID(m.Owner),
			Subscribers: toUserIDs(m.Subscribers),
			Kind:        alarm.KindComposite,
			Factors:     factors,
			Threshold:   m.Threshold,
			ExpiresAt:   m.ExpiresAt,
		}))
	case wire.PositionUpdate:
		c.one[0] = m
		return s.serveUpdates(i, c, eng, c.one[:], false)
	case wire.UpdateBatch:
		return s.serveUpdates(i, c, eng, m.Updates, true)
	default:
		s.log.Printf("%s: unexpected %v", c.peer, msg.Kind())
		return false
	}
	return true
}

// register enrolls m together with every Register frame already whole in
// c's read buffer behind it, as one group commit: a fleet enrolling back
// to back on one connection pays one fsync per buffered run rather than
// one per client. The run ends at the first frame that is not a whole
// buffered Register, so each record is committed before the connection
// serves a later frame and before its read loop can block on the socket.
// A Register with an unknown strategy (or a frame that fails to decode)
// also ends it: the Registers before it are enrolled, then the
// connection closes. A connection without a read buffer (the simulator's
// links) commits frame by frame.
func (s *TCPServer) register(c *ConnState, eng *Engine, m wire.Register) bool {
	var run []wire.Register
	var err error
	for more := true; more; {
		if err = checkRegister(m); err != nil {
			break
		}
		run = append(run, m)
		m, more, err = nextBufferedRegister(c)
	}
	if len(run) > 0 {
		if err := eng.registerRun(run); err != nil {
			s.log.Printf("%s: register: %v", c.peer, err)
			return false
		}
		for _, r := range run {
			s.bind(c, r.User)
		}
	}
	if err != nil {
		s.log.Printf("%s: register: %v", c.peer, err)
		return false
	}
	return true
}

// frameBuffer is a Conn that reads through a buffer and can tell, without
// blocking, whether its next frame has arrived whole (the TCP transport).
type frameBuffer interface {
	BufferedFrame() (kind wire.Kind, whole bool)
}

// nextBufferedRegister receives c's next frame when it is a Register that
// is already whole in c's read buffer; more is false, and nothing is
// read, otherwise.
func nextBufferedRegister(c *ConnState) (m wire.Register, more bool, err error) {
	fb, ok := c.Conn.(frameBuffer)
	if !ok {
		return m, false, nil
	}
	if kind, whole := fb.BufferedFrame(); !whole || kind != wire.KindRegister {
		return m, false, nil
	}
	msg, err := c.Recv()
	if err != nil {
		return m, false, err
	}
	m, more = msg.(wire.Register)
	return m, more, nil
}

// bind records that c enrolled user u: u's pushes follow c from now on.
func (s *TCPServer) bind(c *ConnState, u uint64) {
	c.shared = c.shared || (c.user != 0 && c.user != u)
	c.user = u
	c.bound = append(c.bound, u)
	s.mu.Lock()
	s.userConns[u] = c.Conn
	s.mu.Unlock()
}

// serveUpdates serves the maximal prefix of ups listener i owns, then
// redirects the client on the first update it does not own, exactly as a
// stand-alone update would be redirected; the rest of the frame is left
// for the client's resend machinery to retry at the owner. A lone
// PositionUpdate (batched false) is answered with the engine's messages,
// or a bare Ack when there are none; a batch with one BatchReply. It
// reports false when the connection must close.
func (s *TCPServer) serveUpdates(i int, c *ConnState, eng *Engine, ups []wire.PositionUpdate, batched bool) bool {
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
			s.log.Printf("%s: update: %v", c.peer, err)
			return false
		}
		s.topo.Served(i, ups[:n])
		if !s.send(c, out...) {
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
	// The session moved with the Redirect, so a connection that is only
	// that client's goes too: anything else it sent here would be served
	// without the session — a firing answered on a link the client is
	// leaving would be spent and lost. A shared connection stays.
	return s.send(c, rd) && (c.shared || c.user != ups[n].User)
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
