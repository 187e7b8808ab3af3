// Package transport moves wire messages between clients and the server.
//
// Two implementations share one Conn interface: an in-process channel pipe
// (used by simulations and tests) and a TCP transport with 4-byte
// length-prefixed frames (used by the cmd/alarmserver and cmd/alarmclient
// binaries). The Faulty wrapper injects a deterministic, seed-scripted
// fault schedule — drops, delays, duplicates, reorders, hard resets and
// timed partitions — onto any Conn; the session layer in internal/client
// and internal/server is what makes delivery survive it.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/sabre-geo/sabre/internal/wire"
)

// MaxFrameBytes bounds a single message frame; larger frames indicate a
// corrupt or hostile peer.
const MaxFrameBytes = 1 << 20

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a bidirectional, ordered message pipe.
type Conn interface {
	// Send transmits one message. It is safe for concurrent use.
	Send(m wire.Message) error
	// Recv blocks for the next message.
	Recv() (wire.Message, error)
	// Close releases the connection; pending and future Recv calls fail.
	Close() error
}

// PollingConn is a Conn that additionally supports a non-blocking receive.
// Single-threaded drivers (the deterministic fault simulator, the client
// session state machine) poll instead of parking a goroutine per
// connection. Pipe endpoints and Faulty wrappers implement it natively;
// Buffer adapts any other Conn.
type PollingConn interface {
	Conn
	// TryRecv returns the next message if one is ready. ok is false when
	// no message is waiting; a non-nil error means the connection is dead.
	TryRecv() (m wire.Message, ok bool, err error)
}

// Poller returns c as a PollingConn, wrapping it in a Buffer pump when the
// implementation has no native non-blocking receive.
func Poller(c Conn) PollingConn {
	if p, ok := c.(PollingConn); ok {
		return p
	}
	return Buffer(c, 256)
}

// Pipe returns two connected in-process endpoints with the given buffer
// capacity per direction.
func Pipe(capacity int) (Conn, Conn) {
	if capacity < 1 {
		capacity = 1
	}
	ab := make(chan wire.Message, capacity)
	ba := make(chan wire.Message, capacity)
	done := make(chan struct{})
	var once sync.Once
	closeFn := func() error {
		once.Do(func() { close(done) })
		return nil
	}
	a := &pipeConn{send: ab, recv: ba, done: done, close: closeFn}
	b := &pipeConn{send: ba, recv: ab, done: done, close: closeFn}
	return a, b
}

type pipeConn struct {
	send  chan wire.Message
	recv  chan wire.Message
	done  chan struct{}
	close func() error
}

func (c *pipeConn) Send(m wire.Message) error {
	// Check done first: a two-way select picks randomly when both cases
	// are ready, which would let sends sneak through after Close.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	select {
	case <-c.done:
		return ErrClosed
	case c.send <- m:
		return nil
	}
}

func (c *pipeConn) Recv() (wire.Message, error) {
	select {
	case <-c.done:
		return nil, ErrClosed
	default:
	}
	select {
	case <-c.done:
		return nil, ErrClosed
	case m := <-c.recv:
		return m, nil
	}
}

func (c *pipeConn) Close() error { return c.close() }

// TryRecv implements PollingConn without blocking. Like Recv, a closed
// pipe reports ErrClosed even if undrained messages remain.
func (c *pipeConn) TryRecv() (wire.Message, bool, error) {
	select {
	case <-c.done:
		return nil, false, ErrClosed
	default:
	}
	select {
	case <-c.done:
		return nil, false, ErrClosed
	case m := <-c.recv:
		return m, true, nil
	default:
		return nil, false, nil
	}
}

// Buffer adapts any Conn into a PollingConn by pumping Recv through a
// goroutine into a channel of the given capacity. Used for TCP
// connections, whose framing cannot tolerate a timed-out partial read.
// Closing the returned conn closes the inner one, which stops the pump.
func Buffer(inner Conn, capacity int) PollingConn {
	if capacity < 1 {
		capacity = 1
	}
	b := &bufferedConn{inner: inner, ch: make(chan wire.Message, capacity)}
	go b.pump()
	return b
}

type bufferedConn struct {
	inner Conn
	ch    chan wire.Message
	mu    sync.Mutex
	err   error
}

func (b *bufferedConn) pump() {
	for {
		m, err := b.inner.Recv()
		if err != nil {
			b.mu.Lock()
			b.err = err
			b.mu.Unlock()
			close(b.ch)
			return
		}
		b.ch <- m
	}
}

func (b *bufferedConn) savedErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err == nil {
		return ErrClosed
	}
	return b.err
}

func (b *bufferedConn) Send(m wire.Message) error { return b.inner.Send(m) }
func (b *bufferedConn) Close() error              { return b.inner.Close() }

func (b *bufferedConn) Recv() (wire.Message, error) {
	m, ok := <-b.ch
	if !ok {
		return nil, b.savedErr()
	}
	return m, nil
}

func (b *bufferedConn) TryRecv() (wire.Message, bool, error) {
	select {
	case m, ok := <-b.ch:
		if !ok {
			return nil, false, b.savedErr()
		}
		return m, true, nil
	default:
		return nil, false, nil
	}
}

// framePool recycles encode buffers so the steady-state send path stops
// allocating: header and payload are built in one pooled buffer and
// written with a single Write (also halving syscalls per frame).
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame writes one length-prefixed message to w.
func WriteFrame(w io.Writer, m wire.Message) error {
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0) // header placeholder
	buf = wire.AppendEncode(buf, m)
	n := len(buf) - 4
	if n > MaxFrameBytes {
		*bp = buf
		framePool.Put(bp)
		return fmt.Errorf("transport: message of %d bytes exceeds frame limit", n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	_, err := w.Write(buf)
	*bp = buf
	framePool.Put(bp)
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message from r.
func ReadFrame(r io.Reader) (wire.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("transport: invalid frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return wire.Decode(payload)
}

// tcpConn adapts a net.Conn to the Conn interface with framed messages
// and optional per-operation deadlines (zero disables a deadline). Recv
// reads through br, so a frame's header and payload — and any frames the
// peer sent behind it — arrive in one read(2) instead of two per frame.
type tcpConn struct {
	nc           net.Conn
	br           *bufio.Reader
	readTimeout  time.Duration
	writeTimeout time.Duration
	wm           sync.Mutex
	rm           sync.Mutex
}

// NewTCP wraps an established network connection with no deadlines.
func NewTCP(nc net.Conn) Conn { return NewTCPDeadline(nc, 0, 0) }

// NewTCPDeadline wraps an established network connection applying a read
// deadline per Recv and a write deadline per Send (either may be zero to
// disable). A Recv that outlives the read deadline kills the connection —
// framing cannot resume after a partial read — so the read timeout doubles
// as dead-peer detection: pick it longer than the peer's heartbeat
// interval.
func NewTCPDeadline(nc net.Conn, readTimeout, writeTimeout time.Duration) Conn {
	return &tcpConn{nc: nc, br: bufio.NewReader(nc), readTimeout: readTimeout, writeTimeout: writeTimeout}
}

// Dial connects to a SABRE server at addr.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCP(nc), nil
}

// DialDeadline connects to a SABRE server at addr with a connect timeout
// and per-operation deadlines on the returned conn.
func DialDeadline(addr string, connectTimeout, readTimeout, writeTimeout time.Duration) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, connectTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPDeadline(nc, readTimeout, writeTimeout), nil
}

func (c *tcpConn) Send(m wire.Message) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	if c.writeTimeout > 0 {
		if err := c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return err
		}
	}
	return WriteFrame(c.nc, m)
}

func (c *tcpConn) Recv() (wire.Message, error) {
	c.rm.Lock()
	defer c.rm.Unlock()
	if c.readTimeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(c.readTimeout)); err != nil {
			return nil, err
		}
	}
	return ReadFrame(c.br)
}

func (c *tcpConn) Close() error { return c.nc.Close() }
