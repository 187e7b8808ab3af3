// Package wire defines the client–server message formats and their compact
// binary encoding.
//
// Every byte matters here: the paper's Figure 6(b) measures the downstream
// bandwidth spent broadcasting safe regions, and the relative sizes of the
// rectangular (fixed 32-byte), bitmap (variable, a few dozen bytes) and
// OPT (40 bytes per pushed alarm) payloads are exactly what produces its
// ordering of the approaches. The codec is hand-rolled big-endian with no
// framing — transports add their own length prefixes.
//
// Coordinates travel as float64 so a client and the server agree bit-for-
// bit on positions; this is what lets the simulation assert 100% trigger
// accuracy against the ground-truth trace.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/pyramid"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. Client→server: Register, PositionUpdate, Hello, Heartbeat,
// FiredAck. Server→client: Resume, Heartbeat (echo) and the rest.
const (
	KindRegister Kind = iota + 1
	KindPositionUpdate
	KindRectRegion
	KindBitmapRegion
	KindAlarmPush
	KindSafePeriod
	KindAlarmFired
	KindAck
	KindHello
	KindResume
	KindHeartbeat
	KindFiredAck
	KindRedirect
	KindUpdateBatch
	KindBatchReply
	KindInstallContinuous
	KindInstallPair
	KindInstallComposite
	KindInstallReply
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindPositionUpdate:
		return "position-update"
	case KindRectRegion:
		return "rect-region"
	case KindBitmapRegion:
		return "bitmap-region"
	case KindAlarmPush:
		return "alarm-push"
	case KindSafePeriod:
		return "safe-period"
	case KindAlarmFired:
		return "alarm-fired"
	case KindAck:
		return "ack"
	case KindHello:
		return "hello"
	case KindResume:
		return "resume"
	case KindHeartbeat:
		return "heartbeat"
	case KindFiredAck:
		return "fired-ack"
	case KindRedirect:
		return "redirect"
	case KindUpdateBatch:
		return "update-batch"
	case KindBatchReply:
		return "batch-reply"
	case KindInstallContinuous:
		return "install-continuous"
	case KindInstallPair:
		return "install-pair"
	case KindInstallComposite:
		return "install-composite"
	case KindInstallReply:
		return "install-reply"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Strategy identifies the alarm processing approach a client registers
// for. Values are stable wire constants.
type Strategy uint8

// Processing strategies (paper §5: PRD, SP, MWPSR, GBSR/PBSR, OPT).
const (
	StrategyPeriodic Strategy = iota + 1
	StrategySafePeriod
	StrategyMWPSR
	StrategyPBSR
	StrategyOptimal
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyPeriodic:
		return "PRD"
	case StrategySafePeriod:
		return "SP"
	case StrategyMWPSR:
		return "MWPSR"
	case StrategyPBSR:
		return "PBSR"
	case StrategyOptimal:
		return "OPT"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Message is any SABRE protocol message.
type Message interface {
	Kind() Kind
	// appendTo encodes the payload (without the kind byte).
	appendTo(dst []byte) []byte
}

// Codec errors.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrUnknownKind = errors.New("wire: unknown message kind")
)

// Register announces a client to the server, with its chosen strategy and
// capability (for PBSR, the maximum pyramid height the client can decode —
// the per-client heterogeneity knob of paper §4).
type Register struct {
	User      uint64
	Strategy  Strategy
	MaxHeight uint8
}

// Kind implements Message.
func (Register) Kind() Kind { return KindRegister }

func (m Register) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.User)
	return append(dst, byte(m.Strategy), m.MaxHeight)
}

// PositionUpdate is the client→server location report. Seq increments per
// client so responses can be matched to the update that prompted them.
type PositionUpdate struct {
	User uint64
	Seq  uint32
	Pos  geom.Point
}

// Kind implements Message.
func (PositionUpdate) Kind() Kind { return KindPositionUpdate }

func (m PositionUpdate) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.User)
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = appendFloat(dst, m.Pos.X)
	return appendFloat(dst, m.Pos.Y)
}

// RectRegion ships a rectangular safe region (MWPSR) to the client.
//
// Cap time-limits the region for pair-alarm endpoints: 0 means no cap,
// v > 0 means the proof expires v-1 ticks after receipt (a static region
// is never sound against a moving partner, so the cap must travel IN the
// region message — a separately shipped cap can be dropped independently,
// leaving the client provably safe forever on a region that is not).
type RectRegion struct {
	Seq  uint32
	Rect geom.Rect
	Cap  uint32
}

// Kind implements Message.
func (RectRegion) Kind() Kind { return KindRectRegion }

func (m RectRegion) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = appendRect(dst, m.Rect)
	return binary.BigEndian.AppendUint32(dst, m.Cap)
}

// BitmapRegion ships a bitmap-encoded safe region (GBSR/PBSR).
// Cap has RectRegion's pair-endpoint expiry semantics (0 = none).
type BitmapRegion struct {
	Seq    uint32
	Cell   geom.Rect
	U, V   uint8
	Height uint8
	NBits  uint32
	Cap    uint32
	Data   []byte
}

// Kind implements Message.
func (BitmapRegion) Kind() Kind { return KindBitmapRegion }

func (m BitmapRegion) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = appendRect(dst, m.Cell)
	dst = append(dst, m.U, m.V, m.Height)
	dst = binary.BigEndian.AppendUint32(dst, m.NBits)
	dst = binary.BigEndian.AppendUint32(dst, m.Cap)
	return append(dst, m.Data...)
}

// Bitmap converts the message into a pyramid.Bitmap for decoding.
func (m BitmapRegion) Bitmap() *pyramid.Bitmap {
	return &pyramid.Bitmap{
		Params: pyramid.Params{U: int(m.U), V: int(m.V), Height: int(m.Height)},
		Cell:   m.Cell,
		Data:   m.Data,
		NBits:  int(m.NBits),
	}
}

// FromBitmap builds the wire message for a pyramid bitmap.
func FromBitmap(seq uint32, b *pyramid.Bitmap) BitmapRegion {
	return BitmapRegion{
		Seq:    seq,
		Cell:   b.Cell,
		U:      uint8(b.Params.U),
		V:      uint8(b.Params.V),
		Height: uint8(b.Params.Height),
		NBits:  uint32(b.NBits),
		Data:   b.Data,
	}
}

// AlarmInfo is one alarm pushed to an OPT client.
type AlarmInfo struct {
	ID     uint64
	Region geom.Rect
}

// AlarmPush ships the client's grid cell and every relevant alarm
// intersecting it (the OPT approach of paper §4: the client gets complete
// knowledge of its vicinity). Cap has RectRegion's pair-endpoint expiry
// semantics (0 = none) — even full alarm knowledge cannot evaluate a pair
// locally, since the partner's position lives on the server.
type AlarmPush struct {
	Seq    uint32
	Cell   geom.Rect
	Cap    uint32
	Alarms []AlarmInfo
}

// Kind implements Message.
func (AlarmPush) Kind() Kind { return KindAlarmPush }

func (m AlarmPush) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = appendRect(dst, m.Cell)
	dst = binary.BigEndian.AppendUint32(dst, m.Cap)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Alarms)))
	for _, a := range m.Alarms {
		dst = binary.BigEndian.AppendUint64(dst, a.ID)
		dst = appendRect(dst, a.Region)
	}
	return dst
}

// SafePeriod ships a safe period in whole ticks (the SP baseline).
type SafePeriod struct {
	Seq   uint32
	Ticks uint32
}

// Kind implements Message.
func (SafePeriod) Kind() Kind { return KindSafePeriod }

func (m SafePeriod) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	return binary.BigEndian.AppendUint32(dst, m.Ticks)
}

// AlarmFired notifies a client that alarms triggered for it.
type AlarmFired struct {
	Seq    uint32
	Alarms []uint64
}

// Kind implements Message.
func (AlarmFired) Kind() Kind { return KindAlarmFired }

func (m AlarmFired) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Alarms)))
	for _, id := range m.Alarms {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst
}

// Ack tells a client its report was processed and its current monitoring
// state (safe region or alarm set) is unchanged. The PBSR strategy uses it
// when a client leaves its safe region but stays within its grid cell
// without triggering anything: the paper's §4.2 prescribes no safe region
// recomputation there, and the 5-byte Ack is what keeps PBSR's downstream
// bandwidth the lowest of all approaches (Figure 6(b)).
//
// Cap carries RectRegion's pair-endpoint expiry (0 = none): "state
// unchanged" still re-arms the time limit on a pair endpoint's region, and
// the limit must ride in the same message to survive lossy links.
type Ack struct {
	Seq uint32
	Cap uint32
}

// Kind implements Message.
func (Ack) Kind() Kind { return KindAck }

func (m Ack) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	return binary.BigEndian.AppendUint32(dst, m.Cap)
}

// Hello opens (Token == 0) or resumes (Token != 0) a fault-tolerant
// session: unlike the bare Register, a Hello-established session survives
// the connection. A reconnecting client presents the token the server
// issued in its Resume reply; on a match the server keeps the client's
// registration, monitoring state and undelivered alarm firings instead of
// starting over. Tokens identify sessions across reconnects — they are
// not a security credential.
type Hello struct {
	User      uint64
	Token     uint64
	Strategy  Strategy
	MaxHeight uint8
}

// Kind implements Message.
func (Hello) Kind() Kind { return KindHello }

func (m Hello) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.User)
	dst = binary.BigEndian.AppendUint64(dst, m.Token)
	return append(dst, byte(m.Strategy), m.MaxHeight)
}

// Resume is the server's reply to Hello: the session token to present on
// the next reconnect, and whether the prior session's state was resumed
// (Resumed true) or a fresh registration was made (Resumed false). On a
// resume the server follows with any undelivered AlarmFired (Seq 0) and a
// Seq-0 refresh of the client's monitoring state.
type Resume struct {
	Token   uint64
	Resumed bool
}

// Kind implements Message.
func (Resume) Kind() Kind { return KindResume }

func (m Resume) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Token)
	var b byte
	if m.Resumed {
		b = 1
	}
	return append(dst, b)
}

// Heartbeat is the dead-peer probe: a client sends one after an idle
// interval and the server echoes it back unchanged. Either side treats a
// sustained silence (no inbound traffic despite heartbeats) as a dead
// connection.
type Heartbeat struct {
	Nonce uint32
}

// Kind implements Message.
func (Heartbeat) Kind() Kind { return KindHeartbeat }

func (m Heartbeat) appendTo(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, m.Nonce)
}

// FiredAck acknowledges delivery of the listed alarm firings. The server
// retains a reliable session's firings until they are acked, re-sending
// them with later responses and resumes; the client's own dedup makes the
// resulting at-least-once redelivery exactly-once at the application
// layer.
type FiredAck struct {
	Alarms []uint64
}

// Kind implements Message.
func (FiredAck) Kind() Kind { return KindFiredAck }

func (m FiredAck) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Alarms)))
	for _, id := range m.Alarms {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst
}

// Redirect tells a client its session has moved to a different server
// (a cluster shard handoff, PROTOCOL.md "Redirect and handoff"): the
// client should drop this connection, dial Addr and present Token in its
// next Hello. The token was minted by the target shard when the session
// was imported there, so the redirected Hello resumes rather than
// re-enrolls. Epoch is the partition-map version the redirect was issued
// under (PROTOCOL.md "Redirect and handoff"): a client already holding a
// newer epoch ignores the frame as stale, otherwise it adopts the epoch.
// Addr is bounded to 64 KiB by its u16 length prefix.
type Redirect struct {
	Token uint64
	Epoch uint64
	Addr  string
}

// Kind implements Message.
func (Redirect) Kind() Kind { return KindRedirect }

func (m Redirect) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Token)
	dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Addr)))
	return append(dst, m.Addr...)
}

// UpdateBatch carries several position reports in one frame. A client
// session coalesces the reports it would send in one tick (a fresh report
// plus any overdue resends); a gateway or benchmark harness may also pack
// reports from many users into one batch. Updates are processed in order;
// updates for the same user must appear in chronological order.
//
// Batching amortizes per-frame costs: the frame is charged as one uplink
// message, the server takes each user's lock once per contained run of
// updates, and only the last update of a user's run needs a full
// monitoring-state response (earlier ones are stale on arrival and get a
// bare Ack unless they fired).
type UpdateBatch struct {
	Updates []PositionUpdate
}

// Kind implements Message.
func (UpdateBatch) Kind() Kind { return KindUpdateBatch }

func (m UpdateBatch) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Updates)))
	for _, u := range m.Updates {
		dst = binary.BigEndian.AppendUint64(dst, u.User)
		dst = binary.BigEndian.AppendUint32(dst, u.Seq)
		dst = appendFloat(dst, u.Pos.X)
		dst = appendFloat(dst, u.Pos.Y)
	}
	return dst
}

// BatchEntry is one user's responses inside a BatchReply: the messages
// that would have answered that user's updates had they arrived as
// individual frames (AlarmFired first, then per-update monitoring state
// or Acks).
type BatchEntry struct {
	User uint64
	Msgs []Message
}

// BatchReply answers an UpdateBatch: one entry per user that appeared in
// the batch, in first-appearance order. Entries may be missing for
// updates a cluster router could not serve (owning shard down); the
// client's resend machinery retries those. Batch frames never nest.
type BatchReply struct {
	Entries []BatchEntry
}

// Kind implements Message.
func (BatchReply) Kind() Kind { return KindBatchReply }

func (m BatchReply) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Entries)))
	for _, e := range m.Entries {
		dst = binary.BigEndian.AppendUint64(dst, e.User)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Msgs)))
		for _, inner := range e.Msgs {
			dst = binary.BigEndian.AppendUint32(dst, uint32(EncodedSize(inner)))
			dst = append(dst, byte(inner.Kind()))
			dst = inner.appendTo(dst)
		}
	}
	return dst
}

// SeqOf returns the sequence number a message carries and whether the
// message type has one. Session-layer code uses it to match responses to
// queued reports without enumerating every monitoring-state type.
func SeqOf(m Message) (uint32, bool) {
	switch v := m.(type) {
	case PositionUpdate:
		return v.Seq, true
	case RectRegion:
		return v.Seq, true
	case BitmapRegion:
		return v.Seq, true
	case AlarmPush:
		return v.Seq, true
	case SafePeriod:
		return v.Seq, true
	case AlarmFired:
		return v.Seq, true
	case Ack:
		return v.Seq, true
	default:
		return 0, false
	}
}

// Encode serializes a message with its leading kind byte.
func Encode(m Message) []byte {
	return m.appendTo([]byte{byte(m.Kind())})
}

// AppendEncode serializes a message (kind byte plus payload) into dst and
// returns the extended slice. Steady-state hot paths use it with pooled
// buffers so encoding allocates nothing once the buffer has grown.
func AppendEncode(dst []byte, m Message) []byte {
	dst = append(dst, byte(m.Kind()))
	return m.appendTo(dst)
}

// SizePositionUpdate is EncodedSize of a PositionUpdate as a constant, so
// the engine's hot path can charge uplink bytes without boxing the update
// into a Message interface (which would allocate).
const SizePositionUpdate = 1 + 8 + 4 + 16

// sizeUpdateBatch returns EncodedSize for a batch of n position updates.
func sizeUpdateBatch(n int) int { return 1 + 4 + n*28 }

// SizeUpdateBatch is EncodedSize of an UpdateBatch carrying n updates, as
// a function of n only — same boxing-avoidance purpose as
// SizePositionUpdate.
func SizeUpdateBatch(n int) int { return sizeUpdateBatch(n) }

// EncodedSize returns len(Encode(m)) without allocating — the quantity the
// bandwidth metrics charge.
func EncodedSize(m Message) int {
	switch v := m.(type) {
	case Register:
		return 1 + 8 + 2
	case PositionUpdate:
		return SizePositionUpdate
	case RectRegion:
		return 1 + 4 + 32 + 4
	case BitmapRegion:
		return 1 + 4 + 32 + 3 + 4 + 4 + len(v.Data)
	case AlarmPush:
		return 1 + 4 + 32 + 4 + 4 + len(v.Alarms)*40
	case SafePeriod:
		return 1 + 4 + 4
	case AlarmFired:
		return 1 + 4 + 4 + len(v.Alarms)*8
	case Ack:
		return 1 + 4 + 4
	case Hello:
		return 1 + 8 + 8 + 2
	case Resume:
		return 1 + 8 + 1
	case Heartbeat:
		return 1 + 4
	case FiredAck:
		return 1 + 4 + len(v.Alarms)*8
	case Redirect:
		return 1 + 8 + 8 + 2 + len(v.Addr)
	case UpdateBatch:
		return sizeUpdateBatch(len(v.Updates))
	case BatchReply:
		return sizeBatchReply(v.Entries)
	case InstallContinuous:
		return 1 + 8 + 4 + len(v.Subscribers)*8 + 32 + 4
	case InstallPair:
		return 1 + 8 + 8 + 8 + 4
	case InstallComposite:
		return 1 + 8 + 4 + len(v.Subscribers)*8 + 4 + len(v.Factors)*sizeFactor + 8 + 8
	case InstallReply:
		return 1 + 8
	default:
		return len(Encode(m))
	}
}

func sizeBatchReply(entries []BatchEntry) int {
	n := 1 + 4
	for _, e := range entries {
		n += 8 + 4
		for _, inner := range e.Msgs {
			n += 4 + EncodedSize(inner)
		}
	}
	return n
}

// Decode parses a message produced by Encode.
func Decode(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return nil, ErrTruncated
	}
	r := reader{buf: buf[1:]}
	var m Message
	switch Kind(buf[0]) {
	case KindRegister:
		m = Register{User: r.u64(), Strategy: Strategy(r.u8()), MaxHeight: r.u8()}
	case KindPositionUpdate:
		m = PositionUpdate{User: r.u64(), Seq: r.u32(), Pos: geom.Pt(r.f64(), r.f64())}
	case KindRectRegion:
		m = RectRegion{Seq: r.u32(), Rect: r.rect(), Cap: r.u32()}
	case KindBitmapRegion:
		bm := BitmapRegion{Seq: r.u32(), Cell: r.rect(), U: r.u8(), V: r.u8(), Height: r.u8(), NBits: r.u32(), Cap: r.u32()}
		bm.Data = r.rest()
		m = bm
	case KindAlarmPush:
		ap := AlarmPush{Seq: r.u32(), Cell: r.rect(), Cap: r.u32()}
		n := r.u32()
		if r.err == nil && uint64(n)*40 > uint64(len(r.buf)-r.pos)+40 {
			return nil, ErrTruncated
		}
		ap.Alarms = make([]AlarmInfo, 0, n)
		for i := uint32(0); i < n && r.err == nil; i++ {
			ap.Alarms = append(ap.Alarms, AlarmInfo{ID: r.u64(), Region: r.rect()})
		}
		m = ap
	case KindSafePeriod:
		m = SafePeriod{Seq: r.u32(), Ticks: r.u32()}
	case KindAck:
		m = Ack{Seq: r.u32(), Cap: r.u32()}
	case KindAlarmFired:
		af := AlarmFired{Seq: r.u32()}
		n := r.u32()
		if r.err == nil && uint64(n)*8 > uint64(len(r.buf)-r.pos) {
			return nil, ErrTruncated
		}
		af.Alarms = make([]uint64, 0, n)
		for i := uint32(0); i < n && r.err == nil; i++ {
			af.Alarms = append(af.Alarms, r.u64())
		}
		m = af
	case KindHello:
		m = Hello{User: r.u64(), Token: r.u64(), Strategy: Strategy(r.u8()), MaxHeight: r.u8()}
	case KindResume:
		m = Resume{Token: r.u64(), Resumed: r.u8() != 0}
	case KindHeartbeat:
		m = Heartbeat{Nonce: r.u32()}
	case KindFiredAck:
		fa := FiredAck{}
		n := r.u32()
		if r.err == nil && uint64(n)*8 > uint64(len(r.buf)-r.pos) {
			return nil, ErrTruncated
		}
		for i := uint32(0); i < n && r.err == nil; i++ {
			fa.Alarms = append(fa.Alarms, r.u64())
		}
		m = fa
	case KindRedirect:
		rd := Redirect{Token: r.u64(), Epoch: r.u64()}
		n := int(r.u16())
		if r.err == nil && n > len(r.buf)-r.pos {
			return nil, ErrTruncated
		}
		if r.err == nil {
			rd.Addr = string(r.buf[r.pos : r.pos+n])
			r.pos += n
		}
		m = rd
	case KindUpdateBatch:
		ub := UpdateBatch{}
		n := r.u32()
		if r.err == nil && uint64(n)*28 > uint64(len(r.buf)-r.pos) {
			return nil, ErrTruncated
		}
		ub.Updates = make([]PositionUpdate, 0, n)
		for i := uint32(0); i < n && r.err == nil; i++ {
			ub.Updates = append(ub.Updates, PositionUpdate{
				User: r.u64(), Seq: r.u32(), Pos: geom.Pt(r.f64(), r.f64()),
			})
		}
		m = ub
	case KindBatchReply:
		br := BatchReply{}
		n := r.u32()
		// A minimal entry is 12 bytes (user + message count).
		if r.err == nil && uint64(n)*12 > uint64(len(r.buf)-r.pos) {
			return nil, ErrTruncated
		}
		br.Entries = make([]BatchEntry, 0, n)
		for i := uint32(0); i < n && r.err == nil; i++ {
			e := BatchEntry{User: r.u64()}
			nm := r.u32()
			// Each inner message costs at least its 4-byte length prefix.
			if r.err == nil && uint64(nm)*4 > uint64(len(r.buf)-r.pos) {
				return nil, ErrTruncated
			}
			e.Msgs = make([]Message, 0, nm)
			for j := uint32(0); j < nm && r.err == nil; j++ {
				l := int(r.u32())
				if r.err != nil {
					break
				}
				if l == 0 || l > len(r.buf)-r.pos {
					return nil, ErrTruncated
				}
				// Reject nested batch frames before recursing: batches never
				// nest, and the check bounds decode depth against hostile
				// input.
				if k := Kind(r.buf[r.pos]); k == KindUpdateBatch || k == KindBatchReply {
					return nil, fmt.Errorf("wire: nested batch frame inside batch reply")
				}
				inner, err := Decode(r.buf[r.pos : r.pos+l])
				if err != nil {
					return nil, err
				}
				r.pos += l
				e.Msgs = append(e.Msgs, inner)
			}
			br.Entries = append(br.Entries, e)
		}
		m = br
	case KindInstallContinuous:
		ic := InstallContinuous{Owner: r.u64()}
		ic.Subscribers = r.u64s()
		ic.Region = r.rect()
		ic.Cooldown = r.u32()
		m = ic
	case KindInstallPair:
		m = InstallPair{Owner: r.u64(), Anchor: r.u64(), Radius: r.f64(), Cooldown: r.u32()}
	case KindInstallComposite:
		co := InstallComposite{Owner: r.u64()}
		co.Subscribers = r.u64s()
		n := r.u32()
		if r.err == nil && uint64(n)*sizeFactor > uint64(len(r.buf)-r.pos) {
			return nil, ErrTruncated
		}
		co.Factors = make([]FactorInfo, 0, n)
		for i := uint32(0); i < n && r.err == nil; i++ {
			co.Factors = append(co.Factors, FactorInfo{
				Center: geom.Pt(r.f64(), r.f64()),
				Radius: r.f64(),
				Region: r.rect(),
				Weight: r.f64(),
			})
		}
		co.Threshold = r.f64()
		co.ExpiresAt = r.u64()
		m = co
	case KindInstallReply:
		m = InstallReply{ID: r.u64()}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, buf[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendRect(dst []byte, r geom.Rect) []byte {
	dst = appendFloat(dst, r.MinX)
	dst = appendFloat(dst, r.MinY)
	dst = appendFloat(dst, r.MaxX)
	return appendFloat(dst, r.MaxY)
}

// reader is a cursor over a payload that records the first error instead
// of returning one per call.
type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.pos+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) rect() geom.Rect {
	return geom.Rect{MinX: r.f64(), MinY: r.f64(), MaxX: r.f64(), MaxY: r.f64()}
}

// u64s reads a u32-counted list of u64s with the usual count-vs-remaining
// guard.
func (r *reader) u64s() []uint64 {
	n := r.u32()
	if r.err == nil && uint64(n)*8 > uint64(len(r.buf)-r.pos) {
		r.err = ErrTruncated
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.u64())
	}
	return out
}

func (r *reader) rest() []byte {
	if r.err != nil {
		return nil
	}
	out := append([]byte(nil), r.buf[r.pos:]...)
	r.pos = len(r.buf)
	return out
}
