// Package store gives the alarm server durable state: a length-prefixed,
// CRC32-framed, fsync-disciplined write-ahead log of every state-changing
// operation, periodic JSON snapshots of the full engine state, and a
// recovery path that replays snapshot+log into a State from which the
// engine reconstructs itself. The observable behaviour of a recovered
// server — the delivered (user, alarm) set and the redelivery of
// unacknowledged firings — is identical to an uninterrupted run; see
// DESIGN.md "Durability" for the invariants and internal/sim.Drive
// for the proof harness.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

// Record type tags. Stable on-disk constants: never renumber.
const (
	recInstall  = 1 // alarm installed (full alarm, server-assigned ID)
	recRemove   = 2 // alarm cancelled
	recRegister = 3 // plain (fire-and-forget) client registration
	recHello    = 4 // reliable session minted: token + registration
	recFired    = 5 // alarms fired for a user, entering pendingFired
	recFiredAck = 6 // client acknowledged firings, leaving pendingFired
	recExpire   = 7 // idle reliable session reaped by the TTL sweep
	recEpoch    = 8 // partition-map epoch this shard last served (clustering)
	// recTransition logs one lifecycle transition event (packed per
	// alarm.PackEvent): replay advances the machine and, when the event
	// was delivered to a reliable session, re-enters it into the pending
	// set like a FiredRec entry.
	recTransition = 9
	// recAlarmExpire logs a composite alarm GC'd at its TTL: replay
	// removes the alarm (and its firings) so recovery never resurrects
	// an expired alarm.
	recAlarmExpire = 10
)

// Codec errors.
var (
	// ErrBadRecord marks a payload the record decoder rejects (unknown
	// type tag, truncated body, absurd count).
	ErrBadRecord = errors.New("store: bad record")
)

// Record is one typed WAL entry. Records are semantic operations: replay
// applies them, in log order, to a State; every application is idempotent
// so a record that also made it into a concurrent snapshot replays
// harmlessly.
type Record interface {
	// appendTo encodes the record including its leading type byte.
	appendTo(dst []byte) []byte
}

// InstallRec logs one installed alarm, including its assigned ID.
type InstallRec struct {
	Alarm alarm.Alarm
}

// RemoveRec logs an alarm cancellation.
type RemoveRec struct {
	ID alarm.ID
}

// RegisterRec logs a plain Register enrollment (fire-and-forget client).
type RegisterRec struct {
	User      uint64
	Strategy  wire.Strategy
	MaxHeight uint8
}

// HelloRec logs a fresh reliable session: the minted token and the
// client's declared strategy and capability. Replay re-mints the session
// and carries any unacknowledged firings over from prior reliable state,
// mirroring Engine.HandleHello.
type HelloRec struct {
	User      uint64
	Token     uint64
	Strategy  wire.Strategy
	MaxHeight uint8
}

// FiredRec logs alarms newly fired for a user: replay marks the
// (alarm, user) pairs fired and, for reliable clients, appends them to
// the pending (unacknowledged) set.
type FiredRec struct {
	User   uint64
	Alarms []uint64
}

// FiredAckRec logs a FiredAck: replay removes the ids from the user's
// pending set.
type FiredAckRec struct {
	User   uint64
	Alarms []uint64
}

// ExpireRec logs a session reaped by the idle TTL sweep: replay removes
// the user's client state and every resume token mapped to it.
type ExpireRec struct {
	User uint64
}

// EpochRec logs the partition-map epoch this shard last served. A
// recovered shard rejoins the cluster at max(logged epoch, map-file
// epoch); epochs only move forward, so replay keeps the highest seen.
type EpochRec struct {
	Epoch uint64
}

// TransitionRec logs one lifecycle transition event for a user: a
// continuous/pair enter or exit, or a composite severity firing, packed
// per alarm.PackEvent. Tick is the logical tick the transition happened
// at (the cooldown anchor). Delivered marks events that entered a
// reliable session's pending set — replay re-adds exactly those;
// state-sync records (handoff import, shard adoption) log with
// Delivered false so no phantom redelivery is created.
type TransitionRec struct {
	User      uint64
	Event     uint64
	Tick      uint64
	Delivered bool
}

// AlarmExpireRec logs a composite alarm reaped at its TTL tick: replay
// removes the alarm, its fired pairs and its lifecycle machines.
type AlarmExpireRec struct {
	ID alarm.ID
}

func (r InstallRec) appendTo(dst []byte) []byte {
	a := r.Alarm
	dst = append(dst, recInstall)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.ID))
	dst = append(dst, byte(a.Scope))
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Owner))
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Target))
	dst = appendRect(dst, a.Region)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Topic)))
	dst = append(dst, a.Topic...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Subscribers)))
	for _, s := range a.Subscribers {
		dst = binary.BigEndian.AppendUint64(dst, uint64(s))
	}
	dst = append(dst, byte(a.Kind))
	dst = binary.BigEndian.AppendUint32(dst, a.Cooldown)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.Anchor))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Radius))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Threshold))
	dst = binary.BigEndian.AppendUint64(dst, a.ExpiresAt)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.Factors)))
	for _, f := range a.Factors {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.Center.X))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.Center.Y))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.Radius))
		dst = appendRect(dst, f.Region)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f.Weight))
	}
	return dst
}

func (r RemoveRec) appendTo(dst []byte) []byte {
	dst = append(dst, recRemove)
	return binary.BigEndian.AppendUint64(dst, uint64(r.ID))
}

func (r RegisterRec) appendTo(dst []byte) []byte {
	dst = append(dst, recRegister)
	dst = binary.BigEndian.AppendUint64(dst, r.User)
	return append(dst, byte(r.Strategy), r.MaxHeight)
}

func (r HelloRec) appendTo(dst []byte) []byte {
	dst = append(dst, recHello)
	dst = binary.BigEndian.AppendUint64(dst, r.User)
	dst = binary.BigEndian.AppendUint64(dst, r.Token)
	return append(dst, byte(r.Strategy), r.MaxHeight)
}

func (r FiredRec) appendTo(dst []byte) []byte {
	return appendUserIDs(dst, recFired, r.User, r.Alarms)
}

func (r FiredAckRec) appendTo(dst []byte) []byte {
	return appendUserIDs(dst, recFiredAck, r.User, r.Alarms)
}

func (r ExpireRec) appendTo(dst []byte) []byte {
	dst = append(dst, recExpire)
	return binary.BigEndian.AppendUint64(dst, r.User)
}

func (r EpochRec) appendTo(dst []byte) []byte {
	dst = append(dst, recEpoch)
	return binary.BigEndian.AppendUint64(dst, r.Epoch)
}

func (r TransitionRec) appendTo(dst []byte) []byte {
	dst = append(dst, recTransition)
	dst = binary.BigEndian.AppendUint64(dst, r.User)
	dst = binary.BigEndian.AppendUint64(dst, r.Event)
	dst = binary.BigEndian.AppendUint64(dst, r.Tick)
	var b byte
	if r.Delivered {
		b = 1
	}
	return append(dst, b)
}

func (r AlarmExpireRec) appendTo(dst []byte) []byte {
	dst = append(dst, recAlarmExpire)
	return binary.BigEndian.AppendUint64(dst, uint64(r.ID))
}

func appendUserIDs(dst []byte, tag byte, user uint64, ids []uint64) []byte {
	dst = append(dst, tag)
	dst = binary.BigEndian.AppendUint64(dst, user)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst
}

// EncodeRecord serializes a record payload (type byte + body), ready for
// WAL framing.
func EncodeRecord(r Record) []byte {
	return r.appendTo(nil)
}

// DecodeRecord parses a payload produced by EncodeRecord. Anything it
// accepts re-encodes byte-identically.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadRecord)
	}
	r := reader{buf: payload[1:]}
	var rec Record
	switch payload[0] {
	case recInstall:
		a := alarm.Alarm{
			ID:     alarm.ID(r.u64()),
			Scope:  alarm.Scope(r.u8()),
			Owner:  alarm.UserID(r.u64()),
			Target: alarm.UserID(r.u64()),
			Region: r.rect(),
		}
		a.Topic = r.str()
		n := r.u32()
		if r.err == nil && uint64(n)*8 > uint64(len(r.buf)-r.pos) {
			return nil, fmt.Errorf("%w: subscriber count %d exceeds payload", ErrBadRecord, n)
		}
		for i := uint32(0); i < n && r.err == nil; i++ {
			a.Subscribers = append(a.Subscribers, alarm.UserID(r.u64()))
		}
		a.Kind = alarm.LifecycleKind(r.u8())
		a.Cooldown = r.u32()
		a.Anchor = alarm.UserID(r.u64())
		a.Radius = r.f64()
		a.Threshold = r.f64()
		a.ExpiresAt = r.u64()
		nf := r.u32()
		// Each encoded factor is 64 bytes.
		if r.err == nil && uint64(nf)*64 > uint64(len(r.buf)-r.pos) {
			return nil, fmt.Errorf("%w: factor count %d exceeds payload", ErrBadRecord, nf)
		}
		for i := uint32(0); i < nf && r.err == nil; i++ {
			a.Factors = append(a.Factors, alarm.Factor{
				Center: geom.Point{X: r.f64(), Y: r.f64()},
				Radius: r.f64(),
				Region: r.rect(),
				Weight: r.f64(),
			})
		}
		rec = InstallRec{Alarm: a}
	case recRemove:
		rec = RemoveRec{ID: alarm.ID(r.u64())}
	case recRegister:
		rec = RegisterRec{User: r.u64(), Strategy: wire.Strategy(r.u8()), MaxHeight: r.u8()}
	case recHello:
		rec = HelloRec{User: r.u64(), Token: r.u64(), Strategy: wire.Strategy(r.u8()), MaxHeight: r.u8()}
	case recFired:
		user, ids, err := r.userIDs()
		if err != nil {
			return nil, err
		}
		rec = FiredRec{User: user, Alarms: ids}
	case recFiredAck:
		user, ids, err := r.userIDs()
		if err != nil {
			return nil, err
		}
		rec = FiredAckRec{User: user, Alarms: ids}
	case recExpire:
		rec = ExpireRec{User: r.u64()}
	case recEpoch:
		rec = EpochRec{Epoch: r.u64()}
	case recTransition:
		rec = TransitionRec{User: r.u64(), Event: r.u64(), Tick: r.u64(), Delivered: r.u8() != 0}
	case recAlarmExpire:
		rec = AlarmExpireRec{ID: alarm.ID(r.u64())}
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadRecord, payload[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(r.buf)-r.pos)
	}
	return rec, nil
}

// reader is a cursor over a record body that records the first error
// instead of returning one per call (the internal/wire idiom).
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
		r.err = fmt.Errorf("%w: truncated body", ErrBadRecord)
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

func (r *reader) str() string {
	n := r.u32()
	if r.err == nil && uint64(n) > uint64(len(r.buf)-r.pos) {
		r.err = fmt.Errorf("%w: string length %d exceeds payload", ErrBadRecord, n)
	}
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *reader) userIDs() (uint64, []uint64, error) {
	user := r.u64()
	n := r.u32()
	if r.err == nil && uint64(n)*8 > uint64(len(r.buf)-r.pos) {
		return 0, nil, fmt.Errorf("%w: id count %d exceeds payload", ErrBadRecord, n)
	}
	var ids []uint64
	for i := uint32(0); i < n && r.err == nil; i++ {
		ids = append(ids, r.u64())
	}
	return user, ids, r.err
}

func appendRect(dst []byte, rc geom.Rect) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rc.MinX))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rc.MinY))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rc.MaxX))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(rc.MaxY))
}
