// Package client implements the mobile client side of SABRE's distributed
// partitioning (paper §2): each client monitors its own position against
// the compact state the server handed it — a rectangle (MWPSR), a decoded
// pyramid bitmap (PBSR), a safe period (SP), or the full local alarm set
// (OPT) — and reports to the server only when that state can no longer
// prove it safe. Periodic clients (PRD) report every tick.
//
// Containment checks are strict (interior-only): a client on the boundary
// of its safe region reports, which is what keeps a region that merely
// touches an alarm region sound. Every check's probe cost is accounted
// toward the client energy model (paper Figures 5(b)/6(c)).
package client

import (
	"fmt"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/wire"
)

// resendAfterTicks bounds how long a client waits for a server response
// before it re-reports (lost-message recovery on unreliable transports).
const resendAfterTicks = 5

// maxPatches bounds the quick-update patch list a PBSR client keeps; the
// oldest patches are dropped first (dropping is safe — a patch only ever
// proves extra area safe).
const maxPatches = 16

// Client is one mobile client's monitoring state machine.
type Client struct {
	user     uint64
	strategy wire.Strategy
	met      *metrics.Client

	seq      uint32
	lastSent int // tick of the last report, -1 before the first
	awaiting bool
	everSent bool
	// settled is the newest seq whose reply was applied, or that a server
	// push fenced off; a BitmapRegion for a seq between it and seq is an
	// older reply still worth applying (see Handle).
	settled uint32

	// MWPSR state.
	rect    geom.Rect
	hasRect bool
	// PBSR state: the decoded bitmap plus the rectangular patches the
	// server sent for alarms that fired inside the current cell (the §4.2
	// quick update); a point is safe if the pyramid or any patch proves it.
	// Every bitmap is decoded into the same region, and the patches live
	// in one array of capacity maxPatches, so steady-state monitoring
	// allocates nothing.
	region    pyramid.Region
	hasRegion bool
	patches   []geom.Rect
	// SP state.
	safeUntil int
	hasPeriod bool
	// OPT state.
	cell    geom.Rect
	hasCell bool
	alarms  []wire.AlarmInfo
	// fired collects alarm IDs the server reported triggered, in delivery
	// order; the simulation reads them for the accuracy check. firedSeen
	// dedups redeliveries: a reliable server re-sends unacknowledged
	// firings, and each must land in fired exactly once.
	fired     []uint64
	firedSeen map[uint64]struct{}
}

// New creates a client. All clients of a simulation may share one
// metrics.Client aggregate; the TCP binary gives each its own.
func New(user uint64, strategy wire.Strategy, met *metrics.Client) *Client {
	return &Client{user: user, strategy: strategy, met: met, lastSent: -1}
}

// User returns the client's identifier.
func (c *Client) User() uint64 { return c.user }

// Strategy returns the client's processing strategy.
func (c *Client) Strategy() wire.Strategy { return c.strategy }

// Fired returns the alarm IDs delivered to this client so far. The
// returned slice is owned by the client.
func (c *Client) Fired() []uint64 { return c.fired }

// Tick advances the client to the given tick at position pos and returns
// a position report to send, or nil when the client can prove itself safe.
func (c *Client) Tick(tick int, pos geom.Point) *wire.PositionUpdate {
	if c.strategy == wire.StrategyPeriodic {
		// Periodic clients expect no response; they report unconditionally.
		return c.report(tick, pos)
	}
	if c.awaiting {
		// A report is outstanding; re-send only after a timeout so a lost
		// response cannot silence the client forever.
		if tick-c.lastSent < resendAfterTicks {
			return nil
		}
		return c.report(tick, pos)
	}
	if !c.everSent {
		return c.report(tick, pos)
	}
	if c.SafeNow(tick, pos) {
		return nil
	}
	return c.report(tick, pos)
}

// SafeNow reports whether the client's current monitoring state proves
// pos safe at tick, charging the containment probes to the client
// metrics. It is the pure evaluation half of Tick: the session layer
// calls it directly so a disconnected client keeps evaluating its last
// (still sound, for static alarms) state and queues a report whenever
// safety cannot be proven. Periodic clients are never provably safe.
func (c *Client) SafeNow(tick int, pos geom.Point) bool {
	switch c.strategy {
	case wire.StrategySafePeriod:
		return c.hasPeriod && tick < c.safeUntil
	case wire.StrategyMWPSR:
		c.met.AddCheck(1)
		if c.expired(tick) {
			return false
		}
		return c.hasRect && c.rect.ContainsStrict(pos)
	case wire.StrategyPBSR:
		if !c.hasRegion || c.expired(tick) {
			return false
		}
		inside, probes := c.region.ContainsProbes(pos)
		if !inside {
			for _, p := range c.patches {
				probes++
				if p.ContainsStrict(pos) {
					inside = true
					break
				}
			}
		}
		c.met.AddCheck(probes)
		return inside
	case wire.StrategyOptimal:
		if !c.hasCell || c.expired(tick) {
			return false
		}
		// Full local evaluation against every pushed alarm: this is the
		// "clients have very high capacity" assumption of the OPT bound.
		c.met.AddCheck(maxInt(len(c.alarms), 1))
		if !c.cell.ContainsStrict(pos) {
			return false
		}
		for _, a := range c.alarms {
			if a.Region.Contains(pos) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// expired reports whether a server-issued time cap on the client's region
// has run out. For non-SP strategies the cap rides along with lifecycle
// (pair-alarm) responses: the spatial region stays sound against static
// regions, but past the cap the partner may have closed the distance, so
// the client must report. Legacy responses carry no cap (hasPeriod stays
// false) and behave exactly as before.
func (c *Client) expired(tick int) bool {
	return c.hasPeriod && tick >= c.safeUntil
}

// Report unconditionally generates a position report, advancing the seq.
// The session layer uses it instead of Tick when it has already decided
// (via SafeNow) that a report is due.
func (c *Client) Report(tick int, pos geom.Point) *wire.PositionUpdate {
	return c.report(tick, pos)
}

func (c *Client) report(tick int, pos geom.Point) *wire.PositionUpdate {
	c.seq++
	c.lastSent = tick
	c.awaiting = true
	c.everSent = true
	c.met.MessagesSent++
	return &wire.PositionUpdate{User: c.user, Seq: c.seq, Pos: pos}
}

// accept decides whether a monitoring-state message applies, and returns
// the tick its proof counts from. Seq equal to the outstanding report is
// the reply: it resumes monitoring, and its proof counts from the tick
// that report was made, because the server proved safety from the
// reported position — not from when the reply happened to arrive. Seq 0
// is a server-initiated push (moving-target invalidation): it applies
// without touching the awaiting state, counts from receipt, and fences
// every older reply still in flight, which may predate the invalidation.
func (c *Client) accept(tick int, seq uint32) (anchor int, ok bool) {
	switch seq {
	case c.seq:
		c.awaiting = false
		c.settled = seq
		return c.lastSent, true
	case 0:
		c.settled = c.seq
		return tick, true
	default:
		return 0, false
	}
}

// Handle applies a server message received at the given tick. Responses to
// superseded reports (stale Seq) are ignored except for AlarmFired, which
// is always honoured, and BitmapRegion, whose older replies still apply
// (see below). Server-initiated pushes (Seq 0) update monitoring state
// without counting as a reply.
func (c *Client) Handle(tick int, m wire.Message) error {
	switch v := m.(type) {
	case wire.AlarmFired:
		for _, id := range v.Alarms {
			if c.firedSeen == nil {
				c.firedSeen = make(map[uint64]struct{})
			}
			if _, dup := c.firedSeen[id]; dup {
				continue // redelivered firing: already recorded
			}
			c.firedSeen[id] = struct{}{}
			c.fired = append(c.fired, id)
		}
		// Fired alarms vanish from the OPT local set immediately.
		if len(c.alarms) > 0 {
			kept := c.alarms[:0]
			for _, a := range c.alarms {
				if !contains(v.Alarms, a.ID) {
					kept = append(kept, a)
				}
			}
			c.alarms = kept
		}
		return nil
	case wire.RectRegion:
		anchor, ok := c.accept(tick, v.Seq)
		if !ok {
			return nil
		}
		c.applyCap(anchor, v.Cap)
		if c.strategy == wire.StrategyPBSR {
			// Quick-update patch: extend the bitmap region with a
			// rectangle proven safe by the server. A full list drops
			// its oldest patch.
			if c.patches == nil {
				c.patches = make([]geom.Rect, 0, maxPatches)
			}
			if len(c.patches) == maxPatches {
				c.patches = c.patches[:copy(c.patches, c.patches[1:])]
			}
			c.patches = append(c.patches, v.Rect)
			return nil
		}
		c.rect, c.hasRect = v.Rect, true
		return nil
	case wire.BitmapRegion:
		// The server sends a bitmap once per cell and answers every later
		// in-cell report with a bare Ack (§4.2), assuming the client holds
		// it. So a bitmap for an older report than the outstanding one
		// still applies, unless something newer was applied or a push
		// fenced it; only the newest reply clears awaiting. Its cap cannot
		// be anchored (that report's tick is gone), so a capped older
		// bitmap installs its region with the proof expired until the next
		// reply supplies a cap.
		anchor, ok := c.accept(tick, v.Seq)
		older := !ok && v.Seq > c.settled && v.Seq < c.seq
		switch {
		case older:
			c.settled = v.Seq
		case !ok:
			return nil
		}
		// Patches belong to the previous bitmap. A bitmap that fails to
		// decode leaves no region: the next Tick reports.
		c.patches = c.patches[:0]
		c.hasRegion = false
		err := c.region.Decode(&pyramid.Bitmap{
			Params: pyramid.Params{U: int(v.U), V: int(v.V), Height: int(v.Height)},
			Cell:   v.Cell,
			Data:   v.Data,
			NBits:  int(v.NBits),
		})
		if err != nil {
			return fmt.Errorf("client %d: decode bitmap: %w", c.user, err)
		}
		if older && v.Cap != 0 {
			c.safeUntil, c.hasPeriod = tick, true
		} else {
			c.applyCap(anchor, v.Cap)
		}
		c.hasRegion = true
		return nil
	case wire.SafePeriod:
		anchor, ok := c.accept(tick, v.Seq)
		if !ok {
			return nil
		}
		// Report again at anchor + Ticks, not one later: when the distance
		// is an exact multiple of v_max·dt the client can touch the nearest
		// alarm boundary (inclusive containment) exactly Ticks ticks after
		// the report, so that tick must itself be evaluated.
		c.safeUntil = anchor + int(v.Ticks)
		c.hasPeriod = true
		return nil
	case wire.AlarmPush:
		anchor, ok := c.accept(tick, v.Seq)
		if !ok {
			return nil
		}
		c.applyCap(anchor, v.Cap)
		c.cell, c.hasCell = v.Cell, true
		c.alarms = append(c.alarms[:0], v.Alarms...)
		return nil
	case wire.Ack:
		if anchor, ok := c.accept(tick, v.Seq); ok {
			c.applyCap(anchor, v.Cap)
		}
		return nil
	default:
		return fmt.Errorf("client %d: unexpected message %v", c.user, m.Kind())
	}
}

// applyCap installs the time cap a monitoring-state message carries in its
// Cap field: 0 clears any previous cap (the server vouches there is no
// pair alarm limiting this region), v > 0 expires the proof v-1 ticks
// after anchor (see accept). Because the cap rides inside the same wire
// message as the region it limits, a lossy link can never deliver the
// region while dropping its cap. SP clients keep their period — it IS their monitoring
// state, replaced only by SafePeriod messages.
func (c *Client) applyCap(anchor int, cap uint32) {
	if c.strategy == wire.StrategySafePeriod {
		return
	}
	if cap == 0 {
		c.hasPeriod = false
		return
	}
	c.safeUntil = anchor + int(cap) - 1
	c.hasPeriod = true
}

// Acknowledge clears the awaiting flag for strategies that get no
// monitoring payload back (periodic clients).
func (c *Client) Acknowledge() { c.awaiting = false }

func contains(ids []uint64, id uint64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
