// Package server implements the SABRE alarm server engine: the
// transport-independent core that evaluates client position updates
// against the alarm index and answers with safe regions, safe periods or
// alarm pushes depending on each client's registered strategy.
//
// The engine realizes the paper's distributed partitioning scheme (§2):
// heavy, globally informed work — alarm evaluation against the registry,
// safe region computation — stays on the server; clients only monitor
// their own position against the compact region the server hands them.
// One engine serves heterogeneous clients: every strategy of §5 (PRD, SP,
// MWPSR, PBSR with per-client pyramid height, OPT) can be active at once.
//
// The engine is safe for concurrent use and its update path scales with
// cores: per-client state lives in striped shards with one mutex per
// client, metric accounting is atomic, the alarm registry serves readers
// under an RWMutex, and the public-bitmap cache computes each cell once
// (singleflight) no matter how many PBSR clients enter it concurrently.
// Updates for distinct clients run in parallel; updates for one client
// serialize on that client's mutex. See DESIGN.md "Concurrency" for the
// lock ordering rules.
package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/grid"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/store"
	"github.com/sabre-geo/sabre/internal/wire"
)

// Config parameterizes an engine.
type Config struct {
	// Universe is the region covered by the grid overlay.
	Universe geom.Rect
	// CellAreaM2 is the grid cell area in square metres (paper Figure 4
	// sweeps 0.4–10 km²; 2.5 km² is the paper's optimum).
	CellAreaM2 float64
	// Model weights MWPSR safe regions; motion.Uniform() gives the
	// non-weighted variant.
	Model motion.Model
	// PyramidParams shapes PBSR bitmaps. A client's registered MaxHeight
	// caps the height per client (device heterogeneity, paper §4).
	PyramidParams pyramid.Params
	// MaxSpeed is the system-wide speed bound v_max used by safe periods.
	MaxSpeed float64
	// TickSeconds is the position sampling interval.
	TickSeconds float64
	// PrecomputePublicBitmaps enables the §4.2 optimization: per grid
	// cell, the pyramid bitmap of all public alarms is computed once and
	// reused for every PBSR client in that cell.
	PrecomputePublicBitmaps bool
	// ExhaustiveAssembly switches MWPSR to the quartic-time optimal
	// component-rectangle assembly (ablation).
	ExhaustiveAssembly bool
	// SafePeriodSpeedFactor scales the v_max bound used by safe-period
	// computation. 0 or 1 is the paper's pessimistic guarantee; smaller
	// values assume clients move slower than the bound, shrinking message
	// counts at the cost of missed or late triggers (the trade-off the
	// paper cites as SP's weakness; see ablate-safeperiod).
	SafePeriodSpeedFactor float64
	// Costs is the server cost model; zero value means metrics.DefaultCosts.
	Costs metrics.CostParams
	// PendingFiredCap bounds the unacknowledged firings retained per
	// reliable session; beyond it the oldest are evicted (they stay marked
	// fired, but are no longer redelivered). 0 means store.DefaultPendingCap.
	PendingFiredCap int
	// Partition, when non-empty, marks this engine as one shard of a
	// cluster owning just this sub-rectangle of the Universe. The grid,
	// cell geometry and position validation still span the full Universe
	// (so safe regions computed near a boundary are identical to the
	// single-server ones), but the shard's registry only holds alarms
	// intersecting Partition expanded by one grid cell — the margin-
	// install rule (DESIGN.md "Clustering"). Safe-period distances are
	// clamped to that margin boundary because alarms beyond it may be
	// missing from the local registry.
	Partition geom.Rect
}

// Pusher delivers server-initiated messages (moving-target safe region
// invalidations) to a connected client. It is invoked after the engine has
// released every internal lock, so a Pusher may block, send synchronously,
// or even call back into the engine (including HandleUpdate) without
// deadlocking. Pushes for one update are delivered sequentially from the
// goroutine handling that update.
type Pusher func(user alarm.UserID, msgs []wire.Message)

// clientShards stripes the per-client state map so concurrent updates for
// distinct users rarely contend on the same map lock. Must be a power of
// two.
const clientShards = 64

type clientShard struct {
	mu sync.RWMutex
	m  map[alarm.UserID]*clientState
}

// Engine is the alarm server core.
type Engine struct {
	cfg  Config
	grid *grid.Grid
	met  *metrics.Server

	// reg is swapped wholesale by ReplaceRegistry; the pointer is atomic so
	// in-flight updates always observe a consistent registry. The registry
	// itself is internally synchronized (RWMutex read paths).
	reg atomic.Pointer[alarm.Registry]

	pusherMu sync.RWMutex
	pusher   Pusher

	// shards stripe per-client state; each clientState additionally carries
	// its own mutex so one client's updates serialize while distinct
	// clients proceed in parallel.
	shards [clientShards]clientShard

	// sessions maps resume tokens to users. Tokens are minted by
	// HandleHello and survive transport restarts because they live here in
	// the engine, not in the TCP layer. lastToken is the mint counter.
	// userTokens is the reverse index — every live token of a user — so
	// dropping a session deletes exactly its tokens instead of walking the
	// table.
	sessMu     sync.Mutex
	sessions   map[uint64]alarm.UserID
	userTokens map[alarm.UserID][]uint64
	lastToken  uint64

	// wal is the durable backend (nil for a memory-only engine). Appends
	// always happen outside every other engine lock; see persist.go.
	wal *store.Store
	// epoch is the partition-map epoch this shard last served (cluster
	// mode; zero otherwise). Advanced by SetEpoch, persisted as an
	// EpochRec, restored by NewDurable.
	epoch atomic.Uint64
	// part is the shard's partition rectangle. It starts as
	// cfg.Partition and moves when a repartition transition widens the
	// shard; an atomic pointer keeps the safe-period clamp lock-free.
	part atomic.Pointer[geom.Rect]
	// pendingCap bounds each reliable session's unacknowledged firings.
	pendingCap int
	// tick is the logical clock the lifecycle subsystem runs on (cooldown
	// gates, composite TTL expiry, anchor staleness). Advanced by SetTick;
	// it only moves forward.
	tick atomic.Uint64
	// anchors holds the last reported position (and its tick) of every
	// pair-alarm endpoint — the partner positions pair evaluation and the
	// pair safe-region transform consult. Soft state: a crash loses it and
	// the next report from each endpoint relearns it; until then pair
	// machines simply do not transition (conservative, and the shrinking
	// safe-period cap forces both endpoints to report soon).
	anchorMu sync.Mutex
	anchors  map[alarm.UserID]anchorObs
	// nowFn overrides the clock for session-expiry tests; nil means
	// time.Now. Only ExpireSessions and lastActive stamping consult it.
	nowFn func() time.Time

	// publicBitmaps caches, per grid cell, the precomputed public-alarm
	// pyramid region and the encodings derived from it alone. Installs and
	// removals drop the whole cache; a public alarm following a moving
	// target drops just the cells it left and entered. Every part of an
	// entry is computed exactly once via a sync.Once: N PBSR clients
	// entering a fresh cell concurrently wait for one computation instead
	// of recomputing the same pyramid N times.
	pbMu          sync.RWMutex
	publicBitmaps map[grid.CellID]*publicBitmapEntry

	// scratchPool recycles the scratch buffers of the update pipeline and
	// of invalidation pushes (batch.go).
	scratchPool sync.Pool
}

type publicBitmapEntry struct {
	once sync.Once
	reg  *pyramid.Region
	err  error
	// shared[h] is the budgeted height-h encoding of reg alone — the reply
	// to every request in this cell that adds no obstacle of its own. The
	// bitmaps are shipped to many clients at once and never mutated. It
	// lives and dies with the entry, so whatever invalidates reg drops it
	// too. Indexed by height, 1..PyramidParams.Height.
	shared []sharedBitmap
}

type sharedBitmap struct {
	once sync.Once
	bm   *pyramid.Bitmap
	err  error
}

type clientState struct {
	// mu guards every field below. Lock ordering: a clientState mutex may
	// be held while taking registry or bitmap-cache read locks, never the
	// reverse, and no code path holds two clientState mutexes at once.
	mu sync.Mutex

	strategy  wire.Strategy
	maxHeight int
	lastPos   geom.Point
	hasPos    bool
	// heading smooths the client's direction of travel across reports for
	// the MWPSR motion weighting.
	heading motion.HeadingTracker
	// PBSR cell-recompute policy (§4.2): the cell the client's current
	// bitmap was computed for. While the client stays in that cell and
	// triggers nothing, the server answers with a bare Ack instead of
	// recomputing and re-shipping the bitmap.
	bitmapCell    grid.CellID
	hasBitmapCell bool

	// reliable marks clients enrolled through Hello (the fault-tolerant
	// session path): their alarm firings are retained in pendingFired until
	// a FiredAck arrives, and duplicate position updates are counted. Plain
	// Register clients stay fire-and-forget: a firing whose reply is lost
	// is not redelivered.
	reliable bool
	// lastSeq is the seq of the most recent non-zero position update, used
	// to count client resends.
	lastSeq uint32
	// pendingFired holds fired alarm IDs not yet acknowledged; every
	// AlarmFired to a reliable client carries the full pending set.
	pendingFired []uint64
	// lastActive is the last time this (reliable) client was heard from;
	// the session-expiry sweep reaps sessions idle past the TTL.
	lastActive time.Time
}

// pendingPush is a computed invalidation push awaiting delivery once the
// engine has released its locks.
type pendingPush struct {
	user alarm.UserID
	msgs []wire.Message
}

// New creates an engine. The registry starts empty; install alarms through
// Registry().
func New(cfg Config) (*Engine, error) {
	if cfg.Costs == (metrics.CostParams{}) {
		cfg.Costs = metrics.DefaultCosts()
	}
	if cfg.PyramidParams == (pyramid.Params{}) {
		cfg.PyramidParams = pyramid.DefaultParams(5)
	}
	if err := cfg.PyramidParams.Validate(); err != nil {
		return nil, err
	}
	if cfg.TickSeconds <= 0 {
		return nil, fmt.Errorf("server: non-positive tick %v", cfg.TickSeconds)
	}
	if cfg.MaxSpeed <= 0 {
		return nil, fmt.Errorf("server: non-positive max speed %v", cfg.MaxSpeed)
	}
	g, err := grid.New(cfg.Universe, cfg.CellAreaM2)
	if err != nil {
		return nil, err
	}
	pendingCap := cfg.PendingFiredCap
	if pendingCap <= 0 {
		pendingCap = store.DefaultPendingCap
	}
	e := &Engine{
		cfg:           cfg,
		grid:          g,
		met:           metrics.NewServer(cfg.Costs),
		pendingCap:    pendingCap,
		sessions:      make(map[uint64]alarm.UserID),
		userTokens:    make(map[alarm.UserID][]uint64),
		publicBitmaps: make(map[grid.CellID]*publicBitmapEntry),
		anchors:       make(map[alarm.UserID]anchorObs),
	}
	e.reg.Store(alarm.NewRegistry())
	part := cfg.Partition
	e.part.Store(&part)
	e.scratchPool.New = func() any { return new(UpdateScratch) }
	for i := range e.shards {
		e.shards[i].m = make(map[alarm.UserID]*clientState)
	}
	return e, nil
}

// Registry exposes the alarm store for installation and inspection.
func (e *Engine) Registry() *alarm.Registry { return e.reg.Load() }

// ReplaceRegistry swaps in a restored alarm registry (snapshot load at
// startup) and drops any precomputed public bitmaps. Updates already in
// flight finish against the registry they started with.
func (e *Engine) ReplaceRegistry(r *alarm.Registry) {
	e.reg.Store(r)
	e.InvalidatePublicBitmaps()
}

// Grid exposes the grid overlay.
func (e *Engine) Grid() *grid.Grid { return e.grid }

// Epoch returns the partition-map epoch this shard last served (zero
// outside a cluster).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// SetEpoch advances the shard's partition-map epoch and write-ahead
// logs it. Epochs only move forward; a stale value is a no-op.
func (e *Engine) SetEpoch(epoch uint64) error {
	for {
		cur := e.epoch.Load()
		if epoch <= cur {
			return nil
		}
		if e.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	return e.logRecord(store.EpochRec{Epoch: epoch})
}

// Partition returns the shard's current partition rectangle (empty
// outside a cluster).
func (e *Engine) Partition() geom.Rect { return *e.part.Load() }

// SetPartition moves the shard's partition rectangle after a
// repartition transition (a merge widens it to the parent rectangle).
// Only the safe-period margin clamp consults the rectangle, and the
// clamp stays sound for any rectangle whose margin covers the alarms
// installed locally — the cluster adopts alarms for the new rectangle
// before calling this.
func (e *Engine) SetPartition(r geom.Rect) {
	p := r
	e.part.Store(&p)
}

// Metrics returns the server counters. The counters are atomic: read a
// consistent copy with Metrics().Snapshot(), safe to call concurrently
// with in-flight updates.
func (e *Engine) Metrics() *metrics.Server { return e.met }

// SetPusher installs the callback used to push fresh monitoring state to
// clients whose safe regions were invalidated by a moving alarm target.
// Without a pusher, moving-target alarms require their subscribers to use
// frequent reporting (the target's motion cannot reach silent clients).
func (e *Engine) SetPusher(p Pusher) {
	e.pusherMu.Lock()
	defer e.pusherMu.Unlock()
	e.pusher = p
}

func (e *Engine) getPusher() Pusher {
	e.pusherMu.RLock()
	defer e.pusherMu.RUnlock()
	return e.pusher
}

// InvalidatePublicBitmaps drops the precomputed public-alarm bitmaps; call
// after installing or removing public alarms.
func (e *Engine) InvalidatePublicBitmaps() {
	e.pbMu.Lock()
	defer e.pbMu.Unlock()
	e.publicBitmaps = make(map[grid.CellID]*publicBitmapEntry)
}

// MoveTarget re-anchors every alarm whose Target is user onto pos (see
// alarm.Registry.MoveTarget) and returns the alarms that moved. A public
// alarm among them changes the public bitmap of every cell it left or
// entered, so exactly those cache entries are dropped — per cell, because
// a target moves on every report it sends and must not flush the whole
// cache each time — after the registry move, so a refill reads the alarm
// where it is now. It does not push to affected subscribers; a target's
// own position report (HandleUpdate) does both.
func (e *Engine) MoveTarget(user alarm.UserID, pos geom.Point) []alarm.Moved {
	return e.moveTarget(e.reg.Load(), user, pos)
}

func (e *Engine) moveTarget(reg *alarm.Registry, user alarm.UserID, pos geom.Point) []alarm.Moved {
	moved := reg.MoveTarget(user, pos)
	// Intersection is closed: a region that only touches a cell's edge is
	// still part of that cell's public bitmap.
	touch := e.grid.CellSide() * 1e-9
	var cells []grid.CellID
	for _, m := range moved {
		if m.Scope == alarm.Public {
			cells = e.grid.CellsIntersecting(m.Old.Expand(touch), cells)
			cells = e.grid.CellsIntersecting(m.New.Expand(touch), cells)
		}
	}
	if len(cells) > 0 {
		e.pbMu.Lock()
		for _, id := range cells {
			delete(e.publicBitmaps, id)
		}
		e.pbMu.Unlock()
	}
	return moved
}

// shardFor returns the shard striping user's client state.
func (e *Engine) shardFor(user alarm.UserID) *clientShard {
	return &e.shards[uint64(user)&(clientShards-1)]
}

// clientFor returns the state for user, creating it with the given default
// strategy when absent.
func (e *Engine) clientFor(user alarm.UserID, defaultStrategy wire.Strategy) *clientState {
	sh := e.shardFor(user)
	sh.mu.RLock()
	st := sh.m[user]
	sh.mu.RUnlock()
	if st != nil {
		return st
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if st = sh.m[user]; st == nil {
		st = &clientState{strategy: defaultStrategy}
		sh.m[user] = st
	}
	return st
}

// Register enrolls (or re-enrolls) a client with its strategy and, for
// PBSR, the maximum pyramid height its hardware can decode.
func (e *Engine) Register(m wire.Register) error {
	return e.registerRun([]wire.Register{m})
}

// checkRegister rejects a Register naming a strategy the engine does not
// serve.
func checkRegister(m wire.Register) error {
	switch m.Strategy {
	case wire.StrategyPeriodic, wire.StrategySafePeriod, wire.StrategyMWPSR,
		wire.StrategyPBSR, wire.StrategyOptimal:
		return nil
	}
	return fmt.Errorf("server: unknown strategy %d", m.Strategy)
}

// registerRun enrolls a run of clients in order and logs their
// RegisterRecs as one group commit. Nothing is enrolled when any
// Register is invalid.
func (e *Engine) registerRun(ms []wire.Register) error {
	for _, m := range ms {
		if err := checkRegister(m); err != nil {
			return err
		}
	}
	recs := make([]store.Record, len(ms))
	for i, m := range ms {
		user := alarm.UserID(m.User)
		sh := e.shardFor(user)
		sh.mu.Lock()
		// Registration is not charged as uplink: the paper's message
		// counts are location messages only, and registration happens
		// once per client. Re-enrollment replaces the state; updates
		// already holding the old state finish against it.
		sh.m[user] = &clientState{
			strategy:  m.Strategy,
			maxHeight: int(m.MaxHeight),
		}
		sh.mu.Unlock()
		recs[i] = store.RegisterRec{User: m.User, Strategy: m.Strategy, MaxHeight: m.MaxHeight}
	}
	return e.logRecords(recs)
}

// moveTargetPushes handles moving-target alarms (paper §1 classes 2 and
// 3): when the reporting user is an alarm target, re-anchor those alarm
// regions to the new position and compute fresh monitoring state for
// affected subscribers — their held safe regions no longer prove anything.
// Push messages are computed now (the mover's own state is not locked) but
// must be delivered by the caller only after every lock is released.
func (e *Engine) moveTargetPushes(reg *alarm.Registry, user alarm.UserID, pos geom.Point) []pendingPush {
	if !reg.IsTarget(user) {
		return nil
	}
	// Stale public bitmaps are dropped before any push is computed: the
	// pushes below must see a moved public alarm where it is now.
	moved := e.moveTarget(reg, user, pos)
	if len(moved) == 0 {
		return nil
	}
	movedRegions := make(map[alarm.ID]geom.Rect, len(moved))
	for _, m := range moved {
		movedRegions[m.ID] = m.New // region at its new anchor
	}
	return e.collectInvalidations(reg, user, movedRegions)
}

// deliverPushes hands invalidation pushes to the pusher, charging their
// downlink bytes as it does: without a pusher nothing is sent, so nothing
// is charged. Callers must have released every engine lock first (the
// Pusher may block or re-enter the engine freely).
func (e *Engine) deliverPushes(pushes []pendingPush) {
	if len(pushes) == 0 {
		return
	}
	pusher := e.getPusher()
	if pusher == nil {
		return
	}
	for _, p := range pushes {
		for _, m := range p.msgs {
			e.met.AddDownlink(wire.EncodedSize(m))
		}
		pusher(p.user, p.msgs)
	}
}

// processUpdate runs alarm evaluation and the strategy response for one
// update, appending the response messages to out and returning it plus the
// alarm IDs that newly fired and the lifecycle events that transitioned
// (for the caller to log durably). The caller holds st.mu and supplies sc,
// whose buffers carry every intermediate computation.
//
// final selects the full strategy response; without it only alarm
// firings are answered (a bare Ack when nothing fired) — the treatment of
// every update of a user's group but the last, whose monitoring state
// would be stale on arrival anyway.
func (e *Engine) processUpdate(reg *alarm.Registry, u wire.PositionUpdate, st *clientState, sc *UpdateScratch, out []wire.Message, final bool) ([]wire.Message, []uint64, []uint64, error) {
	user := alarm.UserID(u.User)
	// Alarm evaluation against the registry (every strategy does this; it
	// is the "alarm processing" bucket of Figures 4(b)/6(d)).
	var candidates int
	var accesses uint64
	sc.triggered, sc.raw, candidates, accesses = reg.EvaluateInto(u.Pos, user, sc.triggered, sc.raw)
	e.met.AddAlarmEvaluation(accesses, uint64(candidates))

	// fresh means this update is newer than anything evaluated so far.
	// Redelivered or reordered reports (session resends, faulty links)
	// still get full one-shot evaluation — MarkFired is monotone, so
	// re-processing is harmless — but must not reach the lifecycle
	// machines below: re-entering a continuous region from a stale inside
	// position after an Exit would mint a spurious occurrence.
	fresh := u.Seq == 0 || st.lastSeq == 0 || int32(u.Seq-st.lastSeq) > 0
	if u.Seq != 0 {
		if st.reliable && u.Seq == st.lastSeq {
			e.met.AddRedeliveredUpdates(1)
		}
		if fresh {
			st.lastSeq = u.Seq
		}
	}

	// newFired is freshly allocated only when something triggered: it
	// outlives this call (WAL record, AlarmFired payload), so it cannot
	// live in the scratch — and the steady state has no firings.
	var newFired []uint64
	if len(sc.triggered) > 0 {
		newFired = make([]uint64, 0, len(sc.triggered))
		for _, id := range sc.triggered {
			// One-shot semantics: retire the pair before recomputing the
			// safe region so the fired alarm becomes free space (§4.2).
			reg.MarkFired(id, user)
			newFired = append(newFired, uint64(id))
		}
		e.met.AddAlarmsTriggered(uint64(len(newFired)))
	}

	// Lifecycle machines (continuous/pair/composite) run on the same raw
	// index hits. Their packed transition events ride the fired-ID
	// machinery below but are logged as TransitionRecs by the caller, not
	// as FiredRec entries.
	var newTrans []uint64
	if reg.HasLifecycle() && fresh {
		tick := e.tick.Load()
		if reg.IsPairEndpoint(user) {
			e.observeAnchor(user, u.Pos, tick)
		}
		newTrans = reg.EvaluateLifecycleInto(user, u.Pos, tick, sc.raw, e.anchorOf, nil)
		if len(newTrans) > 0 {
			e.met.AddAlarmTransitions(uint64(len(newTrans)))
		}
	}
	e.loadLifecycleView(reg, user, sc)
	delivered := newFired
	if len(newTrans) > 0 {
		delivered = append(append(make([]uint64, 0, len(newFired)+len(newTrans)), newFired...), newTrans...)
	}

	firedIDs := delivered
	if st.reliable {
		st.lastActive = e.now()
		// Exactly-once delivery: carry every unacknowledged firing on each
		// response until the client's FiredAck clears it. MarkFired keeps
		// pendingFired and newFired disjoint (a retired pair never
		// re-triggers), so the concatenation has no duplicates.
		if len(st.pendingFired) > 0 {
			e.met.AddFiredRedeliveries(uint64(len(st.pendingFired)))
		}
		firedIDs = append(append(make([]uint64, 0, len(st.pendingFired)+len(delivered)), st.pendingFired...), delivered...)
		// Bound the unacknowledged set: evict oldest-first past the cap.
		// Evicted ids stay marked fired in the registry (never re-trigger);
		// they are simply no longer redelivered.
		if len(firedIDs) > e.pendingCap {
			drop := len(firedIDs) - e.pendingCap
			firedIDs = firedIDs[drop:]
			e.met.AddFiredEvictions(uint64(drop))
		}
		st.pendingFired = firedIDs
	}
	if len(firedIDs) > 0 {
		out = e.send(out, wire.AlarmFired{Seq: u.Seq, Alarms: firedIDs})
	}

	if !final {
		// Non-final update of a group: its monitoring state would be
		// superseded within the same reply. Acknowledge it (unless an
		// AlarmFired already does) so the client retires the queued report.
		// The cap still rides along: the batch's final message carries the
		// authoritative one, but an ack processed in isolation must never
		// leave a pair endpoint uncapped.
		if len(firedIDs) == 0 {
			out = e.send(out, wire.Ack{Seq: u.Seq, Cap: e.regionCap(sc, u.Pos)})
		}
		st.lastPos = u.Pos
		st.hasPos = true
		return out, newFired, newTrans, nil
	}

	switch st.strategy {
	case wire.StrategyPeriodic:
		// Server-centric periodic evaluation: nothing goes back.
	case wire.StrategySafePeriod:
		out = e.send(out, e.safePeriodFor(reg, u, sc))
	case wire.StrategyMWPSR:
		out = e.send(out, e.rectRegionFor(reg, u, st, sc))
	case wire.StrategyPBSR:
		cellID := e.grid.Locate(u.Pos)
		sameCell := st.hasBitmapCell && st.bitmapCell == cellID
		switch {
		case sameCell && len(sc.triggered) == 0 && len(newTrans) == 0:
			// §4.2: no recomputation while the client stays in its base
			// cell without triggering; a small Ack resumes monitoring.
			// When earlier triggers made the client's bitmap stale (fired
			// alarms still appear blocked), a rectangular patch restores
			// coverage around the client instead.
			if reg.AnyFiredIn(e.grid.CellRect(cellID), user) {
				out = e.send(out, e.rectRegionFor(reg, u, st, sc))
			} else {
				out = e.send(out, wire.Ack{Seq: u.Seq, Cap: e.regionCap(sc, u.Pos)})
			}
		case sameCell && len(newTrans) == 0:
			// §4.2 quick update: the triggered alarm just became free
			// space. Instead of recomputing and re-shipping the bitmap,
			// send a small rectangular patch around the client that avoids
			// every remaining alarm; the client ORs it into its region.
			// A lifecycle transition must NOT take this path: a patch only
			// ever widens the client's safe area, while an enter/exit flips
			// which side of the region is provable — the full bitmap below
			// re-derives it from the new phase's obstacle set.
			out = e.send(out, e.rectRegionFor(reg, u, st, sc))
		default:
			msg, err := e.bitmapRegionFor(reg, u, st, sc, cellID)
			if err != nil {
				return nil, nil, nil, err
			}
			st.bitmapCell = cellID
			st.hasBitmapCell = true
			out = e.send(out, msg)
		}
	case wire.StrategyOptimal:
		out = e.send(out, e.alarmPushFor(reg, u, sc))
	}

	// Pair endpoints get their safe-period cap folded into the region /
	// ack message itself (the Cap field): no static region stays sound
	// against a moving partner, so the region's proof is time-limited —
	// and a cap shipped as a separate message could be dropped while the
	// region is delivered, leaving the client provably safe forever. SP
	// folds the cap into its own safe period; periodic clients report
	// every tick anyway.

	st.lastPos = u.Pos
	st.hasPos = true
	return out, newFired, newTrans, nil
}

// validatePosition rejects positions the geometry cannot handle: NaN and
// infinities poison every downstream computation silently, and positions
// far outside the universe indicate a confused or hostile client rather
// than grid-fringe drift.
func (e *Engine) validatePosition(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("server: non-finite position %v", p)
	}
	// Allow one cell side of slack beyond the universe.
	slack := e.grid.CellSide()
	if !e.cfg.Universe.Expand(slack).Contains(p) {
		return fmt.Errorf("server: position %v outside universe %v", p, e.cfg.Universe)
	}
	return nil
}

// send charges a downlink message and appends it.
func (e *Engine) send(out []wire.Message, m wire.Message) []wire.Message {
	e.met.AddDownlink(wire.EncodedSize(m))
	return append(out, m)
}

// collectInvalidations recomputes monitoring state for every online
// subscriber affected by moved alarms and returns the pushes to deliver.
// Server-initiated messages carry Seq 0, which clients accept without
// treating them as a reply. Each affected client's mutex is taken one at a
// time (the mover's state is not locked here), so two movers invalidating
// each other's subscribers cannot deadlock.
func (e *Engine) collectInvalidations(reg *alarm.Registry, mover alarm.UserID, moved map[alarm.ID]geom.Rect) []pendingPush {
	if e.getPusher() == nil {
		return nil
	}
	affected := make(map[alarm.UserID]bool)
	for id := range moved {
		a, ok := reg.Get(id)
		if !ok {
			continue
		}
		if subs := reg.SubscribersOf(id); subs != nil {
			for _, s := range subs {
				affected[s] = true
			}
			continue
		}
		// Public moving-target alarm: push to every online client whose
		// current cell intersects the alarm's new region. Clients near the
		// vacated location keep a safe region that merely under-covers
		// (the alarm is gone from there), which is conservative, not
		// unsafe; they refresh on their next report.
		for user, st := range e.clientsSnapshot() {
			if affected[user] || user == mover {
				continue
			}
			st.mu.Lock()
			hasPos, lastPos := st.hasPos, st.lastPos
			st.mu.Unlock()
			if !hasPos {
				continue
			}
			cell := e.grid.CellRect(e.grid.Locate(lastPos))
			if cell.Intersects(a.Region) || cell.Intersects(moved[id]) {
				affected[user] = true
			}
		}
	}
	delete(affected, mover) // the mover's own update handles itself
	var pushes []pendingPush
	sc := e.getScratch()
	defer e.putScratch(sc)
	for user := range affected {
		sh := e.shardFor(user)
		sh.mu.RLock()
		st := sh.m[user]
		sh.mu.RUnlock()
		if st == nil {
			continue
		}
		st.mu.Lock()
		msgs := e.invalidationFor(reg, user, st, sc)
		st.mu.Unlock()
		if len(msgs) == 0 {
			continue
		}
		pushes = append(pushes, pendingPush{user: user, msgs: msgs})
	}
	return pushes
}

// invalidationFor computes the fresh monitoring state pushed to one
// affected client (a region message whose Cap field, for pair endpoints,
// time-limits it). The caller holds st.mu. Returns
// nil when the client has no pushable state (no position yet, or a
// strategy that re-reports on its own).
func (e *Engine) invalidationFor(reg *alarm.Registry, user alarm.UserID, st *clientState, sc *UpdateScratch) []wire.Message {
	if !st.hasPos {
		return nil
	}
	fake := wire.PositionUpdate{User: uint64(user), Seq: 0, Pos: st.lastPos}
	e.loadLifecycleView(reg, user, sc)
	var msgs []wire.Message
	switch st.strategy {
	case wire.StrategySafePeriod:
		return []wire.Message{e.safePeriodFor(reg, fake, sc)}
	case wire.StrategyMWPSR:
		msgs = append(msgs, e.rectRegionFor(reg, fake, st, sc))
	case wire.StrategyPBSR:
		cellID := e.grid.Locate(st.lastPos)
		bm, err := e.bitmapRegionFor(reg, fake, st, sc, cellID)
		if err != nil {
			return nil
		}
		st.bitmapCell = cellID
		st.hasBitmapCell = true
		msgs = append(msgs, bm)
	case wire.StrategyOptimal:
		msgs = append(msgs, e.alarmPushFor(reg, fake, sc))
	default:
		return nil // periodic clients re-report next tick anyway
	}
	return msgs
}

func (e *Engine) safePeriodFor(reg *alarm.Registry, u wire.PositionUpdate, sc *UpdateScratch) wire.SafePeriod {
	dist, accesses := reg.NearestRelevantDist(u.Pos, alarm.UserID(u.User))
	e.met.AddSafePeriodComputation(accesses)
	// A cluster shard only installs alarms intersecting its expanded
	// partition, so the local nearest-alarm distance can over-estimate:
	// the true nearest alarm may live on a neighbour shard. Any alarm
	// missing locally lies wholly outside the margin rectangle, so its
	// distance from u.Pos is at least the interior distance to that
	// boundary — clamp to it and the safe period stays globally sound. A
	// partition covering the whole universe holds every alarm, so there
	// the local distance is already exact.
	if p := *e.part.Load(); !p.Empty() && !p.ContainsRect(e.cfg.Universe) {
		m := p.Expand(e.grid.CellSide())
		interior := math.Min(
			math.Min(u.Pos.X-m.MinX, m.MaxX-u.Pos.X),
			math.Min(u.Pos.Y-m.MinY, m.MaxY-u.Pos.Y),
		)
		if interior < 0 {
			interior = 0
		}
		if interior < dist {
			dist = interior
		}
	}
	vmax := e.cfg.MaxSpeed
	if f := e.cfg.SafePeriodSpeedFactor; f > 0 {
		vmax *= f
	}
	ticks := uint32(saferegion.SafePeriodTicks(dist, vmax, e.cfg.TickSeconds, 1<<30))
	// Pair alarms bound the period too: the partner closes distance at up
	// to v_max as well, so their margin shrinks twice as fast.
	if cap, ok := e.pairCapTicks(sc.pairs, u.Pos); ok && cap < ticks {
		ticks = cap
	}
	return wire.SafePeriod{Seq: u.Seq, Ticks: ticks}
}

func (e *Engine) rectRegionFor(reg *alarm.Registry, u wire.PositionUpdate, st *clientState, sc *UpdateScratch) wire.RectRegion {
	user := alarm.UserID(u.User)
	cellRect := e.grid.CellRect(e.grid.Locate(u.Pos))
	var accesses uint64
	sc.relevant, sc.raw, accesses = reg.RelevantInInto(cellRect, user, sc.relevant[:0], sc.raw)
	e.met.AddSafeRegionIndexWork(accesses)
	sc.rects = e.obstacles(sc, cellRect, sc.rects[:0])
	model := e.cfg.Model
	heading, ok := st.heading.Observe(u.Pos)
	if !ok {
		model = motion.Uniform() // no sustained motion: no heading info
	}
	res := saferegion.ComputeRectScratch(u.Pos, cellRect, sc.rects, saferegion.RectOptions{
		Model:      model,
		Heading:    heading,
		Exhaustive: e.cfg.ExhaustiveAssembly,
	}, &sc.rect)
	e.met.AddRectComputation(res.Candidates, res.Corners, res.Clips)
	return wire.RectRegion{Seq: u.Seq, Rect: res.Rect, Cap: e.regionCap(sc, u.Pos)}
}

func (e *Engine) bitmapRegionFor(reg *alarm.Registry, u wire.PositionUpdate, st *clientState, sc *UpdateScratch, cellID grid.CellID) (wire.BitmapRegion, error) {
	user := alarm.UserID(u.User)
	cellRect := e.grid.CellRect(cellID)
	params := e.cfg.PyramidParams
	if st.maxHeight > 0 && st.maxHeight < params.Height {
		params.Height = st.maxHeight
	}

	var (
		ent      *publicBitmapEntry
		err      error
		accesses uint64
	)
	// The shared public bitmap cannot reflect this user's fired public
	// alarms; use it only when the user has none in this cell. It covers
	// the broadcast public alarms; the user's own alarms and subscribed
	// topics are added as personal obstacles.
	if e.cfg.PrecomputePublicBitmaps && !reg.AnyFiredPublicIn(cellRect, user) {
		ent, err = e.publicBitmapFor(reg, cellID, cellRect)
		if err != nil {
			return wire.BitmapRegion{}, err
		}
		sc.relevant, accesses = reg.RelevantNonPublicIn(cellRect, user, sc.relevant[:0])
	} else {
		sc.relevant, sc.raw, accesses = reg.RelevantInInto(cellRect, user, sc.relevant[:0], sc.raw)
	}
	sc.rects = e.obstacles(sc, cellRect, sc.rects[:0])
	e.met.AddSafeRegionIndexWork(accesses)
	var res saferegion.BitmapResult
	switch {
	case ent == nil:
		res, err = saferegion.ComputeBitmap(cellRect, params, sc.rects, nil)
	case len(sc.rects) > 0:
		res, err = saferegion.ComputeBitmap(cellRect, params, sc.rects, ent.reg)
	default:
		// Nothing of the user's own in this cell (after the lifecycle
		// transform): the reply is a function of the cell and height alone.
		// Still one region computation; its pyramid work is the one lookup.
		res.IntersectionTests = 1
		res.Bitmap, err = e.sharedBitmapFor(ent, cellRect, params)
	}
	if err != nil {
		return wire.BitmapRegion{}, err
	}
	e.met.AddBitmapComputation(res.IntersectionTests)
	msg := wire.FromBitmap(u.Seq, res.Bitmap)
	msg.Cap = e.regionCap(sc, u.Pos)
	return msg, nil
}

// publicBitmapFor returns (computing and caching on first use) the cache
// entry holding the pyramid region of all broadcast public alarms in a cell,
// at the engine's full height so it can serve clients of any capability.
// Concurrent callers for the same fresh cell wait on a single computation
// (singleflight) instead of recomputing the same pyramid; its cost is
// charged exactly once per cell.
func (e *Engine) publicBitmapFor(reg *alarm.Registry, id grid.CellID, cellRect geom.Rect) (*publicBitmapEntry, error) {
	e.pbMu.RLock()
	ent := e.publicBitmaps[id]
	e.pbMu.RUnlock()
	if ent == nil {
		e.pbMu.Lock()
		if ent = e.publicBitmaps[id]; ent == nil {
			ent = &publicBitmapEntry{shared: make([]sharedBitmap, e.cfg.PyramidParams.Height+1)}
			e.publicBitmaps[id] = ent
		}
		e.pbMu.Unlock()
	}
	ent.once.Do(func() {
		publics, accesses := reg.PublicIn(cellRect, nil)
		// The shared bitmap is computed without a bit budget: it never goes
		// on the wire, and keeping it exact makes the per-user budgeted
		// encode bit-identical to a direct computation.
		params := e.cfg.PyramidParams
		params.MaxBits = 0
		res, err := saferegion.ComputeBitmap(cellRect, params, publics, nil)
		if err != nil {
			ent.err = err
			return
		}
		// The precomputation itself is charged once per cell; this is the
		// offline step of §4.2.
		e.met.AddSafeRegionIndexWork(accesses)
		e.met.AddBitmapComputation(res.IntersectionTests)
		ent.reg, ent.err = pyramid.Decode(res.Bitmap)
	})
	return ent, ent.err
}

// sharedBitmapFor returns (encoding on first use) the cell's bitmap of the
// public alarms alone under the given budgeted params. Like the region it
// is derived from, each height is encoded and charged exactly once per
// entry no matter how many clients ask concurrently, so the counters do
// not depend on which of them did the work.
func (e *Engine) sharedBitmapFor(ent *publicBitmapEntry, cellRect geom.Rect, params pyramid.Params) (*pyramid.Bitmap, error) {
	sh := &ent.shared[params.Height]
	sh.once.Do(func() {
		res, err := saferegion.ComputeBitmap(cellRect, params, nil, ent.reg)
		if err != nil {
			sh.err = err
			return
		}
		e.met.AddBitmapComputation(res.IntersectionTests)
		sh.bm = res.Bitmap
	})
	return sh.bm, sh.err
}

func (e *Engine) alarmPushFor(reg *alarm.Registry, u wire.PositionUpdate, sc *UpdateScratch) wire.AlarmPush {
	cellRect := e.grid.CellRect(e.grid.Locate(u.Pos))
	var accesses uint64
	sc.relevant, sc.raw, accesses = reg.RelevantInInto(cellRect, alarm.UserID(u.User), sc.relevant[:0], sc.raw)
	e.met.AddSafeRegionIndexWork(accesses)
	push := wire.AlarmPush{Seq: u.Seq, Cell: cellRect, Cap: e.regionCap(sc, u.Pos), Alarms: make([]wire.AlarmInfo, len(sc.relevant))}
	for i, a := range sc.relevant {
		push.Alarms[i] = wire.AlarmInfo{ID: uint64(a.ID), Region: a.Region}
	}
	return push
}

// clientsSnapshot copies the (user, state) pairs out of every shard so
// callers can iterate without holding shard locks.
func (e *Engine) clientsSnapshot() map[alarm.UserID]*clientState {
	out := make(map[alarm.UserID]*clientState)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for u, st := range sh.m {
			out[u] = st
		}
		sh.mu.RUnlock()
	}
	return out
}
