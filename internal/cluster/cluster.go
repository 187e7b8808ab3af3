package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
)

// Config parameterizes a cluster.
type Config struct {
	// Shards is the number of startup partitions (engines). Ignored when
	// Cols and Rows are both set, and ignored entirely when DataDir holds
	// a committed partition map from a previous run.
	Shards int
	// Cols and Rows force an explicit startup partition grid; both zero
	// means the near-square auto split of Shards.
	Cols, Rows int
	// Engine is the configuration shared by every shard engine: all
	// shards see the identical full Universe and grid geometry (so safe
	// regions near a boundary match the single-server ones bit for bit);
	// each shard's Partition field is filled in per shard.
	Engine server.Config
	// DataDir, when non-empty, makes every shard durable with its own
	// write-ahead log and snapshots under DataDir/shard<N>, and commits
	// the partition map to DataDir/partmap on every transition. Empty
	// runs every shard in memory (shards then cannot crash/recover and
	// transitions are not durable).
	DataDir string
	// Store tunes the per-shard durable stores (fsync, checkpoint cadence).
	Store store.Options
	// Replicas is the number of follower logs kept per shard; 0 disables
	// replication. Requires DataDir (followers are durable mirrors).
	Replicas int
	// PromoteAfter is how many replication ticks a primary may stay
	// silent before a follower is promoted in its place.
	PromoteAfter int
	// ReplAck selects synchronous replication: every append applies to
	// every follower before the primary acknowledges. Off, frames buffer
	// and drain on the next TickReplication (still lossless for
	// acknowledged writes: buffers survive the primary's death and drain
	// before promotion).
	ReplAck bool
}

// ErrCrashPoint is returned by a transition that hit a scripted crash
// point (SetCrashPoint). The test harness then calls Crash and reopens
// the cluster from its DataDir, exactly as a process kill would.
var ErrCrashPoint = errors.New("cluster: scripted crash point")

// Crash point names accepted by SetCrashPoint, ordered along the
// transition paths they interrupt.
const (
	// CPSplitPreCommit dies after the new shard's engine booted and
	// adopted its alarms but before the map file committed: recovery
	// sees the old epoch and the orphaned shard directory is wiped when
	// its ID is next allocated.
	CPSplitPreCommit = "split:pre-commit"
	// CPMergePreCommit dies after the merge target adopted the retired
	// shard's alarms but before the map file committed: recovery sees
	// the old epoch; the extra alarms are harmless over-installation.
	CPMergePreCommit = "merge:pre-commit"
	// CPDrainBeforeImport dies mid-drain between peeking a session at
	// the retired shard and importing it at the target: the committed
	// map's Drain entry makes recovery finish the migration.
	CPDrainBeforeImport = "drain:before-import"
	// CPDrainBeforeDrop dies after the import but before the retired
	// shard dropped its copy: recovery re-imports (a no-op union) and
	// drops — at worst a redelivered firing the client dedups. A crash
	// after the drop but before its deferred ExpireRec landed recovers
	// the same way.
	CPDrainBeforeDrop = "drain:before-drop"
	// CPMergePreDrainDone dies after every session drained but before
	// the drain-done map committed: recovery re-runs the drain over the
	// sessions whose deferred ExpireRec had not landed (no-op unions).
	CPMergePreDrainDone = "merge:pre-drain-done"
)

// Cluster runs one engine per spatial partition under a versioned
// partition map. Shards fail and recover independently: a down shard's
// slot holds nil, and the front end drops the connections of the clients
// it serves until it is back. SplitShard and MergeShards mutate the map at
// runtime; readers follow it lock-free through an atomic pointer.
type Cluster struct {
	cfg      Config
	met      *metrics.Cluster
	cellSide float64

	// part is the published partition map; every transition installs a
	// fresh copy-on-write successor. slots is indexed by shard ID and
	// only ever grows (IDs are never reused); both pointers are atomic
	// so Locate and Engine stay lock-free on the hot path.
	part  atomic.Pointer[PartitionMap]
	slots atomic.Pointer[[]*slot]

	// mu serializes everything that mutates the map or the alarm table:
	// split/merge transitions, drain resumption, alarm installation and
	// slot growth. nextAlarmID is the global ID counter, seeded past
	// every shard's recovered table.
	mu          sync.Mutex
	nextAlarmID uint64

	// retired maps a merged-away shard to the live shard that absorbed
	// it, so the front end can redirect clients that still dial the
	// retired shard. In-memory only: New refills it for the drains it
	// finishes, and forgets merges that completed before the restart.
	retiredMu sync.RWMutex
	retired   map[int]int

	// crashPoints holds armed one-shot scripted failures (tests only).
	cpMu        sync.Mutex
	crashPoints map[string]bool

	// reps holds each replicated shard's fan-out state; replSeq allocates
	// never-reused follower directory names. fd is the missed-heartbeat
	// failure detector TickReplication drives.
	repMu   sync.Mutex
	reps    map[int]*Replicator
	replSeq int
	fd      FailureDetector

	// pusher is wired into every engine stored into a slot (setEngine);
	// pushMu orders that against SetPusher.
	pushMu sync.Mutex
	pusher server.Pusher
}

type slot struct {
	eng atomic.Pointer[server.Engine]
	dir string
}

// New builds and boots every shard. With DataDir set, each shard opens
// (or recovers) its own store and the partition map is loaded from the
// committed map file when one exists — a cluster restarted on an
// existing DataDir resumes from durable state, including finishing any
// merge drain a crash interrupted.
func New(cfg Config) (*Cluster, error) {
	if cfg.Replicas > 0 && cfg.DataDir == "" {
		return nil, errors.New("cluster: Replicas requires DataDir (followers are durable mirrors)")
	}
	c := &Cluster{
		cfg:         cfg,
		met:         &metrics.Cluster{},
		retired:     make(map[int]int),
		crashPoints: make(map[string]bool),
		reps:        make(map[int]*Replicator),
	}
	if cfg.DataDir != "" {
		// Follower directory names must never be reused, even across
		// process restarts: a past promotion may have made shardN-rM a
		// shard's primary directory, and re-allocating that name would
		// wipe it. Seed the counter past everything on disk.
		c.replSeq = scanReplSeq(cfg.DataDir)
	}
	var pm *PartitionMap
	if cfg.DataDir != "" {
		loaded, found, err := LoadPartitionMapFile(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		if found {
			pm = loaded
		} else if err := refuseBareStore(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	if pm == nil {
		var err error
		if cfg.Cols > 0 || cfg.Rows > 0 {
			pm, err = NewPartitionMapGrid(cfg.Engine.Universe, cfg.Cols, cfg.Rows)
		} else {
			pm, err = NewPartitionMap(cfg.Engine.Universe, cfg.Shards)
		}
		if err != nil {
			return nil, err
		}
		if cfg.DataDir != "" {
			if err := WritePartitionMapFile(cfg.DataDir, pm); err != nil {
				return nil, err
			}
		}
	}
	c.part.Store(pm)
	slots := make([]*slot, pm.NextShard())
	for i := range slots {
		slots[i] = &slot{}
		if cfg.DataDir != "" {
			slots[i].dir = filepath.Join(cfg.DataDir, fmt.Sprintf("shard%d", i))
			// A past promotion may have re-pointed the shard's primary to a
			// follower's directory; the durable pointer survives restarts.
			if dir, ok := readPrimaryPtr(cfg.DataDir, i); ok {
				slots[i].dir = dir
			}
		}
	}
	c.slots.Store(&slots)

	boot := func(id int, rect geom.Rect) error {
		eng, err := c.bootShard(id, rect)
		if err != nil {
			return fmt.Errorf("cluster: boot shard %d: %w", id, err)
		}
		c.setEngine(slots[id], eng)
		if next := uint64(eng.Registry().NextID()); next > c.nextAlarmID {
			c.nextAlarmID = next
		}
		return nil
	}
	for _, s := range pm.Shards() {
		rect, _ := pm.RectOf(s)
		if err := boot(s, rect); err != nil {
			return nil, err
		}
	}
	// A drain source is retired from the map but still holds sessions; it
	// reboots on its last rectangle so the drain can finish.
	for _, d := range pm.Draining() {
		if err := boot(d.Shard, d.Rect); err != nil {
			return nil, err
		}
	}
	if c.nextAlarmID == 0 {
		c.nextAlarmID = 1
	}
	first := pm.Shards()[0]
	c.cellSide = slots[first].eng.Load().Grid().CellSide()
	for _, s := range pm.Shards() {
		if err := slots[s].eng.Load().SetEpoch(pm.Epoch()); err != nil {
			return nil, err
		}
	}
	if cfg.Replicas > 0 {
		// Replicate live shards and draining sources alike — a source that
		// dies mid-drain must fail over so its sessions still migrate.
		for _, s := range pm.Shards() {
			if err := c.enableReplication(s); err != nil {
				return nil, err
			}
		}
		for _, d := range pm.Draining() {
			if err := c.enableReplication(d.Shard); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range pm.Draining() {
		c.mu.Lock()
		err := c.finishDrain(d)
		c.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("cluster: resume drain %d→%d: %w", d.Shard, d.Target, err)
		}
	}
	return c, nil
}

// refuseBareStore fails when dir holds a store's files at its top level
// but no partition map: a single engine's data dir, written before every
// server was a cluster. Booting on it would start empty and ignore its
// alarms, sessions and firings; moved into shard0 it recovers as shard 0
// of a one-shard cluster.
func refuseBareStore(dir string) error {
	for _, pattern := range []string{"wal-*.log", "snap-*.json"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) > 0 {
			return fmt.Errorf("cluster: %s holds a single-engine store (%s) but no %s; move its wal-*.log and snap-*.json files into %s to boot it as a one-shard cluster",
				dir, filepath.Base(m[0]), PartitionMapFileName, filepath.Join(dir, "shard0"))
		}
	}
	return nil
}

// bootShard builds shard id's engine on the given partition rectangle,
// recovering from its store when durable.
func (c *Cluster) bootShard(id int, rect geom.Rect) (*server.Engine, error) {
	sc := c.cfg.Engine
	sc.Partition = rect
	sl := c.slotList()
	if sl[id].dir == "" {
		return server.New(sc)
	}
	st, state, info, err := store.Open(sl[id].dir, c.cfg.Store)
	if err != nil {
		return nil, err
	}
	return server.NewDurable(sc, st, state, info)
}

func (c *Cluster) slotList() []*slot { return *c.slots.Load() }

// PartitionMap returns the current published map. The map is immutable;
// a transition publishes a successor, so a held copy stays consistent
// (if stale) forever.
func (c *Cluster) PartitionMap() *PartitionMap { return c.part.Load() }

// Epoch returns the current partition-map epoch.
func (c *Cluster) Epoch() uint64 { return c.part.Load().Epoch() }

// N returns the number of shard IDs ever allocated (live, down or
// retired). Engine(i) reports nil for the non-live ones; use
// PartitionMap().Shards() for the live set.
func (c *Cluster) N() int { return len(c.slotList()) }

// Metrics returns the cluster-level counters.
func (c *Cluster) Metrics() *metrics.Cluster { return c.met }

// Engine returns shard i's engine, or nil while the shard is down or
// retired.
func (c *Cluster) Engine(i int) *server.Engine {
	sl := c.slotList()
	if i < 0 || i >= len(sl) {
		return nil
	}
	return sl[i].eng.Load()
}

// Up reports whether shard i is serving.
func (c *Cluster) Up(i int) bool { return c.Engine(i) != nil }

// SetPusher routes every shard engine's server-initiated pushes to p: the
// engines serving now and every engine later booted into a slot by a
// split, a recovery or a promotion, so pushes survive all three.
func (c *Cluster) SetPusher(p server.Pusher) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	c.pusher = p
	for _, sl := range c.slotList() {
		if eng := sl.eng.Load(); eng != nil {
			eng.SetPusher(p)
		}
	}
}

// setEngine puts eng in service in sl, wired to the cluster's pusher.
func (c *Cluster) setEngine(sl *slot, eng *server.Engine) {
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	eng.SetPusher(c.pusher)
	sl.eng.Store(eng)
}

// fanOutAnchor broadcasts a pair endpoint's fresh position to every
// OTHER live shard, so partner machines resident elsewhere transition
// promptly even when the pair is split across shards. Down shards are
// skipped: the anchor table is soft state that refills from the next
// report after recovery, and the safe-period cap keeps the interim
// sound. An ObserveAnchor log failure means that shard is dying — its
// own next message surfaces it; the serving shard's response stands.
func (c *Cluster) fanOutAnchor(served int, user uint64, pos geom.Point) {
	srcEng := c.Engine(served)
	if srcEng == nil || !srcEng.Registry().HasLifecycle() || !srcEng.Registry().IsPairEndpoint(alarm.UserID(user)) {
		return
	}
	// Broadcast the serving engine's accepted anchor, not the raw report
	// position: the anchor only advances on fresh (in-seq) reports, so a
	// redelivered stale report never ripples an old position to other
	// shards (which would flip a remote partner machine backward).
	if acc, ok := srcEng.Anchor(alarm.UserID(user)); ok {
		pos = acc
	}
	for _, s := range c.PartitionMap().Shards() {
		if s == served {
			continue
		}
		if eng := c.Engine(s); eng != nil {
			_ = eng.ObserveAnchor(alarm.UserID(user), pos)
		}
	}
}

// locate returns the live shard owning pt under the current map,
// counting out-of-universe clamps.
func (c *Cluster) locate(pt geom.Point) int {
	shard, clamped := c.part.Load().Locate(pt)
	if clamped {
		c.met.AddLocateClamped()
	}
	return shard
}

// retiredTarget resolves a retired shard to the live shard that
// absorbed its sessions, following chains of merges.
func (c *Cluster) retiredTarget(shard int) (int, bool) {
	c.retiredMu.RLock()
	defer c.retiredMu.RUnlock()
	to, ok := c.retired[shard]
	if !ok {
		return 0, false
	}
	for {
		next, more := c.retired[to]
		if !more {
			return to, true
		}
		to = next
	}
}

// marginRect is the install footprint of a partition rectangle: the
// rectangle expanded by two grid cells. A client routed to the shard
// reports from inside the partition (or at most one cell beyond it, the
// engine's position slack); its grid cell then lies within two cell
// sides of the partition, so every alarm that can intersect that cell —
// and hence shape its safe region — is installed here. See DESIGN.md
// "Clustering".
func (c *Cluster) marginRect(rect geom.Rect) geom.Rect {
	return rect.Expand(2 * c.cellSide)
}

// InstallAlarms assigns cluster-global IDs and installs each alarm on
// every live shard whose margin rectangle its region intersects — so a
// boundary-straddling alarm is known to all shards that could serve a
// client near it. Moving-target alarms are rejected: their region
// re-anchors at runtime, which would require cross-shard re-placement.
func (c *Cluster) InstallAlarms(alarms []alarm.Alarm) ([]alarm.ID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range alarms {
		if alarms[i].Target != 0 {
			return nil, fmt.Errorf("cluster: alarm %d: moving-target alarms are not supported in clustered mode", i)
		}
	}
	assigned := make([]alarm.Alarm, len(alarms))
	ids := make([]alarm.ID, len(alarms))
	for i, a := range alarms {
		a.ID = alarm.ID(c.nextAlarmID)
		c.nextAlarmID++
		assigned[i] = a
		ids[i] = a.ID
	}
	pm := c.part.Load()
	for _, s := range pm.Shards() {
		eng := c.Engine(s)
		if eng == nil {
			return nil, fmt.Errorf("cluster: shard %d down during install", s)
		}
		rect, _ := pm.RectOf(s)
		margin := c.marginRect(rect)
		var batch []alarm.Alarm
		for _, a := range assigned {
			// Pair alarms follow their endpoints, which any shard may
			// serve (or come to serve after a repartition), so every live
			// shard gets a copy; region alarms go where the margin says.
			// A composite's region is its factors' bound, which the
			// registry derives only at install.
			region := a.Region
			if a.Kind == alarm.KindComposite {
				region = alarm.FactorsBound(a.Factors)
			}
			if a.Kind == alarm.KindPair || region.Intersects(margin) {
				batch = append(batch, a)
			}
		}
		if len(batch) == 0 {
			continue
		}
		if err := eng.InstallAlarmsAssigned(batch); err != nil {
			return nil, fmt.Errorf("cluster: install on shard %d: %w", s, err)
		}
	}
	return ids, nil
}

// SetTick advances every live shard's logical clock — lifecycle
// transitions and composite TTL expiry are tick-driven, and each shard
// logs its own expiry records. Down shards catch up on their next tick
// after recovery (the clock only moves forward). The first shard error
// is returned after all shards were ticked.
func (c *Cluster) SetTick(tick uint64) error {
	var firstErr error
	for _, s := range c.part.Load().Shards() {
		if eng := c.Engine(s); eng != nil {
			if err := eng.SetTick(tick); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// SetCrashPoint arms a one-shot scripted failure (tests only): the next
// transition reaching the named point returns ErrCrashPoint instead of
// proceeding. The harness then calls Crash and reopens the cluster.
func (c *Cluster) SetCrashPoint(name string) {
	c.cpMu.Lock()
	c.crashPoints[name] = true
	c.cpMu.Unlock()
}

// crashAt fires an armed crash point once.
func (c *Cluster) crashAt(name string) error {
	c.cpMu.Lock()
	armed := c.crashPoints[name]
	if armed {
		delete(c.crashPoints, name)
	}
	c.cpMu.Unlock()
	if armed {
		return fmt.Errorf("%w: %s", ErrCrashPoint, name)
	}
	return nil
}

// Crash fail-stops the whole cluster in place, as a process kill would:
// every engine slot goes nil and every durable store dies without
// checkpointing. The DataDir can then be reopened with New.
func (c *Cluster) Crash() {
	for _, sl := range c.slotList() {
		eng := sl.eng.Swap(nil)
		if eng != nil && eng.Store() != nil {
			eng.Store().Kill()
		}
	}
	c.repMu.Lock()
	reps := make([]*Replicator, 0, len(c.reps))
	for _, rep := range c.reps {
		reps = append(reps, rep)
	}
	c.repMu.Unlock()
	for _, rep := range reps {
		rep.Shutdown()
	}
}

// SplitShard divides a hot shard's rectangle in two at the median of
// its resident sessions' positions along the longer axis (midpoint when
// the population is too small to vote): a fresh engine is booted for
// the newly allocated shard ID, adopts every alarm of the parent whose
// region intersects the new margin (plus their fired pairs, so nothing
// refires), and only then does the successor map commit — the ordering
// makes a crash at any point recoverable to a consistent epoch. Sessions
// are NOT eagerly migrated: clients resident in the moved half keep
// talking to the old shard until their next report, which the front end
// answers with the ordinary durable handoff and a Redirect
// (moveSession). It returns the new shard's ID.
func (c *Cluster) SplitShard(shard int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.part.Load()
	src := c.Engine(shard)
	if src == nil {
		return 0, fmt.Errorf("cluster: split: shard %d is down", shard)
	}
	next, newShard, err := c.splitAtMedian(cur, shard, src)
	if err != nil {
		return 0, err
	}

	c.growSlots(next.NextShard())
	sl := c.slotList()
	if sl[newShard].dir != "" {
		// A crash after a previous pre-commit attempt may have left an
		// orphaned directory under this ID; its WAL must not leak into
		// the new shard.
		if err := os.RemoveAll(sl[newShard].dir); err != nil {
			return 0, fmt.Errorf("cluster: split: clear shard %d dir: %w", newShard, err)
		}
		os.Remove(primaryPtrPath(c.cfg.DataDir, newShard))
	}
	newRect, _ := next.RectOf(newShard)
	eng, err := c.bootShard(newShard, newRect)
	if err != nil {
		return 0, fmt.Errorf("cluster: split: boot shard %d: %w", newShard, err)
	}

	// Adopt the parent's alarms intersecting the new margin, with their
	// fired pairs. Alarms beyond the margin can never shape a safe
	// region computed here, so this is exactly the install footprint a
	// fresh InstallAlarms would have produced.
	margin := c.marginRect(newRect)
	var adopt []alarm.Alarm
	adopted := make(map[alarm.ID]bool)
	for _, a := range src.Registry().All() {
		if a.Kind == alarm.KindPair || a.Region.Intersects(margin) {
			adopt = append(adopt, a)
			adopted[a.ID] = true
		}
	}
	var fired []alarm.FiredPair
	for _, p := range src.Registry().FiredPairs() {
		if adopted[p.Alarm] {
			fired = append(fired, p)
		}
	}
	if err := eng.AdoptAlarms(adopt, fired, src.Registry().LifecycleStatesForAlarms(adopted)); err != nil {
		return 0, fmt.Errorf("cluster: split: adopt alarms on shard %d: %w", newShard, err)
	}

	if err := c.crashAt(CPSplitPreCommit); err != nil {
		return 0, err
	}
	if err := c.commitMap(next); err != nil {
		return 0, err
	}
	c.setEngine(sl[newShard], eng)
	// The parent's rectangle shrank; tightening its safe-period clamp is
	// always sound (its alarm table still covers the old, larger margin).
	loRect, _ := next.RectOf(shard)
	src.SetPartition(loRect)
	// The source's install footprint shrank with its rectangle: alarms
	// beyond the new margin can no longer shape any safe region computed
	// here, so their copies are dropped (their fired pairs stay). The new
	// shard adopted every copy it needs before the commit, so the GC
	// cannot touch anything the moved half depends on.
	n, gcErr := src.GCAlarmsOutside(c.marginRect(loRect))
	c.met.AddAlarmsGCed(uint64(n))
	// A GC log error means the source store crashed mid-drop. The split
	// is already committed and recovery replays the drops that logged, so
	// the error is the shard's problem (surfaced on its next message),
	// not the transition's.
	_ = gcErr
	c.advanceEpochs(next)
	c.met.AddSplit()
	if c.cfg.Replicas > 0 {
		if err := c.enableReplication(newShard); err != nil {
			return 0, err
		}
	}
	return newShard, nil
}

// splitAtMedian picks the split coordinate for shard: the median of its
// resident sessions' last positions along the rectangle's longer axis,
// so a population-skewed shard splits into halves of comparable load
// rather than comparable area. With fewer than two in-rectangle
// positions — or a degenerate median on the rectangle's edge — it falls
// back to the geometric midpoint.
func (c *Cluster) splitAtMedian(cur *PartitionMap, shard int, src *server.Engine) (*PartitionMap, int, error) {
	rect, ok := cur.RectOf(shard)
	if !ok {
		return cur.Split(shard) // surfaces the not-a-live-partition error
	}
	vertical := rect.Width() >= rect.Height()
	var coords []float64
	for _, p := range src.SessionPositions() {
		if !rect.Contains(p) {
			continue // mid-handoff stragglers belong to another shard
		}
		if vertical {
			coords = append(coords, p.X)
		} else {
			coords = append(coords, p.Y)
		}
	}
	if len(coords) < 2 {
		return cur.Split(shard)
	}
	sort.Float64s(coords)
	median := coords[len(coords)/2]
	if next, newShard, err := cur.SplitAt(shard, median); err == nil {
		return next, newShard, nil
	}
	return cur.Split(shard)
}

// MergeShards collapses sibling partitions: into's engine adopts every
// alarm (and fired pair) of from, takes over the parent rectangle, the
// successor map commits with a Drain entry, and the drain then moves
// every session resident on from to into through moveSession —
// import-before-drop, so a crash anywhere leaves at worst a benign
// duplicate, never a lost firing. When the drain empties, a second map
// commit clears the Drain entry and from's engine retires (its ID and
// directory are never reused).
func (c *Cluster) MergeShards(into, from int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.part.Load()
	next, err := cur.Merge(into, from)
	if err != nil {
		return err
	}
	intoEng, fromEng := c.Engine(into), c.Engine(from)
	if intoEng == nil || fromEng == nil {
		return fmt.Errorf("cluster: merge: shard %d or %d is down", into, from)
	}

	// Widening into's responsibility is sound only once its alarm table
	// covers the widened margin — adopt before commit.
	if err := intoEng.AdoptAlarms(fromEng.Registry().All(), fromEng.Registry().FiredPairs(), fromEng.Registry().LifecycleStates()); err != nil {
		return fmt.Errorf("cluster: merge: adopt alarms on shard %d: %w", into, err)
	}
	parentRect, _ := next.RectOf(into)
	intoEng.SetPartition(parentRect)

	if err := c.crashAt(CPMergePreCommit); err != nil {
		return err
	}
	if err := c.commitMap(next); err != nil {
		return err
	}
	c.advanceEpochs(next)
	c.met.AddMerge()

	drains := next.Draining()
	return c.finishDrain(drains[len(drains)-1])
}

// finishDrain migrates every session off a retired shard and commits
// the drain-done map. Caller holds c.mu. The retired shard's engine is
// shut down and its slot pointed nil once the drain commits.
func (c *Cluster) finishDrain(d Drain) error {
	fromEng, intoEng := c.Engine(d.Shard), c.Engine(d.Target)
	if fromEng == nil || intoEng == nil {
		return fmt.Errorf("cluster: drain %d→%d: shard down", d.Shard, d.Target)
	}
	moved := 0
	beforeDrop := func() error { return c.crashAt(CPDrainBeforeDrop) }
	for _, user := range fromEng.SessionUsers() {
		if err := c.crashAt(CPDrainBeforeImport); err != nil {
			return err
		}
		if _, _, _, err := moveSession(fromEng, intoEng, user, beforeDrop); err != nil {
			return fmt.Errorf("cluster: drain user %d: %w", user, err)
		}
		moved++
	}
	c.met.AddSessionsDrained(uint64(moved))

	if err := c.crashAt(CPMergePreDrainDone); err != nil {
		return err
	}
	cur := c.part.Load()
	done, err := cur.DrainDone(d.Shard)
	if err != nil {
		return err
	}
	if err := c.commitMap(done); err != nil {
		return err
	}
	c.advanceEpochs(done)

	c.retiredMu.Lock()
	c.retired[d.Shard] = d.Target
	c.retiredMu.Unlock()
	eng := c.slotList()[d.Shard].eng.Swap(nil)
	if eng != nil && eng.Store() != nil {
		if err := eng.Store().Close(); err != nil {
			return fmt.Errorf("cluster: retire shard %d: %w", d.Shard, err)
		}
	}
	c.dropReplication(d.Shard)
	return nil
}

// moveSession is the one cross-shard session transfer — the front end's
// redirect and the merge drain both run it: peek at the source, import at
// the destination (the handoff's single synchronous group commit), and
// only once that is durable drop at the source, whose ExpireRec rides its
// own log's next commit. It returns the
// record and the token minted at the destination; moved reports that the
// import is durable. A failure before that leaves the session where it
// was; an error with moved set means only the cleanup failed (the source
// is dying) and, like a crash between the two halves, leaves the session
// on both shards until the next move towards the stale copy merges it
// away (server/handoff.go). No session at the source: not moved, no
// error. beforeDrop, when non-nil, runs between the two halves (the
// drain's scripted crash point).
func moveSession(src, dst *server.Engine, user alarm.UserID, beforeDrop func() error) (rec store.ClientRec, token uint64, moved bool, err error) {
	rec, ok := src.PeekSession(user)
	if !ok {
		return rec, 0, false, nil
	}
	if token, err = dst.ImportSession(rec); err != nil {
		return rec, 0, false, fmt.Errorf("import: %w", err)
	}
	if beforeDrop != nil {
		if err = beforeDrop(); err != nil {
			return rec, token, true, err
		}
	}
	if err = src.DropSession(user); err != nil {
		err = fmt.Errorf("drop: %w", err)
	}
	return rec, token, true, err
}

// commitMap durably commits and publishes a successor map. Caller holds
// c.mu. The map-file rename is the transition's commit point: a crash
// before it leaves the previous epoch in force.
func (c *Cluster) commitMap(next *PartitionMap) error {
	if c.cfg.DataDir != "" {
		if err := WritePartitionMapFile(c.cfg.DataDir, next); err != nil {
			return err
		}
	}
	c.part.Store(next)
	return nil
}

// advanceEpochs WALs the new epoch on every live shard, so each shard's
// recovery rejoins at the map it last served under. A shard that is
// down misses the record and catches up on its next recovery or
// transition. Caller holds c.mu.
func (c *Cluster) advanceEpochs(pm *PartitionMap) {
	for _, s := range pm.Shards() {
		if eng := c.Engine(s); eng != nil {
			// ErrCrashed surfaces on the shard's next handled message; the
			// epoch record is then restored by recovery anyway.
			_ = eng.SetEpoch(pm.Epoch())
		}
	}
}

// growSlots extends the slot table to hold n shard IDs. Caller holds
// c.mu; readers follow the atomic pointer.
func (c *Cluster) growSlots(n int) {
	old := c.slotList()
	if n <= len(old) {
		return
	}
	grown := make([]*slot, n)
	copy(grown, old)
	for i := len(old); i < n; i++ {
		grown[i] = &slot{}
		if c.cfg.DataDir != "" {
			grown[i].dir = filepath.Join(c.cfg.DataDir, fmt.Sprintf("shard%d", i))
		}
	}
	c.slots.Store(&grown)
}

// KillShard fail-stops shard i: the store dies mid-flight, the WAL tail
// is mangled per tear, and the slot goes nil. Durable shards only.
func (c *Cluster) KillShard(i int, tear store.TearMode, rng *rand.Rand) error {
	sl := c.slotList()
	if i < 0 || i >= len(sl) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	eng := sl[i].eng.Swap(nil)
	if eng == nil {
		return fmt.Errorf("cluster: shard %d already down", i)
	}
	st := eng.Store()
	if st == nil {
		return fmt.Errorf("cluster: shard %d is memory-only and cannot crash", i)
	}
	walPath := st.WALPath()
	st.Kill()
	if err := store.MangleTail(walPath, tear, rng); err != nil {
		return fmt.Errorf("cluster: mangle shard %d: %w", i, err)
	}
	c.met.AddShardCrash()
	return nil
}

// RecoverShard reboots a killed shard from its durable store on its
// current map rectangle.
func (c *Cluster) RecoverShard(i int) error {
	sl := c.slotList()
	if i < 0 || i >= len(sl) {
		return fmt.Errorf("cluster: no shard %d", i)
	}
	if sl[i].eng.Load() != nil {
		return fmt.Errorf("cluster: shard %d already up", i)
	}
	pm := c.part.Load()
	rect, ok := pm.RectOf(i)
	if !ok {
		return fmt.Errorf("cluster: shard %d is retired", i)
	}
	eng, err := c.bootShard(i, rect)
	if err != nil {
		return fmt.Errorf("cluster: recover shard %d: %w", i, err)
	}
	if err := eng.SetEpoch(pm.Epoch()); err != nil {
		return fmt.Errorf("cluster: recover shard %d: %w", i, err)
	}
	if rep := c.replicator(i); rep != nil {
		// The recovered incarnation streams into the existing replicator;
		// its followers resync against the new incarnation's positions.
		rep.AttachPrimary(eng.Store())
	}
	c.setEngine(sl[i], eng)
	c.met.AddShardRecovery()
	return nil
}

// Close checkpoints and closes every live durable shard and seals
// every follower log.
func (c *Cluster) Close() error {
	var first error
	for _, sl := range c.slotList() {
		eng := sl.eng.Swap(nil)
		if eng == nil || eng.Store() == nil {
			continue
		}
		if err := eng.Store().Close(); err != nil && first == nil {
			first = err
		}
	}
	c.repMu.Lock()
	reps := make([]*Replicator, 0, len(c.reps))
	for _, rep := range c.reps {
		reps = append(reps, rep)
	}
	c.repMu.Unlock()
	for _, rep := range reps {
		rep.Shutdown()
	}
	return first
}

// ShardSnapshots returns each shard ID's counter snapshot; down and
// retired shards yield a zero snapshot with Up=false.
func (c *Cluster) ShardSnapshots() []ShardStatus {
	pm := c.part.Load()
	out := make([]ShardStatus, c.N())
	for i := range out {
		out[i].Shard = i
		if rect, ok := pm.RectOf(i); ok {
			out[i].Partition = rect
		}
		if eng := c.Engine(i); eng != nil {
			out[i].Up = true
			out[i].Metrics = eng.Metrics().Snapshot()
		}
		if rep := c.replicator(i); rep != nil {
			rs := rep.Status()
			out[i].Replication = &rs
		}
	}
	return out
}

// ShardTotals sums the counters of every engine that is up. A shard's
// counters restart with each incarnation, so a recovered shard counts
// from its recovery, and a down or retired one not at all.
func (c *Cluster) ShardTotals() metrics.Snapshot {
	var sum metrics.Snapshot
	for i := 0; i < c.N(); i++ {
		if eng := c.Engine(i); eng != nil {
			sum.Add(eng.Metrics().Snapshot())
		}
	}
	return sum
}

// ShardStatus is one shard's liveness, partition and counters.
type ShardStatus struct {
	Shard     int              `json:"shard"`
	Up        bool             `json:"up"`
	Partition geom.Rect        `json:"partition"`
	Metrics   metrics.Snapshot `json:"metrics"`
	// Replication is the shard's replication health, nil when the shard
	// is unreplicated or retired.
	Replication *ReplicaStatus `json:"replication,omitempty"`
}
