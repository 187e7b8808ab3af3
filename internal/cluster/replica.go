package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/store"
)

// Per-shard WAL replication and follower promotion. Each shard's primary
// store streams its appended records (and snapshot generations) through
// an in-process replication sink to a Replicator, which fans the frames
// out to one or more FollowerLogs — durable mirrors whose disk layout is
// byte-identical to a primary's. When the failure detector sees a
// primary silent for PromoteAfter replication ticks, the best-caught-up
// follower is sealed and reopened through the ordinary recovery path as
// the shard's new primary: the partition-map epoch bumps so clients
// re-sync, and the shard's fencing term bumps so a deposed primary that
// was merely partitioned (not dead) has every later append rejected
// with store.ErrFenced. See DESIGN.md "Replication and failover".

// replBufferCap bounds each follower's asynchronous frame buffer. A
// follower that falls further behind than this is marked for a snapshot
// resync instead of growing the buffer without bound — backpressure by
// resync, the cheap policy when snapshots are proportional to state.
const replBufferCap = 1024

// replFollower is one follower attachment: its durable log plus the
// bounded buffer of frames awaiting the next Pump (async mode only).
type replFollower struct {
	log *store.FollowerLog
	buf []store.ReplFrame
	// resync marks the follower for a snapshot resync on the next Pump:
	// set when the buffer overflowed, when apply hit a stream gap, or
	// when a new primary incarnation attached (its positions restart).
	resync bool
}

// Replicator owns one shard's replication fan-out: the primary's sink
// feeds it, followers drain from it, and its term cell is the shard's
// fencing authority (the primary's termSource reads it, so bumping the
// term here fences a deposed primary immediately and atomically).
type Replicator struct {
	shard   int
	ackMode bool
	met     *metrics.Cluster
	term    atomic.Uint64

	mu        sync.Mutex
	followers []*replFollower
	// streamPos is the highest record position the primary has emitted —
	// the reference point for follower lag.
	streamPos uint64
}

// NewReplicator builds the replicator for one shard. ack selects
// synchronous mode: every append applies to every follower before the
// primary's Append returns (zero follower lag, higher write latency).
func NewReplicator(shard int, ack bool, met *metrics.Cluster) *Replicator {
	return &Replicator{shard: shard, ackMode: ack, met: met}
}

// Term returns the shard's current fencing term. The primary store's
// termSource points here.
func (r *Replicator) Term() uint64 { return r.term.Load() }

// AttachPrimary wires a primary store incarnation into the replicator:
// the store adopts the shard term, reads the shared term cell for
// fencing, and streams every acknowledged record into the sink. Any
// existing followers are marked for a snapshot resync — a new
// incarnation's record positions restart from its recovery point, so
// only a fresh snapshot re-aligns the stream.
func (r *Replicator) AttachPrimary(st *store.Store) {
	st.SetTerm(r.term.Load())
	st.SetTermSource(r.Term)
	st.SetReplSink(r.sink)
	r.mu.Lock()
	for _, f := range r.followers {
		f.resync = true
		f.buf = nil
	}
	r.streamPos = 0
	r.mu.Unlock()
}

// sink receives the frame batch of one acknowledged group commit (or a
// one-frame batch per checkpoint). It runs with the store's mutex held
// (lock order: store.mu → Replicator.mu → FollowerLog.mu), before any
// write in the group can release its response — so in ack mode every
// acknowledged record is already applied to every follower via one
// coalesced follower write per group, and in async mode the whole batch
// is buffered here, where it survives the primary's death and is
// drained before any promotion.
func (r *Replicator) sink(frames []store.ReplFrame) {
	if len(frames) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := frames[len(frames)-1].Pos; p > r.streamPos {
		r.streamPos = p
	}
	for _, fl := range r.followers {
		if fl.resync {
			continue // a pending resync supersedes individual frames
		}
		if r.ackMode {
			r.applyBatchLocked(fl, frames)
			continue
		}
		if len(fl.buf)+len(frames) > replBufferCap {
			// Backpressure: drop the buffer and resync from a snapshot.
			fl.buf = nil
			fl.resync = true
			continue
		}
		fl.buf = append(fl.buf, frames...)
	}
}

// applyBatch applies one frame batch to a follower log and books the
// streamed-frame metrics; the error is the batch's first failure (its
// valid prefix has been applied).
func (r *Replicator) applyBatch(log *store.FollowerLog, frames []store.ReplFrame) error {
	recs, snaps, err := log.ApplyBatch(frames)
	r.met.ReplRecordsStreamed.Add(uint64(recs))
	r.met.ReplSnapshotsStreamed.Add(uint64(snaps))
	return err
}

// applyBatchLocked is applyBatch under r.mu, folding a failure into the
// follower's resync flag.
func (r *Replicator) applyBatchLocked(fl *replFollower, frames []store.ReplFrame) {
	if err := r.applyBatch(fl.log, frames); err != nil {
		fl.resync = true
	}
}

// AddFollower opens a fresh follower log under dir and attaches it. The
// snapshot bootstrap runs inside primary.Bootstrap — with the store
// lock held — and the follower registers before the lock releases, so
// no record frame can fall between the snapshot and the subscription.
func (r *Replicator) AddFollower(primary *store.Store, dir string, opts store.Options) error {
	fl, err := store.OpenFollower(dir, opts)
	if err != nil {
		return err
	}
	err = primary.Bootstrap(func(snap store.ReplFrame) error {
		if _, err := fl.Apply(snap); err != nil {
			return err
		}
		r.mu.Lock()
		r.followers = append(r.followers, &replFollower{log: fl})
		if snap.Pos > r.streamPos {
			r.streamPos = snap.Pos
		}
		r.mu.Unlock()
		return nil
	})
	if err != nil {
		fl.Close()
		return fmt.Errorf("cluster: shard %d follower: %w", r.shard, err)
	}
	r.met.ReplSnapshotsStreamed.Add(1)
	return nil
}

// Pump drains each follower's buffered frames and snapshot-resyncs the
// ones marked for it, then beats a heartbeat frame (term refresh) to
// every follower. Called once per replication tick while the primary is
// alive. Buffered frames are swapped out under r.mu and applied outside
// it so a resync's Bootstrap (store.mu) never nests inside r.mu —
// preserving the store.mu → r.mu lock order the sink relies on.
func (r *Replicator) Pump(primary *store.Store) {
	type drain struct {
		fl     *replFollower
		frames []store.ReplFrame
		resync bool
	}
	r.mu.Lock()
	work := make([]drain, 0, len(r.followers))
	for _, fl := range r.followers {
		work = append(work, drain{fl: fl, frames: fl.buf, resync: fl.resync})
		fl.buf = nil
		fl.resync = false
	}
	r.mu.Unlock()

	hb := store.ReplFrame{Type: store.ReplHeartbeat, Term: r.term.Load()}
	for _, w := range work {
		needResync := w.resync
		if !needResync && len(w.frames) > 0 {
			// One coalesced follower write per drained buffer; a failure
			// applies the valid prefix and the snapshot resync covers the
			// rest.
			if err := r.applyBatch(w.fl.log, w.frames); err != nil {
				needResync = true
			}
		}
		if needResync {
			if err := r.resyncFollower(primary, w.fl); err != nil {
				r.mu.Lock()
				w.fl.resync = true // retry on the next tick
				r.mu.Unlock()
				continue
			}
		}
		_, _ = w.fl.log.Apply(hb)
	}
}

// resyncFollower re-seeds one follower from a fresh primary snapshot.
func (r *Replicator) resyncFollower(primary *store.Store, fl *replFollower) error {
	err := primary.Bootstrap(func(snap store.ReplFrame) error {
		_, err := fl.log.Apply(snap)
		return err
	})
	if err != nil {
		return err
	}
	r.met.ReplSnapshotsStreamed.Add(1)
	return nil
}

// Promotable reports whether at least one follower has been seeded by a
// snapshot and could serve as the next primary.
func (r *Replicator) Promotable() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fl := range r.followers {
		if fl.log.Synced() {
			return true
		}
	}
	return false
}

// Promote fences the shard and returns the best follower's sealed log,
// ready for store.Open. Order matters: the term bumps FIRST, so a
// deposed primary that is still running (network partition, not death)
// can acknowledge nothing more from this instant; only then are the
// followers' buffered frames drained — capturing every write the old
// primary ever acknowledged — and the furthest-ahead synced follower
// chosen and sealed. The remaining followers are marked for resync
// against the new primary (whose record positions restart).
func (r *Replicator) Promote() (*store.FollowerLog, error) {
	r.term.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fl := range r.followers {
		if fl.resync {
			fl.buf = nil
			continue
		}
		// A gap mid-drain applies the valid prefix and flags the resync.
		r.applyBatchLocked(fl, fl.buf)
		fl.buf = nil
	}
	best := -1
	for i, fl := range r.followers {
		if !fl.log.Synced() {
			continue
		}
		if best < 0 || fl.log.Pos() > r.followers[best].log.Pos() {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("cluster: shard %d has no promotable follower", r.shard)
	}
	chosen := r.followers[best].log
	r.followers = append(r.followers[:best], r.followers[best+1:]...)
	for _, fl := range r.followers {
		fl.resync = true
		fl.buf = nil
	}
	if err := chosen.Seal(); err != nil {
		return nil, err
	}
	return chosen, nil
}

// Restore re-attaches a follower that Promote sealed and removed but
// whose promotion then failed (store open, engine boot, or pointer
// write): the log reopens for appends and rejoins the follower set
// with its synced state and position intact, so a later promotion
// attempt can retry from it instead of leaving the shard down with no
// promotable follower.
func (r *Replicator) Restore(fl *store.FollowerLog) error {
	if err := fl.Reopen(); err != nil {
		return err
	}
	r.mu.Lock()
	r.followers = append(r.followers, &replFollower{log: fl})
	r.mu.Unlock()
	return nil
}

// Shutdown seals every follower log (releasing file descriptors)
// without removing the directories — clean-close semantics.
func (r *Replicator) Shutdown() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fl := range r.followers {
		_ = fl.log.Seal()
	}
}

// Close seals and removes every follower log — the shard retired.
func (r *Replicator) Close() {
	r.mu.Lock()
	fls := r.followers
	r.followers = nil
	r.mu.Unlock()
	for _, fl := range fls {
		_ = fl.log.Close()
	}
}

// ReplicaStatus is one shard's replication health for ShardSnapshots.
type ReplicaStatus struct {
	// Term is the shard's current fencing term.
	Term uint64 `json:"term"`
	// Followers is the number of attached follower logs.
	Followers int `json:"followers"`
	// StreamPos is the primary's last emitted record position.
	StreamPos uint64 `json:"stream_pos"`
	// MinAcked is the least-caught-up follower's applied position; Lag is
	// StreamPos - MinAcked (how far the slowest follower trails).
	MinAcked uint64 `json:"min_acked"`
	Lag      uint64 `json:"lag"`
}

// Status snapshots the replicator's health counters.
func (r *Replicator) Status() ReplicaStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReplicaStatus{Term: r.term.Load(), Followers: len(r.followers), StreamPos: r.streamPos}
	for i, fl := range r.followers {
		p := fl.log.Pos()
		if i == 0 || p < st.MinAcked {
			st.MinAcked = p
		}
	}
	if st.Followers > 0 && st.StreamPos > st.MinAcked {
		st.Lag = st.StreamPos - st.MinAcked
	}
	return st
}

// FailureDetector is a missed-heartbeat detector over a deterministic
// integer clock: Beat records liveness at a tick, Suspect reports
// whether a shard has been silent for at least `after` ticks. The sim
// drives it with its tick counter; the server binary with an interval
// count — either way the promotion decision is reproducible.
type FailureDetector struct {
	mu       sync.Mutex
	lastBeat map[int]int
}

// Beat records that shard was seen alive at tick now.
func (fd *FailureDetector) Beat(shard, now int) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.lastBeat == nil {
		fd.lastBeat = make(map[int]int)
	}
	fd.lastBeat[shard] = now
}

// Suspect reports whether shard has missed heartbeats for >= after
// ticks. A shard never beaten is suspect immediately (it was expected).
func (fd *FailureDetector) Suspect(shard, now, after int) bool {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	last, ok := fd.lastBeat[shard]
	if !ok {
		return true
	}
	return now-last >= after
}

// Forget drops a shard from the detector (retired).
func (fd *FailureDetector) Forget(shard int) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	delete(fd.lastBeat, shard)
}

// primaryPtrPath is the durable "which directory is this shard's
// primary" pointer. Promotion re-points a shard's authoritative store
// from DataDir/shard<i> to the promoted follower's directory; the
// pointer file (written via tmp + atomic rename) makes that re-pointing
// survive a full-process restart — New boots the shard from the
// pointed-at directory, which holds every acknowledged write.
func primaryPtrPath(dataDir string, shard int) string {
	return filepath.Join(dataDir, fmt.Sprintf("shard%d.primary", shard))
}

// writePrimaryPtr durably commits the shard's primary-directory pointer.
func writePrimaryPtr(dataDir string, shard int, dir string) error {
	path := primaryPtrPath(dataDir, shard)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cluster: primary pointer: %w", err)
	}
	if _, err = f.WriteString(dir); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cluster: primary pointer: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cluster: primary pointer: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cluster: primary pointer: %w", err)
	}
	return nil
}

// readPrimaryPtr reads a shard's primary-directory pointer; ok is false
// when no pointer exists or the pointed-at directory is gone.
func readPrimaryPtr(dataDir string, shard int) (string, bool) {
	data, err := os.ReadFile(primaryPtrPath(dataDir, shard))
	if err != nil || len(data) == 0 {
		return "", false
	}
	dir := string(data)
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// replicator returns shard's replicator, nil when replication is off or
// the shard retired.
func (c *Cluster) replicator(shard int) *Replicator {
	c.repMu.Lock()
	defer c.repMu.Unlock()
	return c.reps[shard]
}

// enableReplication builds shard's replicator, attaches the live
// primary, and spawns cfg.Replicas follower logs.
func (c *Cluster) enableReplication(shard int) error {
	eng := c.Engine(shard)
	if eng == nil || eng.Store() == nil {
		return fmt.Errorf("cluster: shard %d: replication needs a live durable shard", shard)
	}
	rep := NewReplicator(shard, c.cfg.ReplAck, c.met)
	rep.AttachPrimary(eng.Store())
	c.repMu.Lock()
	c.reps[shard] = rep
	c.repMu.Unlock()
	for j := 0; j < c.cfg.Replicas; j++ {
		if err := c.addFollower(shard, rep, eng.Store()); err != nil {
			return err
		}
	}
	return nil
}

// scanReplSeq returns the next free follower-directory sequence: one
// past the highest shard<i>-r<seq> directory already under dataDir. The
// in-memory counter alone restarts at 0 with the process; after a
// promotion re-pointed a shard's primary to a follower directory, a
// re-allocation of that same name would hand it to OpenFollower — which
// wipes the directory — destroying the live primary's acknowledged
// writes. Seeding the counter past every directory ever allocated keeps
// the names never-reused across restarts too.
func scanReplSeq(dataDir string) int {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		return 0
	}
	next := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var shard, seq int
		if n, _ := fmt.Sscanf(e.Name(), "shard%d-r%d", &shard, &seq); n == 2 && seq >= next {
			next = seq + 1
		}
	}
	return next
}

// addFollower attaches one more follower log to shard's replicator,
// under a never-reused directory name. A name that matches any slot's
// current primary directory is skipped outright — OpenFollower wipes
// its directory, so handing it a live primary's would destroy
// acknowledged writes; the guard is a last line of defence behind the
// durable seq scan.
func (c *Cluster) addFollower(shard int, rep *Replicator, st *store.Store) error {
	sl := c.slotList()
	var dir string
	for {
		c.repMu.Lock()
		seq := c.replSeq
		c.replSeq++
		c.repMu.Unlock()
		dir = filepath.Join(c.cfg.DataDir, fmt.Sprintf("shard%d-r%d", shard, seq))
		primary := false
		for _, s := range sl {
			if s.dir == dir {
				primary = true
				break
			}
		}
		if !primary {
			break
		}
	}
	return rep.AddFollower(st, dir, c.cfg.Store)
}

// dropReplication retires shard's replication: followers sealed and
// removed, failure detector forgets it. Used when a merge drain retires
// the shard for good.
func (c *Cluster) dropReplication(shard int) {
	c.repMu.Lock()
	rep := c.reps[shard]
	delete(c.reps, shard)
	c.repMu.Unlock()
	c.fd.Forget(shard)
	if rep != nil {
		rep.Close()
	}
}

// TickReplication advances the replication clock one beat: every live
// primary pumps its follower stream and refreshes the failure detector;
// a primary silent for cfg.PromoteAfter ticks whose replicator holds a
// promotable follower is failed over on the spot. now is a
// monotonically increasing tick count — the sim's tick loop or the
// server binary's interval ticker — so detection is deterministic.
func (c *Cluster) TickReplication(now int) {
	c.repMu.Lock()
	shards := make([]int, 0, len(c.reps))
	for s := range c.reps {
		shards = append(shards, s)
	}
	c.repMu.Unlock()
	sort.Ints(shards)
	for _, s := range shards {
		rep := c.replicator(s)
		if rep == nil {
			continue
		}
		if eng := c.Engine(s); eng != nil {
			if st := eng.Store(); st != nil && !st.Crashed() {
				rep.Pump(st)
				c.fd.Beat(s, now)
				continue
			}
			// A spontaneous WAL write failure kills the store but leaves
			// the dead engine attached (only KillShard/PartitionShard
			// detach). Detach it here so the promotion path — which
			// refuses to depose an attached primary — can fail the shard
			// over instead of skipping it forever.
			if c.slotList()[s].eng.CompareAndSwap(eng, nil) {
				c.met.ShardCrashes.Add(1)
			}
		}
		if rep.Promotable() && c.fd.Suspect(s, now, c.cfg.PromoteAfter) {
			if err := c.PromoteFollower(s); err == nil {
				c.fd.Beat(s, now)
			}
		}
	}
}

// PromoteFollower fails shard over to its best follower: the shard term
// bumps (fencing any deposed primary still running), the follower's
// buffered frames drain, its log seals, and the ordinary recovery path
// (store.Open + NewDurable) reboots the shard from the follower's
// directory — which the durable primary pointer now names, so even a
// full-process restart boots from the promoted state. The partition-map
// epoch bumps and commits so clients holding stale Redirects re-sync,
// and a replacement follower spawns to restore the replica count.
func (c *Cluster) PromoteFollower(shard int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := c.replicator(shard)
	if rep == nil {
		return fmt.Errorf("cluster: shard %d is not replicated", shard)
	}
	if c.Engine(shard) != nil {
		return fmt.Errorf("cluster: shard %d primary is still attached", shard)
	}
	pm := c.part.Load()
	rect, live := pm.RectOf(shard)
	if !live {
		// A draining merge source is off the map but still owns sessions;
		// it fails over on its drain rectangle so the drain can resume.
		for _, d := range pm.Draining() {
			if d.Shard == shard {
				rect, live = d.Rect, true
				break
			}
		}
	}
	if !live {
		return fmt.Errorf("cluster: shard %d is retired", shard)
	}

	fl, err := rep.Promote()
	if err != nil {
		return err
	}
	// Promote sealed fl and removed it from the fan-out; if anything
	// below fails, the sealed log must rejoin the follower set (with its
	// data intact) or a retry finds no promotable follower and the shard
	// stays down for good with Replicas=1.
	st, state, info, err := store.Open(fl.Dir(), c.cfg.Store)
	if err != nil {
		_ = rep.Restore(fl)
		return fmt.Errorf("cluster: promote shard %d: %w", shard, err)
	}
	sc := c.cfg.Engine
	sc.Partition = rect
	eng, err := server.NewDurable(sc, st, state, info)
	if err != nil {
		_ = st.Close()
		_ = rep.Restore(fl)
		return fmt.Errorf("cluster: promote shard %d: %w", shard, err)
	}
	if err := writePrimaryPtr(c.cfg.DataDir, shard, fl.Dir()); err != nil {
		_ = st.Close()
		_ = rep.Restore(fl)
		return err
	}
	rep.AttachPrimary(st)

	sl := c.slotList()
	sl[shard].dir = fl.Dir()
	c.setEngine(sl[shard], eng)
	// Epoch bump is the promotion's client-visible commit: Redirects and
	// exported sessions stamped with the old epoch are now stale.
	if err := c.commitMap(pm.BumpEpoch()); err != nil {
		return err
	}
	c.advanceEpochs(c.part.Load())
	if err := c.addFollower(shard, rep, st); err != nil {
		// The shard is up and serving; a missing replacement follower is
		// degraded redundancy, not a failed promotion.
		_ = err
	}
	c.met.Promotions.Add(1)
	return nil
}

// ResumeDrains retries any in-flight merge drain whose source and
// target shards are both up — the recovery hook after a failover
// revived a shard that died mid-drain.
func (c *Cluster) ResumeDrains() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.part.Load().Draining() {
		if c.Engine(d.Shard) == nil || c.Engine(d.Target) == nil {
			continue
		}
		if err := c.finishDrain(d); err != nil {
			return err
		}
	}
	return nil
}

// PartitionShard isolates shard i: its engine detaches from the slot —
// the cluster, front end and failure detector all see it down — but its
// store stays alive and un-killed, modeling a primary cut off by a
// network partition rather than a crash. The returned engine is the
// deposed zombie; tests drive it directly to prove the fencing term
// rejects its post-promotion appends.
func (c *Cluster) PartitionShard(i int) (*server.Engine, error) {
	sl := c.slotList()
	if i < 0 || i >= len(sl) {
		return nil, fmt.Errorf("cluster: no shard %d", i)
	}
	eng := sl[i].eng.Swap(nil)
	if eng == nil {
		return nil, fmt.Errorf("cluster: shard %d already down", i)
	}
	c.met.ShardCrashes.Add(1)
	return eng, nil
}
