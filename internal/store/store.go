package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation after the store has been
// killed — by a scripted CrashPoint, by Kill, or by a write failure. The
// policy is fail-stop: a store that cannot append durably must not keep
// acknowledging work, so the server treats ErrCrashed as fatal and the
// recovery path takes over on the next start.
var ErrCrashed = errors.New("store: crashed")

// ErrFenced is returned by Append when the store's fencing term has been
// overtaken: a follower was promoted and this store is a deposed primary.
// The policy matches ErrCrashed — the server withholds the response and
// stops serving — but the cause is distinguishable so the fenced-write
// counter and tests can observe rejected zombie appends.
var ErrFenced = errors.New("store: fenced: a newer primary holds this shard")

// Counters is the metrics hook the store reports into; internal/metrics
// Server satisfies it. A nil Counters is allowed.
type Counters interface {
	AddWALAppend(bytes int)
	AddWALFsync()
	AddSnapshot()
	AddRecovery(recordsReplayed int, truncatedBytes int64)
	AddFencedWrite()
	// AddWALGroupCommit records one group commit landing the given number
	// of records; syncNanos is the wall time of the group's fsync (0 when
	// Fsync is off).
	AddWALGroupCommit(records int, syncNanos int64)
	// AddWALDeferred records waiter-less records (AppendDeferred) landed by
	// a group commit; they are also counted in that group's records.
	AddWALDeferred(records int)
	// AddWALPrealloc records one growth of a WAL file's zero-filled
	// region: the zero bytes written and the wall time of the write and
	// its sync (0 when Fsync is off). Neither is an append's bytes or
	// fsync.
	AddWALPrealloc(bytes int, nanos int64)
}

// DefaultGroupMax is the records-per-group cap when Options.GroupMax is
// zero. Large enough that a saturated 64-appender workload amortizes its
// fsync ~64×, small enough that one group buffer stays cache-friendly.
const DefaultGroupMax = 512

// deferredMax bounds the waiter-less records (AppendDeferred) the commit
// queue holds: the enqueue that would reach it commits the queue itself.
// A constant, not an option — it only caps how much cleanup a crash can
// leave undone (and the queue's memory), and every commit empties it.
const deferredMax = 64

// Options tunes a Store.
type Options struct {
	// Fsync syncs the WAL file after every group commit (fdatasync: the
	// append overwrote zero-filled blocks in place) and every snapshot
	// write. Disabling it trades machine-crash durability for throughput;
	// process-crash durability (what sim.Drive's Plan.Crashes simulates)
	// is unaffected because a group lands with a single write.
	Fsync bool
	// SnapshotEvery checkpoints automatically after this many WAL appends
	// (0 disables automatic checkpoints; Checkpoint can still be called
	// explicitly, e.g. at clean shutdown).
	SnapshotEvery int
	// PendingCap bounds each recovered client's pending-firings set,
	// mirroring the engine's cap so replay reproduces its evictions
	// (0 means DefaultPendingCap).
	PendingCap int
	// GroupMax caps how many records one group commit lands with a single
	// write(2) and fsync (0 means DefaultGroupMax; 1 degenerates to
	// per-record commit). An AppendBatch larger than the cap still lands
	// atomically as one oversized group — a batch is never split.
	GroupMax int
	// GroupWait is how long a flush leader holds the commit queue open
	// before landing a group, trading commit latency for larger groups
	// under light concurrency. 0 (the default) flushes immediately:
	// concurrent callers already coalesce while the leader's flush is in
	// flight, with no added latency.
	GroupWait time.Duration
	// Counters receives wal/snapshot/recovery metrics; nil is allowed.
	Counters Counters
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	// Gen is the generation recovered (snapshot + WAL file pair).
	Gen uint64
	// FromSnapshot is true when a snapshot file seeded the state.
	FromSnapshot bool
	// Replayed is the number of WAL records applied on top.
	Replayed int
	// TruncatedBytes is how many trailing bytes the recovery discarded
	// (torn final write, trailing garbage, or a corrupt CRC); the file is
	// repaired — truncated to the clean prefix — before appends resume.
	TruncatedBytes int64
	// TruncateReason says why the tail was discarded, empty when clean.
	TruncateReason string
}

// CrashPoint scripts a deterministic store kill for the fault-injection
// harness: on the AfterAppends-th Append (1-based, counted over the
// store's lifetime), only the first TearBytes bytes of the frame reach
// the log end (clamped to the frame; a value past the frame length writes
// it whole — a record-boundary kill), then Garbage is written after them,
// FlipBit flips the addressed bit (offset back from the new log end, when
// FlipBit >= 0), and the store dies: the append and everything after it
// returns ErrCrashed.
type CrashPoint struct {
	AfterAppends int
	TearBytes    int
	Garbage      []byte
	FlipBit      int64 // bit index counting back from the log end; -1 disables
}

// Store is the durable backend: one active WAL generation plus the
// snapshot that seeds it. Append is safe for concurrent use; Checkpoint
// serializes against appends.
type Store struct {
	dir  string
	opts Options

	mu          sync.Mutex
	gen         uint64
	wal         *walFile
	crashed     bool
	appends     int // appends since the last checkpoint
	appendsEver int // lifetime appends, for CrashPoint matching
	crashPoints []CrashPoint

	// qmu guards the commit queue alone. Appenders enqueue under qmu and
	// then contend for s.mu; whoever wins with its request still pending
	// is the flush leader and lands the whole queue as one group. Lock
	// order: qmu is taken either alone or inside s.mu, never around it.
	qmu       sync.Mutex
	queue     []*commitReq
	ndeferred int // waiter-less requests in queue

	// Flush-leader scratch, touched only under s.mu: the spare queue
	// backing array the leader swaps in, the gathered group write buffer,
	// and the per-record frame-end offsets within it.
	spareQ   []*commitReq
	groupBuf []byte
	groupEnd []int

	// pos is the lifetime record position: it advances by one per
	// appended record and survives checkpoint rotations, giving the
	// replication stream a monotonic coordinate.
	pos uint64
	// term is this store's fencing term; termSource reads the shard's
	// current term (shared with the replicator). When termSource reports
	// a term newer than ours, a follower was promoted and every further
	// append is rejected with ErrFenced.
	term       uint64
	termSource func() uint64

	// replSink receives one frame batch per group commit (one ReplRecord
	// frame per record in the group, in append order) and a single-frame
	// batch per checkpoint (the new snapshot generation). It is called
	// with s.mu held — before any append in the group can release its
	// client-visible response — so every acknowledged write reaches the
	// sink. It must not call back into the store.
	replSink func([]ReplFrame)

	// stateSource captures the current full state for checkpoints; the
	// engine installs it. It is called with s.mu held, so it must not
	// call back into the store.
	stateSource func() *State
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.json", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

// Open recovers the durable state from dir (creating it if needed) and
// returns the store ready for appends, the recovered state, and a
// description of what recovery found. A torn or corrupt WAL tail is
// truncated away — never an error: it is the expected artifact of a
// crash mid-write, and every record it could hold was unacknowledged.
// Appends continue at the log end, the offset where the scan stopped;
// the zero-filled region after it is kept, or regrown by the first
// append once a damaged tail has been cut off.
func Open(dir string, opts Options) (*Store, *State, RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, RecoveryInfo{}, fmt.Errorf("store: %w", err)
	}
	gen, hasSnap, err := latestGen(dir)
	if err != nil {
		return nil, nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{Gen: gen, FromSnapshot: hasSnap}

	var base *State
	if hasSnap {
		f, err := os.Open(snapPath(dir, gen))
		if err != nil {
			return nil, nil, info, fmt.Errorf("store: %w", err)
		}
		base, err = readSnapshot(f)
		f.Close()
		if err != nil {
			return nil, nil, info, err
		}
	}
	b := newBuilder(base, opts.PendingCap)

	wp := walPath(dir, gen)
	buf, err := os.ReadFile(wp)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, info, fmt.Errorf("store: %w", err)
	}
	payloads, clean, reason := ScanFrames(buf)
	for _, p := range payloads {
		rec, err := DecodeRecord(p)
		if err != nil {
			// A frame that passed its CRC but does not decode is a format
			// error, not a torn write: refuse to guess.
			return nil, nil, info, fmt.Errorf("store: wal record %d: %w", info.Replayed, err)
		}
		b.apply(rec)
		info.Replayed++
	}
	// The zero-filled tail is not damage: only bytes up to the last
	// non-zero one count as discarded.
	info.TruncatedBytes = int64(nonZeroEnd(buf[clean:]))
	info.TruncateReason = reason
	if info.TruncatedBytes > 0 {
		// Repair: cut the damage off so new appends extend the clean
		// prefix instead of burying live records behind garbage.
		if err := os.Truncate(wp, int64(clean)); err != nil {
			return nil, nil, info, fmt.Errorf("store: repair wal: %w", err)
		}
	}

	s := &Store{dir: dir, opts: opts, gen: gen, pos: uint64(info.Replayed)}
	if s.wal, err = openWALFile(wp, int64(clean), &s.opts); err != nil {
		return nil, nil, info, fmt.Errorf("store: %w", err)
	}
	if opts.Counters != nil {
		opts.Counters.AddRecovery(info.Replayed, info.TruncatedBytes)
	}
	return s, b.finish(), info, nil
}

// latestGen scans dir for snapshot/WAL generations and returns the
// highest one plus whether it has a snapshot. Snapshot files are written
// via atomic rename, so any snap-*.json present is complete.
func latestGen(dir string) (uint64, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	var gens []uint64
	snaps := make(map[uint64]bool)
	seen := make(map[uint64]bool)
	for _, e := range entries {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d.json", &g); n == 1 && filepath.Ext(e.Name()) == ".json" {
			snaps[g] = true
			if !seen[g] {
				seen[g], gens = true, append(gens, g)
			}
		} else if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &g); n == 1 && filepath.Ext(e.Name()) == ".log" {
			if !seen[g] {
				seen[g], gens = true, append(gens, g)
			}
		}
	}
	if len(gens) == 0 {
		return 0, false, nil
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	g := gens[len(gens)-1]
	return g, snaps[g], nil
}

// SetStateSource installs the callback that captures the full current
// state for checkpoints. It must be set before automatic checkpoints can
// fire; Engine wiring does this in NewDurable.
func (s *Store) SetStateSource(f func() *State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stateSource = f
}

// SetCounters installs (or replaces) the metrics sink. NewDurable uses it
// to point the store at the engine's counters, which do not exist yet
// when the store is opened.
func (s *Store) SetCounters(c Counters) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.Counters = c
}

// SetCrashPoints scripts deterministic kills for the crash-injection
// harness. Points match on the store's lifetime append count.
func (s *Store) SetCrashPoints(pts []CrashPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashPoints = append([]CrashPoint(nil), pts...)
}

// commitReq is one caller's stake in a group commit: its records,
// already encoded and framed, and the completion flag its waiter
// re-checks under s.mu. Requests are pooled; buf and offs keep their
// capacity across uses, which is what keeps the append hot path
// allocation-free in steady state.
type commitReq struct {
	buf   []byte // framed records, concatenated
	offs  []int  // per record: payload start, payload end within buf
	nrecs int
	// deferred marks a request nobody waits for (AppendDeferred): the flush
	// leader that lands it also returns it to the pool.
	deferred bool
	done     bool // written and read only under s.mu
	err      error
}

var commitReqPool = sync.Pool{New: func() any { return new(commitReq) }}

func getCommitReq() *commitReq {
	req := commitReqPool.Get().(*commitReq)
	req.buf = req.buf[:0]
	req.offs = req.offs[:0]
	req.nrecs = 0
	req.deferred = false
	req.done = false
	req.err = nil
	return req
}

// addRecord encodes rec and frames it in place at the tail of the
// request buffer: header space is reserved, the record encodes directly
// after it, and the length/CRC backfill — no intermediate payload copy.
func (req *commitReq) addRecord(rec Record) {
	hdr := len(req.buf)
	req.buf = append(req.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	pstart := len(req.buf)
	req.buf = rec.appendTo(req.buf)
	payload := req.buf[pstart:]
	binary.BigEndian.PutUint32(req.buf[hdr:], uint32(len(payload)))
	binary.BigEndian.PutUint32(req.buf[hdr+4:], crc32.ChecksumIEEE(payload))
	req.offs = append(req.offs, pstart, len(req.buf))
	req.nrecs++
}

// Append frames, writes and (per Options.Fsync) syncs one record. It
// returns only after the bytes are handed to the OS — the caller releases
// the client-visible response afterwards, which is the write-ahead
// discipline. On any failure the store is dead (ErrCrashed) and stays so.
//
// Concurrent callers group-commit: each enqueues its pre-framed record
// and the first to take the store lock becomes the flush leader, landing
// every queued record with one positional write and (when Fsync is on)
// one fdatasync before waking the group. A single-threaded caller forms
// groups of one and behaves exactly like the historical per-record path.
func (s *Store) Append(rec Record) error {
	req := getCommitReq()
	req.addRecord(rec)
	return s.commit(req)
}

// AppendBatch commits a batch of records as one atomic group: one WAL
// frame per record, all landed in order with a single write (and single
// fsync) and no foreign record interleaved between them. Either every
// record is handed to the OS or the batch returns an error and none of
// it may be acknowledged. An empty batch is a no-op.
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	req := getCommitReq()
	for _, rec := range recs {
		req.addRecord(rec)
	}
	return s.commit(req)
}

// AppendDeferred enqueues one record without waiting for it: it lands,
// in enqueue order, with the log's next group commit — the same write,
// fsync, replication batch, crash-point count and fence verdict as the
// records around it — or when Close or Checkpoint drains the queue. It
// is for records nothing client-visible depends on (the ExpireRec a
// handed-off session leaves behind): a crash first simply loses them,
// and their verdict is dropped, because a store that fails them fails
// every later append the same way. The queue holds fewer than
// deferredMax such records; the call that would reach the bound commits
// like Append and returns that group's verdict.
func (s *Store) AppendDeferred(rec Record) error {
	req := getCommitReq()
	req.addRecord(rec)
	s.qmu.Lock()
	deferred := s.ndeferred+1 < deferredMax
	if deferred {
		req.deferred = true
		s.ndeferred++
	}
	s.queue = append(s.queue, req)
	s.qmu.Unlock()
	if deferred {
		return nil // the flush leader owns req from here
	}
	return s.await(req)
}

// commit enqueues req and blocks until a flush leader — possibly this
// caller — completes it.
func (s *Store) commit(req *commitReq) error {
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	s.qmu.Unlock()
	return s.await(req)
}

// await blocks until the enqueued req is complete. Termination
// invariant: a request is either completed or still in the queue, and
// flushQueueLocked always drains the whole queue, so the first pass
// through the loop body either observes done or flushes the queue
// containing req.
func (s *Store) await(req *commitReq) error {
	s.mu.Lock()
	for !req.done {
		s.flushQueueLocked()
	}
	s.mu.Unlock()
	err := req.err
	commitReqPool.Put(req)
	return err
}

// flushQueueLocked is the group-commit leader: it swaps the commit queue
// out and lands the drained requests in GroupMax-record chunks, each one
// write + one sync. Runs with s.mu held.
func (s *Store) flushQueueLocked() {
	if s.opts.GroupWait > 0 && !s.crashed {
		// Hold the group open: appenders keep enqueueing under qmu while
		// the leader sleeps, growing the group this flush will land.
		time.Sleep(s.opts.GroupWait)
	}
	s.qmu.Lock()
	batch := s.queue
	s.queue = s.spareQ[:0]
	s.ndeferred = 0
	s.qmu.Unlock()
	s.spareQ = batch // the two backing arrays rotate; emptied below

	max := s.opts.GroupMax
	if max <= 0 {
		max = DefaultGroupMax
	}
	for start := 0; start < len(batch); {
		end, nrecs := start, 0
		for end < len(batch) && (nrecs == 0 || nrecs+batch[end].nrecs <= max) {
			nrecs += batch[end].nrecs
			end++
		}
		s.flushChunkLocked(batch[start:end], nrecs)
		start = end
	}
	for i, req := range batch {
		if req.deferred {
			commitReqPool.Put(req) // no waiter: its verdict is dropped
		}
		batch[i] = nil // completed; waiters own them again once s.mu drops
	}
}

// drainQueueLocked lands whatever the commit queue still holds — deferred
// records with no commit left to ride — before Close or Checkpoint. Runs
// with s.mu held.
func (s *Store) drainQueueLocked() {
	s.qmu.Lock()
	n := len(s.queue)
	s.qmu.Unlock()
	if n > 0 {
		s.flushQueueLocked()
	}
}

// flushChunkLocked lands one chunk of requests as a single group commit,
// with the same check ordering as the historical per-record Append:
// crashed → fence → crash points → write → fsync → positions → repl sink
// → fence re-check → checkpoint. Every request in the chunk completes
// with the same verdict — the group is atomic to its callers.
func (s *Store) flushChunkLocked(chunk []*commitReq, nrecs int) {
	if s.crashed {
		completeChunk(chunk, ErrCrashed)
		return
	}
	if err := s.fenceCheckLocked(); err != nil {
		s.countExtraFencedLocked(nrecs - 1)
		completeChunk(chunk, err)
		return
	}

	// Gather the chunk into one contiguous group buffer, remembering each
	// record's frame-end offset so a scripted crash can tear mid-group.
	gb := s.groupBuf[:0]
	ends := s.groupEnd[:0]
	ndeferred := 0
	for _, req := range chunk {
		if req.deferred {
			ndeferred += req.nrecs
		}
		base := len(gb)
		gb = append(gb, req.buf...)
		for r := 0; r < req.nrecs; r++ {
			ends = append(ends, base+req.offs[2*r+1])
		}
	}
	s.groupBuf = gb
	s.groupEnd = ends

	// Scripted crash points count lifetime appends record by record, as
	// if the group were individual Appends. A hit kills the whole group:
	// records before the hit land whole, the hit record tears per the
	// script, nothing after it reaches the file — and no waiter in the
	// group acks, because completed-but-unacknowledged durable records
	// replay idempotently while an acknowledged-but-torn one would not.
	for i := 0; i < nrecs; i++ {
		s.appendsEver++
		for _, cp := range s.crashPoints {
			if cp.AfterAppends == s.appendsEver {
				frameStart := 0
				if i > 0 {
					frameStart = ends[i-1]
				}
				s.executeCrashLocked(cp, gb[:ends[i]], frameStart)
				completeChunk(chunk, ErrCrashed)
				return
			}
		}
	}

	if err := s.wal.append(gb); err != nil {
		s.crashed = true
		completeChunk(chunk, fmt.Errorf("%w: %v", ErrCrashed, err))
		return
	}
	var syncNs int64
	if s.opts.Fsync {
		t0 := time.Now()
		if err := s.wal.sync(); err != nil {
			s.crashed = true
			completeChunk(chunk, fmt.Errorf("%w: %v", ErrCrashed, err))
			return
		}
		syncNs = time.Since(t0).Nanoseconds()
	}
	if c := s.opts.Counters; c != nil {
		prev := 0
		for _, end := range ends {
			c.AddWALAppend(end - prev)
			prev = end
		}
		if s.opts.Fsync {
			c.AddWALFsync()
		}
		c.AddWALGroupCommit(nrecs, syncNs)
		if ndeferred > 0 {
			c.AddWALDeferred(ndeferred)
		}
	}
	s.appends += nrecs
	basePos := s.pos
	s.pos += uint64(nrecs)

	if s.replSink != nil {
		// The frames' payloads must outlive the pooled request buffers —
		// async followers retain them until the next pump — so the group
		// gets one fresh payload allocation, sliced per record.
		data := make([]byte, 0, payloadBytes(chunk))
		frames := make([]ReplFrame, 0, nrecs)
		pos := basePos
		for _, req := range chunk {
			for r := 0; r < req.nrecs; r++ {
				pstart, pend := req.offs[2*r], req.offs[2*r+1]
				off := len(data)
				data = append(data, req.buf[pstart:pend]...)
				pos++
				frames = append(frames, ReplFrame{
					Type: ReplRecord, Term: s.term, Gen: s.gen, Pos: pos,
					Payload: data[off:len(data):len(data)],
				})
			}
		}
		s.replSink(frames)
	}
	// Re-validate the term now that the sink has run. A promotion that
	// completed between the pre-write check and the sink call (Promote
	// holds only the replicator's lock, not ours) has already reset every
	// follower for resync — the frames the sink just delivered were
	// dropped, so acknowledging this group would lose it. The records
	// exist only in this deposed primary's own WAL: duplicates if the
	// log ever rejoins, never a loss. The sink runs under the
	// replicator's lock and the term bumps before Promote takes it, so
	// if the frames were dropped the newer term is visible here.
	if err := s.fenceCheckLocked(); err != nil {
		s.countExtraFencedLocked(nrecs - 1)
		completeChunk(chunk, err)
		return
	}
	if s.opts.SnapshotEvery > 0 && s.appends >= s.opts.SnapshotEvery && s.stateSource != nil {
		if err := s.checkpointLocked(s.stateSource()); err != nil {
			completeChunk(chunk, err)
			return
		}
	}
	completeChunk(chunk, nil)
}

// completeChunk hands every request in the chunk its verdict; the
// waiters observe done under s.mu once the leader releases it.
func completeChunk(chunk []*commitReq, err error) {
	for _, req := range chunk {
		req.err = err
		req.done = true
	}
}

// payloadBytes is the chunk's total un-framed record payload size.
func payloadBytes(chunk []*commitReq) int {
	n := 0
	for _, req := range chunk {
		n += len(req.buf) - req.nrecs*frameHeader
	}
	return n
}

// countExtraFencedLocked books the fenced-write counter for the records
// of a fenced group beyond the one fenceCheckLocked already counted.
func (s *Store) countExtraFencedLocked(n int) {
	if s.opts.Counters == nil {
		return
	}
	for i := 0; i < n; i++ {
		s.opts.Counters.AddFencedWrite()
	}
}

// fenceCheckLocked rejects the write with ErrFenced when the shared
// term source reports a term newer than this store's own — a follower
// was promoted and this store is a deposed primary.
func (s *Store) fenceCheckLocked() error {
	if s.termSource == nil {
		return nil
	}
	if cur := s.termSource(); cur > s.term {
		if s.opts.Counters != nil {
			s.opts.Counters.AddFencedWrite()
		}
		return fmt.Errorf("%w (own term %d, current %d)", ErrFenced, s.term, cur)
	}
	return nil
}

// executeCrashLocked applies a scripted kill to a group at the log end:
// every byte of group before frameStart (the earlier records of the
// group) lands whole, then a torn prefix of the final frame, optional
// trailing garbage, an optional bit flip, then death.
func (s *Store) executeCrashLocked(cp CrashPoint, group []byte, frameStart int) {
	tear := cp.TearBytes
	if frame := group[frameStart:]; tear > len(frame) {
		tear = len(frame)
	}
	if frameStart+tear > 0 {
		s.wal.append(group[:frameStart+tear])
	}
	if len(cp.Garbage) > 0 {
		s.wal.append(cp.Garbage)
	}
	s.wal.sync()
	if cp.FlipBit >= 0 {
		s.wal.flipBit(cp.FlipBit)
	}
	s.crashed = true
	s.wal.close()
}

// Checkpoint writes a full snapshot of the current state (from the
// installed state source) and rotates the WAL. Use at clean shutdown and
// for explicit durability points.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.stateSource == nil {
		return errors.New("store: no state source installed")
	}
	// Deferred records belong to the generation they were enqueued in.
	s.drainQueueLocked()
	if s.crashed {
		return ErrCrashed
	}
	return s.checkpointLocked(s.stateSource())
}

// checkpointLocked writes snap-(gen+1) via temp-file + atomic rename,
// switches appends to wal-(gen+1), then deletes the old generation. A
// crash anywhere in between recovers correctly: until the rename lands,
// the old snapshot + old WAL (still intact) are authoritative; after it,
// the new snapshot is, with or without its WAL file.
func (s *Store) checkpointLocked(state *State) error {
	next := s.gen + 1
	tmp := snapPath(s.dir, next) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		s.crashed = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	if err := writeSnapshot(f, state); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(tmp)
		s.crashed = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		s.crashed = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	if err := f.Close(); err != nil {
		s.crashed = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	if err := os.Rename(tmp, snapPath(s.dir, next)); err != nil {
		s.crashed = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	syncDir(s.dir)

	wal, err := createWALFile(walPath(s.dir, next), &s.opts)
	if err != nil {
		s.crashed = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	s.wal.close()
	os.Remove(walPath(s.dir, s.gen))
	os.Remove(snapPath(s.dir, s.gen))
	syncDir(s.dir)
	s.wal = wal
	s.gen = next
	s.appends = 0
	if s.opts.Counters != nil {
		s.opts.Counters.AddSnapshot()
	}
	if s.replSink != nil {
		// Followers rotate to the new generation through a snapshot frame;
		// a follower that misses it detects the gap and resyncs.
		s.replSink([]ReplFrame{{Type: ReplSnapshot, Term: s.term, Gen: s.gen, Pos: s.pos, Payload: EncodeState(state)}})
	}
	return nil
}

// Kill simulates abrupt process death for the crash harness: the WAL
// file descriptor is closed as-is — no checkpoint, no flush beyond what
// individual appends already wrote — and every later operation fails.
func (s *Store) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return
	}
	s.crashed = true
	s.wal.close()
}

// Close checkpoints nothing (call Checkpoint first for a clean-shutdown
// snapshot) but lands any deferred records still queued, then syncs and
// closes the WAL.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainQueueLocked()
	if s.crashed {
		return nil
	}
	s.crashed = true
	if s.opts.Fsync {
		s.wal.sync()
	}
	return s.wal.close()
}

// WALPath returns the active WAL file path (for the crash harness's
// tail-mangling injectors).
func (s *Store) WALPath() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return walPath(s.dir, s.gen)
}

// Gen returns the current generation number.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Pos returns the lifetime record position: how many records this store
// has ever appended (plus those replayed at Open). The replication
// stream stamps every record frame with it.
func (s *Store) Pos() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// Crashed reports whether the store is dead (killed, crash point, or
// write failure).
func (s *Store) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// SetTerm installs this store's own fencing term (the term it was
// promoted or booted under).
func (s *Store) SetTerm(t uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term = t
}

// Term returns this store's own fencing term.
func (s *Store) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// SetTermSource installs the shared current-term reader. Once the
// source reports a term newer than this store's own, every Append is
// rejected with ErrFenced — the deposed-primary fence. The source is
// called with s.mu held and must not call back into the store.
func (s *Store) SetTermSource(f func() uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.termSource = f
}

// SetReplSink installs the replication stream hook: one batch of
// ReplRecord frames per group commit (in append order) and a one-frame
// batch per checkpoint snapshot. The sink runs with s.mu held — before
// any append in the group can release its response — so every
// acknowledged write is in the stream. It must not call back into the
// store. Frame payloads are freshly allocated per group and may be
// retained by the sink.
func (s *Store) SetReplSink(f func([]ReplFrame)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replSink = f
}

// Bootstrap captures the current full state as a ReplSnapshot frame and
// hands it to fn while holding the store lock: no record can be
// appended between the capture and fn's return, so a follower installed
// inside fn (and subscribed through the repl sink) misses nothing. The
// state source must be installed first.
func (s *Store) Bootstrap(fn func(ReplFrame) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.stateSource == nil {
		return errors.New("store: no state source installed")
	}
	return fn(ReplFrame{
		Type: ReplSnapshot, Term: s.term, Gen: s.gen, Pos: s.pos,
		Payload: EncodeState(s.stateSource()),
	})
}

// syncDir fsyncs a directory so renames and creates survive a power cut.
// Errors are ignored: some filesystems refuse directory fsync, and the
// fallback behaviour (rely on the next sync) is still correct for the
// process-crash model the tests exercise.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
