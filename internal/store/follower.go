package store

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"github.com/sabre-geo/sabre/internal/metrics"
)

// Follower-side replication: a FollowerLog mirrors a primary store's
// snapshot + WAL generation on its own directory, applying the frames
// the primary's repl sink emits. The on-disk layout is the primary's
// (snap-<gen>.json plus wal-<gen>.log of ordinary WAL frames ahead of a
// zero-filled tail, synced with fdatasync), so promotion is simply Seal
// followed by Open — the existing recovery path rebuilds the full engine
// state from the follower's disk in bounded time. Alongside the disk
// mirror the follower keeps a warm Applier so its current state is
// inspectable without a replay.
//
// Apply rules (the stream's safety argument):
//   - a frame whose term is older than the newest term seen is rejected
//     (a deposed primary cannot rewrite a promoted log);
//   - a record must decode (DecodeRecord) before one byte of it reaches
//     the follower's WAL — a corrupt record is never applied;
//   - positions must advance exactly one at a time within a generation;
//     a gap or a generation the follower never saw a snapshot for
//     reports ErrNeedSnapshot and the primary resyncs it;
//   - duplicates (position at or below the applied one) are skipped,
//     not errors, so a resync overlapping buffered frames is harmless.

// ErrSealed is returned by Apply after Seal: the log was promoted (or
// retired) and must not advance further.
var ErrSealed = errors.New("store: follower log sealed")

// ErrNeedSnapshot reports a stream gap the follower cannot bridge from
// record frames alone; the primary must send a fresh snapshot frame.
var ErrNeedSnapshot = errors.New("store: follower needs snapshot resync")

// FollowerLog is one follower's durable mirror of a primary store.
type FollowerLog struct {
	dir  string
	opts Options
	// met books the follower WAL's zero-fill growths; followers report
	// no counters, so nothing reads it.
	met metrics.Server

	mu      sync.Mutex
	synced  bool // a snapshot frame has seeded the log
	sealed  bool
	gen     uint64
	pos     uint64
	term    uint64
	wal     *walFile
	applier *Applier
	applied uint64 // records applied over the log's lifetime

	// ApplyBatch scratch, reused across batches under mu: the coalesced
	// frame buffer for one run and the decoded records awaiting apply.
	batchBuf  []byte
	batchRecs []Record
}

// OpenFollower creates a fresh follower log under dir, wiping anything
// a previous incarnation left there: a follower always bootstraps from
// a snapshot frame, never from stale disk.
func OpenFollower(dir string, opts Options) (*FollowerLog, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("store: follower: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: follower: %w", err)
	}
	return &FollowerLog{dir: dir, opts: opts}, nil
}

// Dir returns the follower's directory (the promotion target for Open).
func (l *FollowerLog) Dir() string { return l.dir }

// Pos returns the last applied record position — the follower's
// acknowledged position for lag accounting.
func (l *FollowerLog) Pos() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pos
}

// Gen returns the generation the follower currently mirrors.
func (l *FollowerLog) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// Term returns the newest fencing term the follower has seen.
func (l *FollowerLog) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// Applied returns how many record frames the follower has applied over
// its lifetime.
func (l *FollowerLog) Applied() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied
}

// Synced reports whether a snapshot frame has seeded the log.
func (l *FollowerLog) Synced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// State materializes the follower's warm state (nil before the first
// snapshot frame).
func (l *FollowerLog) State() *State {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.applier == nil {
		return nil
	}
	return l.applier.State()
}

// Apply folds one replication frame: an ApplyBatch of one. The bool
// reports whether the frame advanced the log (false for skipped
// duplicates, heartbeats and failures).
func (l *FollowerLog) Apply(f ReplFrame) (bool, error) {
	records, snapshots, err := l.ApplyBatch([]ReplFrame{f})
	return records+snapshots > 0, err
}

// ApplyBatch folds a batch of replication frames in order, coalescing
// every run of consecutive applicable record frames into a single WAL
// write and (per Options.Fsync) a single fdatasync — the follower half of
// the primary's group commit. Records decode before any byte reaches the
// WAL, duplicates are skipped, gaps demand a snapshot. On error the
// valid prefix before the failing frame has been applied and the first
// failure is reported — the caller resyncs. It returns how many record
// frames and snapshot frames advanced the log.
func (l *FollowerLog) ApplyBatch(frames []ReplFrame) (records, snapshots int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return 0, 0, ErrSealed
	}
	buf := l.batchBuf[:0]
	recs := l.batchRecs[:0]
	vpos := l.pos // position at the end of the pending run
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		if werr := l.wal.append(buf); werr != nil {
			return fmt.Errorf("store: follower wal: %w", werr)
		}
		if l.opts.Fsync {
			if serr := l.wal.sync(); serr != nil {
				return fmt.Errorf("store: follower wal: %w", serr)
			}
		}
		for _, rec := range recs {
			l.applier.Apply(rec)
		}
		l.applied += uint64(len(recs))
		l.pos = vpos
		records += len(recs)
		buf, recs = buf[:0], recs[:0]
		return nil
	}
loop:
	for _, f := range frames {
		if f.Term < l.term {
			err = fmt.Errorf("%w: frame term %d below %d", ErrBadReplFrame, f.Term, l.term)
			break
		}
		l.term = f.Term
		switch f.Type {
		case ReplHeartbeat:
			// Term refreshed above; a heartbeat does not break a run.
		case ReplSnapshot:
			if err = flush(); err != nil {
				break loop
			}
			if err = l.installSnapshotLocked(f); err != nil {
				break loop
			}
			snapshots++
			vpos = l.pos
		case ReplRecord:
			if !l.synced {
				err = ErrNeedSnapshot
				break loop
			}
			if f.Gen < l.gen || f.Pos <= vpos {
				continue // duplicate from before a resync or rotation
			}
			if f.Gen > l.gen {
				err = fmt.Errorf("%w: record for gen %d, follower at %d", ErrNeedSnapshot, f.Gen, l.gen)
				break loop
			}
			if f.Pos != vpos+1 {
				err = fmt.Errorf("%w: record position %d, follower at %d", ErrNeedSnapshot, f.Pos, vpos)
				break loop
			}
			rec, derr := DecodeRecord(f.Payload)
			if derr != nil {
				err = fmt.Errorf("%w: record does not decode: %v", ErrBadReplFrame, derr)
				break loop
			}
			buf = AppendFrame(buf, f.Payload)
			recs = append(recs, rec)
			vpos = f.Pos
		default:
			err = fmt.Errorf("%w: unknown type %d", ErrBadReplFrame, f.Type)
			break loop
		}
	}
	if ferr := flush(); ferr != nil && err == nil {
		err = ferr
	}
	for i := range recs {
		recs[i] = nil // drop record references; the backing array is kept
	}
	l.batchBuf, l.batchRecs = buf[:0], recs[:0]
	return records, snapshots, err
}

// installSnapshotLocked replaces the follower's disk with generation
// f.Gen: snapshot written via tmp+rename, a fresh (empty) WAL, the
// previous generation's files removed, and the warm applier reseeded.
func (l *FollowerLog) installSnapshotLocked(f ReplFrame) error {
	state, err := DecodeState(f.Payload)
	if err != nil {
		return fmt.Errorf("store: follower snapshot: %w", err)
	}
	tmp := snapPath(l.dir, f.Gen) + ".tmp"
	sf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: follower snapshot: %w", err)
	}
	if err := writeSnapshot(sf, state); err == nil {
		err = sf.Sync()
	}
	if err != nil {
		sf.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: follower snapshot: %w", err)
	}
	if err := sf.Close(); err != nil {
		return fmt.Errorf("store: follower snapshot: %w", err)
	}
	if err := os.Rename(tmp, snapPath(l.dir, f.Gen)); err != nil {
		return fmt.Errorf("store: follower snapshot: %w", err)
	}
	syncDir(l.dir)
	wal, err := createWALFile(walPath(l.dir, f.Gen), &l.opts, &l.met)
	if err != nil {
		return fmt.Errorf("store: follower wal: %w", err)
	}
	if l.wal != nil {
		l.wal.close()
		if l.gen != f.Gen {
			os.Remove(walPath(l.dir, l.gen))
			os.Remove(snapPath(l.dir, l.gen))
			syncDir(l.dir)
		}
	}
	l.wal = wal
	l.gen = f.Gen
	l.pos = f.Pos
	l.applier = NewApplier(state, l.opts.PendingCap)
	l.synced = true
	return nil
}

// Seal syncs and closes the follower's WAL and refuses every further
// Apply. Promotion seals first, then Opens the directory — the ordinary
// recovery path — so the promoted store sees a quiescent log.
func (l *FollowerLog) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		return nil
	}
	l.sealed = true
	if l.wal == nil {
		return nil
	}
	if err := l.wal.sync(); err != nil {
		l.wal.close()
		return fmt.Errorf("store: follower seal: %w", err)
	}
	return l.wal.close()
}

// Reopen reverses Seal for a promotion attempt that failed after the
// log was sealed and removed from the fan-out: the WAL reopens for
// appends at its log end and Apply resumes, so the log can rejoin the
// follower set and a later promotion can retry from it. The directory
// must still be intact (Reopen after Close is an error).
func (l *FollowerLog) Reopen() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.sealed {
		return nil
	}
	if l.synced {
		wal, err := openWALFile(walPath(l.dir, l.gen), l.wal.end, &l.opts, &l.met)
		if err != nil {
			return fmt.Errorf("store: follower reopen: %w", err)
		}
		l.wal = wal
	}
	l.sealed = false
	return nil
}

// Close discards the follower: seals the log and removes its directory.
func (l *FollowerLog) Close() error {
	if err := l.Seal(); err != nil {
		return err
	}
	return os.RemoveAll(l.dir)
}
