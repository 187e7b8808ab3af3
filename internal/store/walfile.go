package store

import (
	"fmt"
	"os"
	"time"

	"github.com/sabre-geo/sabre/internal/metrics"
)

// Preallocation policy for a WAL generation. The file grows by a
// zero-filled step ahead of the log end; the step is the file's current
// size clamped to [walChunkMin, walChunkMax], so a log doubles from
// 64 KiB and then grows 4 MiB at a time. Constants, not options: they
// only trade the size of a small log against how often a busy one pays
// a metadata sync.
const (
	walChunkMin = 64 << 10
	walChunkMax = 4 << 20
)

// zeroBlock is the source of every zero-fill write.
var zeroBlock [walChunkMin]byte

// walFile is one WAL generation on disk: a zero-filled region that
// appends overwrite in place. Bytes [0, end) hold the log's frames and
// bytes [end, zero) are zeros written ahead of it, so an append changes
// neither the file size nor its block map, and its commit is a
// data-only sync. A zero frame header marks where the log ends (§8 of
// DESIGN.md); no record encodes empty, so no frame starts with one.
type walFile struct {
	f    *os.File
	end  int64 // log end: the next frame lands here
	zero int64 // zero-filled end, the file size
	opts *Options
	met  *metrics.Server // books each growth of the zero-filled region
}

// createWALFile starts an empty generation at path, discarding any file
// already there.
func createWALFile(path string, opts *Options, met *metrics.Server) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &walFile{f: f, opts: opts, met: met}, nil
}

// openWALFile reopens the generation at path to continue at log end end.
// Every byte from end to EOF must be zero: recovery truncates a damaged
// tail before it reopens.
func openWALFile(path string, end int64, opts *Options, met *metrics.Server) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walFile{f: f, end: end, zero: fi.Size(), opts: opts, met: met}, nil
}

// append lands b at the log end with one positional write, first growing
// the zero-filled region when b would cross its end.
func (w *walFile) append(b []byte) error {
	if need := w.end + int64(len(b)); need > w.zero {
		if err := w.grow(need); err != nil {
			return err
		}
	}
	if _, err := w.f.WriteAt(b, w.end); err != nil {
		return err
	}
	w.end += int64(len(b))
	return nil
}

// grow zero-fills the file past need by whole steps. With Fsync the
// growth is synced in full — it changes the file size — and it is the
// only sync of the log that journals metadata. Its time is reported
// only then, as a group's sync time is.
func (w *walFile) grow(need int64) error {
	t0 := time.Now()
	step := min(max(w.zero, walChunkMin), walChunkMax)
	target := w.zero + step
	for target < need {
		target += step
	}
	for off := w.zero; off < target; {
		n := min(target-off, int64(len(zeroBlock)))
		if _, err := w.f.WriteAt(zeroBlock[:n], off); err != nil {
			return err
		}
		off += n
	}
	var ns int64
	if w.opts.Fsync {
		if err := w.f.Sync(); err != nil {
			return err
		}
		ns = time.Since(t0).Nanoseconds()
	}
	// The zeros are not WALBytes and their sync is not a WALFsyncs.
	w.met.WALPreallocBytes.Add(uint64(target - w.zero))
	w.met.WALPreallocNs.Add(ns)
	w.zero = target
	return nil
}

// sync makes the appended frames durable. Appends only overwrite blocks
// the zero fill already wrote, so a data-only sync covers them.
func (w *walFile) sync() error { return fdatasync(w.f) }

func (w *walFile) close() error { return w.f.Close() }

// flipBit flips one bit addressed backwards from the log end (0 = the
// lowest bit of the final log byte), for CrashPoint scripting.
func (w *walFile) flipBit(bit int64) error {
	off := w.end - 1 - bit/8
	if off < 0 {
		return fmt.Errorf("store: flip bit %d out of range (log %d bytes)", bit, w.end)
	}
	var b [1]byte
	if _, err := w.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	_, err := w.f.WriteAt(b[:], off)
	return err
}
