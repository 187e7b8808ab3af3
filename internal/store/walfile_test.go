package store

import (
	"os"
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/wire"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// readLog returns the decoded records of the WAL at path and checks its
// layout: the frames, then zeros only — no zero hole between records,
// nothing after the log end.
func readLog(t *testing.T, path string) []Record {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads, end, reason := ScanFrames(buf)
	if reason != "" {
		t.Fatalf("%s: %s", path, reason)
	}
	if nz := nonZeroEnd(buf); nz > end {
		t.Fatalf("%s: non-zero byte at %d past the log end %d", path, nz-1, end)
	}
	var recs []Record
	for _, p := range payloads {
		rec, err := DecodeRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestWALAppendsInPlace: once the first append has zero-filled the
// file, later appends overwrite that region and the file size does not
// move — the property that lets a commit sync data only.
func TestWALAppendsInPlace(t *testing.T) {
	s, _, _ := openStore(t, t.TempDir(), Options{Fsync: true})
	defer s.Close()
	recs := sampleRecords()
	if err := s.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	size := fileSize(t, s.WALPath())
	for _, rec := range recs[1:] {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, s.WALPath()); got != size {
			t.Fatalf("append grew the file from %d to %d bytes", size, got)
		}
	}
	if got := readLog(t, s.WALPath()); !reflect.DeepEqual(got, recs) {
		t.Fatalf("log holds %+v, want %+v", got, recs)
	}
}

// TestWALReopenCycles: each Open continues at the log end, not at the
// end of the zero-filled file, so three open → append → close cycles
// leave one contiguous log that replays every record in order.
func TestWALReopenCycles(t *testing.T) {
	dir := t.TempDir()
	var want []Record
	for cycle := 0; cycle < 3; cycle++ {
		s, _, info := openStore(t, dir, Options{Fsync: true})
		if info.Replayed != len(want) || info.TruncatedBytes != 0 {
			t.Fatalf("cycle %d: recovery info = %+v, want %d clean records", cycle, info, len(want))
		}
		for i := 0; i < 4; i++ {
			rec := FiredRec{User: uint64(cycle + 1), Alarms: []uint64{uint64(i)}}
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := readLog(t, walPath(dir, 0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: log holds %+v, want %+v", cycle, got, want)
		}
	}
}

// TestWALTornFrameBeforeZeros: a frame torn inside the zero-filled
// region is followed by zeros, and recovery counts only the torn bytes
// it discards — up to the last non-zero one — never the tail.
func TestWALTornFrameBeforeZeros(t *testing.T) {
	recs := sampleRecords()
	frame := Frame(EncodeRecord(recs[2]))
	for tear := 1; tear < len(frame); tear++ {
		dir := t.TempDir()
		s, _, _ := openStore(t, dir, Options{})
		s.SetCrashPoints([]CrashPoint{{AfterAppends: 3, TearBytes: tear, FlipBit: -1}})
		for _, rec := range recs[:3] {
			s.Append(rec)
		}
		if !s.Crashed() {
			t.Fatalf("tear %d: the crash point did not fire", tear)
		}
		logEnd := int64(len(Frame(EncodeRecord(recs[0])))+len(Frame(EncodeRecord(recs[1])))) + int64(tear)
		if size := fileSize(t, walPath(dir, 0)); size <= logEnd {
			t.Fatalf("tear %d: file is %d bytes, want zeros after the torn frame's %d", tear, size, logEnd)
		}
		_, _, info := openStore(t, dir, Options{})
		if info.Replayed != 2 {
			t.Fatalf("tear %d: replayed %d, want 2", tear, info.Replayed)
		}
		if want := int64(nonZeroEnd(frame[:tear])); info.TruncatedBytes != want {
			t.Fatalf("tear %d: truncated %d bytes, want the %d torn ones", tear, info.TruncatedBytes, want)
		}
	}
}

// TestWALCrashPointFlipsAtLogEnd: FlipBit counts back from the log end,
// not from the end of the zero-filled file, so bit 0 corrupts the final
// record and recovery drops exactly that frame.
func TestWALCrashPointFlipsAtLogEnd(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openStore(t, dir, Options{})
	s.SetCrashPoints([]CrashPoint{{AfterAppends: 2, TearBytes: 1 << 20, FlipBit: 0}})
	recs := sampleRecords()
	s.Append(recs[0])
	if err := s.Append(recs[1]); err == nil {
		t.Fatal("the crash point did not fire")
	}
	_, _, info := openStore(t, dir, Options{})
	if want := int64(len(Frame(EncodeRecord(recs[1])))); info.Replayed != 1 || info.TruncatedBytes != want {
		t.Fatalf("recovery info = %+v, want 1 replayed and the %d-byte flipped frame cut", info, want)
	}
}

// TestWALPreallocCounted: the first append zero-fills one minimum chunk,
// the appends inside it grow nothing, the append that crosses that
// chunk's end grows the file by one more, and the zeros are neither WAL
// bytes nor fsyncs.
func TestWALPreallocCounted(t *testing.T) {
	s, met := openCounted(t, t.TempDir(), Options{Fsync: true})
	defer s.Close()
	big := make([]uint64, 1000) // an 8 KB record
	appendBig := func() {
		if err := s.Append(FiredRec{User: 1, Alarms: big}); err != nil {
			t.Fatal(err)
		}
	}
	appendBig()
	if got := met.WALPreallocBytes.Load(); got != walChunkMin {
		t.Fatalf("first append grew %d bytes, want one chunk of %d", got, walChunkMin)
	}
	for met.WALBytes.Load() <= walChunkMin {
		appendBig()
		if got, logged := met.WALPreallocBytes.Load(), met.WALBytes.Load(); logged <= walChunkMin && got != walChunkMin {
			t.Fatalf("an append inside the first chunk grew the file to %d zero bytes", got)
		}
	}
	if got := met.WALPreallocBytes.Load(); got != 2*walChunkMin {
		t.Fatalf("after the append crossing the chunk: %d zero bytes, want %d", got, 2*walChunkMin)
	}
	if met.WALPreallocNs.Load() <= 0 {
		t.Fatal("fsynced growths booked no time")
	}
	if size := fileSize(t, s.WALPath()); size != 2*walChunkMin {
		t.Fatalf("file is %d bytes, want %d", size, 2*walChunkMin)
	}
	if met.WALFsyncs.Load() != met.WALGroupCommits.Load() {
		t.Fatalf("fsyncs = %d for %d group commits: a growth counted as one", met.WALFsyncs.Load(), met.WALGroupCommits.Load())
	}
}

// TestWALPromotionContinuesAtLogEnd: a sealed follower's log, whether
// promoted (Open, then Append) or reopened (Reopen, then Apply), takes
// new records at its log end, and a final recovery replays all of them.
func TestWALPromotionContinuesAtLogEnd(t *testing.T) {
	frames := replSeedFrames()
	next := ReplFrame{Type: ReplRecord, Term: 2, Gen: 3, Pos: 8, Payload: EncodeRecord(RegisterRec{User: 9, Strategy: wire.StrategyMWPSR})}
	want := []Record{mustDecode(t, frames[1].Payload), mustDecode(t, frames[2].Payload), mustDecode(t, next.Payload)}
	sealed := func(t *testing.T) *FollowerLog {
		l, err := OpenFollower(t.TempDir(), Options{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if _, err := l.Apply(fr); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
		return l
	}

	t.Run("promoted", func(t *testing.T) {
		l := sealed(t)
		s, _, info := openStore(t, l.Dir(), Options{Fsync: true})
		if info.Replayed != 2 || info.TruncatedBytes != 0 {
			t.Fatalf("promotion recovery = %+v", info)
		}
		if err := s.Append(want[2]); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if got := readLog(t, walPath(l.Dir(), 3)); !reflect.DeepEqual(got, want) {
			t.Fatalf("log holds %+v, want %+v", got, want)
		}
	})
	t.Run("reopened", func(t *testing.T) {
		l := sealed(t)
		if err := l.Reopen(); err != nil {
			t.Fatal(err)
		}
		if adv, err := l.Apply(next); err != nil || !adv {
			t.Fatalf("apply after reopen: adv=%v err=%v", adv, err)
		}
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
		if got := readLog(t, walPath(l.Dir(), 3)); !reflect.DeepEqual(got, want) {
			t.Fatalf("log holds %+v, want %+v", got, want)
		}
		_, _, info := openStore(t, l.Dir(), Options{})
		if info.Replayed != 3 {
			t.Fatalf("replayed %d, want 3", info.Replayed)
		}
	})
}

func mustDecode(t *testing.T, payload []byte) Record {
	t.Helper()
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
