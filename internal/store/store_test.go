package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/wire"
)

func sampleRecords() []Record {
	return []Record{
		InstallRec{Alarm: alarm.Alarm{
			ID: 1, Scope: alarm.Public, Owner: 3, Region: geom.R(10, 10, 20, 20),
		}},
		InstallRec{Alarm: alarm.Alarm{
			ID: 2, Scope: alarm.Shared, Owner: 4, Subscribers: []alarm.UserID{4, 9},
			Region: geom.R(-5, -5, 0, 0), Target: 9, Topic: "traffic/85N",
		}},
		RemoveRec{ID: 2},
		RegisterRec{User: 7, Strategy: wire.StrategySafePeriod, MaxHeight: 6},
		HelloRec{User: 8, Token: 0xFEEDC0FFEE, Strategy: wire.StrategyPBSR, MaxHeight: 4},
		FiredRec{User: 8, Alarms: []uint64{1, 5, 9}},
		FiredRec{User: 8, Alarms: nil},
		FiredAckRec{User: 8, Alarms: []uint64{1}},
		EpochRec{Epoch: 12},
		// ExpireRec must stay last: TestStoreTornTailRecovery tears the
		// final record and asserts user 8 survives the tear.
		ExpireRec{User: 8},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		enc := EncodeRecord(rec)
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", rec, err)
		}
		if !bytes.Equal(EncodeRecord(dec), enc) {
			t.Fatalf("%T: re-encode differs", rec)
		}
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"unknown tag":      {99, 0, 0},
		"truncated body":   EncodeRecord(RemoveRec{ID: 5})[:4],
		"trailing bytes":   append(EncodeRecord(ExpireRec{User: 1}), 0xFF),
		"oversized count":  {recFired, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		"oversized string": {recInstall, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, payload := range cases {
		if _, err := DecodeRecord(payload); err == nil {
			t.Errorf("%s: decode accepted bad payload", name)
		}
	}
}

func TestScanFramesTornTail(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for _, rec := range recs {
		buf = append(buf, Frame(EncodeRecord(rec))...)
	}
	whole := len(buf)

	payloads, clean, reason := ScanFrames(buf)
	if len(payloads) != len(recs) || clean != whole || reason != "" {
		t.Fatalf("clean log: got %d payloads, clean=%d, reason=%q", len(payloads), clean, reason)
	}

	// Every strict prefix of the final frame scans to the same clean point.
	lastStart, lastLen := lastFrame(buf)
	if lastStart+lastLen != whole {
		t.Fatalf("lastFrame = (%d,%d), want end %d", lastStart, lastLen, whole)
	}
	for cut := lastStart; cut < whole; cut++ {
		payloads, clean, reason = ScanFrames(buf[:cut])
		if len(payloads) != len(recs)-1 || clean != lastStart {
			t.Fatalf("cut=%d: got %d payloads, clean=%d, reason=%q", cut, len(payloads), clean, reason)
		}
		// A cut inside the header's leading zero bytes leaves a partial
		// zero header: the start of the zero tail, not damage.
		if torn := nonZeroEnd(buf[lastStart:cut]) > 0; torn != (reason != "") {
			t.Fatalf("cut=%d: torn=%v but stop reason %q", cut, torn, reason)
		}
	}

	// A flipped bit in the final frame invalidates only that frame.
	flipped := append([]byte(nil), buf...)
	flipped[lastStart+frameHeader] ^= 0x10
	payloads, clean, _ = ScanFrames(flipped)
	if len(payloads) != len(recs)-1 || clean != lastStart {
		t.Fatalf("flipped CRC: got %d payloads, clean=%d", len(payloads), clean)
	}

	// Zeros after the log are the preallocated tail; anything non-zero
	// after a zero header is damage, and the log ends at that header.
	tail := append(append([]byte(nil), buf...), make([]byte, 100)...)
	payloads, clean, reason = ScanFrames(tail)
	if len(payloads) != len(recs) || clean != whole || reason != "" {
		t.Fatalf("log + zeros: got %d payloads, clean=%d, reason=%q", len(payloads), clean, reason)
	}
	tail[len(tail)-1] = 7
	payloads, clean, reason = ScanFrames(tail)
	if len(payloads) != len(recs) || clean != whole || reason == "" {
		t.Fatalf("log + zeros + junk: got %d payloads, clean=%d, reason=%q", len(payloads), clean, reason)
	}
}

func openStore(t *testing.T, dir string, opts Options) (*Store, *State, RecoveryInfo) {
	t.Helper()
	s, state, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, state, info
}

func TestStoreReplay(t *testing.T) {
	dir := t.TempDir()
	s, state, info := openStore(t, dir, Options{Fsync: true})
	if info.Replayed != 0 || info.FromSnapshot || len(state.Clients) != 0 {
		t.Fatalf("fresh dir: info=%+v", info)
	}
	for _, rec := range sampleRecords() {
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()

	_, state, info = openStore(t, dir, Options{})
	if info.Replayed != len(sampleRecords()) || info.TruncatedBytes != 0 {
		t.Fatalf("recovery info = %+v", info)
	}
	// After the sample sequence: alarm 1 alive (2 removed), user 7
	// registered, user 8 expired, fired pairs persist.
	if len(state.Alarms) != 1 || state.Alarms[0].ID != 1 {
		t.Fatalf("alarms = %+v", state.Alarms)
	}
	if state.NextAlarmID != 3 {
		t.Fatalf("nextAlarmID = %d", state.NextAlarmID)
	}
	if len(state.Clients) != 1 || state.Clients[0].User != 7 {
		t.Fatalf("clients = %+v", state.Clients)
	}
	if len(state.Sessions) != 0 {
		t.Fatalf("sessions = %+v (user 8 expired)", state.Sessions)
	}
	want := []alarm.FiredPair{{Alarm: 1, User: 8}, {Alarm: 5, User: 8}, {Alarm: 9, User: 8}}
	if !reflect.DeepEqual(state.Fired, want) {
		t.Fatalf("fired = %+v", state.Fired)
	}
}

func TestStoreCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openStore(t, dir, Options{SnapshotEvery: 4})
	// State source reflecting what the log built so far, as the engine's
	// DurableState does.
	b := newBuilder(nil, 0)
	s.SetStateSource(func() *State { return b.finish() })
	for i, rec := range sampleRecords() {
		b.apply(rec)
		if err := s.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if g := s.Gen(); g != 2 {
		t.Fatalf("gen = %d, want 2 (10 appends / snapshot every 4)", g)
	}
	// Old generations are gone.
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v, want exactly one snapshot + one wal", names)
	}
	s.Close()

	_, state, info := openStore(t, dir, Options{})
	if !info.FromSnapshot || info.Gen != 2 || info.Replayed != 2 {
		t.Fatalf("recovery info = %+v", info)
	}
	if !reflect.DeepEqual(state, b.finish()) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", state, b.finish())
	}
}

func TestStoreIdempotentReplay(t *testing.T) {
	// A snapshot can capture state that already includes a mutation whose
	// record then lands in the NEW wal (append raced the checkpoint):
	// replaying the record over the snapshot must be a no-op.
	recs := sampleRecords()
	b := newBuilder(nil, 0)
	for _, rec := range recs {
		b.apply(rec)
	}
	once := b.finish()
	b2 := newBuilder(once, 0)
	for _, rec := range recs {
		b2.apply(rec) // replay everything again over the final state
	}
	if got := b2.finish(); !reflect.DeepEqual(got, once) {
		t.Fatalf("replay not idempotent:\n got %+v\nwant %+v", got, once)
	}
}

func TestStoreTornTailRecovery(t *testing.T) {
	for _, mode := range []TearMode{TearTruncate, TearGarbage, TearFlipBit} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, _, _ := openStore(t, dir, Options{Fsync: true})
			recs := sampleRecords()
			for _, rec := range recs {
				if err := s.Append(rec); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			wal := s.WALPath()
			s.Kill()
			if err := s.Append(ExpireRec{User: 1}); err != ErrCrashed {
				t.Fatalf("append after Kill = %v, want ErrCrashed", err)
			}
			rng := rand.New(rand.NewSource(42))
			if err := MangleTail(wal, mode, rng); err != nil {
				t.Fatalf("MangleTail: %v", err)
			}

			_, state, info := openStore(t, dir, Options{})
			if info.Replayed != len(recs)-1 {
				t.Fatalf("replayed %d records, want %d (last torn away)", info.Replayed, len(recs)-1)
			}
			if info.TruncatedBytes <= 0 || info.TruncateReason == "" {
				t.Fatalf("info = %+v, want truncation reported", info)
			}
			// The torn record was ExpireRec{8}; without it user 8 survives.
			found := false
			for _, c := range state.Clients {
				found = found || c.User == 8
			}
			if !found {
				t.Fatalf("client 8 missing: the tear destroyed more than the final record")
			}

			// The repair truncated the file: reopening is now clean.
			_, _, info2 := openStore(t, dir, Options{})
			if info2.TruncatedBytes != 0 || info2.Replayed != len(recs)-1 {
				t.Fatalf("post-repair reopen: info = %+v", info2)
			}
		})
	}
}

func TestStoreCrashPointMidRecord(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openStore(t, dir, Options{Fsync: true})
	s.SetCrashPoints([]CrashPoint{{AfterAppends: 3, TearBytes: 5, FlipBit: -1}})
	recs := sampleRecords()
	var died int
	for i, rec := range recs {
		if err := s.Append(rec); err != nil {
			died = i
			break
		}
	}
	if died != 2 {
		t.Fatalf("died on append %d, want 2 (third append)", died)
	}
	if err := s.Append(recs[0]); err != ErrCrashed {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}

	_, _, info := openStore(t, dir, Options{})
	if info.Replayed != 2 {
		t.Fatalf("replayed %d, want 2 (torn third record discarded)", info.Replayed)
	}
	if info.TruncatedBytes != 5 {
		t.Fatalf("truncated %d bytes, want the 5 torn ones", info.TruncatedBytes)
	}
}

func TestStoreCrashPointGarbageAndBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := openStore(t, dir, Options{Fsync: true})
	// FlipBit 10 lands inside the 3 garbage bytes, not the real frames.
	s.SetCrashPoints([]CrashPoint{{AfterAppends: 2, TearBytes: 1 << 20, Garbage: []byte{1, 2, 3}, FlipBit: 10}})
	recs := sampleRecords()
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			break
		}
	}
	// Append 2 was fully written (TearBytes clamps), then garbage was
	// appended and a bit flipped inside it: record 2 still recovers.
	_, _, info := openStore(t, dir, Options{})
	if info.Replayed != 2 || info.TruncatedBytes == 0 {
		t.Fatalf("info = %+v, want 2 replayed with garbage truncated", info)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	b := newBuilder(nil, 0)
	for _, rec := range sampleRecords() {
		b.apply(rec)
	}
	st := b.finish()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, st); err != nil {
		t.Fatalf("writeSnapshot: %v", err)
	}
	got, err := readSnapshot(&buf)
	if err != nil {
		t.Fatalf("readSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, st)
	}
}

func TestSnapshotRejectsBadVersion(t *testing.T) {
	if _, err := readSnapshot(bytes.NewBufferString(`{"version":99,"state":{}}`)); err == nil {
		t.Fatal("version 99 accepted")
	}
	if _, err := readSnapshot(bytes.NewBufferString(`{"version":1,"state":{"alarms":[{"ID":1}]}}`)); err == nil {
		t.Fatal("empty-region alarm accepted")
	}
}

func TestPendingCapEviction(t *testing.T) {
	b := newBuilder(nil, 3)
	b.apply(HelloRec{User: 1, Token: 10, Strategy: wire.StrategyMWPSR})
	b.apply(FiredRec{User: 1, Alarms: []uint64{1, 2}})
	b.apply(FiredRec{User: 1, Alarms: []uint64{3, 4, 5}})
	st := b.finish()
	if len(st.Clients) != 1 {
		t.Fatalf("clients = %+v", st.Clients)
	}
	if got, want := st.Clients[0].PendingFired, []uint64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pending = %v, want oldest-first eviction to %v", got, want)
	}
	// Evicted ids stay in fired state — they never re-trigger.
	if len(st.Fired) != 5 {
		t.Fatalf("fired = %+v, want all 5 pairs", st.Fired)
	}
}

func TestMangleTailNoCompleteFrame(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "wal-00000000.log")
	if err := os.WriteFile(p, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Nothing to tear: a file with no complete frame must be untouched.
	if err := MangleTail(p, TearTruncate, rng); err != nil {
		t.Fatalf("MangleTail: %v", err)
	}
	buf, _ := os.ReadFile(p)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("file changed: %v", buf)
	}
	if err := MangleTail(filepath.Join(dir, "missing.log"), TearTruncate, rng); err != nil {
		t.Fatalf("missing file: %v", err)
	}
}

// TestCarriedFiredReplay: a session import logs each spent alarm it
// carried in as a TransitionRec holding the raw alarm ID with Delivered
// false. Replay marks the pair fired and owes it to nobody — not even a
// reliable client's pending set — however often it is applied.
func TestCarriedFiredReplay(t *testing.T) {
	a := NewApplier(nil, 0)
	a.Apply(HelloRec{User: 8, Token: 1, Strategy: wire.StrategyMWPSR})
	a.Apply(RegisterRec{User: 9, Strategy: wire.StrategyMWPSR})
	for i := 0; i < 2; i++ {
		a.Apply(TransitionRec{User: 8, Event: 5})
		a.Apply(TransitionRec{User: 9, Event: 5})
	}
	st := a.State()
	want := []alarm.FiredPair{{Alarm: 5, User: 8}, {Alarm: 5, User: 9}}
	if !reflect.DeepEqual(st.Fired, want) {
		t.Fatalf("fired = %+v, want %+v", st.Fired, want)
	}
	for _, c := range st.Clients {
		if len(c.PendingFired) != 0 {
			t.Fatalf("client %d pending = %v, want none", c.User, c.PendingFired)
		}
	}
}
