package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/pyramid"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(m)
	if got := EncodedSize(m); got != len(buf) {
		t.Errorf("%v: EncodedSize = %d, actual %d", m.Kind(), got, len(buf))
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("%v: Decode: %v", m.Kind(), err)
	}
	return out
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		Register{User: 42, Strategy: StrategyPBSR, MaxHeight: 5},
		PositionUpdate{User: 7, Seq: 1234, Pos: geom.Pt(123.456, -9.75)},
		RectRegion{Seq: 9, Rect: geom.R(1, 2, 3, 4), Cap: 41},
		BitmapRegion{Seq: 3, Cell: geom.R(0, 0, 900, 900), U: 3, V: 3, Height: 4,
			NBits: 19, Cap: 7, Data: []byte{0xAB, 0xCD, 0xE0}},
		AlarmPush{Seq: 5, Cell: geom.R(0, 0, 100, 100), Cap: 3, Alarms: []AlarmInfo{
			{ID: 1, Region: geom.R(1, 1, 2, 2)},
			{ID: 99, Region: geom.R(50, 50, 60, 60)},
		}},
		SafePeriod{Seq: 8, Ticks: 300},
		AlarmFired{Seq: 2, Alarms: []uint64{5, 6, 7}},
		Ack{Seq: 11, Cap: 9},
		Hello{User: 42, Token: 0xDEADBEEF01, Strategy: StrategyMWPSR, MaxHeight: 3},
		Resume{Token: 0xDEADBEEF01, Resumed: true},
		Resume{Token: 7},
		Heartbeat{Nonce: 0xCAFE},
		FiredAck{Alarms: []uint64{9, 10}},
		Redirect{Token: 0xBEEF02, Epoch: 9, Addr: "10.0.0.7:7701"},
		Redirect{Token: 3},
		UpdateBatch{Updates: []PositionUpdate{
			{User: 1, Seq: 2, Pos: geom.Pt(3, 4)},
			{User: 9, Seq: 8, Pos: geom.Pt(-7, 6.5)},
		}},
		BatchReply{Entries: []BatchEntry{
			{User: 1, Msgs: []Message{
				AlarmFired{Seq: 2, Alarms: []uint64{5}},
				RectRegion{Seq: 2, Rect: geom.R(1, 2, 3, 4)},
			}},
			{User: 9, Msgs: []Message{Ack{Seq: 8}}},
		}},
		InstallContinuous{Owner: 4, Subscribers: []uint64{5, 6}, Region: geom.R(10, 10, 40, 40), Cooldown: 12},
		InstallContinuous{Owner: 4, Region: geom.R(0, 0, 5, 5)},
		InstallPair{Owner: 3, Anchor: 8, Radius: 150.5, Cooldown: 4},
		InstallComposite{Owner: 2, Subscribers: []uint64{7}, Factors: []FactorInfo{
			{Center: geom.Pt(100, 100), Radius: 30, Weight: 0.6},
			{Region: geom.R(50, 50, 90, 90), Weight: 0.5},
		}, Threshold: 1.0, ExpiresAt: 400},
		InstallReply{ID: 17},
	}
	for _, m := range msgs {
		t.Run(m.Kind().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if !reflect.DeepEqual(got, m) {
				t.Errorf("round trip mismatch:\n got  %#v\n want %#v", got, m)
			}
		})
	}
}

func TestEmptyCollections(t *testing.T) {
	gotPush := roundTrip(t, AlarmPush{Seq: 1, Cell: geom.R(0, 0, 1, 1)}).(AlarmPush)
	if len(gotPush.Alarms) != 0 {
		t.Errorf("alarms = %v", gotPush.Alarms)
	}
	gotFired := roundTrip(t, AlarmFired{Seq: 1}).(AlarmFired)
	if len(gotFired.Alarms) != 0 {
		t.Errorf("alarms = %v", gotFired.Alarms)
	}
	gotBatch := roundTrip(t, UpdateBatch{}).(UpdateBatch)
	if len(gotBatch.Updates) != 0 {
		t.Errorf("updates = %v", gotBatch.Updates)
	}
	gotReply := roundTrip(t, BatchReply{}).(BatchReply)
	if len(gotReply.Entries) != 0 {
		t.Errorf("entries = %v", gotReply.Entries)
	}
	gotEntry := roundTrip(t, BatchReply{Entries: []BatchEntry{{User: 3}}}).(BatchReply)
	if len(gotEntry.Entries) != 1 || len(gotEntry.Entries[0].Msgs) != 0 {
		t.Errorf("entries = %v", gotEntry.Entries)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil buf: %v", err)
	}
	if _, err := Decode([]byte{0xFF, 1, 2}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: %v", err)
	}
	// Truncate every valid message at every byte boundary: must error, not
	// panic.
	msgs := []Message{
		Register{User: 1, Strategy: StrategyMWPSR, MaxHeight: 2},
		PositionUpdate{User: 1, Seq: 2, Pos: geom.Pt(3, 4)},
		RectRegion{Seq: 1, Rect: geom.R(0, 0, 5, 5)},
		AlarmPush{Seq: 1, Cell: geom.R(0, 0, 1, 1), Alarms: []AlarmInfo{{ID: 9, Region: geom.R(0, 0, 1, 1)}}},
		SafePeriod{Seq: 1, Ticks: 2},
		AlarmFired{Seq: 1, Alarms: []uint64{1, 2}},
		Hello{User: 1, Token: 2, Strategy: StrategyPBSR, MaxHeight: 4},
		Resume{Token: 3, Resumed: true},
		Heartbeat{Nonce: 4},
		FiredAck{Alarms: []uint64{5, 6}},
		Redirect{Token: 7, Addr: "127.0.0.1:9000"},
		UpdateBatch{Updates: []PositionUpdate{{User: 1, Seq: 2, Pos: geom.Pt(3, 4)}}},
		BatchReply{Entries: []BatchEntry{
			{User: 1, Msgs: []Message{AlarmFired{Seq: 2, Alarms: []uint64{5}}, Ack{Seq: 2}}},
		}},
		InstallContinuous{Owner: 4, Subscribers: []uint64{5}, Region: geom.R(10, 10, 40, 40), Cooldown: 2},
		InstallPair{Owner: 3, Anchor: 8, Radius: 150.5, Cooldown: 4},
		InstallComposite{Owner: 2, Subscribers: []uint64{7}, Factors: []FactorInfo{
			{Center: geom.Pt(100, 100), Radius: 30, Weight: 0.6},
		}, Threshold: 1.0, ExpiresAt: 400},
		InstallReply{ID: 17},
	}
	for _, m := range msgs {
		full := Encode(m)
		for cut := 1; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				t.Errorf("%v truncated at %d decoded successfully", m.Kind(), cut)
			}
		}
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A crafted AlarmPush claiming 2^31 alarms must be rejected without
	// allocating.
	m := AlarmPush{Seq: 1, Cell: geom.R(0, 0, 1, 1)}
	buf := Encode(m)
	// Overwrite the count field (after kind+seq+cell+cap = 1+4+32+4 bytes).
	buf[41], buf[42], buf[43], buf[44] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(buf); err == nil {
		t.Error("hostile alarm count accepted")
	}
	f := AlarmFired{Seq: 1}
	fbuf := Encode(f)
	fbuf[5], fbuf[6], fbuf[7], fbuf[8] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(fbuf); err == nil {
		t.Error("hostile fired count accepted")
	}
	abuf := Encode(FiredAck{})
	abuf[1], abuf[2], abuf[3], abuf[4] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(abuf); err == nil {
		t.Error("hostile fired-ack count accepted")
	}
	// Redirect claiming more addr bytes than the frame holds. The u16
	// length sits after kind+token+epoch = 1+8+8 bytes.
	rbuf := Encode(Redirect{Token: 1, Epoch: 2, Addr: "x"})
	rbuf[17], rbuf[18] = 0xFF, 0xFF
	if _, err := Decode(rbuf); err == nil {
		t.Error("hostile redirect addr length accepted")
	}
	// Batch frames claiming more updates / entries / inner bytes than the
	// frame holds.
	ubuf := Encode(UpdateBatch{Updates: []PositionUpdate{{User: 1, Seq: 2}}})
	ubuf[1], ubuf[2], ubuf[3], ubuf[4] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(ubuf); err == nil {
		t.Error("hostile update-batch count accepted")
	}
	bbuf := Encode(BatchReply{Entries: []BatchEntry{{User: 1, Msgs: []Message{Ack{Seq: 2}}}}})
	hostile := append([]byte(nil), bbuf...)
	hostile[1], hostile[2], hostile[3], hostile[4] = 0x7F, 0xFF, 0xFF, 0xFF
	if _, err := Decode(hostile); err == nil {
		t.Error("hostile batch-reply entry count accepted")
	}
	// Inner frame length field (kind + count + user + nmsgs = 17 bytes in).
	hostile = append(hostile[:0], bbuf...)
	hostile[17], hostile[18], hostile[19], hostile[20] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Decode(hostile); err == nil {
		t.Error("hostile batch-reply inner length accepted")
	}
	// Zero-length inner frame.
	hostile = append(hostile[:0], bbuf...)
	hostile[17], hostile[18], hostile[19], hostile[20] = 0, 0, 0, 0
	if _, err := Decode(hostile); err == nil {
		t.Error("zero-length batch-reply inner frame accepted")
	}
}

// Batch frames must not nest: a BatchReply whose inner frame is itself a
// batch kind is rejected before the decoder recurses.
func TestNestedBatchRejected(t *testing.T) {
	for _, inner := range []Message{UpdateBatch{}, BatchReply{}} {
		innerBuf := Encode(inner)
		buf := []byte{byte(KindBatchReply), 0, 0, 0, 1} // one entry
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 9)       // user
		buf = append(buf, 0, 0, 0, 1)                   // one inner msg
		buf = append(buf, 0, 0, 0, byte(len(innerBuf))) // inner length
		buf = append(buf, innerBuf...)
		if _, err := Decode(buf); err == nil {
			t.Errorf("nested %v inside batch reply accepted", inner.Kind())
		}
	}
}

func TestSeqOf(t *testing.T) {
	withSeq := []Message{
		PositionUpdate{Seq: 5}, RectRegion{Seq: 5}, BitmapRegion{Seq: 5},
		AlarmPush{Seq: 5}, SafePeriod{Seq: 5}, AlarmFired{Seq: 5}, Ack{Seq: 5},
	}
	for _, m := range withSeq {
		if seq, ok := SeqOf(m); !ok || seq != 5 {
			t.Errorf("SeqOf(%v) = %d, %v", m.Kind(), seq, ok)
		}
	}
	without := []Message{Register{}, Hello{}, Resume{}, Heartbeat{}, FiredAck{}, Redirect{}, UpdateBatch{}, BatchReply{}}
	for _, m := range without {
		if _, ok := SeqOf(m); ok {
			t.Errorf("SeqOf(%v) unexpectedly present", m.Kind())
		}
	}
}

func TestBitmapRegionPyramidRoundTrip(t *testing.T) {
	cell := geom.R(0, 0, 900, 900)
	alarm := geom.R(100, 100, 200, 200)
	bm, err := pyramid.Encode(cell, pyramid.DefaultParams(3), nil, func(r geom.Rect, _ pyramid.Coverage) pyramid.Coverage {
		return pyramid.CoverageOf(r, []geom.Rect{alarm})
	})
	if err != nil {
		t.Fatal(err)
	}
	msg := FromBitmap(77, bm)
	got := roundTrip(t, msg).(BitmapRegion)
	back := got.Bitmap()
	if back.String() != bm.String() {
		t.Errorf("bitmap bits changed: %s vs %s", back.String(), bm.String())
	}
	if _, err := pyramid.Decode(back); err != nil {
		t.Errorf("decoded bitmap unusable: %v", err)
	}
	if got.Seq != 77 {
		t.Errorf("seq = %d", got.Seq)
	}
}

func TestKindAndStrategyStrings(t *testing.T) {
	for k := KindRegister; k <= KindBatchReply; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind string")
	}
	for s := StrategyPeriodic; s <= StrategyOptimal; s++ {
		if s.String() == "" || strings.HasPrefix(s.String(), "Strategy(") {
			t.Errorf("strategy %d has no name", s)
		}
	}
	if Strategy(200).String() != "Strategy(200)" {
		t.Error("unknown strategy string")
	}
}

func TestDecodeFuzzRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(128)
		buf := make([]byte, n)
		rng.Read(buf)
		// Must never panic; errors are fine.
		_, _ = Decode(buf)
	}
}

func BenchmarkEncodePositionUpdate(b *testing.B) {
	m := PositionUpdate{User: 7, Seq: 1, Pos: geom.Pt(123.4, 567.8)}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		Encode(m)
	}
}

func BenchmarkDecodePositionUpdate(b *testing.B) {
	buf := Encode(PositionUpdate{User: 7, Seq: 1, Pos: geom.Pt(123.4, 567.8)})
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeUpdateBatch(b *testing.B) {
	ups := make([]PositionUpdate, 32)
	for i := range ups {
		ups[i] = PositionUpdate{User: uint64(i), Seq: uint32(i), Pos: geom.Pt(float64(i), float64(-i))}
	}
	m := UpdateBatch{Updates: ups}
	var buf []byte
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		buf = AppendEncode(buf[:0], m)
	}
}

func BenchmarkDecodeUpdateBatch(b *testing.B) {
	ups := make([]PositionUpdate, 32)
	for i := range ups {
		ups[i] = PositionUpdate{User: uint64(i), Seq: uint32(i), Pos: geom.Pt(float64(i), float64(-i))}
	}
	buf := Encode(UpdateBatch{Updates: ups})
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathMessages are the frames exchanged on every tick of a steady-state
// session; their codec cost is the per-update floor of the whole system.
func hotPathMessages() []Message {
	return []Message{
		PositionUpdate{User: 7, Seq: 1, Pos: geom.Pt(123.4, 567.8)},
		RectRegion{Seq: 9, Rect: geom.R(1, 2, 3, 4), Cap: 41},
		SafePeriod{Seq: 8, Ticks: 300},
		Ack{Seq: 11, Cap: 9},
		AlarmFired{Seq: 2, Alarms: []uint64{5, 6, 7}},
		Heartbeat{Nonce: 0xCAFE},
		UpdateBatch{Updates: []PositionUpdate{
			{User: 1, Seq: 2, Pos: geom.Pt(3, 4)},
			{User: 1, Seq: 3, Pos: geom.Pt(4, 5)},
		}},
		BatchReply{Entries: []BatchEntry{
			{User: 1, Msgs: []Message{RectRegion{Seq: 3, Rect: geom.R(1, 2, 3, 4)}}},
		}},
	}
}

// Regression guard (satellite of the batching issue): encoding any hot-path
// message into a reused buffer must not allocate, so pooled encode buffers
// make the transport write path allocation-free.
func TestAppendEncodeZeroAlloc(t *testing.T) {
	for _, m := range hotPathMessages() {
		m := m
		buf := AppendEncode(nil, m) // warm the buffer to its final capacity
		if got := testing.AllocsPerRun(100, func() {
			buf = AppendEncode(buf[:0], m)
		}); got != 0 {
			t.Errorf("AppendEncode(%v) allocates %.1f/op, want 0", m.Kind(), got)
		}
	}
}

// Regression guard: decoding a hot-path message stays within a fixed
// allocation budget (the interface box plus one slice per variable-length
// field). Creep here silently taxes every update the server handles.
func TestDecodeAllocBudget(t *testing.T) {
	budgets := []struct {
		m      Message
		budget float64
	}{
		{PositionUpdate{User: 7, Seq: 1, Pos: geom.Pt(123.4, 567.8)}, 1},
		{RectRegion{Seq: 9, Rect: geom.R(1, 2, 3, 4), Cap: 41}, 1},
		{SafePeriod{Seq: 8, Ticks: 300}, 1},
		{Ack{Seq: 11, Cap: 9}, 1},
		{Heartbeat{Nonce: 0xCAFE}, 1},
		{AlarmFired{Seq: 2, Alarms: []uint64{5, 6, 7}}, 2},
		{UpdateBatch{Updates: []PositionUpdate{{User: 1, Seq: 2, Pos: geom.Pt(3, 4)}}}, 2},
	}
	for _, tc := range budgets {
		tc := tc
		buf := Encode(tc.m)
		if got := testing.AllocsPerRun(100, func() {
			if _, err := Decode(buf); err != nil {
				t.Fatal(err)
			}
		}); got > tc.budget {
			t.Errorf("Decode(%v) allocates %.1f/op, budget %.0f", tc.m.Kind(), got, tc.budget)
		}
	}
}

// Property: position updates and rect regions round-trip for arbitrary
// finite values.
func TestQuickRoundTripProperties(t *testing.T) {
	posF := func(user uint64, seq uint32, x, y float64) bool {
		if x != x || y != y { // skip NaN: NaN != NaN breaks equality checks
			return true
		}
		m := PositionUpdate{User: user, Seq: seq, Pos: geom.Pt(x, y)}
		got, err := Decode(Encode(m))
		return err == nil && got == m
	}
	if err := quick.Check(posF, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	rectF := func(seq uint32, a, b, c, d float64) bool {
		if a != a || b != b || c != c || d != d {
			return true
		}
		m := RectRegion{Seq: seq, Rect: geom.Rect{MinX: a, MinY: b, MaxX: c, MaxY: d}}
		got, err := Decode(Encode(m))
		return err == nil && got == m
	}
	if err := quick.Check(rectF, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
