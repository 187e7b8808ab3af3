package server

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/wire"
)

// bitmapIn returns the BitmapRegion among the messages of one reply.
func bitmapIn(t testing.TB, out []wire.Message) wire.BitmapRegion {
	t.Helper()
	for _, m := range out {
		if bm, ok := m.(wire.BitmapRegion); ok {
			return bm
		}
	}
	t.Fatalf("no BitmapRegion in %v", out)
	return wire.BitmapRegion{}
}

// safeAt decodes a bitmap reply and reports whether p is in its region.
func safeAt(t testing.TB, bm wire.BitmapRegion, p geom.Point) bool {
	t.Helper()
	reg, err := pyramid.Decode(bm.Bitmap())
	if err != nil {
		t.Fatal(err)
	}
	return reg.Contains(p)
}

// TestSharedEncodingMatchesDirect drives an engine with the public-bitmap
// precompute and one without through the same requests: every bitmap reply
// must be byte-identical. The plain and the lower-height user add nothing
// of their own to the cell and are served the cell's shared encoding; the
// user with a private alarm takes the lockstep walk; the user who already
// fired a public alarm and the user inside a continuous alarm must NOT be
// served the shared encoding — it would still block the fired alarm, and
// would not confine the inside user to the alarm region.
func TestSharedEncodingMatchesDirect(t *testing.T) {
	type step struct {
		user uint64
		pos  geom.Point
	}
	const (
		plain, lowHeight, personal, firedPublic, insider = 1, 2, 3, 4, 5
	)
	run := func(precompute bool) ([][]byte, *Engine) {
		e := newEngine(t, func(c *Config) {
			c.PrecomputePublicBitmaps = precompute
			c.PyramidParams = pyramid.Params{U: 3, V: 3, Height: 5, MaxBits: 2048}
		})
		install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 9, Region: geom.RectAround(geom.Pt(700, 700), 150)})
		install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 9, Region: geom.R(1000, 200, 1400, 330)})
		install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: personal, Region: geom.RectAround(geom.Pt(300, 1200), 90)})
		install(t, e, alarm.Alarm{Scope: alarm.Private, Owner: insider, Kind: alarm.KindContinuous, Region: geom.R(100, 100, 500, 450)})
		for u := uint64(plain); u <= insider; u++ {
			h := uint8(5)
			if u == lowHeight {
				h = 2
			}
			if err := e.Register(wire.Register{User: u, Strategy: wire.StrategyPBSR, MaxHeight: h}); err != nil {
				t.Fatal(err)
			}
		}
		steps := []step{
			{plain, geom.Pt(150, 150)},
			{lowHeight, geom.Pt(160, 150)},
			{personal, geom.Pt(170, 150)},
			{plain, geom.Pt(2000, 150)}, // leaves and re-enters: served from the cache
			{plain, geom.Pt(150, 160)},
			{firedPublic, geom.Pt(700, 700)}, // fires the first public alarm ...
			{firedPublic, geom.Pt(2000, 700)},
			{firedPublic, geom.Pt(900, 900)}, // ... and comes back to its cell
			{insider, geom.Pt(50, 50)},
			{insider, geom.Pt(300, 300)}, // enters its continuous alarm
		}
		var replies [][]byte
		seq := map[uint64]uint32{}
		for _, s := range steps {
			seq[s.user]++
			out := handle(t, e, s.user, seq[s.user], s.pos)
			for _, m := range out {
				if bm, ok := m.(wire.BitmapRegion); ok {
					replies = append(replies, wire.Encode(bm))
				}
			}
		}
		return replies, e
	}
	direct, _ := run(false)
	shared, e := run(true)
	if len(direct) != len(shared) || len(shared) < 9 {
		t.Fatalf("%d bitmap replies with the precompute, %d without, want the same (≥ 9)", len(shared), len(direct))
	}
	for i := range direct {
		if !bytes.Equal(direct[i], shared[i]) {
			t.Errorf("bitmap reply %d differs with the precompute:\n direct: %x\n shared: %x", i, direct[i], shared[i])
		}
	}
	// The requests that could be shared were: two heights in the first
	// cell, filled once each however often they are asked for.
	ent := e.publicBitmaps[e.grid.Locate(geom.Pt(150, 150))]
	if ent == nil {
		t.Fatal("no cache entry for the first cell")
	}
	for h := range ent.shared {
		if got, want := ent.shared[h].bm != nil, h == 2 || h == 5; got != want {
			t.Errorf("shared encoding of height %d present = %v, want %v", h, got, want)
		}
	}
}

// TestTopicScopedPublicIsPersonal: the per-cell public bitmap is shared by
// every client in the cell, so it holds the broadcast public alarms only; a
// topic-scoped public alarm blocks its subscribers — through their personal
// obstacles — and nobody else, follows SubscribeTopic/UnsubscribeTopic from
// one report to the next, and none of it changes what fires.
func TestTopicScopedPublicIsPersonal(t *testing.T) {
	const subscriber, stranger = 1, 2
	topical := geom.RectAround(geom.Pt(700, 700), 150)
	inTopical, home, away := geom.Pt(700, 700), geom.Pt(150, 150), geom.Pt(2000, 150)
	run := func(precompute bool) (blocked []bool, fired [][]uint64) {
		e := newEngine(t, func(c *Config) {
			c.PrecomputePublicBitmaps = precompute
			c.PyramidParams = pyramid.Params{U: 3, V: 3, Height: 5, MaxBits: 2048}
		})
		install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 9, Topic: "traffic", Region: topical})
		install(t, e, alarm.Alarm{Scope: alarm.Public, Owner: 9, Region: geom.R(1000, 200, 1400, 330)})
		reg := e.Registry()
		reg.SubscribeTopic(subscriber, "traffic")
		seq := map[uint64]uint32{}
		report := func(user uint64, pos geom.Point) []wire.Message {
			seq[user]++
			out := handle(t, e, user, seq[user], pos)
			fired = append(fired, firedIn(out))
			return out
		}
		// Each probe re-enters the cell from another one, so the reply is a
		// freshly computed bitmap rather than the same-cell Ack.
		probe := func(user uint64) {
			report(user, away)
			blocked = append(blocked, !safeAt(t, bitmapIn(t, report(user, home)), inTopical))
		}
		for _, u := range []uint64{subscriber, stranger} {
			register(t, e, u, wire.StrategyPBSR)
			probe(u)
		}
		reg.UnsubscribeTopic(subscriber, "traffic")
		reg.SubscribeTopic(stranger, "traffic")
		probe(subscriber)
		probe(stranger)
		// Both walk into the region: only the current subscriber is alerted.
		report(subscriber, inTopical)
		report(stranger, inTopical)
		return blocked, fired
	}
	blocked, fired := run(true)
	if want := []bool{true, false, false, true}; !reflect.DeepEqual(blocked, want) {
		t.Errorf("topic alarm blocked (subscriber, stranger, ex-subscriber, new subscriber) = %v, want %v", blocked, want)
	}
	directBlocked, directFired := run(false)
	if !reflect.DeepEqual(blocked, directBlocked) {
		t.Errorf("blocked with the precompute %v, without %v", blocked, directBlocked)
	}
	if !reflect.DeepEqual(fired, directFired) {
		t.Errorf("firings with the precompute %v, without %v", fired, directFired)
	}
	if n := len(fired); len(fired[n-2]) != 0 || len(fired[n-1]) != 1 {
		t.Errorf("inside the topic alarm the ex-subscriber got %v and the subscriber %v, want none and one", fired[n-2], fired[n-1])
	}
}

// BenchmarkBitmapRegion measures one PBSR region request in a cell with
// 12 public alarms: cold (no precompute: every alarm tested on every
// emitted cell), precomputed-personal (lockstep walk over the cell's
// public base plus the user's private alarm) and precomputed-shared (no
// obstacle of the user's own: the cell's shared encoding).
func BenchmarkBitmapRegion(b *testing.B) {
	for _, mode := range []struct {
		name       string
		precompute bool
		user       uint64
	}{
		{"cold", false, 1},
		{"precomputed-personal", true, 2},
		{"precomputed-shared", true, 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := newEngine(b, func(c *Config) {
				c.PrecomputePublicBitmaps = mode.precompute
				c.PyramidParams = pyramid.Params{U: 3, V: 3, Height: 5, MaxBits: 2048}
			})
			for i := 0; i < 12; i++ {
				x, y := float64(150+(i%4)*380), float64(200+(i/4)*450)
				install(b, e, alarm.Alarm{Scope: alarm.Public, Owner: 9, Region: geom.R(x, y, x+130, y+90)})
			}
			install(b, e, alarm.Alarm{Scope: alarm.Private, Owner: 2, Region: geom.RectAround(geom.Pt(1000, 1100), 60)})
			register(b, e, mode.user, wire.StrategyPBSR)
			reg := e.Registry()
			st := e.clientFor(alarm.UserID(mode.user), wire.StrategyPBSR)
			u := wire.PositionUpdate{User: mode.user, Seq: 1, Pos: geom.Pt(60, 60)}
			cellID := e.grid.Locate(u.Pos)
			sc := new(UpdateScratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg, err := e.bitmapRegionFor(reg, u, st, sc, cellID)
				if err != nil {
					b.Fatal(err)
				}
				benchBitmapSink = msg
			}
		})
	}
}

var benchBitmapSink wire.BitmapRegion
