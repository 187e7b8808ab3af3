package saferegion

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/motion"
)

var cell = geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

func uniformOpts() RectOptions { return RectOptions{Model: motion.Uniform()} }

func TestEmptyAlarmsReturnsCell(t *testing.T) {
	res := ComputeRect(geom.Pt(400, 600), cell, nil, uniformOpts())
	if res.Rect != cell {
		t.Errorf("Rect = %v, want whole cell", res.Rect)
	}
	if len(res.Inside) != 0 || res.Clips != 0 {
		t.Errorf("unexpected Inside=%v Clips=%d", res.Inside, res.Clips)
	}
}

func TestAlarmOutsideCellIgnored(t *testing.T) {
	alarms := []geom.Rect{{MinX: 5000, MinY: 5000, MaxX: 5100, MaxY: 5100}}
	res := ComputeRect(geom.Pt(500, 500), cell, alarms, uniformOpts())
	if res.Rect != cell {
		t.Errorf("Rect = %v, want whole cell", res.Rect)
	}
}

func TestSingleAlarmSingleQuadrant(t *testing.T) {
	// Alarm in quadrant I relative to position (200, 200).
	alarms := []geom.Rect{{MinX: 600, MinY: 700, MaxX: 700, MaxY: 800}}
	pos := geom.Pt(200, 200)
	res := ComputeRect(pos, cell, alarms, uniformOpts())
	r := res.Rect
	if !r.Contains(pos) {
		t.Fatalf("safe region %v lost position %v", r, pos)
	}
	if r.Overlaps(alarms[0]) {
		t.Fatalf("safe region %v overlaps alarm", r)
	}
	if !cell.ContainsRect(r) {
		t.Fatalf("safe region %v escapes cell", r)
	}
	// A single distant alarm should still allow a large region: either the
	// region stops at x=600 or at y=700 but spans the cell otherwise.
	if r.Area() < 0.5*cell.Area() {
		t.Errorf("region suspiciously small: %v (area %v)", r, r.Area())
	}
	if res.Clips != 0 {
		t.Errorf("skyline construction needed %d clips", res.Clips)
	}
}

func TestAlarmStraddlingAxis(t *testing.T) {
	// Alarm spans the +x axis relative to pos: it must constrain quadrants
	// I and IV with an axis-projected blocking point — the case Hu et al.
	// cannot handle (paper §6).
	pos := geom.Pt(500, 500)
	alarms := []geom.Rect{{MinX: 700, MinY: 450, MaxX: 800, MaxY: 550}}
	res := ComputeRect(pos, cell, alarms, uniformOpts())
	r := res.Rect
	if r.Overlaps(alarms[0]) {
		t.Fatalf("region %v overlaps axis-straddling alarm", r)
	}
	if !r.Contains(pos) {
		t.Fatal("lost position")
	}
	// The region must stop before x=700 on the right.
	if r.MaxX > 700+1e-9 {
		t.Errorf("MaxX = %v, want <= 700", r.MaxX)
	}
	// But should extend fully elsewhere.
	if r.MinX != 0 || r.MinY != 0 || r.MaxY != 1000 {
		t.Errorf("region %v should span the rest of the cell", r)
	}
}

func TestOverlappingAlarms(t *testing.T) {
	pos := geom.Pt(100, 100)
	alarms := []geom.Rect{
		{MinX: 300, MinY: 200, MaxX: 500, MaxY: 400},
		{MinX: 350, MinY: 250, MaxX: 600, MaxY: 500}, // overlaps the first
		{MinX: 200, MinY: 600, MaxX: 400, MaxY: 800},
	}
	res := ComputeRect(pos, cell, alarms, uniformOpts())
	for i, a := range alarms {
		if res.Rect.Overlaps(a) {
			t.Errorf("region overlaps alarm %d", i)
		}
	}
	if !res.Rect.Contains(pos) {
		t.Error("lost position")
	}
}

func TestInsideAlarmIntersectionCase(t *testing.T) {
	pos := geom.Pt(500, 500)
	alarms := []geom.Rect{
		{MinX: 400, MinY: 400, MaxX: 700, MaxY: 700}, // contains pos
		{MinX: 450, MinY: 300, MaxX: 650, MaxY: 620}, // also contains pos
		{MinX: 900, MinY: 900, MaxX: 950, MaxY: 950}, // unrelated
	}
	res := ComputeRect(pos, cell, alarms, uniformOpts())
	if len(res.Inside) != 2 {
		t.Fatalf("Inside = %v, want the two containing alarms", res.Inside)
	}
	want := alarms[0].Intersect(alarms[1])
	if !want.ContainsRect(res.Rect) {
		t.Errorf("region %v exceeds containment intersection %v", res.Rect, want)
	}
	if !res.Rect.Contains(pos) {
		t.Error("lost position")
	}
}

func TestInsideAlarmClippedAgainstThird(t *testing.T) {
	// Client inside alarm A; alarm B overlaps A near the client. The
	// returned region must not overlap B (our soundness strengthening of
	// the paper's definition (ii)).
	pos := geom.Pt(500, 500)
	alarms := []geom.Rect{
		{MinX: 400, MinY: 400, MaxX: 700, MaxY: 700}, // A contains pos
		{MinX: 600, MinY: 400, MaxX: 800, MaxY: 700}, // B overlaps A, not pos
	}
	res := ComputeRect(pos, cell, alarms, uniformOpts())
	if len(res.Inside) != 1 || res.Inside[0] != 0 {
		t.Fatalf("Inside = %v", res.Inside)
	}
	if res.Rect.Overlaps(alarms[1]) {
		t.Errorf("region %v overlaps third alarm", res.Rect)
	}
	if res.Clips == 0 {
		t.Error("expected at least one clip in the inside case")
	}
}

func TestPositionOnCellBoundary(t *testing.T) {
	pos := geom.Pt(0, 500) // on left edge: quadrants II/III are degenerate
	alarms := []geom.Rect{{MinX: 200, MinY: 400, MaxX: 300, MaxY: 600}}
	res := ComputeRect(pos, cell, alarms, uniformOpts())
	if !res.Rect.Contains(pos) {
		t.Fatalf("region %v lost boundary position %v", res.Rect, pos)
	}
	if res.Rect.Overlaps(alarms[0]) {
		t.Error("region overlaps alarm")
	}
}

func TestPositionOutsideCellClamped(t *testing.T) {
	res := ComputeRect(geom.Pt(-50, 2000), cell, nil, uniformOpts())
	if !cell.ContainsRect(res.Rect) {
		t.Errorf("region %v escapes cell", res.Rect)
	}
}

func TestWeightedBiasesTowardHeading(t *testing.T) {
	// Two symmetric alarms left and right; a client heading east should
	// prefer keeping the right side open.
	pos := geom.Pt(500, 500)
	alarms := []geom.Rect{
		{MinX: 650, MinY: 0, MaxX: 700, MaxY: 1000}, // wall on the right
		{MinX: 300, MinY: 0, MaxX: 350, MaxY: 1000}, // wall on the left
		{MinX: 0, MinY: 800, MaxX: 1000, MaxY: 850}, // ceiling
		{MinX: 0, MinY: 150, MaxX: 1000, MaxY: 200}, // floor
	}
	east := ComputeRect(pos, cell, alarms, RectOptions{Model: motion.MustNew(1, 8), Heading: 0})
	if !east.Rect.Contains(pos) {
		t.Fatal("lost position")
	}
	for i, a := range alarms {
		if east.Rect.Overlaps(a) {
			t.Fatalf("east region overlaps alarm %d", i)
		}
	}
	rightExtent := east.Rect.MaxX - pos.X
	leftExtent := pos.X - east.Rect.MinX
	if rightExtent < leftExtent {
		t.Errorf("heading east but right extent %v < left extent %v", rightExtent, leftExtent)
	}
	// Heading west must mirror the preference.
	west := ComputeRect(pos, cell, alarms, RectOptions{Model: motion.MustNew(1, 8), Heading: math.Pi})
	wRight := west.Rect.MaxX - pos.X
	wLeft := pos.X - west.Rect.MinX
	if wLeft < wRight {
		t.Errorf("heading west but left extent %v < right extent %v", wLeft, wRight)
	}
}

func TestExhaustiveAtLeastAsGoodAsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	model := motion.MustNew(1, 16)
	for iter := 0; iter < 200; iter++ {
		pos := geom.Pt(100+rng.Float64()*800, 100+rng.Float64()*800)
		var alarms []geom.Rect
		for i := 0; i < 1+rng.Intn(10); i++ {
			w, h := rng.Float64()*200+10, rng.Float64()*200+10
			x, y := rng.Float64()*(1000-w), rng.Float64()*(1000-h)
			a := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			if a.Contains(pos) {
				continue
			}
			alarms = append(alarms, a)
		}
		heading := rng.Float64()*2*math.Pi - math.Pi
		sc := newScorer(model, heading)
		greedy := ComputeRect(pos, cell, alarms, RectOptions{Model: model, Heading: heading})
		exhaustive := ComputeRect(pos, cell, alarms, RectOptions{Model: model, Heading: heading, Exhaustive: true})
		gw := rectScore(sc, greedy.Rect, pos)
		ew := rectScore(sc, exhaustive.Rect, pos)
		// Both variants run the same grow pass after assembly, so the
		// exhaustive result must score at least as well as the greedy one.
		if gw > ew+1e-9 {
			t.Fatalf("iter %d: greedy %v beat exhaustive %v", iter, gw, ew)
		}
	}
}

// rectScore evaluates the expected-exit-distance objective on a final
// rectangle (mirroring scorer.score but from an absolute rect).
func rectScore(sc *scorer, r geom.Rect, pos geom.Point) float64 {
	choice := [4]candidate{
		{x: r.MaxX - pos.X, y: r.MaxY - pos.Y},
		{x: pos.X - r.MinX, y: r.MaxY - pos.Y},
		{x: pos.X - r.MinX, y: pos.Y - r.MinY},
		{x: r.MaxX - pos.X, y: pos.Y - r.MinY},
	}
	return sc.score(choice)
}

// TestSoundnessProperty is the central MWPSR invariant: for random alarm
// fields and positions, under every motion model, the region contains the
// client, stays in the cell, and overlaps no alarm interior — with zero
// post-hoc clips (the skyline construction is already sound).
func TestSoundnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models := []motion.Model{motion.Uniform(), motion.MustNew(1, 4), motion.MustNew(1, 32)}
	for iter := 0; iter < 2000; iter++ {
		pos := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		var alarms []geom.Rect
		numInside := 0
		for i := 0; i < rng.Intn(15); i++ {
			w, h := rng.Float64()*300+1, rng.Float64()*300+1
			x, y := rng.Float64()*1100-50, rng.Float64()*1100-50
			a := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			if a.Contains(pos) {
				numInside++
			}
			alarms = append(alarms, a)
		}
		m := models[iter%len(models)]
		heading := rng.Float64()*2*math.Pi - math.Pi
		res := ComputeRect(pos, cell, alarms, RectOptions{Model: m, Heading: heading})
		if !res.Rect.Contains(pos) {
			t.Fatalf("iter %d: lost position %v, region %v", iter, pos, res.Rect)
		}
		if !cell.ContainsRect(res.Rect) {
			t.Fatalf("iter %d: region %v escapes cell", iter, res.Rect)
		}
		if len(res.Inside) != numInside {
			t.Fatalf("iter %d: Inside count %d, want %d", iter, len(res.Inside), numInside)
		}
		insideSet := map[int]bool{}
		for _, i := range res.Inside {
			insideSet[i] = true
		}
		for i, a := range alarms {
			if insideSet[i] {
				continue
			}
			if res.Rect.Overlaps(a) {
				t.Fatalf("iter %d: region %v overlaps alarm %d %v", iter, res.Rect, i, a)
			}
		}
		if numInside == 0 && res.Clips != 0 {
			t.Fatalf("iter %d: outside case needed %d clips — skyline not sound", iter, res.Clips)
		}
	}
}

// TestMaximality: the greedy MWPSR region should not be absurdly small —
// in each axis direction it extends either to the cell edge or to some
// alarm boundary.
func TestMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		pos := geom.Pt(100+rng.Float64()*800, 100+rng.Float64()*800)
		var alarms []geom.Rect
		for i := 0; i < 1+rng.Intn(8); i++ {
			w, h := rng.Float64()*150+10, rng.Float64()*150+10
			x, y := rng.Float64()*(1000-w), rng.Float64()*(1000-h)
			a := geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
			if a.Contains(pos) {
				continue
			}
			alarms = append(alarms, a)
		}
		res := ComputeRect(pos, cell, alarms, uniformOpts())
		r := res.Rect
		// Local maximality: extending any one side by epsilon must either
		// leave the cell or overlap an alarm interior.
		const eps = 1e-6
		grow := func(dir int) geom.Rect {
			g := r
			switch dir {
			case 0:
				g.MaxX += eps
			case 1:
				g.MinX -= eps
			case 2:
				g.MaxY += eps
			default:
				g.MinY -= eps
			}
			return g
		}
		for dir := 0; dir < 4; dir++ {
			g := grow(dir)
			if !cell.ContainsRect(g) {
				continue // stopped at the cell edge
			}
			blocked := false
			for _, a := range alarms {
				if g.Overlaps(a) {
					blocked = true
					break
				}
			}
			if !blocked {
				t.Fatalf("iter %d: side %d of region %v can grow freely (pos %v)", iter, dir, r, pos)
			}
		}
	}
}

func cand(x, y float64) candidate { return candidate{x: x, y: y, absX: x, absY: y} }

func TestPruneDominated(t *testing.T) {
	cands := []candidate{cand(5, 3), cand(2, 8), cand(6, 4), cand(2, 9), cand(5, 3)}
	got := pruneDominated(cands)
	// Survivors must be a strict skyline: x ascending, y descending.
	for i := 1; i < len(got); i++ {
		if got[i].x <= got[i-1].x || got[i].y >= got[i-1].y {
			t.Fatalf("not a skyline: %v", got)
		}
	}
	// (6,4) is implied by (5,3); (2,9) by (2,8); dup (5,3) collapses.
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 survivors", got)
	}
	if pruneDominated(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestComponentCorners(t *testing.T) {
	ext := extent{x: 100, y: 100, absX: 100, absY: 100}
	sameXY := func(a, b candidate) bool { return a.x == b.x && a.y == b.y }
	t.Run("no constraints", func(t *testing.T) {
		got := componentCorners(nil, ext)
		if len(got) != 1 || !sameXY(got[0], cand(100, 100)) {
			t.Errorf("got %v", got)
		}
	})
	t.Run("single constraint", func(t *testing.T) {
		got := componentCorners([]candidate{cand(40, 60)}, ext)
		want := []candidate{cand(40, 100), cand(100, 60)}
		if len(got) != 2 || !sameXY(got[0], want[0]) || !sameXY(got[1], want[1]) {
			t.Errorf("got %v, want %v", got, want)
		}
	})
	t.Run("two constraints", func(t *testing.T) {
		got := componentCorners([]candidate{cand(30, 70), cand(60, 40)}, ext)
		want := []candidate{cand(30, 100), cand(60, 70), cand(100, 40)}
		for i := range want {
			if !sameXY(got[i], want[i]) {
				t.Errorf("corner %d = %v, want %v", i, got[i], want[i])
			}
		}
	})
}

func TestCostCounters(t *testing.T) {
	alarms := []geom.Rect{
		{MinX: 600, MinY: 600, MaxX: 700, MaxY: 700},
		{MinX: 200, MinY: 700, MaxX: 300, MaxY: 800},
	}
	res := ComputeRect(geom.Pt(500, 500), cell, alarms, uniformOpts())
	if res.Candidates == 0 || res.Corners == 0 {
		t.Errorf("cost counters not populated: %+v", res)
	}
}

// BenchmarkComputeRect times the region kernel on a warm scratch, as the
// server's update path runs it, at three alarm densities: none, the ~4
// candidates per region the benchmark's workloads see, and the crowded
// cell of the ablations.
func BenchmarkComputeRect(b *testing.B) {
	model := motion.MustNew(1, 32)
	pos := geom.Pt(500, 500)
	for _, bc := range []struct {
		name   string
		alarms int
	}{{"empty", 0}, {"sparse-4", 4}, {"dense-25", 25}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var alarms []geom.Rect
			for i := 0; i < bc.alarms; i++ {
				w, h := rng.Float64()*150+10, rng.Float64()*150+10
				x, y := rng.Float64()*(1000-w), rng.Float64()*(1000-h)
				alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
			}
			var s RectScratch
			opts := RectOptions{Model: model, Heading: 0.5}
			ComputeRectScratch(pos, cell, alarms, opts, &s)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ComputeRectScratch(pos, cell, alarms, opts, &s)
			}
		})
	}
}

// TestGrowSidesEdgeCases pins the post-assembly growth pass behaviour.
func TestGrowSidesEdgeCases(t *testing.T) {
	w := sideWeightSet(motion.Uniform(), 0)

	t.Run("no alarms grows to cell", func(t *testing.T) {
		got := growSides(geom.R(400, 400, 600, 600), cell, nil, w)
		if got != cell {
			t.Errorf("got %v, want whole cell", got)
		}
	})
	t.Run("growth stops at alarm edges", func(t *testing.T) {
		alarms := []geom.Rect{
			{MinX: 700, MinY: 0, MaxX: 720, MaxY: 1000}, // wall right
			{MinX: 0, MinY: 800, MaxX: 1000, MaxY: 820}, // ceiling
		}
		got := growSides(geom.R(400, 400, 600, 600), cell, alarms, w)
		want := geom.Rect{MinX: 0, MinY: 0, MaxX: 700, MaxY: 800}
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	})
	t.Run("degenerate height cannot grow through a straddling alarm", func(t *testing.T) {
		// An alarm crossing the line y=500 with full x overlap pins a
		// zero-height rect at that line.
		alarms := []geom.Rect{{MinX: 0, MinY: 450, MaxX: 1000, MaxY: 550}}
		got := growSides(geom.R(0, 500, 1000, 500), cell, alarms, w)
		if got.Height() != 0 {
			t.Errorf("degenerate rect grew through a straddling alarm: %v", got)
		}
	})
	t.Run("degenerate width grows where free", func(t *testing.T) {
		got := growSides(geom.R(500, 0, 500, 1000), cell, nil, w)
		if got != cell {
			t.Errorf("got %v, want whole cell", got)
		}
	})
	t.Run("grown rect never overlaps alarms", func(t *testing.T) {
		rng := rand.New(rand.NewSource(77))
		for iter := 0; iter < 500; iter++ {
			var alarms []geom.Rect
			for i := 0; i < rng.Intn(10); i++ {
				wdt, hgt := rng.Float64()*200+5, rng.Float64()*200+5
				x, y := rng.Float64()*(1000-wdt), rng.Float64()*(1000-hgt)
				alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + wdt, MaxY: y + hgt})
			}
			// A sound seed rect: a point not strictly inside any alarm.
			var seed geom.Rect
			for {
				p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
				inside := false
				for _, a := range alarms {
					if a.ContainsStrict(p) {
						inside = true
						break
					}
				}
				if !inside {
					seed = geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
					break
				}
			}
			got := growSides(seed, cell, alarms, w)
			for _, a := range alarms {
				if got.Overlaps(a) {
					t.Fatalf("iter %d: grown %v overlaps %v", iter, got, a)
				}
			}
			if !cell.ContainsRect(got) {
				t.Fatalf("iter %d: grown %v escaped cell", iter, got)
			}
		}
	})
}
