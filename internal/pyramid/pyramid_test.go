package pyramid

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

var testCell = geom.Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 900}

func blockedBy(alarms []geom.Rect) func(geom.Rect, Coverage) Coverage {
	return func(r geom.Rect, _ Coverage) Coverage { return CoverageOf(r, alarms) }
}

func mustEncode(t testing.TB, cell geom.Rect, p Params, blocked func(geom.Rect, Coverage) Coverage) *Bitmap {
	t.Helper()
	b, err := Encode(cell, p, nil, blocked)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustDecode(t testing.TB, b *Bitmap) *Region {
	t.Helper()
	r, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"default h1", DefaultParams(1), false},
		{"default h7", DefaultParams(7), false},
		{"u too small", Params{U: 1, V: 3, Height: 2}, true},
		{"v too big", Params{U: 3, V: 17, Height: 2}, true},
		{"height zero", Params{U: 3, V: 3, Height: 0}, true},
		{"height too big", Params{U: 3, V: 3, Height: 13}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEncodeEmptyCell(t *testing.T) {
	if _, err := Encode(geom.Rect{}, DefaultParams(2), nil, blockedBy(nil)); err == nil {
		t.Error("expected error for empty cell")
	}
}

func TestAllSafeSingleBit(t *testing.T) {
	b := mustEncode(t, testCell, DefaultParams(3), blockedBy(nil))
	if b.SizeBits() != 1 {
		t.Fatalf("SizeBits = %d, want 1", b.SizeBits())
	}
	if b.String() != "1" {
		t.Errorf("bits = %q, want \"1\"", b.String())
	}
	r := mustDecode(t, b)
	if !r.Contains(geom.Pt(450, 450)) {
		t.Error("all-safe region should contain interior point")
	}
	if r.Contains(geom.Pt(-1, 450)) {
		t.Error("points outside the cell are never contained")
	}
	if c := r.Coverage(); math.Abs(c-1) > 1e-12 {
		t.Errorf("Coverage = %v, want 1", c)
	}
}

func TestFullyBlockedSizes(t *testing.T) {
	// A cover() that always reports partial opens every cell above the
	// maximum height. With the expand-bit extension every such cell costs
	// 2 bits and max-height cells cost 1:
	// bits = 2·(1 + 9 + … + 9^(h−1)) + 9^h for U=V=3.
	always := func(geom.Rect, Coverage) Coverage { return CoverPartial }
	wantBits := func(h int) int {
		inner, pow := 0, 1
		for l := 0; l < h; l++ {
			inner += pow
			pow *= 9
		}
		return 2*inner + pow
	}
	for h := 1; h <= 4; h++ {
		b := mustEncode(t, testCell, DefaultParams(h), always)
		if b.SizeBits() != wantBits(h) {
			t.Errorf("h=%d: SizeBits = %d, want %d", h, b.SizeBits(), wantBits(h))
		}
		r := mustDecode(t, b)
		if r.Coverage() != 0 {
			t.Errorf("h=%d: Coverage = %v, want 0", h, r.Coverage())
		}
		if r.Contains(geom.Pt(1, 1)) {
			t.Error("fully blocked region contains a point")
		}
	}
}

// TestPaperFigure3Sizes reproduces the size comparison of paper §4.2: for a
// safe region representable at 9×9 resolution, the flat GBSR (one level of
// 9×9 = 82 bits) must use more bits than the PBSR (3×3, h=2) whenever the
// blockage is localized.
func TestPaperFigure3Sizes(t *testing.T) {
	// Alarms confined to the bottom-left third of the cell.
	alarms := []geom.Rect{
		{MinX: 10, MinY: 10, MaxX: 200, MaxY: 150},
		{MinX: 120, MinY: 180, MaxX: 260, MaxY: 290},
	}
	gbsr := mustEncode(t, testCell, Params{U: 9, V: 9, Height: 1}, blockedBy(alarms))
	pbsr := mustEncode(t, testCell, Params{U: 3, V: 3, Height: 2}, blockedBy(alarms))
	// The paper's GBSR example is 82 bits (1 + 81); the expand-bit
	// extension adds one bit for the partially covered root.
	if gbsr.SizeBits() != 83 {
		t.Fatalf("GBSR 9x9 size = %d, want 83", gbsr.SizeBits())
	}
	if pbsr.SizeBits() >= gbsr.SizeBits() {
		t.Errorf("PBSR (%d bits) should be smaller than GBSR (%d bits)", pbsr.SizeBits(), gbsr.SizeBits())
	}
	// And PBSR coverage at equal effective resolution is at least GBSR's.
	cg := mustDecode(t, gbsr).Coverage()
	cp := mustDecode(t, pbsr).Coverage()
	if cp+1e-12 < cg {
		t.Errorf("PBSR coverage %v < GBSR coverage %v at same resolution", cp, cg)
	}
}

func TestRoundTripBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		var alarms []geom.Rect
		for i := 0; i < rng.Intn(12); i++ {
			w, h := rng.Float64()*200+5, rng.Float64()*200+5
			x, y := rng.Float64()*880, rng.Float64()*880
			alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		p := Params{U: 2 + rng.Intn(3), V: 2 + rng.Intn(3), Height: 1 + rng.Intn(4)}
		b := mustEncode(t, testCell, p, blockedBy(alarms))
		r := mustDecode(t, b)
		// Re-encode from the decoded region's own predicate: a rect is
		// "blocked" iff it is not fully safe. Checking equality of decoded
		// safe area instead (bit-exact re-encoding isn't required).
		safeRects := r.SafeRects(nil)
		var sum float64
		for _, sr := range safeRects {
			sum += sr.Area()
		}
		if math.Abs(sum/testCell.Area()-r.Coverage()) > 1e-9 {
			t.Fatalf("iter %d: SafeRects area %v disagrees with Coverage %v", iter, sum/testCell.Area(), r.Coverage())
		}
	}
}

// TestSoundness is the central property: no point inside any alarm region
// may ever be contained in the decoded safe region, at any height.
func TestSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		var alarms []geom.Rect
		for i := 0; i < 1+rng.Intn(10); i++ {
			w, h := rng.Float64()*250+5, rng.Float64()*250+5
			x, y := rng.Float64()*880, rng.Float64()*880
			alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		for h := 1; h <= 5; h++ {
			b := mustEncode(t, testCell, DefaultParams(h), blockedBy(alarms))
			r := mustDecode(t, b)
			for i := 0; i < 500; i++ {
				p := geom.Pt(rng.Float64()*900, rng.Float64()*900)
				inAlarm := false
				for _, a := range alarms {
					if a.Contains(p) {
						inAlarm = true
						break
					}
				}
				if inAlarm && r.Contains(p) {
					t.Fatalf("iter %d h=%d: alarm point %v inside safe region", iter, h, p)
				}
			}
			// Points inside alarms sampled directly (boundary-heavy).
			for _, a := range alarms {
				for _, p := range []geom.Point{a.Center(), {X: a.MinX, Y: a.MinY}, {X: a.MaxX, Y: a.MaxY}} {
					if testCell.Contains(p) && r.Contains(p) {
						t.Fatalf("iter %d h=%d: alarm boundary point %v in safe region", iter, h, p)
					}
				}
			}
		}
	}
}

// TestCoverageMonotoneInHeight: higher pyramids refine blocked cells, so
// coverage never decreases with height (paper Proposition 3).
func TestCoverageMonotoneInHeight(t *testing.T) {
	alarms := []geom.Rect{
		{MinX: 100, MinY: 100, MaxX: 350, MaxY: 250},
		{MinX: 500, MinY: 600, MaxX: 620, MaxY: 780},
		{MinX: 40, MinY: 700, MaxX: 180, MaxY: 860},
	}
	prev := -1.0
	prevBits := 0
	for h := 1; h <= 6; h++ {
		b := mustEncode(t, testCell, DefaultParams(h), blockedBy(alarms))
		c := mustDecode(t, b).Coverage()
		if c < prev-1e-12 {
			t.Errorf("coverage decreased at h=%d: %v -> %v", h, prev, c)
		}
		if h > 1 && b.SizeBits() < prevBits {
			t.Errorf("bitmap shrank with height at h=%d: %d -> %d", h, prevBits, b.SizeBits())
		}
		prev, prevBits = c, b.SizeBits()
	}
	if prev <= 0.5 {
		t.Errorf("final coverage %v suspiciously low for sparse alarms", prev)
	}
}

// TestCoveredLeafPruning: a cell wholly inside an alarm must not subdivide,
// keeping bitmap sizes bounded (the expand-bit extension).
func TestCoveredLeafPruning(t *testing.T) {
	// Alarm covers the whole cell: 2 bits total (blocked root + expand 0).
	covering := []geom.Rect{testCell.Expand(10)}
	b := mustEncode(t, testCell, DefaultParams(7), blockedBy(covering))
	if b.SizeBits() != 2 {
		t.Fatalf("fully covered cell encoded in %d bits, want 2", b.SizeBits())
	}
	r := mustDecode(t, b)
	if r.Coverage() != 0 {
		t.Errorf("Coverage = %v", r.Coverage())
	}
	if r.Contains(geom.Pt(450, 450)) {
		t.Error("covered cell contained a point")
	}
	var rootCov Coverage
	if _, err := Encode(testCell, DefaultParams(1), r, func(_ geom.Rect, base Coverage) Coverage {
		rootCov = base
		return base
	}); err != nil {
		t.Fatal(err)
	}
	if rootCov != CoverFull {
		t.Errorf("base coverage of the root = %v, want CoverFull", rootCov)
	}
	// An alarm covering one level-1 child exactly: that child is a covered
	// leaf; total bits stay small even at height 7.
	child := childRect(testCell, 3, 3, 4) // centre child
	// Sibling cells share edges with the alarm and refine along them —
	// O(3^h) boundary cells, not the O(9^h) interior blow-up the covered
	// leaf prevents (9^7 would be ~4.8M bits).
	b2 := mustEncode(t, testCell, DefaultParams(7), blockedBy([]geom.Rect{child}))
	if b2.SizeBits() > 60000 {
		t.Errorf("centre-covered encoding ballooned to %d bits", b2.SizeBits())
	}
	r2 := mustDecode(t, b2)
	if r2.Contains(child.Center()) {
		t.Error("covered child contained its centre")
	}
	if !r2.Contains(geom.Pt(10, 10)) {
		t.Error("far corner should be safe")
	}
}

// TestBaseWalkAgainstDirect: the precompute-consistency contract. For every
// aligned cell the lockstep walk hands the classifier exactly what a direct
// classification against the base's alarms gives — for the base's own nodes
// and, through sentinel inheritance, for cells below its safe and covered
// leaves (the walk is forced to expand everything down to level 3).
func TestBaseWalkAgainstDirect(t *testing.T) {
	alarms := []geom.Rect{
		{MinX: 100, MinY: 100, MaxX: 420, MaxY: 380},
		{MinX: 600, MinY: 650, MaxX: 700, MaxY: 900},
	}
	base := mustDecode(t, mustEncode(t, testCell, DefaultParams(5), blockedBy(alarms)))
	cells := 0
	_, err := Encode(testCell, DefaultParams(3), base, func(rect geom.Rect, got Coverage) Coverage {
		cells++
		if want := CoverageOf(rect, alarms); got != want {
			t.Fatalf("cell %v: base coverage = %v, direct = %v", rect, got, want)
		}
		return CoverPartial
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 9 + 81 + 729; cells != want {
		t.Fatalf("walk visited %d cells, want %d", cells, want)
	}
}

// TestBaseWalkBelowBaseHeight: below a blocked leaf at the base's maximum
// height the base has no refinement left, so every sub-cell stays partial —
// conservative, never safe.
func TestBaseWalkBelowBaseHeight(t *testing.T) {
	alarms := []geom.Rect{{MinX: 430, MinY: 430, MaxX: 470, MaxY: 470}}
	base := mustDecode(t, mustEncode(t, testCell, DefaultParams(1), blockedBy(alarms)))
	centre := childRect(testCell, 3, 3, 4)
	_, err := Encode(testCell, DefaultParams(3), base, func(rect geom.Rect, got Coverage) Coverage {
		want := CoverNone
		if centre.ContainsRect(rect) || rect.ContainsRect(centre) {
			want = CoverPartial
		}
		if got != want {
			t.Fatalf("cell %v: base coverage = %v, want %v", rect, got, want)
		}
		return CoverPartial
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEncodeBaseMismatch: a base of another cell or split cannot be walked
// in lockstep and must be rejected, not silently misread.
func TestEncodeBaseMismatch(t *testing.T) {
	base := mustDecode(t, mustEncode(t, testCell, DefaultParams(3), blockedBy(nil)))
	other := geom.Rect{MinX: 900, MinY: 0, MaxX: 1800, MaxY: 900}
	if _, err := Encode(other, DefaultParams(3), base, blockedBy(nil)); err == nil {
		t.Error("base of a different cell accepted")
	}
	if _, err := Encode(testCell, Params{U: 2, V: 2, Height: 3}, base, blockedBy(nil)); err == nil {
		t.Error("base of a different split accepted")
	}
}

func TestContainsProbesBounded(t *testing.T) {
	alarms := []geom.Rect{{MinX: 430, MinY: 430, MaxX: 470, MaxY: 470}}
	for h := 1; h <= 7; h++ {
		b := mustEncode(t, testCell, DefaultParams(h), blockedBy(alarms))
		r := mustDecode(t, b)
		rng := rand.New(rand.NewSource(int64(h)))
		maxProbes := 0
		for i := 0; i < 2000; i++ {
			p := geom.Pt(rng.Float64()*900, rng.Float64()*900)
			_, probes := r.ContainsProbes(p)
			if probes > maxProbes {
				maxProbes = probes
			}
		}
		if maxProbes > h+1 {
			t.Errorf("h=%d: max probes %d exceeds h+1", h, maxProbes)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	alarms := []geom.Rect{{MinX: 0, MinY: 0, MaxX: 450, MaxY: 450}}
	good := mustEncode(t, testCell, DefaultParams(2), blockedBy(alarms))

	t.Run("truncated", func(t *testing.T) {
		bad := *good
		bad.NBits = good.NBits - 3
		if _, err := Decode(&bad); err == nil {
			t.Error("expected error for truncated bitmap")
		}
	})
	t.Run("trailing bits", func(t *testing.T) {
		bad := *good
		bad.Data = append(append([]byte(nil), good.Data...), 0xFF)
		bad.NBits = good.NBits + 8
		if _, err := Decode(&bad); err == nil {
			t.Error("expected error for trailing bits")
		}
	})
	t.Run("nbits beyond data", func(t *testing.T) {
		bad := *good
		bad.NBits = len(good.Data)*8 + 5
		if _, err := Decode(&bad); err == nil {
			t.Error("expected error for NBits > data")
		}
	})
	t.Run("invalid params", func(t *testing.T) {
		bad := *good
		bad.Params = Params{U: 0, V: 3, Height: 2}
		if _, err := Decode(&bad); err == nil {
			t.Error("expected error for invalid params")
		}
	})
	t.Run("empty cell", func(t *testing.T) {
		bad := *good
		bad.Cell = geom.Rect{}
		if _, err := Decode(&bad); err == nil {
			t.Error("expected error for empty cell")
		}
	})
}

func TestChildRectPartition(t *testing.T) {
	rect := geom.Rect{MinX: 10, MinY: 20, MaxX: 100, MaxY: 110}
	for _, uv := range [][2]int{{2, 2}, {3, 3}, {3, 4}, {5, 2}} {
		u, v := uv[0], uv[1]
		var total float64
		for i := 0; i < u*v; i++ {
			c := childRect(rect, u, v, i)
			total += c.Area()
			if !rect.ContainsRect(c) {
				t.Errorf("%dx%d child %d %v escapes parent", u, v, i, c)
			}
			for j := i + 1; j < u*v; j++ {
				if c.Overlaps(childRect(rect, u, v, j)) {
					t.Errorf("%dx%d children %d and %d overlap", u, v, i, j)
				}
			}
		}
		if math.Abs(total-rect.Area()) > 1e-6 {
			t.Errorf("%dx%d children areas sum %v != parent %v", u, v, total, rect.Area())
		}
	}
}

func TestLocateChildConsistency(t *testing.T) {
	rect := geom.Rect{MinX: 0, MinY: 0, MaxX: 90, MaxY: 90}
	rng := rand.New(rand.NewSource(3))
	for _, uv := range [][2]int{{2, 2}, {3, 3}, {4, 5}} {
		u, v := uv[0], uv[1]
		for i := 0; i < 2000; i++ {
			p := geom.Pt(rng.Float64()*90, rng.Float64()*90)
			idx := locateChild(rect, u, v, p)
			if idx < 0 || idx >= u*v {
				t.Fatalf("locateChild out of range: %d", idx)
			}
			if !childRect(rect, u, v, idx).Contains(p) {
				t.Fatalf("%dx%d: child %d does not contain %v", u, v, idx, p)
			}
		}
		// Boundary points still land in a containing child.
		for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 90, Y: 90}, {X: 30, Y: 30}, {X: 45, Y: 0}} {
			idx := locateChild(rect, u, v, p)
			if !childRect(rect, u, v, idx).Contains(p) {
				t.Fatalf("%dx%d: boundary %v -> child %d not containing", u, v, p, idx)
			}
		}
	}
}

func TestRasterOrderMatchesPaper(t *testing.T) {
	// With a 3x3 split, index 0 must be the top-left child (raster scan).
	rect := geom.Rect{MinX: 0, MinY: 0, MaxX: 90, MaxY: 90}
	c0 := childRect(rect, 3, 3, 0)
	if c0.MinX != 0 || c0.MaxY != 90 {
		t.Errorf("child 0 = %v, want top-left", c0)
	}
	c8 := childRect(rect, 3, 3, 8)
	if c8.MaxX != 90 || c8.MinY != 0 {
		t.Errorf("child 8 = %v, want bottom-right", c8)
	}
}

func BenchmarkEncodeH5(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var alarms []geom.Rect
	for i := 0; i < 20; i++ {
		w, h := rng.Float64()*100+5, rng.Float64()*100+5
		x, y := rng.Float64()*800, rng.Float64()*800
		alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
	}
	blocked := blockedBy(alarms)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Encode(testCell, DefaultParams(5), nil, blocked); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContains(b *testing.B) {
	alarms := []geom.Rect{{MinX: 100, MinY: 100, MaxX: 300, MaxY: 300}}
	bm := mustEncode(b, testCell, DefaultParams(5), blockedBy(alarms))
	r := mustDecode(b, bm)
	pts := make([]geom.Point, 1024)
	rng := rand.New(rand.NewSource(2))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*900, rng.Float64()*900)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		r.Contains(pts[n%len(pts)])
	}
}

func TestMergedSafeRects(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 25; iter++ {
		var alarms []geom.Rect
		for i := 0; i < 1+rng.Intn(8); i++ {
			w, h := rng.Float64()*250+5, rng.Float64()*250+5
			x, y := rng.Float64()*880, rng.Float64()*880
			alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		b := mustEncode(t, testCell, DefaultParams(4), blockedBy(alarms))
		r := mustDecode(t, b)
		raw := r.SafeRects(nil)
		merged := r.MergedSafeRects()
		if len(merged) > len(raw) {
			t.Fatalf("iter %d: merge grew the set: %d > %d", iter, len(merged), len(raw))
		}
		// Area preserved.
		var rawA, mergedA float64
		for _, rc := range raw {
			rawA += rc.Area()
		}
		for _, rc := range merged {
			mergedA += rc.Area()
		}
		if math.Abs(rawA-mergedA) > 1e-6*rawA {
			t.Fatalf("iter %d: area changed: %v vs %v", iter, mergedA, rawA)
		}
		// Disjoint.
		for i := range merged {
			for j := i + 1; j < len(merged); j++ {
				if merged[i].Overlaps(merged[j]) {
					t.Fatalf("iter %d: merged rects %v and %v overlap", iter, merged[i], merged[j])
				}
			}
		}
		// Containment equivalence on random points.
		for q := 0; q < 200; q++ {
			p := geom.Pt(rng.Float64()*900, rng.Float64()*900)
			inMerged := false
			for _, rc := range merged {
				if rc.Contains(p) {
					inMerged = true
					break
				}
			}
			// Contains is cell-based; boundaries may differ by inclusion,
			// so compare only for strictly interior points of the merged set
			// vs the region's own verdict on clearly-inside points.
			if inMerged && !r.Contains(p) {
				// p may sit on a blocked/safe boundary; tolerate only
				// boundary coincidences.
				onBoundary := false
				for _, rc := range merged {
					if rc.Contains(p) && !rc.ContainsStrict(p) {
						onBoundary = true
						break
					}
				}
				if !onBoundary {
					t.Fatalf("iter %d: merged contains %v but region does not", iter, p)
				}
			}
		}
	}
}

func TestMergedSafeRectsReduction(t *testing.T) {
	// A single small alarm leaves large contiguous safe areas: merging
	// must reduce the rect count substantially.
	alarms := []geom.Rect{{MinX: 430, MinY: 430, MaxX: 470, MaxY: 470}}
	b := mustEncode(t, testCell, DefaultParams(4), blockedBy(alarms))
	r := mustDecode(t, b)
	raw := len(r.SafeRects(nil))
	merged := len(r.MergedSafeRects())
	if merged >= raw/2 {
		t.Errorf("merge only reduced %d -> %d rects", raw, merged)
	}
}
