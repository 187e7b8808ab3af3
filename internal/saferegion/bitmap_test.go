package saferegion

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/pyramid"
)

func TestComputeBitmapSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		var alarms []geom.Rect
		for i := 0; i < 1+rng.Intn(8); i++ {
			w, h := rng.Float64()*200+5, rng.Float64()*200+5
			x, y := rng.Float64()*900, rng.Float64()*900
			alarms = append(alarms, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		res, err := ComputeBitmap(cell, pyramid.DefaultParams(4), alarms, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.IntersectionTests == 0 {
			t.Fatal("no intersection tests recorded")
		}
		reg, err := pyramid.Decode(res.Bitmap)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			inAlarm := false
			for _, a := range alarms {
				if a.Contains(p) {
					inAlarm = true
					break
				}
			}
			if inAlarm && reg.Contains(p) {
				t.Fatalf("iter %d: alarm point %v in bitmap safe region", iter, p)
			}
		}
	}
}

// TestComputeBitmapWithPrecomputed verifies the §4.2 public-alarm
// precomputation: building against (public ∪ private) directly must yield
// the same safe region as building against private with the public bitmap
// precomputed, while touching fewer alarm rectangles.
func TestComputeBitmapWithPrecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	params := pyramid.DefaultParams(4)
	for iter := 0; iter < 25; iter++ {
		var public, private []geom.Rect
		for i := 0; i < 5+rng.Intn(10); i++ {
			w, h := rng.Float64()*150+5, rng.Float64()*150+5
			x, y := rng.Float64()*900, rng.Float64()*900
			public = append(public, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		for i := 0; i < rng.Intn(5); i++ {
			w, h := rng.Float64()*150+5, rng.Float64()*150+5
			x, y := rng.Float64()*900, rng.Float64()*900
			private = append(private, geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h})
		}
		all := append(append([]geom.Rect(nil), public...), private...)
		direct, err := ComputeBitmap(cell, params, all, nil)
		if err != nil {
			t.Fatal(err)
		}
		pubRes, err := ComputeBitmap(cell, params, public, nil)
		if err != nil {
			t.Fatal(err)
		}
		pubRegion, err := pyramid.Decode(pubRes.Bitmap)
		if err != nil {
			t.Fatal(err)
		}
		viaPre, err := ComputeBitmap(cell, params, private, pubRegion)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Bitmap.String() != viaPre.Bitmap.String() {
			t.Fatalf("iter %d: precomputed path produced different bitmap\n direct: %s\n via:    %s",
				iter, direct.Bitmap.String(), viaPre.Bitmap.String())
		}
		// The precomputation replaces len(public) rect tests per probe by
		// one pyramid probe, so it must do less work when publics dominate.
		if viaPre.IntersectionTests >= direct.IntersectionTests {
			t.Errorf("iter %d: precomputed tests %d >= direct %d",
				iter, viaPre.IntersectionTests, direct.IntersectionTests)
		}
	}
}

// TestComputeBitmapOverBaseProperty is the equivalence the precompute
// rests on, as a property rather than examples: for random public and
// private rectangle sets, any client height up to the base's and any bit
// budget, the lockstep encode over the height-5 public base gives the very
// bits of the direct encode over the union, and charges exactly one pyramid
// probe per emitted cell plus the private alarms tested on cells the base
// does not already block fully — the count the root re-descent charged.
func TestComputeBitmapOverBaseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	randRects := func(n int) []geom.Rect {
		var out []geom.Rect
		for i := 0; i < n; i++ {
			// A third of the edges snap to the 100 m lattice the 3×3
			// pyramid subdivides a 900 m cell on.
			coord := func() float64 {
				if rng.Intn(3) == 0 {
					return float64(rng.Intn(10)) * 100
				}
				return rng.Float64() * 900
			}
			x, y := coord(), coord()
			out = append(out, geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*250, MaxY: y + rng.Float64()*250})
		}
		return out
	}
	baseLeaf := cell.Width() / math.Pow(3, 5) // side of a cell at the base's maximum height
	for iter := 0; iter < 40; iter++ {
		public, private := randRects(rng.Intn(12)), randRects(rng.Intn(6))
		all := append(append([]geom.Rect(nil), public...), private...)
		pubRes, err := ComputeBitmap(cell, pyramid.DefaultParams(5), public, nil)
		if err != nil {
			t.Fatal(err)
		}
		base, err := pyramid.Decode(pubRes.Bitmap)
		if err != nil {
			t.Fatal(err)
		}
		for h := 1; h <= 5; h++ {
			for _, maxBits := range []int{0, 64, 2048} {
				params := pyramid.DefaultParams(h)
				params.MaxBits = maxBits
				direct, err := ComputeBitmap(cell, params, all, nil)
				if err != nil {
					t.Fatal(err)
				}
				over, err := ComputeBitmap(cell, params, private, base)
				if err != nil {
					t.Fatal(err)
				}
				if direct.Bitmap.String() != over.Bitmap.String() {
					t.Fatalf("iter %d h=%d budget=%d: bitmaps differ\n direct: %s\n over:   %s",
						iter, h, maxBits, direct.Bitmap, over.Bitmap)
				}
				// The reference count classifies every emitted cell against
				// the public rectangles themselves instead of the base.
				want := 0
				_, err = pyramid.Encode(cell, params, nil, func(r geom.Rect, _ pyramid.Coverage) pyramid.Coverage {
					want++
					cov := pyramid.CoverageOf(r, public)
					if cov == pyramid.CoverFull && r.Width() < baseLeaf*1.5 {
						// A blocked cell at the base's maximum height carries
						// no expand bit, so the base cannot tell it is covered.
						cov = pyramid.CoverPartial
					}
					if cov == pyramid.CoverFull {
						return cov
					}
					for _, a := range private {
						want++
						if !a.Intersects(r) {
							continue
						}
						if a.ContainsRect(r) {
							return pyramid.CoverFull
						}
						cov = pyramid.CoverPartial
					}
					return cov
				})
				if err != nil {
					t.Fatal(err)
				}
				if over.IntersectionTests != want {
					t.Fatalf("iter %d h=%d budget=%d: %d intersection tests, want %d",
						iter, h, maxBits, over.IntersectionTests, want)
				}
			}
		}
	}
}

func TestComputeBitmapInvalidParams(t *testing.T) {
	if _, err := ComputeBitmap(cell, pyramid.Params{U: 1, V: 3, Height: 2}, nil, nil); err == nil {
		t.Error("expected error for invalid params")
	}
}

func TestSafePeriodTicks(t *testing.T) {
	tests := []struct {
		name     string
		dist     float64
		vmax     float64
		tick     float64
		maxTicks int
		want     int
	}{
		{"no alarms", math.Inf(1), 30, 1, 600, 600},
		{"zero distance", 0, 30, 1, 600, 0},
		{"negative distance", -5, 30, 1, 600, 0},
		{"sub tick", 20, 30, 1, 600, 0},
		{"exact ticks", 90, 30, 1, 600, 3},
		{"floors", 99, 30, 1, 600, 3},
		{"capped", 1e9, 30, 1, 600, 600},
		{"coarser tick", 90, 30, 3, 600, 1},
		{"bad vmax", 100, 0, 1, 600, 0},
		{"bad tick", 100, 30, 0, 600, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SafePeriodTicks(tt.dist, tt.vmax, tt.tick, tt.maxTicks); got != tt.want {
				t.Errorf("SafePeriodTicks = %d, want %d", got, tt.want)
			}
		})
	}
}

// Property: during a safe period the client provably cannot reach the
// nearest alarm: ticks * vmax * tickSeconds <= dist.
func TestSafePeriodPessimistic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		dist := rng.Float64() * 10000
		vmax := rng.Float64()*40 + 1
		tick := rng.Float64()*4 + 0.1
		ticks := SafePeriodTicks(dist, vmax, tick, 1<<30)
		if float64(ticks)*vmax*tick > dist+1e-9 {
			t.Fatalf("safe period overshoots: %d ticks × %v m/s × %v s > %v m", ticks, vmax, tick, dist)
		}
	}
}
