package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDistance(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"horizontal", Pt(0, 0), Pt(3, 0), 3},
		{"vertical", Pt(0, 0), Pt(0, 4), 4},
		{"pythagorean", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.DistanceTo(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("DistanceTo = %v, want %v", got, tt.want)
			}
			if got := tt.p.DistanceSqTo(tt.q); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Errorf("DistanceSqTo = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestVectorAngle(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{"east", Vector{1, 0}, 0},
		{"north", Vector{0, 1}, math.Pi / 2},
		{"west", Vector{-1, 0}, math.Pi},
		{"south", Vector{0, -1}, -math.Pi / 2},
		{"northeast", Vector{1, 1}, math.Pi / 4},
		{"zero vector", Vector{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Angle(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Angle = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(5, 7, 1, 2)
	want := Rect{1, 2, 5, 7}
	if r != want {
		t.Errorf("R(5,7,1,2) = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Error("normalized rect should be valid")
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(10, 20), 4)
	want := Rect{8, 18, 12, 22}
	if r != want {
		t.Errorf("RectAround = %v, want %v", r, want)
	}
}

func TestRectMeasures(t *testing.T) {
	r := Rect{0, 0, 4, 3}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Perimeter(); got != 14 {
		t.Errorf("Perimeter = %v, want 14", got)
	}
	if got := r.Margin(); got != 7 {
		t.Errorf("Margin = %v, want 7", got)
	}
	if got := r.Center(); got != Pt(2, 1.5) {
		t.Errorf("Center = %v, want (2,1.5)", got)
	}
	invalid := Rect{4, 0, 0, 3}
	if invalid.Area() != 0 || invalid.Perimeter() != 0 {
		t.Error("invalid rect should have zero measures")
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		name              string
		p                 Point
		inclusive, strict bool
	}{
		{"interior", Pt(5, 5), true, true},
		{"corner", Pt(0, 0), true, false},
		{"edge", Pt(10, 5), true, false},
		{"outside", Pt(11, 5), false, false},
		{"above", Pt(5, 10.001), false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.inclusive {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.inclusive)
			}
			if got := r.ContainsStrict(tt.p); got != tt.strict {
				t.Errorf("ContainsStrict(%v) = %v, want %v", tt.p, got, tt.strict)
			}
		})
	}
}

func TestRectIntersections(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	tests := []struct {
		name                 string
		b                    Rect
		intersects, overlaps bool
	}{
		{"disjoint", Rect{20, 20, 30, 30}, false, false},
		{"touching edge", Rect{10, 0, 20, 10}, true, false},
		{"touching corner", Rect{10, 10, 20, 20}, true, false},
		{"proper overlap", Rect{5, 5, 15, 15}, true, true},
		{"contained", Rect{2, 2, 8, 8}, true, true},
		{"identical", a, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.intersects {
				t.Errorf("Intersects = %v, want %v", got, tt.intersects)
			}
			if got := a.Overlaps(tt.b); got != tt.overlaps {
				t.Errorf("Overlaps = %v, want %v", got, tt.overlaps)
			}
			// Symmetry.
			if a.Intersects(tt.b) != tt.b.Intersects(a) {
				t.Error("Intersects not symmetric")
			}
			if a.Overlaps(tt.b) != tt.b.Overlaps(a) {
				t.Error("Overlaps not symmetric")
			}
		})
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 15, 15}
	if got, want := a.Intersect(b), (Rect{5, 5, 10, 10}); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Union(b), (Rect{0, 0, 15, 15}); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	disjoint := Rect{20, 20, 30, 30}
	if a.Intersect(disjoint).Valid() {
		t.Error("intersection of disjoint rects should be invalid")
	}
	if got := a.OverlapArea(b); got != 25 {
		t.Errorf("OverlapArea = %v, want 25", got)
	}
	if got := a.OverlapArea(disjoint); got != 0 {
		t.Errorf("OverlapArea disjoint = %v, want 0", got)
	}
	if got := a.EnlargementArea(b); got != 125 {
		t.Errorf("EnlargementArea = %v, want 125", got)
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"inside", Pt(5, 5), 0},
		{"on edge", Pt(10, 5), 0},
		{"right of", Pt(13, 5), 3},
		{"above", Pt(5, 14), 4},
		{"diagonal", Pt(13, 14), 5},
		{"below left", Pt(-3, -4), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.MinDist(tt.p); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("MinDist = %v, want %v", got, tt.want)
			}
			if got := r.MinDistSq(tt.p); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Errorf("MinDistSq = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestRectMaxDist(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if got := r.MaxDist(Pt(0, 0)); math.Abs(got-math.Hypot(10, 10)) > 1e-12 {
		t.Errorf("MaxDist corner = %v", got)
	}
	if got := r.MaxDist(Pt(5, 5)); math.Abs(got-math.Hypot(5, 5)) > 1e-12 {
		t.Errorf("MaxDist center = %v", got)
	}
}

func TestRectClampPoint(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if got := r.ClampPoint(Pt(5, 5)); got != Pt(5, 5) {
		t.Errorf("inside point should clamp to itself, got %v", got)
	}
	if got := r.ClampPoint(Pt(-5, 20)); got != Pt(0, 10) {
		t.Errorf("ClampPoint = %v, want (0,10)", got)
	}
}

func TestRectCorners(t *testing.T) {
	r := Rect{1, 2, 3, 4}
	c := r.Corners()
	want := [4]Point{{1, 2}, {3, 2}, {3, 4}, {1, 4}}
	if c != want {
		t.Errorf("Corners = %v, want %v", c, want)
	}
}

func TestSubtractClip(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	anchor := Pt(2, 2)

	t.Run("no overlap returns unchanged", func(t *testing.T) {
		got, ok := r.SubtractClip(Rect{20, 20, 30, 30}, anchor)
		if !ok || got != r {
			t.Errorf("got %v ok=%v", got, ok)
		}
	})
	t.Run("clips away obstacle keeping anchor", func(t *testing.T) {
		obstacle := Rect{6, 0, 10, 10}
		got, ok := r.SubtractClip(obstacle, anchor)
		if !ok {
			t.Fatal("expected ok")
		}
		if got.Overlaps(obstacle) {
			t.Errorf("clipped rect %v still overlaps obstacle", got)
		}
		if !got.Contains(anchor) {
			t.Errorf("clipped rect %v lost anchor", got)
		}
	})
	t.Run("chooses largest remainder", func(t *testing.T) {
		obstacle := Rect{8, 8, 10, 10}
		got, _ := r.SubtractClip(obstacle, anchor)
		// Cutting at x=8 keeps area 80; cutting at y=8 also keeps 80.
		if got.Area() != 80 {
			t.Errorf("Area = %v, want 80", got.Area())
		}
	})
	t.Run("anchor inside obstacle fails", func(t *testing.T) {
		obstacle := Rect{1, 1, 3, 3}
		_, ok := r.SubtractClip(obstacle, Pt(2, 2))
		if ok {
			t.Error("expected failure when anchor is inside obstacle interior")
		}
	})
	t.Run("anchor on obstacle boundary succeeds", func(t *testing.T) {
		obstacle := Rect{2, 2, 4, 4}
		got, ok := r.SubtractClip(obstacle, Pt(2, 2))
		if !ok {
			t.Fatal("expected ok on boundary anchor")
		}
		if got.Overlaps(obstacle) || !got.Contains(Pt(2, 2)) {
			t.Errorf("bad clip result %v", got)
		}
	})
}

// TestSubtractClipProperty verifies that repeated clipping against random
// obstacles always yields a rectangle that contains the anchor and overlaps
// no obstacle — the soundness safety net for rectangular safe regions.
func TestSubtractClipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		region := Rect{0, 0, 1000, 1000}
		anchor := Pt(rng.Float64()*1000, rng.Float64()*1000)
		var obstacles []Rect
		for i := 0; i < 20; i++ {
			w, h := rng.Float64()*200+1, rng.Float64()*200+1
			x, y := rng.Float64()*1000, rng.Float64()*1000
			ob := Rect{x, y, x + w, y + h}
			if ob.ContainsStrict(anchor) {
				continue
			}
			obstacles = append(obstacles, ob)
		}
		cur := region
		for _, ob := range obstacles {
			next, ok := cur.SubtractClip(ob, anchor)
			if !ok {
				t.Fatalf("iter %d: clip failed for obstacle %v anchor %v", iter, ob, anchor)
			}
			cur = next
		}
		if !cur.Contains(anchor) {
			t.Fatalf("iter %d: result %v lost anchor %v", iter, cur, anchor)
		}
		for _, ob := range obstacles {
			if cur.Overlaps(ob) {
				t.Fatalf("iter %d: result %v overlaps obstacle %v", iter, cur, ob)
			}
		}
	}
}

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestNormalizeAngleSkipsModExactly: leaving math.Mod out for |a| < 2π
// must not change a bit of the result, at the range ends and zero signs
// included.
func TestNormalizeAngleSkipsModExactly(t *testing.T) {
	ref := func(a float64) float64 {
		a = math.Mod(a, 2*math.Pi)
		if a > math.Pi {
			a -= 2 * math.Pi
		} else if a <= -math.Pi {
			a += 2 * math.Pi
		}
		return a
	}
	in := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e300, -1e300}
	for _, edge := range []float64{math.Pi, 2 * math.Pi, 3 * math.Pi, 4 * math.Pi} {
		for _, v := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 100)} {
			in = append(in, v, -v)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		in = append(in, (rng.Float64()*2-1)*7*math.Pi)
	}
	for _, a := range in {
		got, want := NormalizeAngle(a), ref(a)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("NormalizeAngle(%v) = %v, with math.Mod %v", a, got, want)
		}
	}
}

// Property: Union always contains both inputs; Intersect is contained in both.
func TestQuickUnionIntersectProperties(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := R(clampf(x1), clampf(y1), clampf(x2), clampf(y2))
		b := R(clampf(x3), clampf(y3), clampf(x4), clampf(y4))
		u := a.Union(b)
		if !u.ContainsRect(a) || !u.ContainsRect(b) {
			return false
		}
		i := a.Intersect(b)
		if i.Valid() && (!a.ContainsRect(i) || !b.ContainsRect(i)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: MinDist(p) == 0 iff Contains(p), for finite inputs.
func TestQuickMinDistContainsAgreement(t *testing.T) {
	f := func(x1, y1, x2, y2, px, py float64) bool {
		r := R(clampf(x1), clampf(y1), clampf(x2), clampf(y2))
		p := Pt(clampf(px), clampf(py))
		return (r.MinDist(p) == 0) == r.Contains(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// clampf maps arbitrary float64 quick-check inputs into a sane finite range.
func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestOverlapsDegenerate(t *testing.T) {
	full := Rect{0, 0, 10, 10}
	line := Rect{2, 2, 8, 2}  // zero height
	point := Rect{5, 5, 5, 5} // zero area
	if full.Overlaps(line) || line.Overlaps(full) {
		t.Error("degenerate rect reported interior overlap")
	}
	if full.Overlaps(point) || point.Overlaps(point) {
		t.Error("point rect reported interior overlap")
	}
	// But Intersects (closed) still sees them.
	if !full.Intersects(line) || !full.Intersects(point) {
		t.Error("Intersects should include degenerate contact")
	}
}
