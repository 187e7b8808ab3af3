// Package geom provides the planar geometry primitives used throughout
// SABRE: points, axis-aligned rectangles and the containment, intersection
// and distance predicates that safe region computation, spatial indexing and
// alarm evaluation are built on.
//
// All coordinates are in metres in a Cartesian plane (the Universe of
// Discourse). The package is allocation-free on its hot paths; every type is
// a small value type.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// DistanceTo returns the Euclidean distance between p and q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistanceSqTo returns the squared Euclidean distance between p and q. It is
// cheaper than DistanceTo and sufficient for comparisons.
func (p Point) DistanceSqTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Vector is a displacement in the plane, in metres.
type Vector struct {
	DX, DY float64
}

// Length returns the Euclidean norm of v.
func (v Vector) Length() float64 { return math.Hypot(v.DX, v.DY) }

// Angle returns the direction of v in radians in (-π, π], measured
// counter-clockwise from the positive x axis. The zero vector has angle 0.
func (v Vector) Angle() float64 {
	if v.DX == 0 && v.DY == 0 {
		return 0
	}
	return math.Atan2(v.DY, v.DX)
}

// Scale returns v scaled by k.
func (v Vector) Scale(k float64) Vector { return Vector{v.DX * k, v.DY * k} }

// Rect is an axis-aligned rectangle, closed on all sides:
// a point p is inside iff MinX <= p.X <= MaxX and MinY <= p.Y <= MaxY.
// A Rect is valid iff MinX <= MaxX and MinY <= MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R is shorthand for a Rect literal. It normalizes the corner order, so
// R(x1,y1,x2,y2) is valid regardless of which corner comes first.
func R(x1, y1, x2, y2 float64) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectAround returns the square of the given side length centred on p.
func RectAround(p Point, side float64) Rect {
	h := side / 2
	return Rect{p.X - h, p.Y - h, p.X + h, p.Y + h}
}

// Valid reports whether r is a well-formed rectangle (possibly degenerate,
// i.e. a segment or a point).
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Empty reports whether r encloses no area. Degenerate rectangles (zero
// width or height) are considered empty.
func (r Rect) Empty() bool { return r.MinX >= r.MaxX || r.MinY >= r.MaxY }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the area of r, 0 for invalid rectangles.
func (r Rect) Area() float64 {
	if !r.Valid() {
		return 0
	}
	return r.Width() * r.Height()
}

// Perimeter returns the perimeter of r, 0 for invalid rectangles.
func (r Rect) Perimeter() float64 {
	if !r.Valid() {
		return 0
	}
	return 2 * (r.Width() + r.Height())
}

// Margin is the half-perimeter (the R*-tree "margin" measure).
func (r Rect) Margin() float64 {
	if !r.Valid() {
		return 0
	}
	return r.Width() + r.Height()
}

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsStrict reports whether p lies strictly inside r (boundary
// exclusive). Safe region containment monitoring uses the inclusive form;
// the strict form is used when a shared boundary must count as an exit.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share any point (boundary touching
// counts as intersecting).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Overlaps reports whether r and s share interior area (boundary touching
// does not count, and a degenerate rectangle has no interior to share).
// Safe region disjointness uses this predicate: a safe region may share an
// edge with an alarm region without risking a missed trigger, because
// clients monitor containment strictly and report the moment they are not
// strictly inside.
func (r Rect) Overlaps(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.MinX < s.MaxX && s.MinX < r.MaxX && r.MinY < s.MaxY && s.MinY < r.MaxY
}

// Intersect returns the intersection of r and s. If they do not intersect
// the result is not Valid.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return Rect{
		MinX: math.Min(r.MinX, p.X),
		MinY: math.Min(r.MinY, p.Y),
		MaxX: math.Max(r.MaxX, p.X),
		MaxY: math.Max(r.MaxY, p.Y),
	}
}

// Expand returns r grown by d on every side (shrunk for negative d; the
// result may be invalid if d is too negative).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// EnlargementArea returns the increase in area needed for r to cover s.
func (r Rect) EnlargementArea(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// OverlapArea returns the area shared by r and s (0 if disjoint).
func (r Rect) OverlapArea(s Rect) float64 {
	i := r.Intersect(s)
	if !i.Valid() {
		return 0
	}
	return i.Area()
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// 0 if p is inside r. This is the R*-tree MINDIST metric and the distance
// the safe-period computation is based on.
func (r Rect) MinDist(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	if dx == 0 {
		return dy
	}
	if dy == 0 {
		return dx
	}
	return math.Hypot(dx, dy)
}

// MinDistSq returns the squared MinDist, avoiding the square root.
func (r Rect) MinDistSq(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return dx*dx + dy*dy
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.MinX), math.Abs(p.X-r.MaxX))
	dy := math.Max(math.Abs(p.Y-r.MinY), math.Abs(p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// Corners returns the four corner points of r in counter-clockwise order
// starting from (MinX, MinY).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY},
		{r.MaxX, r.MinY},
		{r.MaxX, r.MaxY},
		{r.MinX, r.MaxY},
	}
}

// ClampPoint returns the point of r nearest to p (p itself if inside).
func (r Rect) ClampPoint(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f]x[%.2f,%.2f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// SubtractClip shrinks r so that it no longer overlaps obstacle while still
// containing anchor, removing as little area as possible among the four
// axis-aligned cuts. It is the soundness safety net for rectangular safe
// regions: given any rectangle containing the client position, repeatedly
// clipping against every alarm region yields a sound safe region.
//
// anchor must lie inside r and outside the interior of obstacle; otherwise
// SubtractClip returns r unchanged and ok=false.
func (r Rect) SubtractClip(obstacle Rect, anchor Point) (clipped Rect, ok bool) {
	if !r.Overlaps(obstacle) {
		return r, true
	}
	if !r.Contains(anchor) || obstacle.ContainsStrict(anchor) {
		return r, false
	}
	best := Rect{}
	bestArea := -1.0
	// Four candidate cuts; keep only those leaving the anchor inside.
	candidates := [4]Rect{
		{r.MinX, r.MinY, obstacle.MinX, r.MaxY}, // keep left of obstacle
		{obstacle.MaxX, r.MinY, r.MaxX, r.MaxY}, // keep right of obstacle
		{r.MinX, r.MinY, r.MaxX, obstacle.MinY}, // keep below obstacle
		{r.MinX, obstacle.MaxY, r.MaxX, r.MaxY}, // keep above obstacle
	}
	for _, c := range candidates {
		if !c.Valid() || !c.Contains(anchor) {
			continue
		}
		if a := c.Area(); a > bestArea {
			best, bestArea = c, a
		}
	}
	if bestArea < 0 {
		// The anchor is on the boundary of the obstacle in both axes; the
		// largest sound region is the degenerate rectangle at the anchor.
		return Rect{anchor.X, anchor.Y, anchor.X, anchor.Y}, true
	}
	return best, true
}

// NormalizeAngle maps an angle in radians to (-π, π]. math.Mod returns an
// |a| < 2π unchanged, after a software reduction loop; heading-relative
// angles are all in that range, so they skip the call.
func NormalizeAngle(a float64) float64 {
	if a <= -2*math.Pi || a >= 2*math.Pi {
		a = math.Mod(a, 2*math.Pi)
	}
	if a > math.Pi {
		a -= 2 * math.Pi
	} else if a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
