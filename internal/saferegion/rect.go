// Package saferegion implements the paper's safe region computation
// algorithms — the core contribution of "Distributed Processing of Spatial
// Alarms: A Safe Region-based Approach" (ICDCS 2009):
//
//   - ComputeRect: the Maximum Weighted Perimeter rectangular Safe Region
//     (MWPSR, paper §3), built from per-quadrant candidate and tension
//     points with dominance pruning and a greedy weighted-perimeter
//     assembly. The non-weighted variant is the same computation under the
//     uniform motion model.
//   - ComputeBitmap: the Grid and Pyramid Bitmap Encoded Safe Regions
//     (GBSR/PBSR, paper §4), delegating the pyramid mechanics to
//     internal/pyramid.
//   - SafePeriodTicks: the safe-period baseline (SP, Bamba et al. HiPC'08)
//     the paper compares against.
//
// Soundness contract (paper §2.1): the returned safe region for a client
// not inside any alarm region never overlaps the interior of a relevant
// alarm region and is contained in the client's grid cell; if the client is
// inside one or more alarm regions the safe region is the intersection of
// the containing regions (clipped against the remaining alarms — a strict
// reading of the paper's definition (ii) would let a third alarm overlap
// that intersection, so we clip to keep the zero-trigger guarantee).
package saferegion

import (
	"math"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/motion"
)

// RectOptions configures ComputeRect.
type RectOptions struct {
	// Model is the motion model weighting the perimeter. motion.Uniform()
	// yields the paper's non-weighted variant.
	Model motion.Model
	// Heading is the client's current heading in radians (from two
	// consecutive fixes). Ignored by the uniform model.
	Heading float64
	// Exhaustive enumerates every combination of component rectangles
	// instead of the paper's greedy quadrant heuristic (quartic-time
	// optimal variant, used by the ablation benchmarks). Falls back to
	// greedy when the combination count exceeds a safety cap.
	Exhaustive bool
}

// RectResult is the outcome of a rectangular safe region computation.
type RectResult struct {
	// Rect is the safe region. It always contains the client position and
	// is contained in the grid cell.
	Rect geom.Rect
	// Inside lists indices (into the alarms argument) of alarm regions the
	// client position is currently inside; non-empty means the alarms
	// should trigger and the region is the containment intersection case.
	Inside []int
	// Clips counts soundness clips applied after assembly. The skyline
	// construction is provably sound, so this is 0 unless the inside-alarm
	// intersection case required trimming; the ablation bench reports it.
	Clips int
	// Candidates is the total number of candidate points processed and
	// Corners the number of component-rectangle corners evaluated; both
	// feed the server cost model.
	Candidates int
	Corners    int
}

// RectScratch holds the reusable buffers of a rectangular safe region
// computation. A zero value is ready to use; after a few calls the buffers
// reach steady-state capacity and ComputeRectScratch stops allocating.
// A scratch must not be shared between concurrent calls, and the Inside
// slice of a result computed with a scratch aliases it — it is valid only
// until the next call with the same scratch.
type RectScratch struct {
	quads   [4][]candidate
	corners [4][]candidate
	inside  []int
	scorer  scorer
}

// ComputeRect computes the maximum weighted perimeter rectangular safe
// region for a client at pos inside grid cell, against the given relevant
// alarm regions (paper §3). pos must lie within cell; it is clamped if not.
func ComputeRect(pos geom.Point, cell geom.Rect, alarms []geom.Rect, opts RectOptions) RectResult {
	var s RectScratch
	return ComputeRectScratch(pos, cell, alarms, opts, &s)
}

// ComputeRectScratch is ComputeRect against caller-owned scratch buffers;
// it is allocation-free once the scratch is warm. The hot update path in
// internal/server holds one scratch per handler invocation.
func ComputeRectScratch(pos geom.Point, cell geom.Rect, alarms []geom.Rect, opts RectOptions, s *RectScratch) RectResult {
	pos = cell.ClampPoint(pos)
	res := RectResult{}

	// Paper §2.1 case (ii): position inside one or more alarm regions.
	s.inside = s.inside[:0]
	inter := cell
	for i, a := range alarms {
		if a.Contains(pos) {
			s.inside = append(s.inside, i)
			inter = inter.Intersect(a)
		}
	}
	if len(s.inside) > 0 {
		res.Inside = s.inside
		if !inter.Valid() {
			inter = geom.Rect{MinX: pos.X, MinY: pos.Y, MaxX: pos.X, MaxY: pos.Y}
		}
		res.Rect = clipAgainst(inter, alarms, res.Inside, pos, &res.Clips)
		return res
	}

	// Build per-quadrant candidate constraint points (paper §3 step 1).
	ext := quadExtents(pos, cell)
	for q := 0; q < 4; q++ {
		s.quads[q] = s.quads[q][:0]
	}
	for _, a := range alarms {
		if !a.Intersects(cell) {
			continue
		}
		for q := 0; q < 4; q++ {
			if c, ok := blockingPoint(pos, a, q, ext[q]); ok {
				s.quads[q] = append(s.quads[q], c)
				res.Candidates++
			}
		}
	}

	// Per-quadrant skyline: dominance pruning, sort, tension-point sweep
	// (steps 1–3).
	for q := 0; q < 4; q++ {
		s.corners[q] = componentCornersInto(s.corners[q], pruneDominated(s.quads[q]), ext[q])
		res.Corners += len(s.corners[q])
	}

	var choice [4]candidate
	if opts.Exhaustive && combinationCount(s.corners) <= exhaustiveCap {
		s.scorer.init(opts.Model, opts.Heading)
		choice = assembleExhaustive(s.corners, ext, &s.scorer)
	} else {
		choice = assembleGreedy(s.corners, ext, &s.scorer, opts.Model, opts.Heading)
	}

	rect := rectFromChoice(pos, choice)
	rect = clipAgainst(rect, alarms, nil, pos, &res.Clips)
	res.Rect = growSides(rect, cell, alarms, sideWeightSet(opts.Model, opts.Heading))
	return res
}

// growSides expands each side of a sound rectangle to the farthest alarm
// or cell boundary, holding the other sides fixed. The per-quadrant corner
// combination can leave slack (choosing the corner (x, 0) in one quadrant
// caps a whole side at zero even when the binding constraint was already
// satisfied through the x extent), and the weighted perimeter objective
// can even prefer degenerate rectangles; growing restores local
// maximality without ever violating soundness. Sides are grown in
// descending weight order so extra area lands in the travel direction.
// The side cases are written out closure-free so the whole pass stays on
// the stack: the striped-lock hot path in internal/server calls this for
// every MWPSR update.
func growSides(r geom.Rect, cell geom.Rect, alarms []geom.Rect, w sideWeights) geom.Rect {
	weights := [4]float64{w.right, w.left, w.top, w.bottom}
	order := sortIdxDesc(weights)
	for _, s := range order {
		switch s {
		case 0: // right
			limit := cell.MaxX
			for _, a := range alarms {
				if a.MinY < r.MaxY && a.MaxY > r.MinY && a.MaxX > r.MaxX && a.MinX < limit {
					limit = math.Max(a.MinX, r.MaxX)
				}
			}
			r.MaxX = math.Max(r.MaxX, limit)
		case 1: // left
			limit := cell.MinX
			for _, a := range alarms {
				if a.MinY < r.MaxY && a.MaxY > r.MinY && a.MinX < r.MinX && a.MaxX > limit {
					limit = math.Min(a.MaxX, r.MinX)
				}
			}
			r.MinX = math.Min(r.MinX, limit)
		case 2: // top
			limit := cell.MaxY
			for _, a := range alarms {
				if a.MinX < r.MaxX && a.MaxX > r.MinX && a.MaxY > r.MaxY && a.MinY < limit {
					limit = math.Max(a.MinY, r.MaxY)
				}
			}
			r.MaxY = math.Max(r.MaxY, limit)
		case 3: // bottom
			limit := cell.MinY
			for _, a := range alarms {
				if a.MinX < r.MaxX && a.MaxX > r.MinX && a.MinY < r.MinY && a.MaxY > limit {
					limit = math.Min(a.MaxY, r.MinY)
				}
			}
			r.MinY = math.Min(r.MinY, limit)
		}
	}
	return r
}

// sortIdxDesc returns the indices 0..3 stably ordered by descending weight
// (an inlined insertion sort; sort.SliceStable would allocate its closure
// and reflect swapper on every safe-region computation).
func sortIdxDesc(weights [4]float64) [4]int {
	order := [4]int{0, 1, 2, 3}
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && weights[order[j]] > weights[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// exhaustiveCap bounds the combination count the exhaustive (ablation)
// variant will enumerate.
const exhaustiveCap = 1 << 20

// candidate is a per-quadrant constraint or corner point in quadrant-local
// coordinates: x and y are non-negative extents from the client position.
// As a constraint it means "the quadrant portion must satisfy X <= x OR
// Y <= y"; as a corner it is a maximal feasible (X, Y). absX and absY are
// the corresponding absolute coordinates (the alarm or cell boundary that
// produced the extent); carrying them through the computation lets the
// final rectangle snap exactly onto those boundaries instead of
// accumulating mirror-transform rounding error.
type candidate struct{ x, y, absX, absY float64 }

// extent is the maximal quadrant rectangle allowed by the grid cell, with
// the absolute cell-edge coordinates alongside.
type extent struct{ x, y, absX, absY float64 }

// quadExtents returns the cell-bounded extents of the four quadrants
// around pos (I: +x+y, II: −x+y, III: −x−y, IV: +x−y).
func quadExtents(pos geom.Point, cell geom.Rect) [4]extent {
	right := cell.MaxX - pos.X
	left := pos.X - cell.MinX
	top := cell.MaxY - pos.Y
	bottom := pos.Y - cell.MinY
	return [4]extent{
		{x: right, y: top, absX: cell.MaxX, absY: cell.MaxY},
		{x: left, y: top, absX: cell.MinX, absY: cell.MaxY},
		{x: left, y: bottom, absX: cell.MinX, absY: cell.MinY},
		{x: right, y: bottom, absX: cell.MaxX, absY: cell.MinY},
	}
}

// blockingPoint maps alarm rect a into quadrant q around pos and returns
// the constraint point: the corner of a ∩ quadrant nearest the origin.
// ok is false when a does not reach into the (open) quadrant or when the
// constraint is already implied by the cell bounds. Handling regions that
// straddle the axes this way is what lets MWPSR support overlapping and
// axis-crossing alarm regions (paper §6 vs Hu et al.).
func blockingPoint(pos geom.Point, a geom.Rect, q int, ext extent) (candidate, bool) {
	// Transform the alarm into quadrant-local coordinates where the
	// quadrant is (+x, +y).
	var lo, hi geom.Point
	switch q {
	case 0: // +x +y
		lo = geom.Pt(a.MinX-pos.X, a.MinY-pos.Y)
		hi = geom.Pt(a.MaxX-pos.X, a.MaxY-pos.Y)
	case 1: // -x +y (mirror x)
		lo = geom.Pt(pos.X-a.MaxX, a.MinY-pos.Y)
		hi = geom.Pt(pos.X-a.MinX, a.MaxY-pos.Y)
	case 2: // -x -y (mirror both)
		lo = geom.Pt(pos.X-a.MaxX, pos.Y-a.MaxY)
		hi = geom.Pt(pos.X-a.MinX, pos.Y-a.MinY)
	default: // +x -y (mirror y)
		lo = geom.Pt(a.MinX-pos.X, pos.Y-a.MaxY)
		hi = geom.Pt(a.MaxX-pos.X, pos.Y-a.MinY)
	}
	if hi.X <= 0 || hi.Y <= 0 {
		return candidate{}, false // does not reach into the open quadrant
	}
	c := candidate{x: math.Max(lo.X, 0), y: math.Max(lo.Y, 0)}
	// Record the absolute coordinate of each constraint edge so final
	// rectangle edges land exactly on alarm boundaries.
	switch q {
	case 0:
		c.absX, c.absY = a.MinX, a.MinY
	case 1:
		c.absX, c.absY = a.MaxX, a.MinY
	case 2:
		c.absX, c.absY = a.MaxX, a.MaxY
	default:
		c.absX, c.absY = a.MinX, a.MaxY
	}
	if c.x == 0 {
		c.absX = pos.X
	}
	if c.y == 0 {
		c.absY = pos.Y
	}
	if c.x >= ext.x || c.y >= ext.y {
		// The cell bound is at least as strict in one axis, so the OR
		// constraint is always satisfied within the cell.
		return candidate{}, false
	}
	return c, true
}

// pruneDominated removes constraint points implied by others: c1 is
// implied by c2 when c1.x >= c2.x and c1.y >= c2.y (satisfying c2's OR
// constraint always satisfies c1's). This is the paper's "remove points
// which fully dominate any other point", extended to weak dominance so
// duplicates collapse. The survivors form a skyline: sorted by ascending
// x, their y values are strictly descending.
func pruneDominated(cands []candidate) []candidate {
	if len(cands) == 0 {
		return nil
	}
	// Insertion sort by (x, y): candidate sets are small (one point per
	// relevant alarm), and sort.Slice allocates. Candidates with equal
	// (x, y) are fully identical — the extents determine the absolute
	// boundary — so instability cannot change the skyline.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	out := cands[:0]
	minY := math.Inf(1)
	for _, c := range cands {
		if c.y >= minY {
			continue // dominated by an earlier (smaller-x, smaller-y) point
		}
		out = append(out, c)
		minY = c.y
	}
	return out
}

func candLess(a, b candidate) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	return a.y < b.y
}

// componentCorners performs the tension-point sweep (paper §3 steps 2–3):
// given the pruned skyline, it returns the corners of all maximal
// component rectangles in the quadrant, cell-clamped. With k skyline
// points there are k+1 corners.
func componentCorners(skyline []candidate, ext extent) []candidate {
	return componentCornersInto(make([]candidate, 0, len(skyline)+1), skyline, ext)
}

// componentCornersInto is componentCorners appending into dst[:0].
func componentCornersInto(dst []candidate, skyline []candidate, ext extent) []candidate {
	dst = dst[:0]
	if ext.x < 0 {
		ext.x = 0
	}
	if ext.y < 0 {
		ext.y = 0
	}
	if len(skyline) == 0 {
		return append(dst, candidate{x: ext.x, y: ext.y, absX: ext.absX, absY: ext.absY})
	}
	dst = append(dst, candidate{
		x: skyline[0].x, y: ext.y,
		absX: skyline[0].absX, absY: ext.absY,
	})
	for i := 1; i < len(skyline); i++ {
		dst = append(dst, candidate{
			x: skyline[i].x, y: skyline[i-1].y,
			absX: skyline[i].absX, absY: skyline[i-1].absY,
		})
	}
	last := skyline[len(skyline)-1]
	return append(dst, candidate{x: ext.x, y: last.y, absX: ext.absX, absY: last.absY})
}

// sideWeights holds the motion-model probability mass toward each side.
type sideWeights struct{ right, top, left, bottom float64 }

func sideWeightSet(m motion.Model, heading float64) sideWeights {
	r, t, l, b := m.SideWeights(heading)
	return sideWeights{right: r, top: t, left: l, bottom: b}
}

// scoreSamples is the number of direction samples used by the region
// score. 32 keeps scoring cheap while resolving the pdf's angular bands.
// sampleStep is the angle Δφ between two samples.
const (
	scoreSamples = 32
	sampleStep   = 2 * math.Pi / scoreSamples
)

// scorer evaluates candidate rectangles for the greedy/exhaustive
// assembly. The paper's objective is the "maximum weighted perimeter",
// with the perimeter weighted by the steady-motion pdf; taken literally,
// perimeter maximization degenerates — a full-width, zero-height sliver
// has a huge (weighted) perimeter but the client exits it immediately, the
// opposite of what a safe region is for. We therefore score a candidate by
// what the weighting is a proxy for: the expected exit distance
// ∫ p(φ−heading)·d_exit(φ) dφ, where d_exit is the distance from the
// client to the rectangle boundary along direction φ. The pdf enters
// exactly as in the paper — steadier motion stretches the region along the
// heading — and the uniform model recovers the non-weighted variant. See
// DESIGN.md §5.
type scorer struct {
	// dirWeights[k] is p(φ_k − heading)·Δφ for sample direction φ_k.
	dirWeights [scoreSamples]float64
}

// sampleDirs holds what the scorer needs of the sample directions
// φ_k = −π + (k+½)·sampleStep, none of which depends on the model or
// the heading: φ_k itself and |cos φ_k|, |sin φ_k|. No φ_k lies on an axis,
// and the samples run through the quadrants in whole arcs of
// scoreSamples/4: III, IV, I, II — which is where score takes the signs
// from.
var sampleDirs = func() (d struct{ phi, absCos, absSin [scoreSamples]float64 }) {
	for k := 0; k < scoreSamples; k++ {
		d.phi[k] = -math.Pi + (float64(k)+0.5)*sampleStep
		d.absCos[k] = math.Abs(math.Cos(d.phi[k]))
		d.absSin[k] = math.Abs(math.Sin(d.phi[k]))
	}
	return d
}()

func newScorer(m motion.Model, heading float64) *scorer {
	sc := &scorer{}
	sc.init(m, heading)
	return sc
}

// init (re)fills the scorer for the given model and heading; it overwrites
// every field, so a scratch-held scorer needs no zeroing between uses.
func (sc *scorer) init(m motion.Model, heading float64) {
	for k := 0; k < scoreSamples; k++ {
		sc.dirWeights[k] = m.PDF(sampleDirs.phi[k]-heading) * sampleStep
	}
}

// score returns the expected exit distance of the rectangle defined by the
// per-quadrant corner choices, from the client position.
func (sc *scorer) score(c [4]candidate) float64 {
	right := min(c[0].x, c[3].x)
	left := min(c[1].x, c[2].x)
	top := min(c[0].y, c[1].y)
	bottom := min(c[2].y, c[3].y)
	// One arc per quadrant, in sample order; a direction leaves through
	// the vertical or the horizontal side of its quadrant, whichever is
	// nearer along it.
	total := sc.arc(0, 0, left, bottom)
	total = sc.arc(total, 1, right, bottom)
	total = sc.arc(total, 2, right, top)
	return sc.arc(total, 3, left, top)
}

// arc adds the samples of quadrant arc a, whose sides lie ex and ey away.
func (sc *scorer) arc(total float64, a int, ex, ey float64) float64 {
	const n = scoreSamples / 4
	w, c, s := sc.dirWeights[a*n:a*n+n], sampleDirs.absCos[a*n:a*n+n], sampleDirs.absSin[a*n:a*n+n]
	for k := range w {
		total += w[k] * min(ex/c[k], ey/s[k])
	}
	return total
}

// assembleGreedy implements paper §3 step 4: process quadrants in
// descending motion-probability order; in each, pick the component corner
// maximizing the region score of the rectangle formed with the quadrants
// chosen so far (unprocessed quadrants assumed unconstrained). A quadrant
// no alarm reaches has one corner, its cell extent, and takes it unscored;
// when that is all four, neither the scorer nor the order is needed.
func assembleGreedy(corners [4][]candidate, ext [4]extent, sc *scorer, m motion.Model, heading float64) [4]candidate {
	if len(corners[0])+len(corners[1])+len(corners[2])+len(corners[3]) == 4 {
		return [4]candidate{corners[0][0], corners[1][0], corners[2][0], corners[3][0]}
	}
	var choice [4]candidate
	for q := 0; q < 4; q++ {
		choice[q] = candidate{x: ext[q].x, y: ext[q].y, absX: ext[q].absX, absY: ext[q].absY}
	}
	sc.init(m, heading)
	for _, q := range sortIdxDesc(m.QuadrantWeights(heading)) {
		if len(corners[q]) == 1 {
			choice[q] = corners[q][0]
			continue
		}
		best := -math.MaxFloat64
		var bestC candidate
		for _, c := range corners[q] {
			trial := choice
			trial[q] = c
			if v := sc.score(trial); v > best {
				best, bestC = v, c
			}
		}
		choice[q] = bestC
	}
	return choice
}

// assembleExhaustive evaluates every combination of component corners —
// the quartic-time optimal assembly the paper contrasts with the greedy
// heuristic.
func assembleExhaustive(corners [4][]candidate, ext [4]extent, sc *scorer) [4]candidate {
	var best [4]candidate
	bestScore := -math.MaxFloat64
	for q := 0; q < 4; q++ {
		if len(corners[q]) == 0 {
			corners[q] = []candidate{{x: ext[q].x, y: ext[q].y, absX: ext[q].absX, absY: ext[q].absY}}
		}
	}
	for _, c0 := range corners[0] {
		for _, c1 := range corners[1] {
			for _, c2 := range corners[2] {
				for _, c3 := range corners[3] {
					trial := [4]candidate{c0, c1, c2, c3}
					if v := sc.score(trial); v > bestScore {
						bestScore, best = v, trial
					}
				}
			}
		}
	}
	return best
}

func combinationCount(corners [4][]candidate) int {
	total := 1
	for q := 0; q < 4; q++ {
		n := len(corners[q])
		if n == 0 {
			n = 1
		}
		total *= n
		if total > exhaustiveCap {
			return exhaustiveCap + 1
		}
	}
	return total
}

// rectFromChoice converts per-quadrant corner choices back to an absolute
// rectangle around pos, taking the binding (smaller-extent) quadrant's
// exact absolute boundary on each side.
func rectFromChoice(pos geom.Point, c [4]candidate) geom.Rect {
	pick := func(a, b candidate, relA, relB, absA, absB float64) float64 {
		if relA <= relB {
			return absA
		}
		return absB
	}
	r := geom.Rect{
		MinX: pick(c[1], c[2], c[1].x, c[2].x, c[1].absX, c[2].absX),
		MaxX: pick(c[0], c[3], c[0].x, c[3].x, c[0].absX, c[3].absX),
		MinY: pick(c[2], c[3], c[2].y, c[3].y, c[2].absY, c[3].absY),
		MaxY: pick(c[0], c[1], c[0].y, c[1].y, c[0].absY, c[1].absY),
	}
	// Degenerate extents can leave the rectangle not containing pos by a
	// rounding hair; widen to the position itself.
	return r.UnionPoint(pos)
}

// clipAgainst is the defence-in-depth soundness pass: it shrinks rect until
// it overlaps no alarm interior (skipping indices in skip, which are the
// containing alarms of the inside case), keeping pos inside. clips counts
// the cuts applied.
func clipAgainst(rect geom.Rect, alarms []geom.Rect, skip []int, pos geom.Point, clips *int) geom.Rect {
	for i, a := range alarms {
		// skip is the handful of containing alarms of the inside case; a
		// linear scan beats building a set (and allocates nothing).
		if intsContain(skip, i) {
			continue
		}
		if !rect.Overlaps(a) {
			continue
		}
		next, ok := rect.SubtractClip(a, pos)
		if !ok {
			// pos strictly inside a non-skipped alarm: degenerate region.
			return geom.Rect{MinX: pos.X, MinY: pos.Y, MaxX: pos.X, MaxY: pos.Y}
		}
		rect = next
		*clips++
	}
	return rect
}

func intsContain(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
