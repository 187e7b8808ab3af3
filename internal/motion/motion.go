// Package motion implements the steady-motion probability model of paper
// §3 (Figure 1): given a mobile client's current heading, p(φ) is the
// probability density of the client's next movement direction deviating by
// angle φ from that heading.
//
// The model has two steadiness parameters y and z (with y/z < 1):
//
//   - y/z sets how much probability mass is shifted toward the current
//     heading: y/z → 0 recovers the uniform density 1/2π (the random-walk
//     assumption), larger y/z concentrates motion forward.
//   - z sets the angular granularity: the density is constant on deviation
//     bands of width π/z and decreases band by band away from the heading
//     ("the probability of the client moving in a direction such that
//     0 ≤ φ ≤ π/z is the same; for values of φ > π/z this probability
//     decreases", paper §3).
//
// Concretely the unnormalized density is the paper's piecewise form with
// the deviation quantized to bands:
//
//	u(φ) = 1 + (y/z)·(π/2 − Q(|φ|))/π   for Q(|φ|) ≤ π/2
//	u(φ) = 1 − (y/z)·(Q(|φ|) − π/2)/π   otherwise
//
// where Q(a) = (π/z)·⌊a·z/π⌋ snaps the deviation to its band. The density
// is normalized exactly (it is a step function) so that ∫ p(φ)dφ = 1 over
// (−π, π]. Since y/z < 1, p is strictly positive everywhere: every
// direction of travel, including reversal, remains possible — this is what
// keeps the weighted safe regions sound under arbitrary client motion.
//
// The maximum weighted perimeter computation (internal/saferegion) weights
// each candidate rectangle side by the probability that the client's next
// move heads toward that side, i.e. SectorProb over the angular interval
// the side subtends.
//
// SectorProb runs on every MWPSR region computation (16 sector boundaries
// per region), so the cumulative mass is O(1) in z: New builds a prefix-sum
// table over the whole bands, halfMass locates x's band by division and
// adds the at most two bands x can clip. The table is accumulated with the
// same left-to-right additions the band-by-band integration would perform,
// so the result is that integration's to the bit (FuzzHalfMassMatchesReference
// holds it to the loop kept in the tests).
package motion

import (
	"fmt"
	"math"

	"github.com/sabre-geo/sabre/internal/geom"
)

// Model is a steady-motion density for fixed steadiness parameters. The
// zero value is not usable; construct with New or Uniform.
type Model struct {
	y, z float64
	// bands[k] is the density value on the band [k·π/z, (k+1)·π/z) of
	// absolute deviation, already normalized. For the uniform model bands
	// is nil and the density is 1/2π everywhere.
	bands     []float64
	bandWidth float64
	// prefix[k] is the mass of the whole bands 0..k−1, summed left to
	// right from zero; len(prefix) == len(bands).
	prefix []float64
}

// Uniform returns the model with no steady-motion assumption: p(φ) = 1/2π.
// The paper's "non-weighted" perimeter approach uses this model.
func Uniform() Model { return Model{} }

// New returns the steady-motion model with parameters y and z. It returns
// an error unless z ≥ 1 and 0 ≤ y/z < 1 (the paper's validity condition).
func New(y, z float64) (Model, error) {
	if z < 1 {
		return Model{}, fmt.Errorf("motion: z = %v, need z >= 1", z)
	}
	if y < 0 || y/z >= 1 {
		return Model{}, fmt.Errorf("motion: y/z = %v, need 0 <= y/z < 1", y/z)
	}
	if y == 0 {
		return Uniform(), nil
	}
	n := int(math.Ceil(z)) // number of bands covering [0, π)
	bandWidth := math.Pi / z
	bands := make([]float64, n)
	ratio := y / z
	for k := range bands {
		q := float64(k) * bandWidth // quantized deviation for this band
		var u float64
		if q <= math.Pi/2 {
			u = 1 + ratio*(math.Pi/2-q)/math.Pi
		} else {
			u = 1 - ratio*(q-math.Pi/2)/math.Pi
		}
		bands[k] = u
	}
	// Normalize: total mass = 2 × Σ bands[k]·width(k), where the last band
	// may be clipped at π.
	total := 0.0
	for k := range bands {
		lo := float64(k) * bandWidth
		hi := math.Min(lo+bandWidth, math.Pi)
		total += bands[k] * (hi - lo)
	}
	total *= 2 // symmetric in ±φ
	for k := range bands {
		bands[k] /= total
	}
	m := Model{y: y, z: z, bands: bands, bandWidth: bandWidth, prefix: make([]float64, n)}
	for k := 1; k < n; k++ {
		m.prefix[k] = m.prefix[k-1] + m.bandMass(k-1, math.Pi)
	}
	return m, nil
}

// bandMass returns the mass of band k over [k·π/z, min((k+1)·π/z, π, x)].
func (m *Model) bandMass(k int, x float64) float64 {
	lo := float64(k) * m.bandWidth
	return m.bands[k] * (min(lo+m.bandWidth, math.Pi, x) - lo)
}

// MustNew is New but panics on invalid parameters; for use with constants.
func MustNew(y, z float64) Model {
	m, err := New(y, z)
	if err != nil {
		panic(err)
	}
	return m
}

// IsUniform reports whether the model is the uniform density.
func (m Model) IsUniform() bool { return m.bands == nil }

// Params returns the steadiness parameters (0, 0 for the uniform model).
func (m Model) Params() (y, z float64) { return m.y, m.z }

// PDF returns the density at deviation φ (radians, any value; the density
// has period 2π and is symmetric in φ).
func (m Model) PDF(phi float64) float64 {
	if m.bands == nil {
		return 1 / (2 * math.Pi)
	}
	a := math.Abs(geom.NormalizeAngle(phi))
	k := int(a / m.bandWidth)
	if k >= len(m.bands) {
		k = len(m.bands) - 1
	}
	return m.bands[k]
}

// SectorProb returns ∫ p(φ) dφ for φ from lo to hi, where lo ≤ hi are
// deviations in radians. Intervals wider than 2π return 1; the density is
// treated as periodic.
func (m Model) SectorProb(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	if hi-lo >= 2*math.Pi {
		return 1
	}
	if m.bands == nil {
		return (hi - lo) / (2 * math.Pi)
	}
	// Shift the interval so lo lies in (−π, π] (the density is periodic),
	// then integrate the step function via the cumulative halfMass.
	width := hi - lo
	lo = geom.NormalizeAngle(lo)
	hi = lo + width
	return m.halfMass(hi) - m.halfMass(lo)
}

// halfMass returns ∫_0^x p(φ)dφ for any x in [-2π, 2π] (odd extension:
// halfMass(-x) = -halfMass(x); halfMass(π) = 1/2).
func (m Model) halfMass(x float64) float64 {
	if x < 0 {
		return -m.halfMass(-x)
	}
	if x > math.Pi {
		// Periodic beyond π: mass over [0, x] = 1/2 + mass over [-π, x-2π+π]
		// ... simpler: mass(x) = 1/2 + halfMass(x - π shifted). Use
		// symmetry: p(π + t) = p(π - t) for t in [0, π].
		extra := x - math.Pi
		return 0.5 + (0.5 - m.halfMass(math.Pi-extra))
	}
	if x == 0 { // also −0, which the clipped band below would hand back
		return 0
	}
	// j is the last band starting below x. Band j is clipped by x, and so
	// can band j−1 be: its upper edge is computed as (j−1)·w + w, which may
	// round an ulp above band j's lower edge j·w. Every earlier band is
	// whole. The quotient is only a first guess for j (clamped: a NaN x
	// converts to anything); the comparisons that settle it are the band
	// edges themselves.
	j := max(0, min(int(x/m.bandWidth), len(m.bands)-1))
	for j > 0 && float64(j)*m.bandWidth >= x {
		j--
	}
	for j+1 < len(m.bands) && float64(j+1)*m.bandWidth < x {
		j++
	}
	if j == 0 {
		return m.bandMass(0, x)
	}
	return m.prefix[j-1] + m.bandMass(j-1, x) + m.bandMass(j, x)
}

// Heading estimates a client's heading (radians) from its previous and
// current positions. ok is false when the two fixes coincide, in which
// case no heading information is available and callers should fall back to
// the uniform model.
func Heading(prev, cur geom.Point) (heading float64, ok bool) {
	v := cur.Sub(prev)
	if v.DX == 0 && v.DY == 0 {
		return 0, false
	}
	return v.Angle(), true
}

// HeadingTracker smooths a client's heading across position fixes with an
// exponentially weighted moving average of the displacement vector.
// Instantaneous two-fix headings whip around at intersections and during
// lane noise; the safe region weighting works better against the client's
// sustained direction of travel. The zero value is ready to use.
type HeadingTracker struct {
	// Alpha is the smoothing factor in (0, 1]; 1 reproduces the raw
	// two-fix heading. The zero value defaults to 0.5.
	Alpha float64

	ema    geom.Vector
	hasEMA bool
	last   geom.Point
	hasPos bool
}

// Observe feeds the next position fix and returns the smoothed heading.
// ok is false until the tracker has seen net movement.
func (h *HeadingTracker) Observe(pos geom.Point) (heading float64, ok bool) {
	alpha := h.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if !h.hasPos {
		h.last, h.hasPos = pos, true
		return 0, false
	}
	d := pos.Sub(h.last)
	h.last = pos
	if d.DX == 0 && d.DY == 0 {
		// Parked: keep the sustained heading, if any.
		return h.ema.Angle(), h.hasEMA && h.ema.Length() > 0
	}
	if !h.hasEMA {
		h.ema, h.hasEMA = d, true
	} else {
		h.ema = geom.Vector{
			DX: h.ema.DX*(1-alpha) + d.DX*alpha,
			DY: h.ema.DY*(1-alpha) + d.DY*alpha,
		}
	}
	if h.ema.Length() < 1e-12 {
		return 0, false
	}
	return h.ema.Angle(), true
}

// Reset clears the tracker (e.g. after a client reconnects elsewhere).
func (h *HeadingTracker) Reset() { *h = HeadingTracker{Alpha: h.Alpha} }

// SideWeights returns the probability mass of the client's next movement
// direction pointing toward each side of a rectangle centred on the
// client's position, given the client heading. The four weights correspond
// to the +x, +y, −x and −y half-axes (quadrant-width sectors centred on
// each axis direction) and sum to 1.
//
// These are the weights the maximum weighted perimeter computation assigns
// to the right, top, left and bottom extents of a candidate safe region.
func (m Model) SideWeights(heading float64) (right, top, left, bottom float64) {
	sector := func(center float64) float64 {
		rel := geom.NormalizeAngle(center - heading)
		return m.SectorProb(rel-math.Pi/4, rel+math.Pi/4)
	}
	return sector(0), sector(math.Pi / 2), sector(math.Pi), sector(-math.Pi / 2)
}

// QuadrantWeights returns the probability mass of the next movement
// direction falling in each Cartesian quadrant around the client (I: +x+y,
// II: −x+y, III: −x−y, IV: +x−y), given the client heading. The MWPSR
// greedy step processes quadrants in descending order of this mass
// (paper §3 step 4).
func (m Model) QuadrantWeights(heading float64) [4]float64 {
	centers := [4]float64{math.Pi / 4, 3 * math.Pi / 4, -3 * math.Pi / 4, -math.Pi / 4}
	var out [4]float64
	for i, c := range centers {
		rel := geom.NormalizeAngle(c - heading)
		out[i] = m.SectorProb(rel-math.Pi/4, rel+math.Pi/4)
	}
	return out
}
