package motion

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

// halfMassRef is the band-by-band integration halfMass replaced: O(z) per
// call, kept as the reference the O(1) prefix-sum version must equal to
// the bit.
func halfMassRef(m Model, x float64) float64 {
	if x < 0 {
		return -halfMassRef(m, -x)
	}
	if x > math.Pi {
		extra := x - math.Pi
		return 0.5 + (0.5 - halfMassRef(m, math.Pi-extra))
	}
	total := 0.0
	for k := range m.bands {
		bLo := float64(k) * m.bandWidth
		if bLo >= x {
			break
		}
		bHi := math.Min(math.Min(bLo+m.bandWidth, math.Pi), x)
		total += m.bands[k] * (bHi - bLo)
	}
	return total
}

// sectorProbRef is SectorProb's non-uniform branch over halfMassRef.
func sectorProbRef(m Model, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	if hi-lo >= 2*math.Pi {
		return 1
	}
	width := hi - lo
	lo = geom.NormalizeAngle(lo)
	hi = lo + width
	return halfMassRef(m, hi) - halfMassRef(m, lo)
}

// halfMassModels are the models the bit-equality checks run on: the
// paper's default, a coarse one, a fractional z (last band clipped at π),
// y/z near 1, and the single-band model.
var halfMassModels = []Model{
	MustNew(1, 32), MustNew(3, 4), MustNew(1, 7.5), MustNew(9, 10), MustNew(0.5, 1),
}

func checkHalfMass(t *testing.T, m Model, x, width float64) {
	t.Helper()
	if got, want := m.halfMass(x), halfMassRef(m, x); math.Float64bits(got) != math.Float64bits(want) {
		y, z := m.Params()
		t.Fatalf("model (%v, %v): halfMass(%v) = %v (%#x), reference %v (%#x)",
			y, z, x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := m.SectorProb(x, x+width), sectorProbRef(m, x, x+width); math.Float64bits(got) != math.Float64bits(want) {
		y, z := m.Params()
		t.Fatalf("model (%v, %v): SectorProb(%v, %v) = %v, reference %v", y, z, x, x+width, got, want)
	}
}

// FuzzHalfMassMatchesReference holds the O(1) halfMass and SectorProb to
// the retained loop, bit for bit, on x ∈ [−2π, 2π]. The seeds put x on
// every band edge as the loop computes it — k·w, and k·w + w, which can
// sit an ulp off (k+1)·w — one ulp to either side, mirrored and shifted
// past π, for every model in halfMassModels.
func FuzzHalfMassMatchesReference(f *testing.F) {
	for mi, m := range halfMassModels {
		w := m.bandWidth
		for k := 0; k <= len(m.bands); k++ {
			for _, edge := range []float64{float64(k) * w, float64(k)*w + w, float64(k+1) * w} {
				for _, x := range []float64{edge, math.Nextafter(edge, 7), math.Nextafter(edge, -7)} {
					for _, v := range []float64{x, -x, math.Pi + x, -math.Pi - x} {
						f.Add(uint8(mi), v, math.Pi/2)
					}
				}
			}
		}
		f.Add(uint8(mi), math.Copysign(0, -1), 1.0)
		f.Add(uint8(mi), 2*math.Pi, 0.25)
		f.Add(uint8(mi), -2*math.Pi, 6.0)
	}
	f.Fuzz(func(t *testing.T, mi uint8, x, width float64) {
		if !(x >= -2*math.Pi && x <= 2*math.Pi) || !(width >= 0 && width <= 7) {
			t.Skip()
		}
		checkHalfMass(t, halfMassModels[int(mi)%len(halfMassModels)], x, width)
	})
}

// TestHalfMassMatchesReferenceRandom draws the interior of the bands the
// fuzz seeds only touch at their edges.
func TestHalfMassMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range halfMassModels {
		for i := 0; i < 20000; i++ {
			checkHalfMass(t, m, (rng.Float64()*4-2)*math.Pi, rng.Float64()*7)
		}
	}
}

var sinkProb float64

// BenchmarkSectorProb is one side-weight sector (a quarter turn around a
// heading-relative axis) under the paper's default model.
func BenchmarkSectorProb(b *testing.B) {
	m := MustNew(1, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel := float64(i%64)*0.1 - 3.2
		sinkProb += m.SectorProb(rel-math.Pi/4, rel+math.Pi/4)
	}
}
