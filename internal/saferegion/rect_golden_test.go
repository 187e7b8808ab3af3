package saferegion

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/motion"
)

// rectScenesDigest runs ComputeRectScratch over n seeded scenes on one
// warm scratch and returns the sha256 of every result field and of the
// result rectangle's score, floats by their bit patterns. A scene is a
// random cell, a position in it (now and then on its edge or outside it),
// 0–11 alarms — free, straddling an axis through the position, sharing an
// edge coordinate with it, or straddling the cell edge — a heading on or
// off a band edge, the uniform or a steady model, and the exhaustive
// assembly on every eighth scene.
func rectScenesDigest(seed int64, n int) string {
	rng := rand.New(rand.NewSource(seed))
	models := []motion.Model{motion.Uniform(), motion.MustNew(1, 32), motion.MustNew(1, 32), motion.MustNew(3, 4)}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var s RectScratch
	var alarms []geom.Rect
	for i := 0; i < n; i++ {
		x0, y0 := rng.Float64()*10000-5000, rng.Float64()*10000-5000
		cw, ch := 200+rng.Float64()*2800, 200+rng.Float64()*2800
		c := geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + cw, MaxY: y0 + ch}
		pos := geom.Pt(x0+rng.Float64()*cw, y0+rng.Float64()*ch)
		switch rng.Intn(16) {
		case 0:
			pos.X = c.MinX
		case 1:
			pos.Y = c.MaxY
		case 2:
			pos.X += cw
		}
		alarms = alarms[:0]
		for k := rng.Intn(12); k > 0; k-- {
			w, ht := 5+rng.Float64()*cw/3, 5+rng.Float64()*ch/3
			ax, ay := x0+rng.Float64()*cw, y0+rng.Float64()*ch
			switch rng.Intn(8) {
			case 0: // straddles the vertical axis through pos
				ax = pos.X - w*rng.Float64()
			case 1: // straddles the horizontal axis through pos
				ay = pos.Y - ht*rng.Float64()
			case 2: // an edge exactly on an axis
				ax = pos.X
			case 3:
				ay = pos.Y - ht
			case 4: // straddles the cell edge
				ax = c.MaxX - w/2
			case 5:
				ay = c.MinY - ht/2
			}
			alarms = append(alarms, geom.Rect{MinX: ax, MinY: ay, MaxX: ax + w, MaxY: ay + ht})
		}
		heading := rng.Float64()*2*math.Pi - math.Pi
		switch rng.Intn(4) {
		case 0:
			heading = float64(rng.Intn(65)-32) * math.Pi / 32
		case 1:
			heading = float64(rng.Intn(9)-4) * math.Pi / 4
		}
		opts := RectOptions{Model: models[rng.Intn(len(models))], Heading: heading, Exhaustive: i%8 == 0}
		res := ComputeRectScratch(pos, c, alarms, opts, &s)
		for _, v := range [4]float64{res.Rect.MinX, res.Rect.MinY, res.Rect.MaxX, res.Rect.MaxY} {
			put(math.Float64bits(v))
		}
		put(uint64(len(res.Inside)))
		for _, idx := range res.Inside {
			put(uint64(idx))
		}
		put(uint64(res.Clips))
		put(uint64(res.Candidates))
		put(uint64(res.Corners))
		// The rectangle only records which corner won each quadrant; the
		// score of the result holds the scorer itself to the bit.
		p := c.ClampPoint(pos)
		r, l, u, d := res.Rect.MaxX-p.X, p.X-res.Rect.MinX, res.Rect.MaxY-p.Y, p.Y-res.Rect.MinY
		put(math.Float64bits(newScorer(opts.Model, heading).score([4]candidate{cand(r, u), cand(l, u), cand(l, d), cand(r, d)})))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestComputeRectGolden pins ComputeRectScratch to the digest the
// pre-table kernel (per-call trigonometry, O(z) sector masses, every
// corner scored) produced on the same scenes: the tables, the prefix sums
// and the forced choices are meant to change no output bit.
func TestComputeRectGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other targets may fuse multiply-adds")
	}
	const want = "bd79c4ad075de6c6f4b5df2348c01e6a064e8d860570cec8ad72fec3fe4f2682"
	if got := rectScenesDigest(1, 20000); got != want {
		t.Errorf("digest of 20000 scenes = %s, want %s", got, want)
	}
}

// TestSampleDirsRunInQuadrantArcs checks what score takes for granted:
// sample k lies strictly inside quadrant III, IV, I, II for k in the
// first, second, third and last quarter of the samples.
func TestSampleDirsRunInQuadrantArcs(t *testing.T) {
	wantX := [4]bool{false, true, true, false} // cos > 0
	wantY := [4]bool{false, false, true, true} // sin > 0
	for k, phi := range sampleDirs.phi {
		arc := k / (scoreSamples / 4)
		c, s := math.Cos(phi), math.Sin(phi)
		if c == 0 || s == 0 || (c > 0) != wantX[arc] || (s > 0) != wantY[arc] {
			t.Errorf("sample %d (φ = %v): cos %v, sin %v, not inside the quadrant of arc %d", k, phi, c, s, arc)
		}
		if sampleDirs.absCos[k] != math.Abs(c) || sampleDirs.absSin[k] != math.Abs(s) {
			t.Errorf("sample %d: table holds (%v, %v), want (%v, %v)", k, sampleDirs.absCos[k], sampleDirs.absSin[k], math.Abs(c), math.Abs(s))
		}
	}
}
