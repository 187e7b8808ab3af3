package pyramid

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

// FuzzDecode throws arbitrary bit strings at the bitmap decoder: it must
// reject or accept without panicking, and accepted regions must answer
// containment queries within the probe bound.
func FuzzDecode(f *testing.F) {
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 900}
	alarms := []geom.Rect{{MinX: 100, MinY: 100, MaxX: 300, MaxY: 250}}
	if good, err := Encode(cell, DefaultParams(3), nil, blockedBy(alarms)); err == nil {
		f.Add(uint8(3), uint8(3), uint8(3), good.NBits, good.Data)
	}
	f.Add(uint8(3), uint8(3), uint8(1), 1, []byte{0x80})
	f.Add(uint8(2), uint8(2), uint8(2), 10, []byte{0x00, 0xFF})
	f.Fuzz(func(t *testing.T, u, v, h uint8, nbits int, data []byte) {
		bm := &Bitmap{
			Params: Params{U: int(u), V: int(v), Height: int(h)},
			Cell:   cell,
			Data:   data,
			NBits:  nbits,
		}
		reg, err := Decode(bm)
		if err != nil {
			return
		}
		for _, p := range []geom.Point{{X: 1, Y: 1}, {X: 450, Y: 450}, {X: 899, Y: 899}, {X: -5, Y: 5}} {
			_, probes := reg.ContainsProbes(p)
			if probes > int(h)+1 {
				t.Fatalf("probe bound exceeded: %d > %d", probes, h+1)
			}
		}
		if c := reg.Coverage(); c < 0 || c > 1+1e-9 {
			t.Fatalf("coverage out of range: %v", c)
		}
	})
}

// soupRects turns fuzz bytes into rectangles around the 900 m test cell,
// four bytes each (x, y, w, h in 4 m steps). Multiples of 25 land exactly
// on pyramid cell edges, so edge-touching and degenerate rectangles come up
// naturally.
func soupRects(data []byte) []geom.Rect {
	var out []geom.Rect
	for ; len(data) >= 4 && len(out) < 24; data = data[4:] {
		x, y := float64(data[0])*4-60, float64(data[1])*4-60
		out = append(out, geom.Rect{MinX: x, MinY: y, MaxX: x + float64(data[2])*4, MaxY: y + float64(data[3])*4})
	}
	return out
}

// overBase is the per-user classifier of the §4.2 precompute: the base
// already answers for the public alarms, only the private ones are tested.
func overBase(private []geom.Rect) func(geom.Rect, Coverage) Coverage {
	return func(r geom.Rect, base Coverage) Coverage {
		if base == CoverFull {
			return base
		}
		if c := CoverageOf(r, private); c > base {
			return c
		}
		return base
	}
}

// FuzzEncodeOverBase: for any rectangle soup split into a public and a
// private part, encoding the private part in lockstep over the decoded
// public base must give the very bits of encoding the union directly — at
// any client height up to the base's and under any bit budget — and the
// decoded region must never contain a point of any alarm. The committed
// corpus under testdata/fuzz/FuzzEncodeOverBase adds an alarm touching the
// cell's outer edge, a fully covered cell, degenerate (zero-area) alarms
// with no public part, and a dense soup under the 64-bit budget.
func FuzzEncodeOverBase(f *testing.F) {
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 900}
	f.Add([]byte{40, 40, 80, 70, 165, 177, 25, 63, 100, 100, 25, 25}, uint8(2), uint8(5), uint8(0))
	f.Add([]byte{0, 0, 255, 255}, uint8(1), uint8(3), uint8(1))
	f.Add([]byte{90, 90, 75, 75, 15, 15, 0, 0, 240, 15, 0, 200}, uint8(0), uint8(4), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, nPublic, height, budget uint8) {
		all := soupRects(data)
		public, private := all, []geom.Rect(nil)
		if n := int(nPublic); n < len(all) {
			public, private = all[:n], all[n:]
		}
		params := DefaultParams(1 + int(height)%5)
		params.MaxBits = []int{0, 64, 2048}[int(budget)%3]

		pub, err := Encode(cell, DefaultParams(5), nil, blockedBy(public))
		if err != nil {
			t.Fatal(err)
		}
		base, err := Decode(pub)
		if err != nil {
			t.Fatal(err)
		}
		over, err := Encode(cell, params, base, overBase(private))
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Encode(cell, params, nil, blockedBy(all))
		if err != nil {
			t.Fatal(err)
		}
		if over.String() != direct.String() {
			t.Fatalf("h=%d budget=%d: over base %s, direct %s", params.Height, params.MaxBits, over, direct)
		}
		reg, err := Decode(over)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range all {
			// Sample a hair inside the alarm: sub-cell edges carry float
			// jitter of about 1e-13 m, so a point exactly on an alarm edge
			// that coincides with a cell edge may fall on either side.
			c := a.Intersect(cell).Expand(-1e-6)
			if !c.Valid() {
				continue
			}
			for _, p := range []geom.Point{c.Center(), {X: c.MinX, Y: c.MinY}, {X: c.MaxX, Y: c.MaxY}, {X: c.MinX, Y: c.MaxY}, {X: c.MaxX, Y: c.MinY}} {
				if reg.Contains(p) {
					t.Fatalf("safe region contains %v of alarm %v", p, a)
				}
			}
		}
	})
}
