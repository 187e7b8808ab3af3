package pyramid

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

// refRegion is the two-slice tree the decoder built before nodes were
// packed into one word each: flags[i] holds node i's nodeSafe /
// nodeCovered bits and kidsBase[i] its first child, -1 for a leaf.
type refRegion struct {
	params   Params
	cell     geom.Rect
	flags    []uint8
	kidsBase []int32
}

// decodeReference is that decoder — a bit-at-a-time cursor, per-level
// open lists, one append per node — kept as the oracle FuzzDecode holds
// Decode to.
func decodeReference(b *Bitmap) (*refRegion, error) {
	if err := b.Params.Validate(); err != nil {
		return nil, err
	}
	if b.Cell.Empty() {
		return nil, fmt.Errorf("pyramid: empty cell %v", b.Cell)
	}
	if b.NBits < 0 || b.NBits > maxBits || b.NBits > len(b.Data)*8 {
		return nil, fmt.Errorf("pyramid: bit length %d invalid for %d data bytes", b.NBits, len(b.Data))
	}
	pos := 0 // next bit, MSB-first within each byte
	readBit := func() (bit, ok bool) {
		if pos >= b.NBits {
			return false, false
		}
		bit = b.Data[pos/8]>>(7-pos%8)&1 == 1
		pos++
		return bit, true
	}
	reg := &refRegion{params: b.Params, cell: b.Cell}
	readCell := func(level int) (idx int32, expand bool, err error) {
		bit, ok := readBit()
		if !ok {
			return 0, false, ErrTruncated
		}
		covered := false
		if !bit && level < b.Params.Height {
			exp, ok := readBit()
			if !ok {
				return 0, false, ErrTruncated
			}
			expand = exp
			covered = !exp
		}
		var f uint8
		if bit {
			f |= uint8(nodeSafe)
		}
		if covered {
			f |= uint8(nodeCovered)
		}
		idx = int32(len(reg.flags))
		reg.flags = append(reg.flags, f)
		reg.kidsBase = append(reg.kidsBase, -1)
		return idx, expand, nil
	}
	_, rootExpand, err := readCell(0)
	if err != nil {
		return nil, err
	}
	open := []int32{}
	if rootExpand {
		open = append(open, 0)
	}
	fanout := b.Params.U * b.Params.V
	for level := 1; level <= b.Params.Height && len(open) > 0; level++ {
		var next []int32
		for _, parentIdx := range open {
			reg.kidsBase[parentIdx] = int32(len(reg.flags))
			for i := 0; i < fanout; i++ {
				idx, exp, err := readCell(level)
				if err != nil {
					return nil, err
				}
				if exp {
					next = append(next, idx)
				}
			}
		}
		open = next
	}
	if pos != b.NBits {
		return nil, fmt.Errorf("pyramid: %d trailing bits after complete structure", b.NBits-pos)
	}
	return reg, nil
}

func (r *refRegion) containsProbes(p geom.Point) (bool, int) {
	if !r.cell.Contains(p) {
		return false, 1
	}
	node := int32(0)
	rect := r.cell
	probes := 1
	for {
		if r.flags[node]&uint8(nodeSafe) != 0 {
			return true, probes
		}
		if r.kidsBase[node] < 0 {
			return false, probes
		}
		idx := locateChild(rect, r.params.U, r.params.V, p)
		rect = childRect(rect, r.params.U, r.params.V, idx)
		node = r.kidsBase[node] + int32(idx)
		probes++
	}
}

// walk visits the safe leaves in the order Region.SafeRects emits them and
// returns their total area, Region.Coverage's numerator.
func (r *refRegion) walk(idx int32, rect geom.Rect, dst *[]geom.Rect) float64 {
	if r.flags[idx]&uint8(nodeSafe) != 0 {
		*dst = append(*dst, rect)
		return rect.Area()
	}
	base := r.kidsBase[idx]
	if base < 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < r.params.U*r.params.V; i++ {
		total += r.walk(base+int32(i), childRect(rect, r.params.U, r.params.V, i), dst)
	}
	return total
}

// probePoints is a 31×31 lattice over the cell — its 30 m pitch lands on
// the edges of the first pyramid levels and on the cell's corners and edge
// midpoints — plus a point outside the cell.
func probePoints(cell geom.Rect) []geom.Point {
	var pts []geom.Point
	for i := 0; i <= 30; i++ {
		for j := 0; j <= 30; j++ {
			pts = append(pts, geom.Pt(cell.MinX+cell.Width()*float64(i)/30, cell.MinY+cell.Height()*float64(j)/30))
		}
	}
	return append(pts, geom.Pt(cell.MinX-5, cell.Center().Y))
}

// FuzzDecode holds Decode to decodeReference on arbitrary bit strings:
// both accept or both reject; an accepted region has the same nodes and
// gives the same containment answer and probe count at every probe point,
// the same Coverage and the same SafeRects; and decoding into a Region
// that last held a larger bitmap gives what a fresh decode gives.
func FuzzDecode(f *testing.F) {
	cell := geom.Rect{MinX: 0, MinY: 0, MaxX: 900, MaxY: 900}
	alarms := []geom.Rect{{MinX: 100, MinY: 100, MaxX: 300, MaxY: 250}}
	if good, err := Encode(cell, DefaultParams(3), nil, blockedBy(alarms)); err == nil {
		f.Add(uint8(3), uint8(3), uint8(3), good.NBits, good.Data)
	}
	f.Add(uint8(3), uint8(3), uint8(1), 1, []byte{0x80})
	f.Add(uint8(2), uint8(2), uint8(2), 10, []byte{0x00, 0xFF})
	f.Add(uint8(3), uint8(3), uint8(2), -1, []byte{0x80})
	large, err := Encode(cell, DefaultParams(5), nil, blockedBy(soupRects([]byte{
		40, 40, 80, 70, 165, 177, 25, 63, 100, 100, 25, 25, 20, 180, 60, 10})))
	if err != nil {
		f.Fatal(err)
	}
	pts := probePoints(cell)
	f.Fuzz(func(t *testing.T, u, v, h uint8, nbits int, data []byte) {
		bm := &Bitmap{
			Params: Params{U: int(u), V: int(v), Height: int(h)},
			Cell:   cell,
			Data:   data,
			NBits:  nbits,
		}
		reg, err := Decode(bm)
		ref, refErr := decodeReference(bm)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode error %v, reference error %v", err, refErr)
		}
		var reused Region
		if err := reused.Decode(large); err != nil {
			t.Fatal(err)
		}
		reusedErr := reused.Decode(bm)
		if (reusedErr == nil) != (err == nil) {
			t.Fatalf("decode into a used Region: error %v, fresh decode error %v", reusedErr, err)
		}
		if err != nil {
			if len(reused.nodes) != 0 || reused.cell != (geom.Rect{}) {
				t.Fatalf("failed decode left %d nodes, cell %v", len(reused.nodes), reused.cell)
			}
			return
		}
		if reused.params != reg.params || reused.cell != reg.cell || !slices.Equal(reused.nodes, reg.nodes) {
			t.Fatalf("decode into a used Region differs from a fresh decode")
		}
		if len(reg.nodes) != len(ref.flags) {
			t.Fatalf("%d nodes, reference %d", len(reg.nodes), len(ref.flags))
		}
		for i, w := range reg.nodes {
			first := int32(w >> nodeKidsShift)
			if first == 0 {
				first = -1
			}
			if uint8(w&(nodeSafe|nodeCovered)) != ref.flags[i] || first != ref.kidsBase[i] {
				t.Fatalf("node %d = %#x, reference flags %#x first child %d", i, w, ref.flags[i], ref.kidsBase[i])
			}
		}
		for _, p := range pts {
			in, probes := reg.ContainsProbes(p)
			refIn, refProbes := ref.containsProbes(p)
			if in != refIn || probes != refProbes {
				t.Fatalf("ContainsProbes(%v) = %v, %d; reference %v, %d", p, in, probes, refIn, refProbes)
			}
			if probes > int(h)+1 {
				t.Fatalf("probe bound exceeded: %d > %d", probes, h+1)
			}
		}
		var refRects []geom.Rect
		refArea := ref.walk(0, cell, &refRects)
		if c, refC := reg.Coverage(), refArea/cell.Area(); c != refC {
			t.Fatalf("Coverage = %v, reference %v", c, refC)
		}
		if rects := reg.SafeRects(nil); !slices.Equal(rects, refRects) {
			t.Fatalf("SafeRects = %v, reference %v", rects, refRects)
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
