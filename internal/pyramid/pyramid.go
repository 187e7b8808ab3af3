// Package pyramid implements the pyramid bitmap data structure behind the
// bitmap-encoded safe regions of paper §4 (after Samet, "The Design and
// Analysis of Spatial Data Structures").
//
// A bitmap encodes which parts of a client's current grid cell belong to
// its safe region. Bit 1 means the corresponding (sub-)cell is wholly free
// of relevant alarm regions — it is safe; bit 0 means the cell intersects
// at least one alarm region. A 0 cell above the maximum height is split
// into U×V equal children whose bits follow, refining the representation;
// a 0 cell at the maximum height is conservatively treated as unsafe.
//
// Bits are emitted level by level (level order): first the bits for the
// whole cell (level 0), then, for each expandable 0 cell of level L in
// raster order, the bits of its U×V children (level L+1). This follows the
// paper's Figure 3(d) layout, with one extension: a blocked cell above the
// maximum height carries a second bit — the expand bit — distinguishing a
// partially covered cell (1: children follow) from a cell wholly inside an
// alarm region (0: leaf; no descendant can ever be safe). Without this
// distinction the interior of every alarm region would subdivide all the
// way to the maximum height, growing bitmaps by U·V× per level for cells
// that carry no information (at h=7 with 3×3 splits that is millions of
// bits per region). See DESIGN.md §5.
//
// The GBSR (grid bitmap) of §4.1 is the height-1 special case.
//
// Decoding builds an explicit tree so a client can test containment with
// at most Height bit probes — the "predefined worst-case number of
// computations" the paper advertises for heterogeneous clients.
package pyramid

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/sabre-geo/sabre/internal/bitio"
	"github.com/sabre-geo/sabre/internal/geom"
)

// Limits protecting against hostile or corrupt encodings.
const (
	maxSplit  = 16      // maximum U or V
	maxHeight = 12      // maximum pyramid height
	maxBits   = 1 << 22 // maximum bitmap size (512 KiB)
)

// Params fixes the shape of a pyramid encoding. U and V are the horizontal
// and vertical split factors (the paper's system parameters; its figures
// use U = V = 3) and Height the number of refinement levels (h ≥ 1;
// h = 1 is the GBSR).
type Params struct {
	U, V   int
	Height int
	// MaxBits caps the encoded bitmap size (0 = the package-wide safety
	// limit). When the budget is reached, remaining blocked cells are
	// emitted as non-expanding leaves — the paper's §4.2 bitmap-size vs
	// coverage trade-off ("we want to achieve high coverage with as small
	// bitmap size as possible"). The level-order traversal spends the
	// budget on coarse levels first, so truncation only costs the finest
	// detail.
	MaxBits int
}

// DefaultParams matches the paper's figures: 3×3 splits.
func DefaultParams(height int) Params { return Params{U: 3, V: 3, Height: height} }

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.U < 2 || p.U > maxSplit || p.V < 2 || p.V > maxSplit {
		return fmt.Errorf("pyramid: split factors %dx%d out of range [2,%d]", p.U, p.V, maxSplit)
	}
	if p.Height < 1 || p.Height > maxHeight {
		return fmt.Errorf("pyramid: height %d out of range [1,%d]", p.Height, maxHeight)
	}
	if p.MaxBits < 0 || p.MaxBits > maxBits {
		return fmt.Errorf("pyramid: MaxBits %d out of [0,%d]", p.MaxBits, maxBits)
	}
	return nil
}

// Bitmap is an encoded safe region: the packed level-order bits plus the
// shape information needed to interpret them. It is the unit shipped from
// server to client; its BitLen is what the downstream bandwidth accounting
// charges.
type Bitmap struct {
	Params Params
	Cell   geom.Rect // the base grid cell the bitmap subdivides
	Data   []byte    // packed bits, MSB-first
	NBits  int       // number of meaningful bits in Data
}

// Coverage classifies how alarm regions cover a cell.
type Coverage int

// Coverage values: none (the cell is safe), partial (refining can expose
// safe children) or full (the cell lies wholly inside an alarm region and
// no descendant can be safe).
const (
	CoverNone Coverage = iota
	CoverPartial
	CoverFull
)

// CoverageOf is the standard classifier: full if any single alarm contains
// the whole cell, partial if any alarm touches it, none otherwise. Closed
// intersection keeps the encoding sound for boundary positions.
func CoverageOf(cell geom.Rect, alarms []geom.Rect) Coverage {
	cov := CoverNone
	for _, a := range alarms {
		if !a.Intersects(cell) {
			continue
		}
		if a.ContainsRect(cell) {
			return CoverFull
		}
		cov = CoverPartial
	}
	return cov
}

// Base-walk sentinels. Encode carries, next to every open cell, the index
// of the same cell's node in the base region; once the walk reaches a base
// leaf the index is replaced by a sentinel that every descendant inherits:
// all of a safe leaf's sub-cells are uncovered, all of a covered leaf's are
// fully covered, and below a blocked leaf the base ran out of refinement,
// so its sub-cells stay conservatively partial.
const (
	baseNone    = -1 - int32(CoverNone)
	basePartial = -1 - int32(CoverPartial)
	baseFull    = -1 - int32(CoverFull)
)

// baseAt classifies the cell whose base-walk index is n and returns the
// index its children inherit (n itself only for an expanded node).
func baseAt(base *Region, n int32) (Coverage, int32) {
	if n < 0 {
		return Coverage(-1 - n), n
	}
	switch f := base.flags[n]; {
	case f&nodeSafe != 0:
		return CoverNone, baseNone
	case f&nodeCovered != 0:
		return CoverFull, baseFull
	case base.kidsBase[n] < 0:
		return CoverPartial, basePartial
	}
	return CoverPartial, n
}

// openCell is a cell whose children are still to be emitted, with its
// base-walk index.
type openCell struct {
	rect geom.Rect
	base int32
}

// Encode builds the pyramid bitmap for cell. cover classifies each emitted
// cell (CoverageOf is the standard classifier) and is called exactly once
// per cell. The traversal is breadth-first so bits appear in level order.
//
// base, when non-nil, is a decoded region of the same cell and split
// factors that already accounts for a fixed alarm subset (the §4.2 public
// precompute). Both pyramids subdivide identically, so the traversal walks
// base in lockstep — child i of base node n is node kidsBase[n]+i — and
// hands cover the base's classification of the very cell being emitted at
// O(1) per cell; without a base that argument is always CoverNone. The
// base may be taller or shorter than params.Height and is never budgeted.
func Encode(cell geom.Rect, params Params, base *Region, cover func(cell geom.Rect, base Coverage) Coverage) (*Bitmap, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cell.Empty() {
		return nil, fmt.Errorf("pyramid: empty cell %v", cell)
	}
	root := baseNone
	if base != nil {
		if base.cell != cell || base.params.U != params.U || base.params.V != params.V {
			return nil, fmt.Errorf("pyramid: base region (%v, %dx%d) does not align with %v, %dx%d",
				base.cell, base.params.U, base.params.V, cell, params.U, params.V)
		}
		root = 0
	}
	budget := params.MaxBits
	if budget == 0 || budget > maxBits {
		budget = maxBits
	}
	fanout := params.U * params.V
	w := bitio.NewWriter(2 + fanout)
	// reserved tracks bits already promised to unwritten children (each
	// expansion promise costs at most 2 bits per child), so the budget
	// holds globally across promises, not just per cell.
	reserved := 0
	// writeCell emits the bits for one cell at the given level and reports
	// whether its children must follow. Expansion requires budget headroom
	// for the children it promises.
	writeCell := func(r geom.Rect, level int, baseCov Coverage) bool {
		switch cover(r, baseCov) {
		case CoverNone:
			w.WriteBit(true)
			return false
		case CoverFull:
			w.WriteBit(false)
			if level < params.Height {
				w.WriteBit(false) // expand bit: covered leaf
			}
			return false
		default: // CoverPartial
			w.WriteBit(false)
			if level < params.Height {
				if w.Len()+reserved+1+2*fanout <= budget {
					w.WriteBit(true) // expand bit: children follow
					reserved += 2 * fanout
					return true
				}
				w.WriteBit(false) // budget exhausted: conservative leaf
			}
			return false
		}
	}
	var open, next []openCell
	if cov, carry := baseAt(base, root); writeCell(cell, 0, cov) {
		open = append(open, openCell{cell, carry})
	}
	// A parent's U+1 column and V+1 row edges, by childRect's own
	// expressions so every child rectangle is float-identical to it.
	var xs, ys [maxSplit + 1]float64
	for level := 1; level <= params.Height && len(open) > 0; level++ {
		next = next[:0]
		for _, parent := range open {
			reserved -= 2 * fanout // the promise is being fulfilled now
			pw, ph := parent.rect.Width(), parent.rect.Height()
			for col := 0; col <= params.U; col++ {
				xs[col] = parent.rect.MinX + pw*float64(col)/float64(params.U)
			}
			for row := 0; row <= params.V; row++ {
				ys[row] = parent.rect.MaxY - ph*float64(row)/float64(params.V)
			}
			n := parent.base
			if n >= 0 {
				n = base.kidsBase[n]
			}
			for row := 0; row < params.V; row++ {
				for col := 0; col < params.U; col++ {
					child := geom.Rect{MinX: xs[col], MaxX: xs[col+1], MinY: ys[row+1], MaxY: ys[row]}
					cov, carry := baseAt(base, n)
					if writeCell(child, level, cov) {
						next = append(next, openCell{child, carry})
					}
					if n >= 0 {
						n++
					}
				}
			}
		}
		open, next = next, open
		if w.Len() > maxBits {
			return nil, fmt.Errorf("pyramid: bitmap exceeds %d bits", maxBits)
		}
	}
	return &Bitmap{Params: params, Cell: cell, Data: w.Bytes(), NBits: w.Len()}, nil
}

// SizeBits returns the number of bits in the encoding — the quantity the
// paper's §4.2 size comparison (82 bits GBSR vs 64 bits PBSR) counts.
func (b *Bitmap) SizeBits() int { return b.NBits }

// SizeBytes returns the packed size in bytes.
func (b *Bitmap) SizeBytes() int { return (b.NBits + 7) / 8 }

// String renders the bit string, for debugging against the paper's figures.
func (b *Bitmap) String() string { return bitio.String(b.Data, b.NBits) }

// Region is a decoded safe region, ready for client-side containment
// monitoring. Decoding is done once per received bitmap; each containment
// check then costs at most Height bit probes.
//
// Nodes are stored flat: children of an expanded node are contiguous (a
// property of the level-order encoding), so each node needs only the index
// of its first child — 5 bytes per node instead of a slice header, which
// matters when thousands of clients hold deep bitmaps at once.
type Region struct {
	params Params
	cell   geom.Rect
	// flags[i] describes node i (nodeSafe / nodeCovered bits); nodes[0] is
	// the root.
	flags []uint8
	// kidsBase[i] is the index of node i's first child (children are
	// contiguous, fanout U·V), or -1 for leaves.
	kidsBase []int32
}

const (
	nodeSafe    uint8 = 1 << 0
	nodeCovered uint8 = 1 << 1
)

func (r *Region) addNode(safe, covered bool) int32 {
	idx := int32(len(r.flags))
	var f uint8
	if safe {
		f |= nodeSafe
	}
	if covered {
		f |= nodeCovered
	}
	r.flags = append(r.flags, f)
	r.kidsBase = append(r.kidsBase, -1)
	return idx
}

// ErrTruncated is returned when a bitmap ends before its structure is
// complete.
var ErrTruncated = errors.New("pyramid: truncated bitmap")

// Decode parses a level-order bitmap back into a queryable region.
func Decode(b *Bitmap) (*Region, error) {
	if err := b.Params.Validate(); err != nil {
		return nil, err
	}
	if b.Cell.Empty() {
		return nil, fmt.Errorf("pyramid: empty cell %v", b.Cell)
	}
	if b.NBits > maxBits || b.NBits > len(b.Data)*8 {
		return nil, fmt.Errorf("pyramid: bit length %d invalid for %d data bytes", b.NBits, len(b.Data))
	}
	r := bitio.NewReader(b.Data, b.NBits)
	reg := &Region{params: b.Params, cell: b.Cell}
	// readCell parses one cell's bits at the given level, appends its node
	// and reports whether children follow.
	readCell := func(level int) (idx int32, expand bool, err error) {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, false, ErrTruncated
		}
		covered := false
		if !bit && level < b.Params.Height {
			exp, err := r.ReadBit()
			if err != nil {
				return 0, false, ErrTruncated
			}
			expand = exp
			covered = !exp
		}
		idx = reg.addNode(bit, covered)
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
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("pyramid: %d trailing bits after complete structure", r.Remaining())
	}
	return reg, nil
}

// Cell returns the base grid cell this region subdivides.
func (r *Region) Cell() geom.Rect { return r.cell }

// Params returns the encoding shape.
func (r *Region) Params() Params { return r.params }

// Contains reports whether p lies in the safe region. Points outside the
// base cell are never contained (leaving the cell always forces a server
// report).
func (r *Region) Contains(p geom.Point) bool {
	in, _ := r.ContainsProbes(p)
	return in
}

// ContainsProbes is Contains plus the number of pyramid levels probed —
// the unit the client energy model charges per check.
func (r *Region) ContainsProbes(p geom.Point) (bool, int) {
	if !r.cell.Contains(p) {
		return false, 1
	}
	node := int32(0)
	rect := r.cell
	probes := 1
	for {
		if r.flags[node]&nodeSafe != 0 {
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

// Coverage returns the fraction of the base cell area covered by the safe
// region — the paper's coverage quality metric η(Ψs).
func (r *Region) Coverage() float64 {
	fanout := r.params.U * r.params.V
	var safeArea func(idx int32, rect geom.Rect) float64
	safeArea = func(idx int32, rect geom.Rect) float64 {
		if r.flags[idx]&nodeSafe != 0 {
			return rect.Area()
		}
		base := r.kidsBase[idx]
		if base < 0 {
			return 0
		}
		total := 0.0
		for i := 0; i < fanout; i++ {
			total += safeArea(base+int32(i), childRect(rect, r.params.U, r.params.V, i))
		}
		return total
	}
	area := r.cell.Area()
	if area == 0 {
		return 0
	}
	return safeArea(0, r.cell) / area
}

// SafeRects appends to dst the maximal safe cells of the region as
// rectangles (the rectilinear polygon decomposition) and returns the
// extended slice. Used by tests and by the containment-detection geometry
// the paper's technical report describes.
func (r *Region) SafeRects(dst []geom.Rect) []geom.Rect {
	fanout := r.params.U * r.params.V
	var walk func(idx int32, rect geom.Rect)
	walk = func(idx int32, rect geom.Rect) {
		if r.flags[idx]&nodeSafe != 0 {
			dst = append(dst, rect)
			return
		}
		base := r.kidsBase[idx]
		if base < 0 {
			return
		}
		for i := 0; i < fanout; i++ {
			walk(base+int32(i), childRect(rect, r.params.U, r.params.V, i))
		}
	}
	walk(0, r.cell)
	return dst
}

// childRect returns the idx-th child of rect under a U×V split. Children
// are ordered in raster-scan fashion: rows top to bottom, columns left to
// right, matching the paper's figures.
func childRect(rect geom.Rect, u, v int, idx int) geom.Rect {
	col := idx % u
	rowFromTop := idx / u
	w, h := rect.Width(), rect.Height()
	return geom.Rect{
		MinX: rect.MinX + w*float64(col)/float64(u),
		MaxX: rect.MinX + w*float64(col+1)/float64(u),
		MinY: rect.MaxY - h*float64(rowFromTop+1)/float64(v),
		MaxY: rect.MaxY - h*float64(rowFromTop)/float64(v),
	}
}

// locateChild returns the child index containing p (p must be within
// rect; boundary points resolve toward higher column / lower row index,
// clamped to the grid).
func locateChild(rect geom.Rect, u, v int, p geom.Point) int {
	col := int(math.Floor((p.X - rect.MinX) / rect.Width() * float64(u)))
	rowFromTop := int(math.Floor((rect.MaxY - p.Y) / rect.Height() * float64(v)))
	if col < 0 {
		col = 0
	} else if col >= u {
		col = u - 1
	}
	if rowFromTop < 0 {
		rowFromTop = 0
	} else if rowFromTop >= v {
		rowFromTop = v - 1
	}
	return rowFromTop*u + col
}

// MergedSafeRects returns the safe region as a reduced set of disjoint
// rectangles: the safe pyramid cells merged greedily — first runs of
// horizontally adjacent cells sharing a y-interval, then vertically
// adjacent runs sharing an x-interval. This is the "geometrical shape of
// the safe region" decoding the paper defers to its technical report;
// fewer rectangles mean cheaper point-in-region tests for consumers that
// cannot keep the pyramid (and smaller patch lists).
func (r *Region) MergedSafeRects() []geom.Rect {
	rects := r.SafeRects(nil)
	if len(rects) <= 1 {
		return rects
	}
	// Pass 1: merge horizontal neighbours with identical y-extent.
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].MinY != rects[j].MinY {
			return rects[i].MinY < rects[j].MinY
		}
		if rects[i].MaxY != rects[j].MaxY {
			return rects[i].MaxY < rects[j].MaxY
		}
		return rects[i].MinX < rects[j].MinX
	})
	rects = mergeRuns(rects, func(a, b geom.Rect) bool {
		return a.MinY == b.MinY && a.MaxY == b.MaxY && nearlyEqual(a.MaxX, b.MinX)
	}, func(a, b geom.Rect) geom.Rect {
		a.MaxX = b.MaxX
		return a
	})
	// Pass 2: merge vertical neighbours with identical x-extent.
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].MinX != rects[j].MinX {
			return rects[i].MinX < rects[j].MinX
		}
		if rects[i].MaxX != rects[j].MaxX {
			return rects[i].MaxX < rects[j].MaxX
		}
		return rects[i].MinY < rects[j].MinY
	})
	return mergeRuns(rects, func(a, b geom.Rect) bool {
		return a.MinX == b.MinX && a.MaxX == b.MaxX && nearlyEqual(a.MaxY, b.MinY)
	}, func(a, b geom.Rect) geom.Rect {
		a.MaxY = b.MaxY
		return a
	})
}

// mergeRuns folds consecutive mergeable rectangles in a sorted slice.
func mergeRuns(rects []geom.Rect, canMerge func(a, b geom.Rect) bool, merge func(a, b geom.Rect) geom.Rect) []geom.Rect {
	out := rects[:0]
	cur := rects[0]
	for _, next := range rects[1:] {
		if canMerge(cur, next) {
			cur = merge(cur, next)
			continue
		}
		out = append(out, cur)
		cur = next
	}
	return append(out, cur)
}

// nearlyEqual tolerates the float jitter of sibling cell edges computed
// from different parents.
func nearlyEqual(a, b float64) bool {
	diff := a - b
	return diff < 1e-6 && diff > -1e-6
}
