// Package cluster distributes the SABRE alarm server across N
// independent engines, each owning one rectangular partition of the
// service area — the paper's "distributed processing" read literally:
// spatial alarms are processed by the server responsible for the space
// they occupy. The package provides the versioned partition map (this
// file: a KD-style binary split tree that splits hot shards and merges
// cold ones at runtime), its serialization and durable map file
// (partmap.go), the cluster lifecycle (cluster.go: per-shard engines
// and durable stores, crash/recover, split/merge transitions), the load
// balancer driving those transitions (balance.go), and the topology
// that puts the shared TCP front end in front of every shard and
// redirects clients between shards with a cross-shard session handoff
// (tcp.go). See DESIGN.md "Clustering" and "Dynamic repartitioning" for
// the soundness arguments and PROTOCOL.md "Redirect and handoff" for
// the wire rules.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"github.com/sabre-geo/sabre/internal/geom"
)

// PartitionMap is the versioned spatial split of the universe: a binary
// KD-style tree whose leaves each carry one shard ID. Every mutation
// (Split, Merge, DrainDone) returns a fresh map with Epoch+1 and leaves
// the receiver untouched, so the cluster publishes maps through one
// atomic pointer and Locate stays lock-free on the hot path.
//
// Boundary convention, shared with the engine grid: a point exactly on
// an interior split belongs to the higher side. Leaf rectangles tile
// the universe exactly — each split produces [min, split] and
// [split, max] children — so no floating-point gap or overlap can open
// between Rect and Locate.
//
// Shard IDs are allocated monotonically and never reused: a merged-away
// shard's ID (and its on-disk directory) stays retired forever, which
// keeps recovery from ever attaching a stale store to a new rectangle.
type PartitionMap struct {
	epoch     uint64
	universe  geom.Rect
	root      *pnode
	nextShard int
	draining  []Drain
	leaves    map[int]*pnode
}

// Drain records one in-flight merge migration: sessions still resident
// on retired shard Shard are being moved to live shard Target. The
// entry is part of the durable map file so a crash mid-drain resumes
// (Rect reboots the retired shard's engine to finish the export).
type Drain struct {
	Shard  int
	Target int
	Rect   geom.Rect
}

// pnode is one tree node. Nodes are immutable once published; Split and
// Merge copy the path from the root.
type pnode struct {
	rect geom.Rect
	// shard is the owning shard for a leaf, -1 for an interior node.
	shard int
	// vertical interior nodes split on X (lo: x < split, hi: x >= split);
	// horizontal ones split on Y.
	vertical bool
	split    float64
	lo, hi   *pnode
}

func (n *pnode) leaf() bool { return n.shard >= 0 }

// NewPartitionMap splits universe into n partitions using the most
// square-ish cols×rows factorization of n (ties broken toward more
// columns for wide universes, more rows for tall ones). Epoch 1.
func NewPartitionMap(universe geom.Rect, n int) (*PartitionMap, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", n)
	}
	bestCols, bestScore := 0, 0.0
	for cols := 1; cols <= n; cols++ {
		if n%cols != 0 {
			continue
		}
		rows := n / cols
		cw := universe.Width() / float64(cols)
		ch := universe.Height() / float64(rows)
		score := cw / ch
		if score < 1 {
			score = 1 / score
		}
		if bestCols == 0 || score < bestScore {
			bestCols, bestScore = cols, score
		}
	}
	return NewPartitionMapGrid(universe, bestCols, n/bestCols)
}

// NewPartitionMapGrid builds the epoch-1 map for an explicit cols×rows
// grid, numbered row-major from the bottom-left — the exact partitions
// the static seed partitioner produced, expressed as a split tree.
func NewPartitionMapGrid(universe geom.Rect, cols, rows int) (*PartitionMap, error) {
	if cols < 1 || rows < 1 {
		return nil, fmt.Errorf("cluster: invalid partition grid %dx%d", cols, rows)
	}
	if universe.Empty() {
		return nil, fmt.Errorf("cluster: empty universe %v", universe)
	}
	boundaryX := func(c int) float64 {
		return universe.MinX + universe.Width()*float64(c)/float64(cols)
	}
	boundaryY := func(r int) float64 {
		return universe.MinY + universe.Height()*float64(r)/float64(rows)
	}
	var buildRows func(col, r0, r1 int, rect geom.Rect) *pnode
	buildRows = func(col, r0, r1 int, rect geom.Rect) *pnode {
		if r1-r0 == 1 {
			return &pnode{rect: rect, shard: r0*cols + col}
		}
		rm := (r0 + r1) / 2
		split := boundaryY(rm)
		lo, hi := rect, rect
		lo.MaxY, hi.MinY = split, split
		return &pnode{
			rect: rect, shard: -1, vertical: false, split: split,
			lo: buildRows(col, r0, rm, lo), hi: buildRows(col, rm, r1, hi),
		}
	}
	var buildCols func(c0, c1 int, rect geom.Rect) *pnode
	buildCols = func(c0, c1 int, rect geom.Rect) *pnode {
		if c1-c0 == 1 {
			return buildRows(c0, 0, rows, rect)
		}
		cm := (c0 + c1) / 2
		split := boundaryX(cm)
		lo, hi := rect, rect
		lo.MaxX, hi.MinX = split, split
		return &pnode{
			rect: rect, shard: -1, vertical: true, split: split,
			lo: buildCols(c0, cm, lo), hi: buildCols(cm, c1, hi),
		}
	}
	pm := &PartitionMap{
		epoch:     1,
		universe:  universe,
		root:      buildCols(0, cols, universe),
		nextShard: cols * rows,
	}
	pm.reindex()
	return pm, nil
}

// reindex rebuilds the shard→leaf lookup after a structural change.
func (p *PartitionMap) reindex() {
	p.leaves = make(map[int]*pnode)
	var walk func(n *pnode)
	walk = func(n *pnode) {
		if n.leaf() {
			p.leaves[n.shard] = n
			return
		}
		walk(n.lo)
		walk(n.hi)
	}
	walk(p.root)
}

// Epoch returns the map's version number; every transition increments it.
func (p *PartitionMap) Epoch() uint64 { return p.epoch }

// Universe returns the partitioned rectangle.
func (p *PartitionMap) Universe() geom.Rect { return p.universe }

// N returns the number of live partitions (leaves).
func (p *PartitionMap) N() int { return len(p.leaves) }

// NextShard returns the next shard ID the map would allocate; every ID
// below it has existed at some epoch.
func (p *PartitionMap) NextShard() int { return p.nextShard }

// Shards returns the live shard IDs in ascending order.
func (p *PartitionMap) Shards() []int {
	out := make([]int, 0, len(p.leaves))
	for s := range p.leaves {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Has reports whether shard is a live leaf of this map.
func (p *PartitionMap) Has(shard int) bool {
	_, ok := p.leaves[shard]
	return ok
}

// RectOf returns shard's partition rectangle.
func (p *PartitionMap) RectOf(shard int) (geom.Rect, bool) {
	n, ok := p.leaves[shard]
	if !ok {
		return geom.Rect{}, false
	}
	return n.rect, true
}

// Draining returns a copy of the in-flight merge migrations.
func (p *PartitionMap) Draining() []Drain {
	return append([]Drain(nil), p.draining...)
}

// Locate returns the shard owning pt and whether pt lay outside the
// universe and was clamped to its nearest edge partition. Boundary-exact
// points (including the universe's max edges) are inside, not clamped —
// the engine accepts them, so the front end must not count them as strays.
func (p *PartitionMap) Locate(pt geom.Point) (shard int, clamped bool) {
	clamped = pt.X < p.universe.MinX || pt.X > p.universe.MaxX ||
		pt.Y < p.universe.MinY || pt.Y > p.universe.MaxY
	n := p.root
	for !n.leaf() {
		v := pt.X
		if !n.vertical {
			v = pt.Y
		}
		if v >= n.split {
			n = n.hi
		} else {
			n = n.lo
		}
	}
	return n.shard, clamped
}

// Overlapping returns the live shards whose rectangle intersects r, in
// ascending order.
func (p *PartitionMap) Overlapping(r geom.Rect) []int {
	var out []int
	var walk func(n *pnode)
	walk = func(n *pnode) {
		if !n.rect.Intersects(r) {
			return
		}
		if n.leaf() {
			out = append(out, n.shard)
			return
		}
		walk(n.lo)
		walk(n.hi)
	}
	walk(p.root)
	sort.Ints(out)
	return out
}

// Split divides shard's rectangle at the midpoint of its longer axis,
// returning the successor map (Epoch+1) and the newly allocated shard ID
// owning the upper half; shard keeps the lower half.
func (p *PartitionMap) Split(shard int) (*PartitionMap, int, error) {
	old, ok := p.leaves[shard]
	if !ok {
		return nil, 0, fmt.Errorf("cluster: split: shard %d is not a live partition", shard)
	}
	r := old.rect
	if r.Width() >= r.Height() {
		return p.SplitAt(shard, r.MinX+r.Width()/2)
	}
	return p.SplitAt(shard, r.MinY+r.Height()/2)
}

// SplitAt divides shard's rectangle at the given coordinate along its
// longer axis (x for wide rectangles, y for tall). The cut must be
// strictly interior. Cluster.SplitShard uses it to cut at the median of
// the shard's resident session positions, so a split of a skewed shard
// balances population, not just area.
func (p *PartitionMap) SplitAt(shard int, at float64) (*PartitionMap, int, error) {
	old, ok := p.leaves[shard]
	if !ok {
		return nil, 0, fmt.Errorf("cluster: split: shard %d is not a live partition", shard)
	}
	r := old.rect
	vertical := r.Width() >= r.Height()
	split := at
	if math.IsNaN(split) {
		return nil, 0, fmt.Errorf("cluster: split: shard %d cut at NaN", shard)
	}
	if vertical {
		if !(split > r.MinX && split < r.MaxX) {
			return nil, 0, fmt.Errorf("cluster: split: shard %d cut x=%v outside (%v, %v)", shard, split, r.MinX, r.MaxX)
		}
	} else {
		if !(split > r.MinY && split < r.MaxY) {
			return nil, 0, fmt.Errorf("cluster: split: shard %d cut y=%v outside (%v, %v)", shard, split, r.MinY, r.MaxY)
		}
	}
	newShard := p.nextShard
	lo, hi := r, r
	if vertical {
		lo.MaxX, hi.MinX = split, split
	} else {
		lo.MaxY, hi.MinY = split, split
	}
	replacement := &pnode{
		rect: r, shard: -1, vertical: vertical, split: split,
		lo: &pnode{rect: lo, shard: shard},
		hi: &pnode{rect: hi, shard: newShard},
	}
	next := p.withReplacedLeaf(shard, replacement)
	next.nextShard = p.nextShard + 1
	return next, newShard, nil
}

// Merge collapses the sibling leaves into and from back into their
// parent rectangle, owned by into. The successor map (Epoch+1) carries a
// Drain entry for from: its sessions must migrate to into before the
// retired shard's engine can shut down (Cluster.MergeShards runs that
// drain; DrainDone clears the entry).
func (p *PartitionMap) Merge(into, from int) (*PartitionMap, error) {
	if _, ok := p.leaves[into]; !ok {
		return nil, fmt.Errorf("cluster: merge: shard %d is not a live partition", into)
	}
	b, ok := p.leaves[from]
	if !ok {
		return nil, fmt.Errorf("cluster: merge: shard %d is not a live partition", from)
	}
	parent := p.parentOf(into)
	if parent == nil || parent != p.parentOf(from) {
		return nil, fmt.Errorf("cluster: merge: shards %d and %d are not sibling partitions", into, from)
	}
	replacement := &pnode{rect: parent.rect, shard: into}
	// Replace the parent (found by either child) with the merged leaf.
	next := p.withReplacedNode(parent, replacement)
	next.draining = append(next.draining, Drain{Shard: from, Target: into, Rect: b.rect})
	return next, nil
}

// BumpEpoch returns a successor map identical in every leaf but with
// Epoch+1 — published on follower promotion so session exports and
// Redirects stamped by the deposed primary's epoch are recognizably
// stale.
func (p *PartitionMap) BumpEpoch() *PartitionMap {
	return p.shallowClone()
}

// DrainDone returns the successor map (Epoch+1) with shard's drain
// entry removed — the retired shard has no sessions left.
func (p *PartitionMap) DrainDone(shard int) (*PartitionMap, error) {
	idx := -1
	for i, d := range p.draining {
		if d.Shard == shard {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("cluster: no drain in flight for shard %d", shard)
	}
	next := p.shallowClone()
	next.draining = append(append([]Drain(nil), p.draining[:idx]...), p.draining[idx+1:]...)
	return next, nil
}

// MergeablePairs returns every (into, from) sibling-leaf pair, ascending
// ID first — the candidates a cold-merge may collapse.
func (p *PartitionMap) MergeablePairs() [][2]int {
	var out [][2]int
	var walk func(n *pnode)
	walk = func(n *pnode) {
		if n.leaf() {
			return
		}
		if n.lo.leaf() && n.hi.leaf() {
			a, b := n.lo.shard, n.hi.shard
			if a > b {
				a, b = b, a
			}
			out = append(out, [2]int{a, b})
			return
		}
		walk(n.lo)
		walk(n.hi)
	}
	walk(p.root)
	return out
}

// parentOf returns the interior node whose direct child is shard's
// leaf, or nil when the leaf is the root.
func (p *PartitionMap) parentOf(shard int) *pnode {
	leaf := p.leaves[shard]
	var find func(n *pnode) *pnode
	find = func(n *pnode) *pnode {
		if n.leaf() {
			return nil
		}
		if n.lo == leaf || n.hi == leaf {
			return n
		}
		v := leaf.rect.MinX
		lo := leaf.rect.MinX < n.split
		if !n.vertical {
			v = leaf.rect.MinY
			lo = v < n.split
		}
		if lo {
			return find(n.lo)
		}
		return find(n.hi)
	}
	return find(p.root)
}

// withReplacedLeaf path-copies the tree, swapping shard's leaf for repl.
func (p *PartitionMap) withReplacedLeaf(shard int, repl *pnode) *PartitionMap {
	return p.withReplacedNode(p.leaves[shard], repl)
}

// withReplacedNode path-copies the tree, swapping target for repl, and
// returns the successor map with Epoch+1.
func (p *PartitionMap) withReplacedNode(target, repl *pnode) *PartitionMap {
	var rebuild func(n *pnode) *pnode
	rebuild = func(n *pnode) *pnode {
		if n == target {
			return repl
		}
		if n.leaf() {
			return n
		}
		lo, hi := rebuild(n.lo), rebuild(n.hi)
		if lo == n.lo && hi == n.hi {
			return n
		}
		cp := *n
		cp.lo, cp.hi = lo, hi
		return &cp
	}
	next := p.shallowClone()
	next.root = rebuild(p.root)
	next.reindex()
	return next
}

// shallowClone copies the map with Epoch+1, sharing the tree.
func (p *PartitionMap) shallowClone() *PartitionMap {
	return &PartitionMap{
		epoch:     p.epoch + 1,
		universe:  p.universe,
		root:      p.root,
		nextShard: p.nextShard,
		draining:  p.draining,
		leaves:    p.leaves,
	}
}

// validate checks the structural invariants the codec and the cluster
// rely on: finite geometry, splits strictly interior, unique live shard
// IDs below nextShard, and drains that reference a retired shard and a
// live target. Decode calls it on every accepted frame.
func (p *PartitionMap) validate() error {
	if p.epoch == 0 {
		return fmt.Errorf("cluster: partition map epoch 0")
	}
	if !finiteRect(p.universe) || p.universe.Empty() {
		return fmt.Errorf("cluster: bad universe %v", p.universe)
	}
	if p.nextShard < 1 {
		return fmt.Errorf("cluster: bad shard allocator %d", p.nextShard)
	}
	seen := make(map[int]bool)
	var walk func(n *pnode, depth int) error
	walk = func(n *pnode, depth int) error {
		if depth > maxPartitionDepth {
			return fmt.Errorf("cluster: partition tree deeper than %d", maxPartitionDepth)
		}
		if n.leaf() {
			if n.shard >= p.nextShard {
				return fmt.Errorf("cluster: leaf shard %d beyond allocator %d", n.shard, p.nextShard)
			}
			if seen[n.shard] {
				return fmt.Errorf("cluster: shard %d owns two partitions", n.shard)
			}
			seen[n.shard] = true
			return nil
		}
		min, max := n.rect.MinX, n.rect.MaxX
		if !n.vertical {
			min, max = n.rect.MinY, n.rect.MaxY
		}
		if !(n.split > min && n.split < max) || math.IsNaN(n.split) {
			return fmt.Errorf("cluster: split %v outside (%v, %v)", n.split, min, max)
		}
		if err := walk(n.lo, depth+1); err != nil {
			return err
		}
		return walk(n.hi, depth+1)
	}
	if err := walk(p.root, 0); err != nil {
		return err
	}
	for _, d := range p.draining {
		if d.Shard < 0 || d.Shard >= p.nextShard || seen[d.Shard] {
			return fmt.Errorf("cluster: drain source %d is not a retired shard", d.Shard)
		}
		if !seen[d.Target] {
			return fmt.Errorf("cluster: drain target %d is not a live partition", d.Target)
		}
		if !finiteRect(d.Rect) || d.Rect.Empty() {
			return fmt.Errorf("cluster: drain %d has bad rect %v", d.Shard, d.Rect)
		}
	}
	return nil
}

func finiteRect(r geom.Rect) bool {
	for _, v := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
