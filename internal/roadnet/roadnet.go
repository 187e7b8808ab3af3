// Package roadnet generates the synthetic road network substrate that
// replaces the paper's USGS Atlanta map (see DESIGN.md §2 for the
// substitution rationale).
//
// The generator produces a hierarchical lattice over a square universe:
// grid lines at a base spacing carry local roads, every third line is an
// arterial and every tenth a highway, mirroring the speed hierarchy of a
// real metropolitan network. Node positions are jittered so vehicle motion
// is not axis-aligned, and a fraction of edges is removed to create the
// irregular connectivity of a real map. Trips are confined to the largest
// connected component.
//
// Routes come from an A* search (ShortestPath) over flat per-node arrays
// that each search borrows from a pool and validates with a generation
// stamp, so a search allocates only the path it returns. Its frontier is
// a typed copy of container/heap, so ties pop in the same order and the
// routes are the ones the map-based search it replaced returned.
//
// Everything is deterministic in the seed, which the simulation relies on
// to reproduce traces bit-for-bit.
package roadnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/sabre-geo/sabre/internal/geom"
)

// Class is a road class with an associated speed limit.
type Class int

// Road classes, fastest first.
const (
	Highway Class = iota + 1
	Arterial
	Local
)

// SpeedLimit returns the class speed limit in metres per second.
func (c Class) SpeedLimit() float64 {
	switch c {
	case Highway:
		return 110.0 / 3.6
	case Arterial:
		return 60.0 / 3.6
	default:
		return 35.0 / 3.6
	}
}

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Highway:
		return "highway"
	case Arterial:
		return "arterial"
	case Local:
		return "local"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// NodeID indexes a network node.
type NodeID int32

// Edge is an undirected road segment between two nodes.
type Edge struct {
	From, To NodeID
	Class    Class
	Length   float64 // metres
}

// TravelTime returns the time to traverse the edge at its speed limit.
func (e Edge) TravelTime() float64 { return e.Length / e.Class.SpeedLimit() }

// Config parameterizes network generation.
type Config struct {
	// Side is the universe side length in metres (the paper's ~1000 km²
	// region is a 31,623 m square).
	Side float64
	// Spacing is the base lattice spacing in metres (local road grid).
	Spacing float64
	// Jitter is the maximum node displacement as a fraction of Spacing.
	Jitter float64
	// DropProb is the probability of removing a local road segment, making
	// the network irregular. Arterials and highways are never dropped.
	DropProb float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the network used by the paper-scale experiments:
// a 1000 km² universe with 500 m local blocks.
func DefaultConfig(seed int64) Config {
	return Config{Side: 31623, Spacing: 500, Jitter: 0.25, DropProb: 0.12, Seed: seed}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Side <= 0 {
		return fmt.Errorf("roadnet: non-positive side %v", c.Side)
	}
	if c.Spacing <= 0 || c.Spacing > c.Side {
		return fmt.Errorf("roadnet: spacing %v out of (0, side]", c.Spacing)
	}
	if c.Jitter < 0 || c.Jitter >= 0.5 {
		return fmt.Errorf("roadnet: jitter %v out of [0, 0.5)", c.Jitter)
	}
	if c.DropProb < 0 || c.DropProb >= 1 {
		return fmt.Errorf("roadnet: drop probability %v out of [0, 1)", c.DropProb)
	}
	return nil
}

// Network is an undirected road graph.
type Network struct {
	nodes []geom.Point
	edges []Edge
	adj   [][]int32 // adjacency lists of edge indices per node
	comp  []int32   // connected component labels
	giant int32     // label of the largest component
	bound geom.Rect
	vmax  float64
	// searches pools ShortestPath's per-node scratch (*search).
	searches sync.Pool
}

// Generate builds a network from cfg.
func Generate(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cols := int(math.Round(cfg.Side/cfg.Spacing)) + 1
	rows := cols
	if cols < 2 {
		return nil, errors.New("roadnet: universe too small for spacing")
	}
	n := &Network{bound: geom.Rect{MinX: 0, MinY: 0, MaxX: cfg.Side, MaxY: cfg.Side}}
	n.nodes = make([]geom.Point, 0, cols*rows)
	idAt := func(c, r int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x := float64(c) * cfg.Spacing
			y := float64(r) * cfg.Spacing
			// Jitter interior nodes only, keeping the hull intact.
			if c > 0 && c < cols-1 {
				x += (rng.Float64()*2 - 1) * cfg.Jitter * cfg.Spacing
			}
			if r > 0 && r < rows-1 {
				y += (rng.Float64()*2 - 1) * cfg.Jitter * cfg.Spacing
			}
			n.nodes = append(n.nodes, geom.Pt(x, y))
		}
	}
	// lineClass assigns a class to each lattice line: every 10th line is a
	// highway, every 3rd an arterial, the rest local.
	lineClass := func(i int) Class {
		switch {
		case i%10 == 0:
			return Highway
		case i%3 == 0:
			return Arterial
		default:
			return Local
		}
	}
	addEdge := func(a, b NodeID, class Class) {
		if class == Local && rng.Float64() < cfg.DropProb {
			return
		}
		length := n.nodes[a].DistanceTo(n.nodes[b])
		n.edges = append(n.edges, Edge{From: a, To: b, Class: class, Length: length})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addEdge(idAt(c, r), idAt(c+1, r), lineClass(r)) // horizontal segment on row r
			}
			if r+1 < rows {
				addEdge(idAt(c, r), idAt(c, r+1), lineClass(c)) // vertical segment on column c
			}
		}
	}
	n.buildAdjacency()
	n.labelComponents()
	n.vmax = Highway.SpeedLimit()
	return n, nil
}

func (n *Network) buildAdjacency() {
	n.adj = make([][]int32, len(n.nodes))
	for i, e := range n.edges {
		n.adj[e.From] = append(n.adj[e.From], int32(i))
		n.adj[e.To] = append(n.adj[e.To], int32(i))
	}
}

func (n *Network) labelComponents() {
	n.comp = make([]int32, len(n.nodes))
	for i := range n.comp {
		n.comp[i] = -1
	}
	var label int32
	sizes := map[int32]int{}
	stack := make([]NodeID, 0, 1024)
	for start := range n.nodes {
		if n.comp[start] != -1 {
			continue
		}
		stack = append(stack[:0], NodeID(start))
		n.comp[start] = label
		size := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, ei := range n.adj[v] {
				e := n.edges[ei]
				w := e.To
				if w == v {
					w = e.From
				}
				if n.comp[w] == -1 {
					n.comp[w] = label
					stack = append(stack, w)
				}
			}
		}
		sizes[label] = size
		label++
	}
	best, bestSize := int32(0), -1
	for l, s := range sizes {
		if s > bestSize {
			best, bestSize = l, s
		}
	}
	n.giant = best
}

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumEdges returns the edge count.
func (n *Network) NumEdges() int { return len(n.edges) }

// Node returns the position of a node.
func (n *Network) Node(id NodeID) geom.Point { return n.nodes[id] }

// Edge returns the i-th edge.
func (n *Network) Edge(i int) Edge { return n.edges[i] }

// Bounds returns the universe rectangle.
func (n *Network) Bounds() geom.Rect { return n.bound }

// MaxSpeed returns the system-wide maximum speed in m/s — the v_max bound
// the safe-period baseline relies on.
func (n *Network) MaxSpeed() float64 { return n.vmax }

// InGiantComponent reports whether a node can reach the bulk of the map.
func (n *Network) InGiantComponent(id NodeID) bool { return n.comp[id] == n.giant }

// RandomNode returns a uniformly random node of the giant component.
func (n *Network) RandomNode(rng *rand.Rand) NodeID {
	for {
		id := NodeID(rng.Intn(len(n.nodes)))
		if n.InGiantComponent(id) {
			return id
		}
	}
}

// NearestNode returns the node closest to p within the giant component.
// Linear scan; used only for example/demo setup, not in the hot path.
func (n *Network) NearestNode(p geom.Point) NodeID {
	best := NodeID(-1)
	bestD := math.Inf(1)
	for i, np := range n.nodes {
		if !n.InGiantComponent(NodeID(i)) {
			continue
		}
		if d := np.DistanceSqTo(p); d < bestD {
			best, bestD = NodeID(i), d
		}
	}
	return best
}

// ErrNoPath is returned when no route exists between two nodes.
var ErrNoPath = errors.New("roadnet: no path between nodes")

// ShortestPath returns the minimum-travel-time route between two nodes as
// a sequence of edge indices, plus the total travel time in seconds. It is
// an A* search with the straight-line-at-v_max admissible heuristic. It is
// safe for concurrent use: each search borrows its own scratch arrays.
func (n *Network) ShortestPath(from, to NodeID) ([]int32, float64, error) {
	if from == to {
		return nil, 0, nil
	}
	s, _ := n.searches.Get().(*search)
	if s == nil {
		s = &search{
			stamp: make([]uint32, len(n.nodes)),
			dist:  make([]float64, len(n.nodes)),
			prev:  make([]int32, len(n.nodes)),
			h:     make([]float64, len(n.nodes)),
		}
	}
	defer n.searches.Put(s)
	s.begin()
	s.reach(from, 0, -1, n.heuristic(from, to))
	s.push(pathElem{node: from, prio: s.h[from]})
	for len(s.heap) > 0 {
		cur := s.pop()
		if cur.node == to {
			break
		}
		d := s.dist[cur.node]
		if cur.prio-s.h[cur.node] > d+1e-9 {
			continue // stale heap entry
		}
		for _, ei := range n.adj[cur.node] {
			e := n.edges[ei]
			next := e.To
			if next == cur.node {
				next = e.From
			}
			nd := d + e.TravelTime()
			if s.stamp[next] != s.gen {
				s.reach(next, nd, ei, n.heuristic(next, to))
			} else if nd < s.dist[next] {
				s.dist[next], s.prev[next] = nd, ei
			} else {
				continue
			}
			s.push(pathElem{node: next, prio: nd + s.h[next]})
		}
	}
	if s.stamp[to] != s.gen {
		return nil, 0, ErrNoPath
	}
	hops := 0
	for cur := to; cur != from; hops++ {
		cur = n.otherEnd(s.prev[cur], cur)
	}
	path := make([]int32, hops)
	for cur := to; cur != from; {
		hops--
		path[hops] = s.prev[cur]
		cur = n.otherEnd(path[hops], cur)
	}
	return path, s.dist[to], nil
}

func (n *Network) heuristic(a, b NodeID) float64 {
	return n.nodes[a].DistanceTo(n.nodes[b]) / n.vmax
}

// otherEnd returns the end of edge ei that is not v.
func (n *Network) otherEnd(ei int32, v NodeID) NodeID {
	e := n.edges[ei]
	if e.To != v {
		return e.To
	}
	return e.From
}

// search is one A* search's scratch, reused across searches. A node's
// dist, prev and h entries belong to the current search only when its
// stamp equals gen, so starting a search clears nothing but the heap.
type search struct {
	gen   uint32
	stamp []uint32
	dist  []float64 // best known travel time from the source
	prev  []int32   // edge that reached the node at dist
	h     []float64 // heuristic to the target, computed once per node
	heap  []pathElem
}

// begin starts a new search.
func (s *search) begin() {
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 2^32 searches ago would match
		clear(s.stamp)
		s.gen = 1
	}
	s.heap = s.heap[:0]
}

// reach records the first path found to v in this search.
func (s *search) reach(v NodeID, dist float64, edge int32, h float64) {
	s.stamp[v] = s.gen
	s.dist[v], s.prev[v], s.h[v] = dist, edge, h
}

type pathElem struct {
	node NodeID
	prio float64
}

// push and pop are container/heap's Push and Pop with its up and down
// loops copied verbatim, so entries of equal priority leave in the same
// order they did through the heap.Interface, without boxing each entry.
func (s *search) push(e pathElem) {
	s.heap = append(s.heap, e)
	h := s.heap
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (s *search) pop() pathElem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].prio < h[j1].prio {
			j = j2 // right child
		}
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	s.heap = h[:n]
	return e
}
