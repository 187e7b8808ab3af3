package roadnet

import (
	"container/heap"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// shortestPathReference is the router's original A* search, kept as the
// reference the shipped one must match exactly: the same edge sequence,
// the bit-identical total and the same error for every pair. It keys its
// distances and back-pointers by node in maps and orders its frontier
// through container/heap.
func shortestPathReference(n *Network, from, to NodeID) ([]int32, float64, error) {
	if from == to {
		return nil, 0, nil
	}
	dist := make(map[NodeID]float64, 256)
	prevEdge := make(map[NodeID]int32, 256)
	pq := &refHeap{}
	heap.Init(pq)
	dist[from] = 0
	heap.Push(pq, pathElem{node: from, prio: n.heuristic(from, to)})
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(pathElem)
		if cur.node == to {
			break
		}
		d := dist[cur.node]
		if cur.prio-n.heuristic(cur.node, to) > d+1e-9 {
			continue // stale heap entry
		}
		for _, ei := range n.adj[cur.node] {
			e := n.edges[ei]
			next := e.To
			if next == cur.node {
				next = e.From
			}
			nd := d + e.TravelTime()
			if old, ok := dist[next]; !ok || nd < old {
				dist[next] = nd
				prevEdge[next] = ei
				heap.Push(pq, pathElem{node: next, prio: nd + n.heuristic(next, to)})
			}
		}
	}
	total, ok := dist[to]
	if !ok {
		return nil, 0, ErrNoPath
	}
	var rev []int32
	cur := to
	for cur != from {
		ei := prevEdge[cur]
		rev = append(rev, ei)
		e := n.edges[ei]
		if e.To == cur {
			cur = e.From
		} else {
			cur = e.To
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, total, nil
}

type refHeap struct{ elems []pathElem }

func (h *refHeap) Len() int           { return len(h.elems) }
func (h *refHeap) Less(i, j int) bool { return h.elems[i].prio < h.elems[j].prio }
func (h *refHeap) Swap(i, j int)      { h.elems[i], h.elems[j] = h.elems[j], h.elems[i] }
func (h *refHeap) Push(x interface{}) { h.elems = append(h.elems, x.(pathElem)) }
func (h *refHeap) Pop() interface{} {
	last := len(h.elems) - 1
	e := h.elems[last]
	h.elems = h.elems[:last]
	return e
}

// checkAgainstReference fails unless ShortestPath(from, to) returns
// exactly what the reference search does.
func checkAgainstReference(t testing.TB, n *Network, from, to NodeID) {
	t.Helper()
	path, total, err := n.ShortestPath(from, to)
	wantPath, wantTotal, wantErr := shortestPathReference(n, from, to)
	if err != wantErr {
		t.Fatalf("%d->%d: err %v, reference %v", from, to, err, wantErr)
	}
	if !slices.Equal(path, wantPath) || total != wantTotal {
		t.Fatalf("%d->%d: path %v (%v s), reference %v (%v s)", from, to, path, total, wantPath, wantTotal)
	}
}

func TestShortestPathMatchesReference(t *testing.T) {
	t.Run("all pairs small map", func(t *testing.T) {
		n := mustGenerate(t, smallConfig(9))
		for from := 0; from < n.NumNodes(); from++ {
			for to := 0; to < n.NumNodes(); to++ {
				checkAgainstReference(t, n, NodeID(from), NodeID(to))
			}
		}
	})
	t.Run("random pairs 400km2", func(t *testing.T) {
		n := mustGenerate(t, benchMaps[0].cfg)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 500; i++ {
			checkAgainstReference(t, n, n.RandomNode(rng), n.RandomNode(rng))
		}
	})
	t.Run("disconnected map", func(t *testing.T) {
		n := mustGenerate(t, Config{Side: 4000, Spacing: 500, Jitter: 0.25, DropProb: 0.9, Seed: 4})
		noPath := 0
		for from := 0; from < n.NumNodes(); from++ {
			for to := 0; to < n.NumNodes(); to++ {
				if n.comp[from] != n.comp[to] {
					noPath++
				}
				checkAgainstReference(t, n, NodeID(from), NodeID(to))
			}
		}
		if noPath == 0 {
			t.Fatal("map has no ErrNoPath pair")
		}
	})
}

func FuzzShortestPathMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(30), uint16(0), uint16(48))
	f.Add(int64(7), uint8(230), uint16(3), uint16(40))
	f.Add(int64(2), uint8(0), uint16(24), uint16(24))
	f.Fuzz(func(t *testing.T, seed int64, drop uint8, from, to uint16) {
		n, err := Generate(Config{Side: 3000, Spacing: 500, Jitter: 0.25, DropProb: float64(drop) / 256, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nn := uint16(n.NumNodes())
		a, b := NodeID(from%nn), NodeID(to%nn)
		// Back-to-back searches from one pooled scratch: a stale stamp
		// from an earlier search must not leak into a later one.
		checkAgainstReference(t, n, a, b)
		checkAgainstReference(t, n, b, a)
		checkAgainstReference(t, n, a, NodeID((int(b)+1)%int(nn)))
	})
}

// TestShortestPathConcurrent shares one Network between goroutines, as
// the trip planner's callers may; run it under -race.
func TestShortestPathConcurrent(t *testing.T) {
	n := mustGenerate(t, smallConfig(9))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				from, to := n.RandomNode(rng), n.RandomNode(rng)
				path, total, err := n.ShortestPath(from, to)
				wantPath, wantTotal, wantErr := shortestPathReference(n, from, to)
				if err != wantErr || !slices.Equal(path, wantPath) || total != wantTotal {
					t.Errorf("%d->%d: got %v %v %v, reference %v %v %v", from, to, path, total, err, wantPath, wantTotal, wantErr)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
