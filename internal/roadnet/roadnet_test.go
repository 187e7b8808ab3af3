package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
)

func smallConfig(seed int64) Config {
	return Config{Side: 5000, Spacing: 500, Jitter: 0.2, DropProb: 0.1, Seed: seed}
}

func mustGenerate(t testing.TB, cfg Config) *Network {
	t.Helper()
	n, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(c *Config) {}, false},
		{"zero side", func(c *Config) { c.Side = 0 }, true},
		{"zero spacing", func(c *Config) { c.Spacing = 0 }, true},
		{"spacing > side", func(c *Config) { c.Spacing = 10000 }, true},
		{"jitter too big", func(c *Config) { c.Jitter = 0.6 }, true},
		{"negative drop", func(c *Config) { c.DropProb = -0.1 }, true},
		{"drop = 1", func(c *Config) { c.DropProb = 1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig(1)
			tt.mutate(&cfg)
			_, err := Generate(cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("Generate err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig(42))
	b := mustGenerate(t, smallConfig(42))
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)) != b.Node(NodeID(i)) {
			t.Fatalf("node %d differs between runs", i)
		}
	}
	c := mustGenerate(t, smallConfig(43))
	same := true
	for i := 0; i < a.NumNodes() && same; i++ {
		if a.Node(NodeID(i)) != c.Node(NodeID(i)) {
			same = false
		}
	}
	if same && a.NumEdges() == c.NumEdges() {
		t.Error("different seeds produced identical networks")
	}
}

func TestNetworkShape(t *testing.T) {
	n := mustGenerate(t, smallConfig(7))
	// 5000/500 + 1 = 11x11 nodes.
	if n.NumNodes() != 121 {
		t.Fatalf("NumNodes = %d, want 121", n.NumNodes())
	}
	// Full lattice has 2*11*10 = 220 edges; drops remove some locals only.
	if n.NumEdges() >= 220 || n.NumEdges() < 150 {
		t.Errorf("NumEdges = %d, expected (150, 220)", n.NumEdges())
	}
	bounds := n.Bounds()
	for i := 0; i < n.NumNodes(); i++ {
		p := n.Node(NodeID(i))
		if !bounds.Expand(0.5 * 500).Contains(p) {
			t.Errorf("node %d at %v far outside bounds", i, p)
		}
	}
	if math.Abs(n.MaxSpeed()-110.0/3.6) > 1e-9 {
		t.Errorf("MaxSpeed = %v", n.MaxSpeed())
	}
}

func TestRoadClassHierarchy(t *testing.T) {
	if !(Highway.SpeedLimit() > Arterial.SpeedLimit() && Arterial.SpeedLimit() > Local.SpeedLimit()) {
		t.Error("speed hierarchy violated")
	}
	n := mustGenerate(t, smallConfig(3))
	counts := map[Class]int{}
	for i := 0; i < n.NumEdges(); i++ {
		counts[n.Edge(i).Class]++
	}
	if counts[Highway] == 0 || counts[Arterial] == 0 || counts[Local] == 0 {
		t.Errorf("missing road classes: %v", counts)
	}
	if !(counts[Local] > counts[Arterial] && counts[Arterial] > counts[Highway]) {
		t.Errorf("class distribution inverted: %v", counts)
	}
}

func TestGiantComponent(t *testing.T) {
	n := mustGenerate(t, smallConfig(5))
	inGiant := 0
	for i := 0; i < n.NumNodes(); i++ {
		if n.InGiantComponent(NodeID(i)) {
			inGiant++
		}
	}
	if inGiant < n.NumNodes()*9/10 {
		t.Errorf("giant component only %d/%d nodes", inGiant, n.NumNodes())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if !n.InGiantComponent(n.RandomNode(rng)) {
			t.Fatal("RandomNode left the giant component")
		}
	}
}

func TestShortestPath(t *testing.T) {
	n := mustGenerate(t, smallConfig(9))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		from := n.RandomNode(rng)
		to := n.RandomNode(rng)
		path, total, err := n.ShortestPath(from, to)
		if err != nil {
			t.Fatalf("ShortestPath(%d,%d): %v", from, to, err)
		}
		if from == to {
			if len(path) != 0 || total != 0 {
				t.Fatal("trivial path should be empty")
			}
			continue
		}
		// Path is connected from 'from' to 'to' and the times add up.
		cur := from
		var sum float64
		for _, ei := range path {
			e := n.Edge(int(ei))
			switch cur {
			case e.From:
				cur = e.To
			case e.To:
				cur = e.From
			default:
				t.Fatalf("disconnected path at edge %d", ei)
			}
			sum += e.TravelTime()
		}
		if cur != to {
			t.Fatalf("path ends at %d, want %d", cur, to)
		}
		if math.Abs(sum-total) > 1e-6 {
			t.Fatalf("travel time %v != reported %v", sum, total)
		}
		// Admissibility: travel time >= straight-line distance / vmax.
		lower := n.Node(from).DistanceTo(n.Node(to)) / n.MaxSpeed()
		if total < lower-1e-6 {
			t.Fatalf("path faster than physics: %v < %v", total, lower)
		}
	}
}

func TestShortestPathOptimalOnTinyGraph(t *testing.T) {
	// Dense jitter-free network: compare A* against Dijkstra-by-hand
	// (Floyd-Warshall over travel times).
	n := mustGenerate(t, Config{Side: 1500, Spacing: 500, Jitter: 0, DropProb: 0, Seed: 1})
	const inf = math.MaxFloat64
	nn := n.NumNodes()
	d := make([][]float64, nn)
	for i := range d {
		d[i] = make([]float64, nn)
		for j := range d[i] {
			if i != j {
				d[i][j] = inf
			}
		}
	}
	for i := 0; i < n.NumEdges(); i++ {
		e := n.Edge(i)
		tt := e.TravelTime()
		if tt < d[e.From][e.To] {
			d[e.From][e.To], d[e.To][e.From] = tt, tt
		}
	}
	for k := 0; k < nn; k++ {
		for i := 0; i < nn; i++ {
			for j := 0; j < nn; j++ {
				if d[i][k] != inf && d[k][j] != inf && d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	for i := 0; i < nn; i++ {
		for j := 0; j < nn; j++ {
			_, total, err := n.ShortestPath(NodeID(i), NodeID(j))
			if err != nil {
				t.Fatalf("no path %d->%d", i, j)
			}
			if math.Abs(total-d[i][j]) > 1e-6 {
				t.Fatalf("path %d->%d = %v, want %v", i, j, total, d[i][j])
			}
		}
	}
}

func TestNearestNode(t *testing.T) {
	n := mustGenerate(t, smallConfig(4))
	id := n.NearestNode(geom.Pt(2500, 2500))
	if id < 0 {
		t.Fatal("NearestNode returned -1")
	}
	p := n.Node(id)
	if p.DistanceTo(geom.Pt(2500, 2500)) > 500*1.5 {
		t.Errorf("nearest node %v too far from query", p)
	}
	if !n.InGiantComponent(id) {
		t.Error("NearestNode left giant component")
	}
}

// benchMaps are the maps the router benchmark runs on: the 400 km²
// deployment bench/ boots and the paper-scale 1000 km² universe.
var benchMaps = []struct {
	name string
	cfg  Config
}{
	{"400km2", Config{Side: 20000, Spacing: 500, Jitter: 0.25, DropProb: 0.12, Seed: 1}},
	{"1000km2", DefaultConfig(1)},
}

var benchTotal float64

// BenchmarkShortestPath times one A* search between random giant-component
// nodes, against the map-based reference search on the same pairs.
func BenchmarkShortestPath(b *testing.B) {
	for _, m := range benchMaps {
		n := mustGenerate(b, m.cfg)
		for _, impl := range []struct {
			name string
			fn   func(from, to NodeID) ([]int32, float64, error)
		}{
			{"astar", n.ShortestPath},
			{"reference", func(from, to NodeID) ([]int32, float64, error) { return shortestPathReference(n, from, to) }},
		} {
			b.Run(m.name+"/"+impl.name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(3))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, total, err := impl.fn(n.RandomNode(rng), n.RandomNode(rng))
					if err != nil {
						b.Fatal(err)
					}
					benchTotal += total
				}
			})
		}
	}
}
