package cluster

import "fmt"

// BalancerConfig tunes the load-adaptive repartitioner. Zero values
// disable the corresponding trigger.
type BalancerConfig struct {
	// SplitAbove splits a shard whose load score (resident sessions plus
	// position reports received since the last Step) exceeds it.
	SplitAbove int
	// MergeBelow merges sibling shards whose combined load score falls
	// below it.
	MergeBelow int
	// MaxShards caps the live shard count; splits stop at the cap.
	// Zero means no cap.
	MaxShards int
	// MinShards floors the live shard count; merges stop at the floor.
	// Zero means a floor of 1.
	MinShards int
}

// Balancer drives split-hot / merge-cold transitions from per-shard
// load. It observes two signals the paper's workload makes non-uniform:
// resident sessions (clients parked on a shard) and update volume
// (reports served since the previous observation). Call Step
// periodically — each call performs at most one split and one merge, so
// the map changes gradually and every transition's migration cost is
// paid before the next is considered.
type Balancer struct {
	cl  *Cluster
	cfg BalancerConfig

	// lastUplink remembers each shard's uplink-message counter at the
	// previous Step; the delta is the shard's update volume this window.
	lastUplink map[int]uint64
}

// NewBalancer builds a balancer over cl.
func NewBalancer(cl *Cluster, cfg BalancerConfig) (*Balancer, error) {
	if cfg.SplitAbove < 0 || cfg.MergeBelow < 0 {
		return nil, fmt.Errorf("cluster: negative balancer thresholds %+v", cfg)
	}
	if cfg.SplitAbove > 0 && cfg.MergeBelow >= cfg.SplitAbove {
		return nil, fmt.Errorf("cluster: merge threshold %d must stay below split threshold %d (hysteresis)", cfg.MergeBelow, cfg.SplitAbove)
	}
	return &Balancer{cl: cl, cfg: cfg, lastUplink: make(map[int]uint64)}, nil
}

// loadScore is sessions + uplink delta: both signals a hotspot raises.
func (b *Balancer) loadScore(shard int) (int, bool) {
	eng := b.cl.Engine(shard)
	if eng == nil {
		return 0, false
	}
	up := eng.Metrics().UplinkMessages.Load()
	delta := up - b.lastUplink[shard]
	b.lastUplink[shard] = up
	return eng.ClientCount() + int(delta), true
}

// Step observes every live shard once and performs at most one split
// (of the hottest shard above SplitAbove) and one merge (of the coldest
// mergeable sibling pair below MergeBelow). It returns a human-readable
// action log, empty when the map was left alone.
func (b *Balancer) Step() ([]string, error) {
	pm := b.cl.PartitionMap()
	scores := make(map[int]int)
	for _, s := range pm.Shards() {
		if sc, ok := b.loadScore(s); ok {
			scores[s] = sc
		}
	}
	var actions []string

	if b.cfg.SplitAbove > 0 && (b.cfg.MaxShards == 0 || pm.N() < b.cfg.MaxShards) {
		hottest, hot, found := 0, 0, false
		for _, s := range pm.Shards() {
			if sc, ok := scores[s]; ok && sc > b.cfg.SplitAbove && (!found || sc > hot) {
				hottest, hot, found = s, sc, true
			}
		}
		if found {
			newShard, err := b.cl.SplitShard(hottest)
			if err != nil {
				return actions, err
			}
			actions = append(actions, fmt.Sprintf("split shard %d (load %d) -> new shard %d", hottest, hot, newShard))
			pm = b.cl.PartitionMap()
		}
	}

	minShards := b.cfg.MinShards
	if minShards < 1 {
		minShards = 1
	}
	if b.cfg.MergeBelow > 0 && pm.N() > minShards {
		var bestPair [2]int
		bestLoad, found := 0, false
		for _, pair := range pm.MergeablePairs() {
			sa, oka := scores[pair[0]]
			sb, okb := scores[pair[1]]
			if !oka || !okb {
				continue // a down shard cannot migrate its sessions
			}
			if combined := sa + sb; combined < b.cfg.MergeBelow && (!found || combined < bestLoad) {
				bestPair, bestLoad, found = pair, combined, true
			}
		}
		if found {
			if err := b.cl.MergeShards(bestPair[0], bestPair[1]); err != nil {
				return actions, err
			}
			actions = append(actions, fmt.Sprintf("merged shard %d into %d (combined load %d)", bestPair[1], bestPair[0], bestLoad))
		}
	}
	return actions, nil
}
