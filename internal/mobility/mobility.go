// Package mobility simulates vehicles moving on a road network and
// produces the high-frequency position trace the paper's experiments are
// driven by (§5.1: "a very high frequency trace of the motion pattern of
// the vehicles", 10,000 vehicles for one hour).
//
// Each vehicle runs trip chains: it picks a random destination in the
// network's giant component, follows the minimum-travel-time route at a
// per-vehicle fraction of each road's speed limit, dwells briefly at the
// destination, and starts the next trip. Positions advance in fixed ticks
// (1 Hz by default) and are exact interpolations along edges, so a
// vehicle's displacement per tick never exceeds MaxSpeed·dt — the bound the
// safe-period baseline and the accuracy ground truth both rely on.
//
// The simulator is deterministic in its seed: vehicles are stepped in index
// order off a single PRNG stream. Route planning (roadnet's A*) is the
// bulk of a Step's cost when trips end; its routes are exact, so a trace
// does not depend on how the search is implemented.
package mobility

import (
	"fmt"
	"math/rand"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/roadnet"
)

// Config parameterizes a trace.
type Config struct {
	// Vehicles is the fleet size (the paper's default is 10,000).
	Vehicles int
	// TickSeconds is the sampling interval; the paper's trace is
	// high-frequency, which we model as 1 s.
	TickSeconds float64
	// PauseMaxSeconds is the maximum dwell time between trips.
	PauseMaxSeconds float64
	// MinSpeedFactor..MaxSpeedFactor is the per-vehicle speed range as a
	// fraction of each road's speed limit.
	MinSpeedFactor, MaxSpeedFactor float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns the paper-scale trace configuration.
func DefaultConfig(vehicles int, seed int64) Config {
	return Config{
		Vehicles:        vehicles,
		TickSeconds:     1,
		PauseMaxSeconds: 45,
		MinSpeedFactor:  0.7,
		MaxSpeedFactor:  1.0,
		Seed:            seed,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	if c.Vehicles <= 0 {
		return fmt.Errorf("mobility: need at least 1 vehicle, got %d", c.Vehicles)
	}
	if c.TickSeconds <= 0 {
		return fmt.Errorf("mobility: non-positive tick %v", c.TickSeconds)
	}
	if c.PauseMaxSeconds < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.PauseMaxSeconds)
	}
	if c.MinSpeedFactor <= 0 || c.MaxSpeedFactor > 1 || c.MinSpeedFactor > c.MaxSpeedFactor {
		return fmt.Errorf("mobility: speed factors [%v, %v] out of (0, 1]",
			c.MinSpeedFactor, c.MaxSpeedFactor)
	}
	return nil
}

type vehicle struct {
	pos         geom.Point
	atNode      roadnet.NodeID // node the vehicle is travelling from
	path        []int32        // remaining edge indices of the current trip
	pathIdx     int            // next edge in path
	edgeOffset  float64        // metres travelled along the current edge
	speedFactor float64
	pauseLeft   float64 // seconds of dwell remaining
}

// Simulator steps a fleet of vehicles. Create with NewSimulator; it is not
// safe for concurrent use.
type Simulator struct {
	net  *roadnet.Network
	cfg  Config
	rng  *rand.Rand
	vehs []vehicle
	tick int
}

// NewSimulator places cfg.Vehicles at random nodes of the giant component
// with their first trips planned.
func NewSimulator(net *roadnet.Network, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		net:  net,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		vehs: make([]vehicle, cfg.Vehicles),
	}
	for i := range s.vehs {
		v := &s.vehs[i]
		v.atNode = net.RandomNode(s.rng)
		v.pos = net.Node(v.atNode)
		v.speedFactor = cfg.MinSpeedFactor + s.rng.Float64()*(cfg.MaxSpeedFactor-cfg.MinSpeedFactor)
		// Stagger initial pauses so trips don't start in lockstep.
		v.pauseLeft = s.rng.Float64() * cfg.PauseMaxSeconds
	}
	return s, nil
}

// NumVehicles returns the fleet size.
func (s *Simulator) NumVehicles() int { return len(s.vehs) }

// Tick returns the number of completed steps.
func (s *Simulator) Tick() int { return s.tick }

// TickSeconds returns the sampling interval.
func (s *Simulator) TickSeconds() float64 { return s.cfg.TickSeconds }

// MaxSpeed returns the maximum speed any vehicle can reach (m/s).
func (s *Simulator) MaxSpeed() float64 {
	return s.net.MaxSpeed() * s.cfg.MaxSpeedFactor
}

// Position returns vehicle i's current position.
func (s *Simulator) Position(i int) geom.Point { return s.vehs[i].pos }

// Positions copies all current positions into dst (which must have length
// NumVehicles) — index = vehicle.
func (s *Simulator) Positions(dst []geom.Point) {
	for i := range s.vehs {
		dst[i] = s.vehs[i].pos
	}
}

// Step advances every vehicle by one tick, in vehicle order.
func (s *Simulator) Step() {
	dt := s.cfg.TickSeconds
	for i := range s.vehs {
		s.stepVehicle(&s.vehs[i], dt)
	}
	s.tick++
}

func (s *Simulator) stepVehicle(v *vehicle, dt float64) {
	remaining := dt
	for remaining > 0 {
		if v.pauseLeft > 0 {
			if v.pauseLeft >= remaining {
				v.pauseLeft -= remaining
				return
			}
			remaining -= v.pauseLeft
			v.pauseLeft = 0
		}
		if v.pathIdx >= len(v.path) {
			if !s.planTrip(v) {
				// No route available (isolated node); stay parked this tick.
				return
			}
			continue
		}
		e := s.net.Edge(int(v.path[v.pathIdx]))
		speed := e.Class.SpeedLimit() * v.speedFactor
		travel := speed * remaining
		if v.edgeOffset+travel < e.Length {
			v.edgeOffset += travel
			v.pos = s.interpolate(v, e)
			return
		}
		// Finish this edge and continue on the next with leftover time.
		remaining -= (e.Length - v.edgeOffset) / speed
		v.edgeOffset = 0
		v.atNode = otherEnd(e, v.atNode)
		v.pos = s.net.Node(v.atNode)
		v.pathIdx++
		if v.pathIdx >= len(v.path) {
			// Arrived: dwell before the next trip.
			v.path = v.path[:0]
			v.pathIdx = 0
			v.pauseLeft = s.rng.Float64() * s.cfg.PauseMaxSeconds
		}
	}
}

// planTrip assigns a new random destination and route. It reports whether
// a usable trip was found.
func (s *Simulator) planTrip(v *vehicle) bool {
	for attempt := 0; attempt < 4; attempt++ {
		dest := s.net.RandomNode(s.rng)
		if dest == v.atNode {
			continue
		}
		path, _, err := s.net.ShortestPath(v.atNode, dest)
		if err != nil || len(path) == 0 {
			continue
		}
		v.path = path
		v.pathIdx = 0
		v.edgeOffset = 0
		return true
	}
	return false
}

func (s *Simulator) interpolate(v *vehicle, e roadnet.Edge) geom.Point {
	from := s.net.Node(v.atNode)
	to := s.net.Node(otherEnd(e, v.atNode))
	if e.Length == 0 {
		return from
	}
	f := v.edgeOffset / e.Length
	return geom.Pt(from.X+(to.X-from.X)*f, from.Y+(to.Y-from.Y)*f)
}

func otherEnd(e roadnet.Edge, from roadnet.NodeID) roadnet.NodeID {
	if e.From == from {
		return e.To
	}
	return e.From
}
