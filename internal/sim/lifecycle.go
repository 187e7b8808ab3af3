package sim

import (
	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
)

// LifecycleScenario is a fully scripted lifecycle workload: every user's
// position is a deterministic function of the tick, so the exact set of
// (user, packed event) deliveries is known in advance and Drive must
// produce it under every plan (clean, faulty links, crashing server,
// sharded cluster). One-shot firings reach Report.Triggers as raw alarm
// IDs, lifecycle transitions as packed events (alarm.PackEvent) — both
// exactly once per user. Scripted paths replace the road-network
// mobility of the one-shot sims because lifecycle equality needs
// controlled dwell times: every region (or pair-radius) crossing must
// hold long enough that delayed, dropped or crash-deferred reports still
// sample each phase exactly once.
type LifecycleScenario struct {
	Universe      geom.Rect
	MaxSpeed      float64
	TickSeconds   float64
	DurationTicks int
	// Paths[i] scripts user i+1's position per tick. Paths must respect
	// MaxSpeed — the engine's safe regions and pair caps assume it.
	Paths []func(tick int) geom.Point
	// Alarms install in order before the first tick, so IDs are 1..N on
	// every topology (the cluster assigns globally in the same order).
	Alarms []alarm.Alarm
}

// Waypoint anchors a scripted path: the user is at At exactly at Tick.
type Waypoint struct {
	Tick int
	At   geom.Point
}

// WaypointPath interpolates linearly between consecutive waypoints and
// holds the first/last position outside their tick range.
func WaypointPath(wps ...Waypoint) func(int) geom.Point {
	return func(tick int) geom.Point {
		if len(wps) == 0 {
			return geom.Point{}
		}
		if tick <= wps[0].Tick {
			return wps[0].At
		}
		for i := 1; i < len(wps); i++ {
			if tick <= wps[i].Tick {
				a, b := wps[i-1], wps[i]
				f := float64(tick-a.Tick) / float64(b.Tick-a.Tick)
				return geom.Pt(a.At.X+(b.At.X-a.At.X)*f, a.At.Y+(b.At.Y-a.At.Y)*f)
			}
		}
		return wps[len(wps)-1].At
	}
}

// StaticPath pins a user to one position for the whole run.
func StaticPath(p geom.Point) func(int) geom.Point {
	return func(int) geom.Point { return p }
}

// DefaultLifecycleScenario builds the reference lifecycle workload used
// by the delivery-equality tests and `make lifecycle`:
//
//   - user 1 crosses a continuous alarm region twice (enter/exit,
//     re-arm, enter/exit — occurrences 1 and 2) and a one-shot region
//     once on the way;
//   - users 2 and 3 are the endpoints of a moving-anchor pair alarm
//     (radius 200 m): user 2 approaches until the pair enters, then
//     user 3 walks away until it exits. Their x-positions straddle the
//     population median, so a cluster run that splits the single shard
//     mid-run separates the endpoints across shards;
//   - user 7 walks through an expired composite risk zone (TTL 40
//     ticks, reached at ~tick 120 — must never fire) into a live one
//     whose inner factor pushes the severity past the threshold;
//   - users 4, 5, 6, 8, 9 are static filler pinning the split median
//     between the pair endpoints.
//
// All dwell times are ≥ 60 ticks — far beyond the session resend window
// (5 ticks), fault delays (≤ 3 ticks) and scripted crash downtimes
// (≤ 25 ticks) — so every plan samples every phase.
func DefaultLifecycleScenario() LifecycleScenario {
	return LifecycleScenario{
		Universe:      geom.R(0, 0, 4000, 4000),
		MaxSpeed:      20,
		TickSeconds:   1,
		DurationTicks: 560,
		Paths: []func(int) geom.Point{
			WaypointPath( // user 1: continuous double-crossing + one-shot
				Waypoint{0, geom.Pt(1000, 3000)},
				Waypoint{30, geom.Pt(1000, 3000)},
				Waypoint{110, geom.Pt(2000, 3000)},
				Waypoint{190, geom.Pt(2000, 3000)},
				Waypoint{270, geom.Pt(3000, 3000)},
				Waypoint{300, geom.Pt(3000, 3000)},
				Waypoint{380, geom.Pt(2000, 3000)},
				Waypoint{440, geom.Pt(2000, 3000)},
				Waypoint{520, geom.Pt(1000, 3000)},
			),
			WaypointPath( // user 2: pair owner, approaches the anchor
				Waypoint{40, geom.Pt(600, 1000)},
				Waypoint{100, geom.Pt(990, 1000)},
			),
			WaypointPath( // user 3: pair anchor, walks away after the split
				Waypoint{200, geom.Pt(1015, 1000)},
				Waypoint{235, geom.Pt(1600, 1000)},
			),
			StaticPath(geom.Pt(500, 1000)),  // user 4
			StaticPath(geom.Pt(1005, 960)),  // user 5: the split median
			StaticPath(geom.Pt(3500, 1000)), // user 6
			WaypointPath( // user 7: expired composite, then live composite
				Waypoint{20, geom.Pt(3000, 3600)},
				Waypoint{120, geom.Pt(2000, 3600)},
				Waypoint{160, geom.Pt(2000, 3600)},
				Waypoint{240, geom.Pt(1200, 3600)},
			),
			StaticPath(geom.Pt(700, 1000)), // user 8
			StaticPath(geom.Pt(800, 960)),  // user 9
		},
		Alarms: []alarm.Alarm{
			{ // ID 1: continuous region, re-arming, no cooldown
				Scope: alarm.Private, Owner: 1, Kind: alarm.KindContinuous,
				Region: geom.R(1800, 2800, 2200, 3200),
			},
			{ // ID 2: pair proximity, both endpoints subscribed
				Scope: alarm.Shared, Owner: 2, Subscribers: []alarm.UserID{2},
				Kind: alarm.KindPair, Anchor: 3, Radius: 200,
			},
			{ // ID 3: composite that expires (tick 40) before user 7 arrives
				Scope: alarm.Private, Owner: 7, Kind: alarm.KindComposite,
				Factors: []alarm.Factor{
					{Center: geom.Pt(2000, 3600), Radius: 250, Weight: 1.0},
				},
				Threshold: 0.5, ExpiresAt: 40,
			},
			{ // ID 4: live composite — rect factor 0.4 + inner circle 0.5;
				// the severity reaches 0.9 exactly when the inner circle is
				// entered, so the quantized payload is position-independent.
				Scope: alarm.Private, Owner: 7, Kind: alarm.KindComposite,
				Factors: []alarm.Factor{
					{Region: geom.R(900, 3300, 1500, 3900), Weight: 0.4},
					{Center: geom.Pt(1200, 3600), Radius: 120, Weight: 0.5},
				},
				Threshold: 0.8,
			},
			{ // ID 5: legacy one-shot riding along
				Scope: alarm.Private, Owner: 1,
				Region: geom.R(2500, 2950, 2600, 3050),
			},
		},
	}
}

// replay walks the scripted paths.
func (s LifecycleScenario) replay() (*replay, error) {
	cur := 0
	return &replay{
		users:       len(s.Paths),
		ticks:       s.DurationTicks,
		universe:    s.Universe,
		maxSpeed:    s.MaxSpeed,
		tickSeconds: s.TickSeconds,
		alarms:      s.Alarms,
		advance:     func(tick int) { cur = tick },
		position:    func(i int) geom.Point { return s.Paths[i](cur) },
	}, nil
}
