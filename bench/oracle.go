package main

import (
	"fmt"
	"math"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
)

// oracle is the reference the delivered events are checked against: it
// evaluates every (vehicle, relevant alarm) pair on every tick straight
// from the traces, sharing nothing with the engine but the packed-event
// encoding. Public alarms are looked up through a plain bucket grid
// (every vehicle is subscribed to all of them); a vehicle's private and
// shared alarms are a short list scanned in full.
//
//   - one-shot: fires on the first tick the position is inside the region;
//   - continuous (cooldown 0): the enter/exit sequence, occurrences 1,2,…;
//   - composite: fires on the first tick severity ≥ threshold.
type oracle struct {
	alarms []alarm.Alarm

	bucket     float64
	minX, minY float64
	cols, rows int
	public     [][]int32 // bucket → public alarms overlapping it
	own        [][]int32 // vehicle → its non-public relevant alarms

	fired map[pairKey]bool   // one-shot and composite pairs already fired
	cont  map[pairKey]visits // continuous pairs that were ever inside

	// expected maps every event to the tick it must be delivered on.
	expected map[eventKey]int
}

// visits is the state of one continuous (vehicle, alarm) pair.
type visits struct {
	entries uint32 // occurrence number of the latest entry
	inside  bool
}

type pairKey struct {
	vehicle int32
	alarm   int32
}

// eventKey identifies one delivered or expected event: a packed event
// (alarm.PackEvent) for a user.
type eventKey struct {
	user  uint64
	event uint64
}

func newOracle(alarms []alarm.Alarm, vehicles int, universe geom.Rect) *oracle {
	const bucket = 400 // metres; the largest alarm side, so ≤ 4 buckets per alarm
	o := &oracle{
		alarms:   alarms,
		bucket:   bucket,
		minX:     universe.MinX,
		minY:     universe.MinY,
		cols:     int(math.Ceil(universe.Width()/bucket)) + 1,
		rows:     int(math.Ceil(universe.Height()/bucket)) + 1,
		own:      make([][]int32, vehicles),
		fired:    make(map[pairKey]bool),
		cont:     make(map[pairKey]visits),
		expected: make(map[eventKey]int),
	}
	o.public = make([][]int32, o.cols*o.rows)
	for i, a := range alarms {
		switch a.Scope {
		case alarm.Public:
			c0, r0 := o.cellOf(geom.Pt(a.Region.MinX, a.Region.MinY))
			c1, r1 := o.cellOf(geom.Pt(a.Region.MaxX, a.Region.MaxY))
			for r := r0; r <= r1; r++ {
				for c := c0; c <= c1; c++ {
					o.public[r*o.cols+c] = append(o.public[r*o.cols+c], int32(i))
				}
			}
		case alarm.Private:
			o.addOwn(a.Owner, i)
		case alarm.Shared:
			seen := map[alarm.UserID]bool{a.Owner: true}
			o.addOwn(a.Owner, i)
			for _, s := range a.Subscribers {
				if !seen[s] {
					seen[s] = true
					o.addOwn(s, i)
				}
			}
		}
	}
	return o
}

func (o *oracle) addOwn(u alarm.UserID, i int) {
	if v := int(u) - 1; v >= 0 && v < len(o.own) {
		o.own[v] = append(o.own[v], int32(i))
	}
}

func (o *oracle) cellOf(p geom.Point) (col, row int) {
	col = int((p.X - o.minX) / o.bucket)
	row = int((p.Y - o.minY) / o.bucket)
	return clamp(col, 0, o.cols-1), clamp(row, 0, o.rows-1)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// step evaluates one tick of the traces.
func (o *oracle) step(tick int, pos []geom.Point) {
	for v, p := range pos {
		c, r := o.cellOf(p)
		for _, i := range o.public[r*o.cols+c] {
			o.eval(tick, v, int(i), p)
		}
		for _, i := range o.own[v] {
			o.eval(tick, v, int(i), p)
		}
	}
}

func (o *oracle) eval(tick, v, i int, p geom.Point) {
	a := &o.alarms[i]
	k := pairKey{int32(v), int32(i)}
	expect := func(tr alarm.Transition, payload uint32) {
		o.expected[eventKey{userOf(v), alarm.PackEvent(a.ID, tr, payload)}] = tick
	}
	switch a.Kind {
	case alarm.KindOneShot:
		if !o.fired[k] && inRect(a.Region, p) {
			o.fired[k] = true
			expect(alarm.TransFired, 0)
		}
	case alarm.KindContinuous:
		st := o.cont[k]
		if now := inRect(a.Region, p); now != st.inside {
			st.inside = now
			if now {
				st.entries++
				expect(alarm.TransEnter, st.entries)
			} else {
				expect(alarm.TransExit, st.entries)
			}
			o.cont[k] = st
		}
	case alarm.KindComposite:
		if o.fired[k] {
			return
		}
		var sev float64
		for _, f := range a.Factors {
			if f.Radius > 0 {
				dx, dy := p.X-f.Center.X, p.Y-f.Center.Y
				if dx*dx+dy*dy <= f.Radius*f.Radius {
					sev += f.Weight
				}
			} else if inRect(f.Region, p) {
				sev += f.Weight
			}
		}
		if sev >= a.Threshold {
			o.fired[k] = true
			expect(alarm.TransSeverity, uint32(math.Round(sev*1000)))
		}
	}
}

// inRect is boundary-inclusive containment, the alarm semantics of the
// paper: a vehicle on the edge of an alarm region has reached it.
func inRect(r geom.Rect, p geom.Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// verdict is the outcome of comparing delivered events with the oracle.
type verdict struct {
	Expected  int // events the oracle expects over the whole run
	Missed    int // expected, never delivered
	Late      int // delivered on another tick than the one it happened on
	Spurious  int // delivered, never expected
	Duplicate int // delivered again after the first delivery (counted, not failed)
	// Examples describes the first few failures, for whoever debugs them.
	Examples []string
}

func (v verdict) failed() int { return v.Missed + v.Late + v.Spurious }

// judge compares the first-delivery tick of every delivered event with
// the oracle. The closed tick loop makes delivery delay 0 by
// construction, so any tick mismatch is a failure.
func (o *oracle) judge(delivered map[eventKey]int, duplicates int) verdict {
	v := verdict{Expected: len(o.expected), Duplicate: duplicates}
	example := func(what string, k eventKey, tick int) {
		if len(v.Examples) < 8 {
			v.Examples = append(v.Examples, fmt.Sprintf("%s: user %d alarm %d %v payload %d at tick %d",
				what, k.user, alarm.EventAlarm(k.event), alarm.EventTransition(k.event), alarm.EventPayload(k.event), tick))
		}
	}
	for k, tick := range o.expected {
		got, ok := delivered[k]
		switch {
		case !ok:
			v.Missed++
			example("missed", k, tick)
		case got != tick:
			v.Late++
			example(fmt.Sprintf("delivered at tick %d, expected", got), k, tick)
		}
	}
	for k, tick := range delivered {
		if _, ok := o.expected[k]; !ok {
			v.Spurious++
			example("spurious", k, tick)
		}
	}
	return v
}
