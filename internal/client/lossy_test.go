package client

import (
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/wire"
)

// TestPlainPathSurvivesLoss drives one plain (Register, session-less)
// client against an engine holding one alarm, and loses the report that
// enters the alarm twice: first its uplink, then — on the resend — the
// reply that carries the firing. The client must resend each time after
// resendAfterTicks, and then resume monitoring. The plain path is
// at-most-once: the firing lost with its reply is not redelivered
// (sessions redeliver; TestDeliveryEquality/FaultInjection covers them),
// and it must not be delivered twice or spuriously either.
func TestPlainPathSurvivesLoss(t *testing.T) {
	for _, s := range []wire.Strategy{wire.StrategyMWPSR, wire.StrategyPBSR, wire.StrategySafePeriod} {
		t.Run(s.String(), func(t *testing.T) {
			eng, err := server.New(server.Config{
				Universe:      geom.R(0, 0, 10000, 10000),
				CellAreaM2:    2.5e6,
				PyramidParams: pyramid.DefaultParams(5),
				MaxSpeed:      30,
				TickSeconds:   1,
				Costs:         metrics.DefaultCosts(),
			})
			if err != nil {
				t.Fatal(err)
			}
			zone := geom.R(1000, 400, 1200, 600)
			if _, err := eng.Registry().Install(alarm.Alarm{Scope: alarm.Private, Owner: 1, Region: zone}); err != nil {
				t.Fatal(err)
			}
			if err := eng.Register(wire.Register{User: 1, Strategy: s, MaxHeight: 5}); err != nil {
				t.Fatal(err)
			}
			c := New(1, s, &metrics.Client{})

			// East along y = 500 at 20 m/tick: inside the zone on ticks 25-35.
			const (
				unsent = iota
				uplinkLost
				replyLost
				recovered
			)
			stage, lostAt, firings, silentAfter := unsent, 0, 0, 0
			for tick := 0; tick < 120; tick++ {
				pos := geom.Pt(500+20*float64(tick), 500)
				upd := c.Tick(tick, pos)
				if upd == nil {
					if stage == recovered {
						silentAfter++
					}
					continue
				}
				switch stage {
				case unsent:
					if zone.Contains(pos) {
						stage, lostAt = uplinkLost, tick
						continue // the uplink is lost
					}
				case uplinkLost, replyLost:
					if tick != lostAt+resendAfterTicks {
						t.Fatalf("tick %d: resent %d ticks after the loss at %d, want %d",
							tick, tick-lostAt, lostAt, resendAfterTicks)
					}
				}
				out, err := eng.HandleUpdate(*upd)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range out {
					if f, ok := m.(wire.AlarmFired); ok {
						firings += len(f.Alarms)
					}
				}
				if stage == uplinkLost {
					if firings != 1 {
						t.Fatalf("the resend into the zone fired %d alarms, want 1", firings)
					}
					stage, lostAt = replyLost, tick
					continue // the reply, firing included, is lost
				}
				if stage == replyLost {
					stage = recovered
				}
				for _, m := range out {
					if err := c.Handle(tick, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			if stage != recovered || c.awaiting {
				t.Fatalf("client did not resume monitoring (stage %d, awaiting %v)", stage, c.awaiting)
			}
			if silentAfter == 0 {
				t.Error("client never stayed silent after recovering")
			}
			if firings != 1 || len(c.Fired()) != 0 {
				t.Errorf("server fired %d times, client recorded %v; want one firing, lost with its reply",
					firings, c.Fired())
			}
		})
	}
}
