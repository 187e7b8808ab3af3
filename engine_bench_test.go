// Engine hot-path throughput benchmarks. Unlike the figure benchmarks in
// bench_test.go, which run whole simulations, these call
// Engine.HandleUpdate directly from concurrent goroutines to measure how
// update throughput scales with cores:
//
//	go test -bench=EngineParallel -cpu 1,2,4,8
//
// Each goroutine impersonates a distinct fleet of clients replaying
// pre-generated mobility traces, so per-client serialization never
// bottlenecks the measurement — contention, if any, comes from the shared
// structures (registry reads, metric counters, bitmap cache).
package sabre_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/sabre-geo/sabre/internal/geom"
	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/mobility"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/server"
	"github.com/sabre-geo/sabre/internal/sim"
	"github.com/sabre-geo/sabre/internal/wire"
)

// benchEngine builds an engine loaded with the small workload's alarms,
// registers vehicles under the given strategy, and returns per-vehicle
// position traces of traceTicks steps.
func benchEngine(tb testing.TB, w *sim.Workload, strategy wire.Strategy, traceTicks int) (*server.Engine, [][]geom.Point) {
	tb.Helper()
	mobCfg := mobility.DefaultConfig(w.Config.Vehicles, w.Config.Seed)
	mob, err := mobility.NewSimulator(w.Net, mobCfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := server.New(server.Config{
		Universe:      w.Net.Bounds().Expand(50),
		CellAreaM2:    2.5e6,
		Model:         motion.MustNew(1, 32),
		PyramidParams: pyramid.DefaultParams(5),
		MaxSpeed:      mob.MaxSpeed(),
		TickSeconds:   mobCfg.TickSeconds,
		Costs:         metrics.DefaultCosts(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Registry().InstallBatch(w.Alarms); err != nil {
		tb.Fatal(err)
	}
	traces := make([][]geom.Point, w.Config.Vehicles)
	for i := range traces {
		traces[i] = make([]geom.Point, traceTicks)
	}
	for t := 0; t < traceTicks; t++ {
		mob.Step()
		for i := range traces {
			traces[i][t] = mob.Position(i)
		}
	}
	for i := 0; i < w.Config.Vehicles; i++ {
		if err := eng.Register(wire.Register{
			User: uint64(i + 1), Strategy: strategy, MaxHeight: 5,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return eng, traces
}

// BenchmarkEngineParallel measures HandleUpdate throughput under
// b.RunParallel. Run with -cpu 1,2,4,8 to see the scaling series; the
// sharded engine should deliver ≥2× ops/sec at 4 procs vs 1.
func BenchmarkEngineParallel(b *testing.B) {
	for _, s := range []struct {
		name     string
		strategy wire.Strategy
	}{
		{"MWPSR", wire.StrategyMWPSR},
		{"PBSR", wire.StrategyPBSR},
	} {
		b.Run(s.name, func(b *testing.B) {
			const traceTicks = 256
			w := workloadFor(b, -1)
			eng, traces := benchEngine(b, w, s.strategy, traceTicks)
			var nextUser atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine owns one vehicle's identity and trace, so
				// updates from different goroutines never serialize on a
				// client mutex.
				idx := int(nextUser.Add(1)-1) % len(traces)
				trace := traces[idx]
				seq := uint32(0)
				for pb.Next() {
					seq++
					upd := wire.PositionUpdate{
						User: uint64(idx + 1),
						Seq:  seq,
						Pos:  trace[int(seq)%traceTicks],
					}
					if _, err := eng.HandleUpdate(upd); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkEngineSteadyState is one MWPSR client replaying its trace
// through HandleUpdate. The warm-up pass exhausts the one-shot alarm
// firings and grows the pooled scratch buffers, so the measured loop is
// the steady state: its allocations are the reply slice and the boxed
// region, 2 allocs/op (TestHandleUpdateSteadyStateAllocs guards the
// bound).
func BenchmarkEngineSteadyState(b *testing.B) {
	const traceTicks = 256
	w := workloadFor(b, -1)
	eng, traces := benchEngine(b, w, wire.StrategyMWPSR, traceTicks)
	trace := traces[0]
	seq := uint32(0)
	step := func() {
		seq++
		upd := wire.PositionUpdate{User: 1, Seq: seq, Pos: trace[int(seq)%traceTicks]}
		if _, err := eng.HandleUpdate(upd); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*traceTicks; i++ {
		step() // warm-up: fire every alarm on the trace once, grow buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkEngineBatch measures HandleUpdateBatch throughput across batch
// sizes: each op submits one frame holding `size` successive positions of
// one vehicle's trace, so ns/op÷size is the per-update cost to compare
// against BenchmarkEngineSerial.
func BenchmarkEngineBatch(b *testing.B) {
	for _, size := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			const traceTicks = 256
			w := workloadFor(b, -1)
			eng, traces := benchEngine(b, w, wire.StrategyMWPSR, traceTicks)
			trace := traces[0]
			batch := wire.UpdateBatch{Updates: make([]wire.PositionUpdate, size)}
			seq := uint32(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < size; j++ {
					seq++
					batch.Updates[j] = wire.PositionUpdate{
						User: 1, Seq: seq, Pos: trace[int(seq)%traceTicks],
					}
				}
				if _, err := eng.HandleUpdateBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSerial is the single-goroutine baseline for the same
// update stream, useful to spot per-op regressions from the concurrency
// machinery itself.
func BenchmarkEngineSerial(b *testing.B) {
	const traceTicks = 256
	w := workloadFor(b, -1)
	eng, traces := benchEngine(b, w, wire.StrategyMWPSR, traceTicks)
	seq := uint32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % len(traces)
		seq++
		upd := wire.PositionUpdate{
			User: uint64(idx + 1),
			Seq:  seq,
			Pos:  traces[idx][i%traceTicks],
		}
		if _, err := eng.HandleUpdate(upd); err != nil {
			b.Fatal(err)
		}
	}
}
