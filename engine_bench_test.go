// Engine hot-path benchmarks: they call Engine.HandleUpdate and
// HandleUpdateBatch directly on pre-generated mobility traces, so the
// per-update cost shows without the simulator, the wire or a socket. The
// paper's figures come from cmd/alarmbench; server throughput over TCP
// comes from bench/.
package sabre_test

import (
	"fmt"
	"sync"
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

// benchWorkload caches the small workload across benchmarks: building the
// road network is not what they measure.
var (
	benchWorkloadMu sync.Mutex
	benchWorkload   *sim.Workload
)

func smallWorkload(b *testing.B) *sim.Workload {
	b.Helper()
	benchWorkloadMu.Lock()
	defer benchWorkloadMu.Unlock()
	if benchWorkload == nil {
		w, err := sim.BuildWorkload(sim.SmallWorkload(1))
		if err != nil {
			b.Fatal(err)
		}
		benchWorkload = w
	}
	return benchWorkload
}

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

// BenchmarkEngineSteadyState is one MWPSR client replaying its trace
// through HandleUpdate. The warm-up pass exhausts the one-shot alarm
// firings and grows the pooled scratch buffers, so the measured loop is
// the steady state: its allocations are the reply slice and the boxed
// region, 2 allocs/op (TestHandleUpdateSteadyStateAllocs guards the
// bound).
func BenchmarkEngineSteadyState(b *testing.B) {
	const traceTicks = 256
	w := smallWorkload(b)
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
			w := smallWorkload(b)
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

// BenchmarkEngineSerial round-robins HandleUpdate over every vehicle of
// the fleet from one goroutine, so each op touches a different client's
// state.
func BenchmarkEngineSerial(b *testing.B) {
	const traceTicks = 256
	w := smallWorkload(b)
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
