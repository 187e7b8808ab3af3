package metrics

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestServerCounters(t *testing.T) {
	s := NewServer(DefaultCosts())
	s.AddUplink(29)
	s.AddUplink(29)
	s.AddDownlink(37)
	snap := s.Snapshot()
	if snap.UplinkMessages != 2 || snap.UplinkBytes != 58 {
		t.Errorf("uplink = %d msgs %d bytes", snap.UplinkMessages, snap.UplinkBytes)
	}
	if snap.DownlinkMessages != 1 || snap.DownlinkBytes != 37 {
		t.Errorf("downlink = %d msgs %d bytes", snap.DownlinkMessages, snap.DownlinkBytes)
	}
}

func TestCostModelSeconds(t *testing.T) {
	costs := CostParams{
		NodeAccessSeconds: 1,
		AlarmCheckSeconds: 10,
		CandidateSeconds:  100,
		CornerSeconds:     1000,
		BitmapTestSeconds: 10000,
	}
	s := NewServer(costs)
	s.AddAlarmEvaluation(3, 2)
	s.AddRectComputation(4, 5, 1)
	s.AddBitmapComputation(6)
	if got := s.AlarmProcessingSeconds(); got != 3*1+2*10 {
		t.Errorf("AlarmProcessingSeconds = %v", got)
	}
	if got := s.SafeRegionSeconds(); got != 4*100+5*1000+6*10000 {
		t.Errorf("SafeRegionSeconds = %v", got)
	}
	if got := s.TotalSeconds(); got != 23+65400 {
		t.Errorf("TotalSeconds = %v", got)
	}
	if s.AlarmEvaluations() != 1 || s.SafeRegionComputations() != 2 {
		t.Errorf("evaluations=%d computations=%d", s.AlarmEvaluations(), s.SafeRegionComputations())
	}
	if s.RectClips() != 1 {
		t.Errorf("RectClips = %d", s.RectClips())
	}
	// The snapshot computes the same seconds as the live accessors.
	snap := s.Snapshot()
	if snap.TotalSeconds() != s.TotalSeconds() {
		t.Errorf("snapshot TotalSeconds %v != server %v", snap.TotalSeconds(), s.TotalSeconds())
	}
}

func TestDownlinkMbps(t *testing.T) {
	s := NewServer(DefaultCosts())
	s.AddDownlink(1e6 / 8) // one megabit
	if got := s.DownlinkMbps(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("DownlinkMbps = %v, want 1", got)
	}
	if got := s.DownlinkMbps(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("DownlinkMbps over 2s = %v, want 0.5", got)
	}
	if got := s.DownlinkMbps(0); got != 0 {
		t.Errorf("DownlinkMbps with zero duration = %v", got)
	}
}

// TestConcurrentAccounting drives every Add method from many goroutines
// and asserts exact totals: atomic counters must not lose increments.
// Run with -race to additionally verify the absence of data races between
// writers and Snapshot readers.
func TestConcurrentAccounting(t *testing.T) {
	s := NewServer(DefaultCosts())
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	done := make(chan struct{})
	// A concurrent snapshot reader exercising the read path under load.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Snapshot()
				_ = s.TotalSeconds()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.AddUplink(10)
				s.AddDownlink(20)
				s.AddAlarmsTriggered(1)
				s.AddAlarmEvaluation(2, 3)
				s.AddRectComputation(1, 2, 0)
				s.AddBitmapComputation(4)
				s.AddSafeRegionIndexWork(5)
				s.AddSafePeriodComputation(6)
			}
		}()
	}
	wg.Wait()
	close(done)
	snap := s.Snapshot()
	n := uint64(workers * perWorker)
	if snap.UplinkMessages != n || snap.UplinkBytes != 10*n {
		t.Errorf("uplink = %d/%d, want %d/%d", snap.UplinkMessages, snap.UplinkBytes, n, 10*n)
	}
	if snap.DownlinkMessages != n || snap.DownlinkBytes != 20*n {
		t.Errorf("downlink = %d/%d", snap.DownlinkMessages, snap.DownlinkBytes)
	}
	if snap.AlarmsTriggered != n {
		t.Errorf("triggered = %d, want %d", snap.AlarmsTriggered, n)
	}
	if snap.AlarmEvaluations != n || snap.NodeAccesses != 2*n || snap.AlarmChecks != 3*n {
		t.Errorf("evaluation counters wrong: %+v", snap)
	}
	if snap.SafeRegionComputations != 3*n { // rect + bitmap + safe period
		t.Errorf("SR computations = %d, want %d", snap.SafeRegionComputations, 3*n)
	}
	if snap.SRNodeAccesses != 11*n {
		t.Errorf("SR node accesses = %d, want %d", snap.SRNodeAccesses, 11*n)
	}
}

func TestClientCountersAndEnergy(t *testing.T) {
	var c Client
	c.AddCheck(1)
	c.AddCheck(5)
	c.MessagesSent = 3
	if c.ContainmentChecks != 2 || c.Probes != 6 {
		t.Errorf("checks=%d probes=%d", c.ContainmentChecks, c.Probes)
	}
	p := EnergyParams{ProbeMilliWattHours: 2, RadioMilliWattHours: 10}
	if got := c.Energy(p); got != 6*2+3*10 {
		t.Errorf("Energy = %v", got)
	}
	var agg Client
	agg.Merge(c)
	agg.Merge(c)
	if agg.Probes != 12 || agg.MessagesSent != 6 || agg.ContainmentChecks != 4 {
		t.Errorf("merge wrong: %+v", agg)
	}
}

func TestDefaultsPositive(t *testing.T) {
	c := DefaultCosts()
	for name, v := range map[string]float64{
		"NodeAccess": c.NodeAccessSeconds,
		"AlarmCheck": c.AlarmCheckSeconds,
		"Candidate":  c.CandidateSeconds,
		"Corner":     c.CornerSeconds,
		"BitmapTest": c.BitmapTestSeconds,
	} {
		if v <= 0 {
			t.Errorf("%s cost not positive", name)
		}
	}
	e := DefaultEnergy()
	if e.ProbeMilliWattHours <= 0 || e.RadioMilliWattHours <= 0 {
		t.Error("energy params not positive")
	}
}

// TestSnapshotAddSumsEveryField sets every numeric Snapshot field to a
// distinct value and checks Add sums each one, so a counter of a kind
// Add does not handle fails here instead of vanishing from cluster totals.
func TestSnapshotAddSumsEveryField(t *testing.T) {
	var a, b Snapshot
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		switch f := av.Field(i); f.Kind() {
		case reflect.Struct:
			continue
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
			bv.Field(i).SetUint(uint64(100 * (i + 1)))
		case reflect.Int64:
			f.SetInt(int64(i + 1))
			bv.Field(i).SetInt(int64(100 * (i + 1)))
		default:
			t.Fatalf("Snapshot.%s has kind %s, which Add does not sum", av.Type().Field(i).Name, f.Kind())
		}
	}
	b.Costs = DefaultCosts()
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Field(i)
		if f.Kind() == reflect.Struct {
			continue
		}
		if want := fmt.Sprint(101 * (i + 1)); fmt.Sprint(f.Interface()) != want {
			t.Errorf("Snapshot.%s = %v after Add, want %s", av.Type().Field(i).Name, f.Interface(), want)
		}
	}
	if a.Costs != DefaultCosts() {
		t.Errorf("Costs = %+v after Add, want the added snapshot's", a.Costs)
	}
}
