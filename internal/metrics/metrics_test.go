package metrics

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestServerCounters(t *testing.T) {
	s := NewServer(DefaultCosts())
	s.UplinkMessages.Add(2)
	s.UplinkBytes.Add(58)
	s.AddDownlink(37)
	s.WALPreallocNs.Add(-5)
	snap := s.Snapshot()
	if snap.UplinkMessages != 2 || snap.UplinkBytes != 58 {
		t.Errorf("uplink = %d msgs %d bytes", snap.UplinkMessages, snap.UplinkBytes)
	}
	if snap.DownlinkMessages != 1 || snap.DownlinkBytes != 37 {
		t.Errorf("downlink = %d msgs %d bytes", snap.DownlinkMessages, snap.DownlinkBytes)
	}
	if snap.WALPreallocNs != -5 {
		t.Errorf("WALPreallocNs = %d, want the int64 counter's -5", snap.WALPreallocNs)
	}
	if snap.Costs != DefaultCosts() {
		t.Errorf("Costs = %+v, want the server's", snap.Costs)
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
	s.AlarmEvaluations.Add(1)
	s.NodeAccesses.Add(3)
	s.AlarmChecks.Add(2)
	s.SafeRegionComputations.Add(1)
	s.SRCandidates.Add(4)
	s.SRCorners.Add(5)
	s.RectClips.Add(1)
	s.AddBitmapComputation(6)
	snap := s.Snapshot()
	if got := snap.AlarmProcessingSeconds(); got != 3*1+2*10 {
		t.Errorf("AlarmProcessingSeconds = %v", got)
	}
	if got := snap.SafeRegionSeconds(); got != 4*100+5*1000+6*10000 {
		t.Errorf("SafeRegionSeconds = %v", got)
	}
	if got := snap.TotalSeconds(); got != 23+65400 {
		t.Errorf("TotalSeconds = %v", got)
	}
	if snap.AlarmEvaluations != 1 || snap.SafeRegionComputations != 2 {
		t.Errorf("evaluations=%d computations=%d", snap.AlarmEvaluations, snap.SafeRegionComputations)
	}
	if snap.RectClips != 1 {
		t.Errorf("RectClips = %d", snap.RectClips)
	}
}

func TestDownlinkMbps(t *testing.T) {
	s := NewServer(DefaultCosts())
	s.AddDownlink(1e6 / 8) // one megabit
	snap := s.Snapshot()
	if got := snap.DownlinkMbps(1); math.Abs(got-1) > 1e-12 {
		t.Errorf("DownlinkMbps = %v, want 1", got)
	}
	if got := snap.DownlinkMbps(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("DownlinkMbps over 2s = %v, want 0.5", got)
	}
	if got := snap.DownlinkMbps(0); got != 0 {
		t.Errorf("DownlinkMbps with zero duration = %v", got)
	}
}

// TestConcurrentAccounting drives the remaining Add methods and direct
// field adds from many goroutines and asserts exact totals: atomic
// counters must not lose increments. Run with -race to additionally
// verify the absence of data races between writers and Snapshot readers.
func TestConcurrentAccounting(t *testing.T) {
	s := NewServer(DefaultCosts())
	c := &Cluster{}
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
				_ = s.Snapshot().TotalSeconds()
				_ = c.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.UplinkMessages.Add(1)
				s.UplinkBytes.Add(10)
				s.AddDownlink(20)
				s.AlarmsTriggered.Add(1)
				s.AlarmEvaluations.Add(1)
				s.NodeAccesses.Add(2)
				s.AlarmChecks.Add(3)
				s.SafeRegionComputations.Add(2) // rect + safe period
				s.AddBitmapComputation(4)
				s.SRNodeAccesses.Add(5 + 6)
				s.WALPreallocNs.Add(7)
				c.RedirectsSent.Add(1)
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
	if snap.SRBitmapTests != 4*n {
		t.Errorf("SR bitmap tests = %d, want %d", snap.SRBitmapTests, 4*n)
	}
	if snap.SRNodeAccesses != 11*n {
		t.Errorf("SR node accesses = %d, want %d", snap.SRNodeAccesses, 11*n)
	}
	if snap.WALPreallocNs != int64(7*n) {
		t.Errorf("prealloc ns = %d, want %d", snap.WALPreallocNs, 7*n)
	}
	if got := c.Snapshot().RedirectsSent; got != n {
		t.Errorf("redirects sent = %d, want %d", got, n)
	}
}

// TestLiveSnapshotParity checks that each live counter set and its
// snapshot declare the same counters: every atomic field of Server
// (Cluster) has a same-named integer twin in Snapshot (ClusterSnapshot)
// and every integer field of the snapshot has a live twin, so a counter
// added to one struct and not the other fails here instead of reading 0.
// Snapshot.Costs is the one field without a twin.
func TestLiveSnapshotParity(t *testing.T) {
	twin := map[reflect.Type]reflect.Kind{
		reflect.TypeOf(atomic.Uint64{}): reflect.Uint64,
		reflect.TypeOf(atomic.Int64{}):  reflect.Int64,
	}
	for _, pair := range []struct{ live, snap reflect.Type }{
		{reflect.TypeOf(Server{}), reflect.TypeOf(Snapshot{})},
		{reflect.TypeOf(Cluster{}), reflect.TypeOf(ClusterSnapshot{})},
	} {
		live := 0
		for i := 0; i < pair.live.NumField(); i++ {
			f := pair.live.Field(i)
			if !f.IsExported() {
				continue
			}
			kind, ok := twin[f.Type]
			if !ok {
				t.Errorf("%s.%s has type %s, not an atomic counter", pair.live.Name(), f.Name, f.Type)
				continue
			}
			live++
			sf, ok := pair.snap.FieldByName(f.Name)
			if !ok || sf.Type.Kind() != kind {
				t.Errorf("%s.%s has no %s twin in %s", pair.live.Name(), f.Name, kind, pair.snap.Name())
			}
		}
		snapInts := 0
		for i := 0; i < pair.snap.NumField(); i++ {
			f := pair.snap.Field(i)
			if f.Name == "Costs" && pair.snap == reflect.TypeOf(Snapshot{}) {
				continue
			}
			snapInts++
			lf, ok := pair.live.FieldByName(f.Name)
			if !ok || !lf.IsExported() || twin[lf.Type] != f.Type.Kind() {
				t.Errorf("%s.%s (%s) has no live twin in %s", pair.snap.Name(), f.Name, f.Type, pair.live.Name())
			}
		}
		if live != snapInts {
			t.Errorf("%s has %d counters, %s %d", pair.live.Name(), live, pair.snap.Name(), snapInts)
		}
	}
}

// TestSnapshotFillsEveryField sets every live counter to a distinct value
// and checks Snapshot copies each into its twin.
func TestSnapshotFillsEveryField(t *testing.T) {
	for _, live := range []any{NewServer(DefaultCosts()), &Cluster{}} {
		v := reflect.ValueOf(live).Elem()
		want := map[string]string{}
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanInterface() {
				continue
			}
			switch a := v.Field(i).Addr().Interface().(type) {
			case *atomic.Uint64:
				a.Store(uint64(i + 1))
			case *atomic.Int64:
				a.Store(int64(i + 1))
			}
			want[v.Type().Field(i).Name] = fmt.Sprint(i + 1)
		}
		var snap reflect.Value
		switch l := live.(type) {
		case *Server:
			snap = reflect.ValueOf(l.Snapshot())
		case *Cluster:
			snap = reflect.ValueOf(l.Snapshot())
		}
		for name, w := range want {
			if got := fmt.Sprint(snap.FieldByName(name).Interface()); got != w {
				t.Errorf("%s.%s = %s after Snapshot, want %s", snap.Type().Name(), name, got, w)
			}
		}
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
