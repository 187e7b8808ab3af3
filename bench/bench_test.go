package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/geom"
)

// TestMain lets the test binary stand in for the bench binary when the
// driver re-executes it as the child.
func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) != "" {
		if err := serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func smokeRun(t *testing.T, sp spec, seed int64, trace bool, withhold int) *result {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOne(context.Background(), runOpts{
		spec: sp, scale: scaleSmoke, seed: seed, seconds: 1, trace: trace,
		childArgv: []string{self}, tmpRoot: t.TempDir(), withhold: withhold,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", sp.name, seed, err)
	}
	return res
}

// countMetrics are the end-to-end metrics that must repeat exactly.
var countMetrics = []string{"uplink_msgs_per_kclient_tick", "downlink_bytes_per_client_tick", "client_probes_per_client_tick"}

// TestSmokeDeterministicAndCorrect runs every workload at smoke scale:
// the same seed twice gives identical counts and the identical event
// set, another seed gives different counts, and nothing is ever missed.
func TestSmokeDeterministicAndCorrect(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			a := smokeRun(t, sp, 1, true, 0)
			b := smokeRun(t, sp, 1, false, 0)
			c := smokeRun(t, sp, 2, false, 0)
			for _, r := range []*result{a, b, c} {
				if !r.correct() || r.missedEvents() != 0 || r.failedShare() != 0 {
					t.Fatalf("seed %d: verdict %+v, %d failed reports", r.seed, r.verdict, r.win.failed)
				}
				if r.verdict.Expected == 0 || r.win.reports == 0 {
					t.Fatalf("seed %d: vacuous run: %d events, %d reports", r.seed, r.verdict.Expected, r.win.reports)
				}
			}
			for _, name := range countMetrics {
				if a.e2e[name] != b.e2e[name] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, a.e2e[name], b.e2e[name])
				}
			}
			if !reflect.DeepEqual(a.events, b.events) {
				t.Errorf("event sets of two runs of seed 1 differ")
			}
			// Every *_per_eval / *_per_region count derives from these.
			sa, sb := a.server, b.server
			sa.WALSyncNs, sb.WALSyncNs = 0, 0
			if sa != sb || a.win.rects != b.win.rects || a.win.bitmaps != b.win.bitmaps || a.win.bitmapBits != b.win.bitmapBits {
				t.Errorf("server counters of two runs of seed 1 differ:\n%+v\n%+v", sa, sb)
			}
			if a.e2e["uplink_msgs_per_kclient_tick"] == c.e2e["uplink_msgs_per_kclient_tick"] &&
				a.e2e["downlink_bytes_per_client_tick"] == c.e2e["downlink_bytes_per_client_tick"] {
				t.Errorf("seed 2 reproduced seed 1's counts: the seed does not reach the inputs")
			}
			checkLayers(t, sp, a)
		})
	}
}

// checkLayers holds the traced run to the predictions of README.md that
// are exact: every layer metric is reported, and a layer a workload does
// not use reads exactly 0.
func checkLayers(t *testing.T, sp spec, r *result) {
	t.Helper()
	for _, d := range layerDefs {
		v, ok := r.layers[d.name]
		if !ok {
			t.Errorf("layer metric %s not computed", d.name)
		}
		zero := (strings.HasPrefix(d.name, "store.") && sp.mode == modeMemory) ||
			(strings.HasPrefix(d.name, "cluster.") && sp.mode != modeCluster) ||
			(d.name == "server.export_import_us" && sp.mode != modeCluster) ||
			(strings.HasPrefix(d.name, "pyramid.") && sp.name != "steady_pbsr")
		if zero && v != 0 {
			t.Errorf("%s = %v on %s, want exactly 0", d.name, v, sp.name)
		}
	}
	if sp.mode == modeCluster && r.layers["cluster.handoffs_per_kreport"] < 10 {
		t.Errorf("handoffs are %.1f per 1000 reports, want at least 1 %%", r.layers["cluster.handoffs_per_kreport"])
	}
	if sp.name == "steady_pbsr" && r.layers["pyramid.compute_bitmap_ns"] == 0 {
		t.Errorf("no bitmap computation was traced on steady_pbsr")
	}
	if sp.mode != modeMemory && r.layers["store.append_p50_us"] == 0 {
		t.Errorf("no store append was replayed on %s", sp.name)
	}
}

// TestGateIsLive withholds one delivered firing and expects the run to
// fail: a gate that cannot fail proves nothing.
func TestGateIsLive(t *testing.T) {
	r := smokeRun(t, specs[0], 1, false, 1)
	if r.correct() || r.missedEvents() != 1 || r.failedShare() == 0 {
		t.Fatalf("withheld firing went unnoticed: verdict %+v", r.verdict)
	}
}

// TestOracle checks the reference semantics on a hand-made trace.
func TestOracle(t *testing.T) {
	box := geom.R(10, 10, 20, 20)
	alarms := []alarm.Alarm{
		{ID: 1, Scope: alarm.Public, Region: box},
		{ID: 2, Scope: alarm.Private, Owner: 1, Kind: alarm.KindContinuous, Region: box},
		{ID: 3, Scope: alarm.Shared, Owner: 2, Subscribers: []alarm.UserID{2, 1}, Kind: alarm.KindComposite, Threshold: 1,
			Factors: []alarm.Factor{{Region: box, Weight: 0.6}, {Center: geom.Pt(15, 15), Radius: 2, Weight: 0.6}}},
		{ID: 4, Scope: alarm.Private, Owner: 2, Region: box}, // user 2 never moves into it
	}
	o := newOracle(alarms, 2, geom.R(0, 0, 100, 100))
	path := []geom.Point{{X: 5, Y: 15}, {X: 10, Y: 15}, {X: 15, Y: 15}, {X: 25, Y: 15}, {X: 12, Y: 12}}
	for tick, p := range path {
		o.step(tick, []geom.Point{p, {X: 50, Y: 50}})
	}
	want := map[eventKey]int{
		{1, alarm.PackEvent(1, alarm.TransFired, 0)}:       1, // boundary counts as inside
		{1, alarm.PackEvent(2, alarm.TransEnter, 1)}:       1,
		{1, alarm.PackEvent(3, alarm.TransSeverity, 1200)}: 2, // both factors only at the centre
		{1, alarm.PackEvent(2, alarm.TransExit, 1)}:        3,
		{1, alarm.PackEvent(2, alarm.TransEnter, 2)}:       4, // one-shot and composite do not refire
	}
	if !reflect.DeepEqual(o.expected, want) {
		t.Fatalf("oracle expects %v, want %v", o.expected, want)
	}
	got := map[eventKey]int{}
	for k, v := range want {
		got[k] = v
	}
	if v := o.judge(got, 0); v.failed() != 0 || v.Expected != 5 {
		t.Fatalf("exact delivery judged %+v", v)
	}
	got[eventKey{1, alarm.PackEvent(2, alarm.TransExit, 1)}] = 4
	got[eventKey{2, 4}] = 0
	delete(got, eventKey{1, 1})
	if v := o.judge(got, 0); v.Missed != 1 || v.Late != 1 || v.Spurious != 1 {
		t.Fatalf("missed/late/spurious delivery judged %+v", v)
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the binary: it names exactly
// the workloads, end-to-end metrics (with units and bounds) and per-layer
// metrics the binary prints, under the contract's argument names.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q (%q) in BENCHMARK.json, %q (%q) in the binary", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	sameMetrics := func(kind string, file []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the binary", len(file), kind, len(defs))
		}
		for i, m := range file {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the binary", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json and %v in the binary differ, or are outside (0, 0.25]", kind, m.Name, d.bound)
			}
		}
	}
	sameMetrics("end_to_end", bf.EndToEnd, endToEndDefs, true)
	sameMetrics("per_layer", bf.PerLayer, layerDefs, false)

	// The command line of the contract, through the flag parser, prints a
	// last line holding exactly the metrics of the mode asked for.
	for trace, defs := range map[string][]metricDef{"0": endToEndDefs, "1": layerDefs} {
		var out bytes.Buffer
		args := []string{"--workload", "steady_mwpsr", "--seed", "7", "--seconds", "1", "--trace", trace, "-scale", "smoke"}
		if err := run(context.Background(), args, &out); err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line jsonLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(defs) {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d, %d metrics, want %d", trace, line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("--trace %s: metric %s missing or in unit %q, want %q", trace, d.name, m.Unit, d.unit)
			}
		}
		for _, want := range []string{"nproc=", "GOMAXPROCS=", "fsync=", "loopback"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("conditions header lacks %q", want)
			}
		}
	}
}
