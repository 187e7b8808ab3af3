package main

import (
	"fmt"
	"io"

	"github.com/sabre-geo/sabre/internal/metrics"
)

// metricDef names one metric of the benchmark. The end-to-end table here,
// BENCHMARK.json and bench/README.md list the same names, units and
// bounds; bench_test.go holds the first two together.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share by which it may worsen; also the run-to-run agreement required
}

// endToEndDefs are the metrics a user of the deployment would see.
// missed_events and failed_share are always printed and gate the run, but
// a metric that is 0 on every correct run cannot carry a relative bound,
// so they are reported through correct/attempted/failed instead.
var endToEndDefs = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"reports_per_s", "1/s", true, 0.25},
	{"client_ticks_per_s", "1/s", true, 0.25},
	{"report_reply_p50_us", "us", false, 0.25},
	{"report_reply_p99_us", "us", false, 0.25},
	{"server_cpu_us_per_report", "us", false, 0.25},
	{"uplink_msgs_per_kclient_tick", "count", false, 0.05},
	{"downlink_bytes_per_client_tick", "B", false, 0.05},
	{"client_probes_per_client_tick", "count", false, 0.05},
	{"server_rss_mb", "MB", false, 0.25},
}

// metricValue is one measured metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run produced.
type result struct {
	workload string
	why      string
	seed     int64
	traced   bool
	ticks    int
	vehicles int
	childGMP int

	setups []float64
	marks  []segment
	lat    []float64 // all senders, ns
	segP99 []float64 // p99 of each group of slices of the window, ns
	win    window    // summed over senders
	client metrics.Client
	server metrics.Snapshot
	clus   metrics.ClusterSnapshot
	rssMB  float64

	events  map[eventKey]int
	verdict verdict

	e2e    map[string]float64
	layers map[string]float64
	// p999US is printed but not gated: it sits at the scheduler quantum.
	p999US float64
}

func newResult(o runOpts, d *deployment, ticks int) *result {
	return &result{
		workload: o.spec.name,
		why:      o.spec.why,
		seed:     o.seed,
		traced:   o.trace,
		ticks:    ticks,
		vehicles: d.in.vehicles,
		childGMP: d.child.gomaxprocs,
	}
}

// collect folds the senders' windows and the child's snapshot deltas
// over the measured ticks into the result.
func (r *result) collect(d *deployment, marks []segment, before, after *childSnapshot, clientBefore metrics.Client) {
	r.marks = marks
	for _, s := range d.senders {
		w := s.win
		r.win.reports += w.reports
		r.win.failed += w.failed
		r.win.frames += w.frames
		r.win.downBytes += w.downBytes
		r.win.rects += w.rects
		r.win.rectKM2 += w.rectKM2
		r.win.bitmaps += w.bitmaps
		r.win.bitmapBits += w.bitmapBits
		r.win.handoffLat = append(r.win.handoffLat, w.handoffLat...)
		r.lat = append(r.lat, w.lat...)
	}
	// The tail is taken over groups of slices large enough that a p99 has
	// ten frames beyond it: reports of one batch frame share one latency,
	// so on the batch workload a single slice holds too few distinct ones.
	group := 1
	for group < len(marks)-1 && r.win.frames/uint64((len(marks)-1)/group) < 1000 {
		group *= 2
	}
	for k := group; k < len(marks); k += group {
		var seg []float64
		for i, s := range d.senders {
			seg = append(seg, s.win.lat[marks[k-group].latIdx[i]:marks[k].latIdx[i]]...)
		}
		r.segP99 = append(r.segP99, percentile(seg, 0.99))
	}
	for i := range d.vehicles {
		r.client.Merge(d.vehicles[i].met)
	}
	addCounters(&r.client, clientBefore, -1)
	r.server, r.clus = after.Server, after.Cluster
	addCounters(&r.server, before.Server, -1)
	addCounters(&r.clus, before.Cluster, -1)
}

// judge compares what was delivered with the oracle.
func (r *result) judge(d *deployment, withhold int) {
	var dups int
	r.events, dups = mergeEvents(d.senders)
	for k := range r.events {
		if withhold == 0 {
			break
		}
		delete(r.events, k)
		withhold--
	}
	r.verdict = d.oracle.judge(r.events, dups)
}

// attempted and failed are the run's operations: every report and every
// event the oracle expects.
func (r *result) attempted() int { return int(r.win.reports) + r.verdict.Expected }
func (r *result) failed() int    { return int(r.win.failed) + r.verdict.failed() }
func (r *result) correct() bool  { return r.failed() == 0 }

// endToEnd derives the end-to-end metrics. Rates and the tail are medians
// over the equal slices of the measured window, which keeps one
// descheduled slice from moving the figure; counts are totals and repeat
// exactly for a seed.
func (r *result) endToEnd() {
	var rps, ctps, cpu []float64
	for k := 1; k < len(r.marks); k++ {
		a, b := r.marks[k-1], r.marks[k]
		secs := (b.wall - a.wall).Seconds()
		reports := float64(b.reports - a.reports)
		rps = append(rps, ratio(reports, secs))
		ctps = append(ctps, ratio(float64((b.ticks-a.ticks)*r.vehicles), secs))
		cpu = append(cpu, ratio(float64(b.cpu-a.cpu), reports))
	}
	clientTicks := float64(r.ticks * r.vehicles)
	r.p999US = percentile(r.lat, 0.999) / 1e3
	r.e2e = map[string]float64{
		"setup_s":                        median(r.setups),
		"reports_per_s":                  median(rps),
		"client_ticks_per_s":             median(ctps),
		"report_reply_p50_us":            median(r.lat) / 1e3,
		"report_reply_p99_us":            median(r.segP99) / 1e3,
		"server_cpu_us_per_report":       median(cpu),
		"uplink_msgs_per_kclient_tick":   ratio(float64(r.win.reports), clientTicks) * 1000,
		"downlink_bytes_per_client_tick": ratio(float64(r.win.downBytes), clientTicks),
		"client_probes_per_client_tick":  ratio(float64(r.client.Probes), clientTicks),
		"server_rss_mb":                  r.rssMB,
	}
}

// missedEvents and failedShare are the two gate metrics of the issue.
func (r *result) missedEvents() int { return r.verdict.Missed }
func (r *result) failedShare() float64 {
	return ratio(float64(r.failed()), float64(r.attempted()))
}

// jsonLine is the contract's result object: the last line of stdout.
type jsonLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// jsonLine carries the end-to-end metrics of an end-to-end run and the
// per-layer metrics of a traced run.
func (r *result) jsonLine() jsonLine {
	out := jsonLine{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]metricValue{}}
	if r.traced {
		for _, d := range layerDefs {
			out.Metrics[d.name] = metricValue{r.layers[d.name], d.unit}
		}
		return out
	}
	for _, d := range endToEndDefs {
		out.Metrics[d.name] = metricValue{r.e2e[d.name], d.unit}
	}
	return out
}

// print writes the human-readable tables.
func (r *result) print(w io.Writer) {
	kind := "end-to-end run"
	if r.traced {
		kind = "traced run"
	}
	fmt.Fprintf(w, "\n== %s  %s  seed %d  %d vehicles × %d measured ticks (+%d warm-up)  child GOMAXPROCS %d\n   why: %s\n",
		r.workload, kind, r.seed, r.vehicles, r.ticks, warmupTicks, r.childGMP, r.why)
	if !r.traced {
		fmt.Fprintf(w, "%-34s %14s %-6s %s\n", "end-to-end metric", "value", "unit", "bound")
		for _, d := range endToEndDefs {
			note := ""
			switch d.name {
			case "setup_s":
				note = fmt.Sprintf("  (median of %d set-ups)", len(r.setups))
			case "report_reply_p50_us":
				note = fmt.Sprintf("  (n=%d)", len(r.lat))
			case "report_reply_p99_us":
				note = fmt.Sprintf("  (median of %d slice p99s, ≈%d frames each; p99.9 = %.1f us, not gated)",
					len(r.segP99), int(r.win.frames)/len(r.segP99), r.p999US)
			}
			fmt.Fprintf(w, "%-34s %14.4f %-6s %.3f%s\n", d.name, r.e2e[d.name], d.unit, d.bound, note)
		}
		fmt.Fprintf(w, "%-34s %14d %-6s 0\n", "missed_events", r.missedEvents(), "count")
		fmt.Fprintf(w, "%-34s %14.6f %-6s 0\n", "failed_share", r.failedShare(), "ratio")
	}
	v := r.verdict
	fmt.Fprintf(w, "oracle: events_expected=%d missed=%d late=%d spurious=%d duplicate_firings=%d; reports=%d failed_reports=%d\n",
		v.Expected, v.Missed, v.Late, v.Spurious, v.Duplicate, r.win.reports, r.win.failed)
	for _, ex := range v.Examples {
		fmt.Fprintf(w, "  %s\n", ex)
	}
	if r.layers != nil {
		fmt.Fprintf(w, "%-44s %16s %s\n", "per-layer metric (traced run)", "value", "unit")
		for _, d := range layerDefs {
			fmt.Fprintf(w, "%-44s %16.4f %s\n", d.name, r.layers[d.name], d.unit)
		}
	}
}
