package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sabre-geo/sabre/internal/metrics"
	"github.com/sabre-geo/sabre/internal/store"
)

// benchWALAppends is how many records one sweep point lands, by scale.
// The per-record baseline at fsync ≈ 0.1–1 ms per append dominates the
// wall clock, so the counts are sized to keep the whole sweep under a
// minute at small scale on ordinary hardware.
func benchWALAppends(opts options) int {
	if opts.walAppends > 0 {
		return opts.walAppends
	}
	switch opts.scale {
	case "medium":
		return 25600
	case "full":
		return 102400
	default:
		return 6400
	}
}

// benchWALPoint is one measured (appenders, group_max, group_wait) cell
// of the fsync-on append throughput sweep.
type benchWALPoint struct {
	Appenders int `json:"appenders"`
	GroupMax  int `json:"group_max"`
	// GroupWaitUS is the leader's queue-hold window in microseconds.
	// 0 groups opportunistically (only callers already queued behind an
	// in-flight flush coalesce — scheduler-dependent, especially on one
	// core); a wait of one or two fsync times makes grouping
	// deterministic at the cost of that much commit latency.
	GroupWaitUS int     `json:"group_wait_us"`
	Appends     uint64  `json:"appends"`
	Seconds     float64 `json:"seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	NsPerAppend float64 `json:"ns_per_append"`
	// GroupCommits and Fsyncs are the store's own counters for the run:
	// group commits (each one write(2) + one fsync) and fsyncs issued.
	GroupCommits uint64 `json:"group_commits"`
	Fsyncs       uint64 `json:"fsyncs"`
	// AvgGroupSize is records per group commit — the syscall
	// amortization factor the group actually achieved.
	AvgGroupSize float64 `json:"avg_group_size"`
	// SyncSeconds is the cumulative wall time spent inside fsync.
	SyncSeconds float64 `json:"sync_seconds"`
	// SpeedupVsPerRecord is OpsPerSec over the group_max=1 point of the
	// same appender count (1.0 for the baseline itself).
	SpeedupVsPerRecord float64 `json:"speedup_vs_per_record"`
}

type benchWALReport struct {
	Scale      string `json:"scale"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Fsync records the durability regime measured: true means every
	// group commit fsyncs before any of its appenders is acknowledged.
	Fsync           bool            `json:"fsync"`
	AppendsPerPoint int             `json:"appends_per_point"`
	Series          []benchWALPoint `json:"series"`
}

// runBenchWAL measures durable append throughput in the fsync-on regime,
// sweeping concurrent appenders × group-commit configuration, and writes
// BENCH_wal.json. group_max=1 is the per-record commit baseline (one
// write + one fsync per record, the pre-group-commit behaviour); the two
// grouped configurations are opportunistic (wait 0) and held-open
// (wait 200µs, roughly one fsync time). The acceptance bar is group
// commit coming out ≥5× faster at 64 appenders.
func runBenchWAL(opts options) error {
	total := benchWALAppends(opts)
	report := benchWALReport{
		Scale:           opts.scale,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Fsync:           true,
		AppendsPerPoint: total,
	}
	configs := []struct {
		groupMax  int
		groupWait time.Duration
	}{
		{1, 0}, // per-record baseline
		{store.DefaultGroupMax, 0},
		{store.DefaultGroupMax, 200 * time.Microsecond},
	}
	header := []string{"appenders", "group_max", "wait_us", "ops/sec", "ns/append", "groups", "avg group", "fsyncs", "speedup vs per-record"}
	var rows [][]string
	for _, appenders := range []int{1, 8, 64} {
		var perRecord float64
		for _, cfg := range configs {
			pt, err := benchWALOnce(appenders, cfg.groupMax, cfg.groupWait, total)
			if err != nil {
				return err
			}
			if cfg.groupMax == 1 {
				perRecord = pt.OpsPerSec
				pt.SpeedupVsPerRecord = 1
			} else if perRecord > 0 {
				pt.SpeedupVsPerRecord = pt.OpsPerSec / perRecord
			}
			report.Series = append(report.Series, pt)
			rows = append(rows, []string{
				fmt.Sprintf("%d", pt.Appenders),
				fmt.Sprintf("%d", pt.GroupMax),
				fmt.Sprintf("%d", pt.GroupWaitUS),
				fmt.Sprintf("%.0f", pt.OpsPerSec),
				fmt.Sprintf("%.0f", pt.NsPerAppend),
				fmt.Sprintf("%d", pt.GroupCommits),
				fmt.Sprintf("%.1f", pt.AvgGroupSize),
				fmt.Sprintf("%d", pt.Fsyncs),
				fmt.Sprintf("%.2fx", pt.SpeedupVsPerRecord),
			})
		}
	}
	table(fmt.Sprintf("Durable append throughput, fsync on (GOMAXPROCS=%d)", report.GOMAXPROCS), header, rows)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_wal.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_wal.json")
	return nil
}

// benchWALOnce opens a fresh store on a scratch directory and hammers it
// with `appenders` goroutines until ~total records are landed, fsync on.
func benchWALOnce(appenders, groupMax int, groupWait time.Duration, total int) (benchWALPoint, error) {
	dir, err := os.MkdirTemp("", "benchwal")
	if err != nil {
		return benchWALPoint{}, err
	}
	defer os.RemoveAll(dir)
	met := metrics.NewServer(metrics.DefaultCosts())
	st, _, _, err := store.Open(dir, store.Options{
		Fsync:     true,
		GroupMax:  groupMax,
		GroupWait: groupWait,
		Counters:  met,
	})
	if err != nil {
		return benchWALPoint{}, err
	}
	defer st.Close()

	per := total / appenders
	if per == 0 {
		per = 1
	}
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			alarms := []uint64{0, 0}
			for i := 0; i < per; i++ {
				alarms[0], alarms[1] = uint64(i), splitmix64(uint64(g)<<32|uint64(i))
				var rec store.Record = store.FiredRec{User: uint64(g + 1), Alarms: alarms}
				if err := st.Append(rec); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return benchWALPoint{}, err
	}
	appends := uint64(per) * uint64(appenders)
	sn := met.Snapshot()
	return benchWALPoint{
		Appenders:    appenders,
		GroupMax:     groupMax,
		GroupWaitUS:  int(groupWait / time.Microsecond),
		Appends:      appends,
		Seconds:      elapsed.Seconds(),
		OpsPerSec:    float64(appends) / elapsed.Seconds(),
		NsPerAppend:  float64(elapsed.Nanoseconds()) / float64(appends),
		GroupCommits: sn.WALGroupCommits,
		Fsyncs:       sn.WALFsyncs,
		AvgGroupSize: sn.WALGroupSizeAvg(),
		SyncSeconds:  float64(sn.WALSyncNs) / 1e9,
	}, nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
