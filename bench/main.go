// Command bench is the repository's benchmark: four real-socket
// workloads against the alarm server running in a child process, checked
// against an independent oracle, with an in-process traced replay that
// attributes a report's round trip to the layers. See README.md.
//
//	go run ./bench -seed 1                      every workload, end to end then traced
//	go run ./bench -workload steady_pbsr -trace 0
//	go run ./bench -repeat 2                    noise self-check against the bounds
//	go run ./bench -scale smoke                 the size bench_test.go runs
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// serveEnv marks a process as the child: the driver re-executes its own
// binary with it set (bench_test.go re-executes the test binary).
const serveEnv = "SABRE_BENCH_SERVE"

func main() {
	if os.Getenv(serveEnv) != "" {
		if err := serve(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run parses the flags, runs the selected workloads and prints the
// results; the last line of out is the JSON result object of the last
// run. Everything it creates on disk lives under one temp directory that
// is removed on every return path, and every child is reaped before it
// returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = fs.Int("seconds", 10, "size of the measured window: ticksPerSecond × seconds ticks, about this long on the reference box")
		trace    = fs.String("trace", "both", "0: end-to-end run only; 1: traced run only (per-layer metrics); both")
		scaleArg = fs.String("scale", "full", "full, or smoke (≤200 vehicles, ≤120 ticks)")
		repeat   = fs.Int("repeat", 1, "run the set this many times and compare end-to-end metrics across repeats against their bounds")
		traceOut = fs.String("trace-out", "", "write the traced run's spans to this CSV file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	sc := scaleFull
	switch *scaleArg {
	case "full":
	case "smoke":
		sc = scaleSmoke
	default:
		return fmt.Errorf("unknown -scale %q", *scaleArg)
	}
	var traces []bool
	switch *trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	selected := specs
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		selected = []spec{sp}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmpRoot, err := os.MkdirTemp("", "sabre-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmpRoot)
	place := choosePlacement()
	if err := place.pinDriver(); err != nil {
		return err
	}

	printConditions(out, tmpRoot, place, *seed, *seconds, sc, selected)
	var last *result
	byRun := make([]map[string]*result, *repeat)
	gate := true
	for rep := 0; rep < *repeat; rep++ {
		byRun[rep] = make(map[string]*result)
		for _, sp := range selected {
			for _, tr := range traces {
				res, err := runOne(ctx, runOpts{
					spec: sp, scale: sc, seed: *seed, seconds: *seconds, trace: tr,
					childArgv: []string{self}, place: place, tmpRoot: tmpRoot, traceOut: *traceOut,
				})
				if err != nil {
					return fmt.Errorf("%s: %w", sp.name, err)
				}
				res.print(out)
				gate = gate && res.correct()
				last = res
				if !tr {
					byRun[rep][sp.name] = res
				}
			}
		}
	}
	if *repeat > 1 && !traces[0] {
		if !compareRepeats(out, byRun, selected) {
			gate = false
		}
	}
	line, err := json.Marshal(last.jsonLine())
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
		return err
	}
	if !gate {
		return errGate
	}
	return nil
}

// printConditions records what every number below was measured under.
func printConditions(w io.Writer, dataDir string, place placement, seed int64, seconds int, sc scale, selected []spec) {
	opts := storeOptions()
	fmt.Fprintf(w, "sabre bench: loopback TCP, closed loop, tick-synchronous, %d connections (one sender goroutine each), system under test in a child process\n", connections)
	fmt.Fprintf(w, "host: nproc=%d driver GOMAXPROCS=%d %s %s/%s kernel %s; %v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernelRelease(), place)
	fmt.Fprintf(w, "the reference box has 2 cores: goroutine-scaling sweeps are out of scope for this benchmark\n")
	fmt.Fprintf(w, "durable workloads: fsync=%v snapshot-every=%d wal-group-max=%d (0 = store default 512) wal-group-wait=%v; cluster: 2x1 shards, replicas=1, repl-ack=true; data dir %s on %s\n",
		opts.Fsync, opts.SnapshotEvery, opts.GroupMax, opts.GroupWait, dataDir, filesystemOf(dataDir))
	var ts []string
	for _, sp := range selected {
		ts = append(ts, fmt.Sprintf("%s=%d", sp.name, ticksFor(sp, sc, seconds)))
	}
	fmt.Fprintf(w, "seed %d, scale %s, measured ticks T: %s (+%d warm-up ticks counted in setup_s)\n",
		seed, sc.name, strings.Join(ts, " "), warmupTicks)
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// filesystemOf names the filesystem holding dir, as df reports it.
func filesystemOf(dir string) string {
	outb, err := exec.Command("df", "--output=fstype", dir).Output()
	if err != nil {
		return "unknown filesystem"
	}
	lines := strings.Fields(string(outb))
	return lines[len(lines)-1]
}

// compareRepeats is the noise self-check: for every workload and
// end-to-end metric it prints the value of each repeat, the largest
// relative gap between repeats and the bound, and reports whether every
// gap is within its bound.
func compareRepeats(w io.Writer, byRun []map[string]*result, selected []spec) bool {
	ok := true
	fmt.Fprintf(w, "\n== repeat check: every end-to-end metric must agree across repeats within its bound\n")
	fmt.Fprintf(w, "%-22s %-32s %-40s %8s %6s\n", "workload", "metric", "values", "gap", "bound")
	for _, sp := range selected {
		for _, d := range endToEndDefs {
			lo, hi := math.Inf(1), math.Inf(-1)
			var vals []string
			for _, run := range byRun {
				v := run[sp.name].e2e[d.name]
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				vals = append(vals, fmt.Sprintf("%.4g", v))
			}
			gap := ratio(hi-lo, lo)
			verdict := ""
			if gap > d.bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-32s %-40s %8.4f %6.3f%s\n", sp.name, d.name, strings.Join(vals, " "), gap, d.bound, verdict)
		}
	}
	return ok
}
