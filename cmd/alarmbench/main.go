// Command alarmbench regenerates every table and figure of the paper's
// evaluation (§5) plus ablations of SABRE-specific design choices and a
// few extra sweeps (mixed fleets, bitmap coverage, fleet scalability).
//
// Usage:
//
//	alarmbench [flags] <experiment> [<experiment>...]
//	alarmbench [flags] all
//
// `alarmbench -h` lists the experiments; "all" runs every one in that
// order. Flags select the workload scale: -scale small (default, seconds),
// medium (a minute or two) or full (the paper's 10,000 vehicles × 1 h —
// tens of minutes). -verify additionally re-runs the periodic ground truth
// for every configuration and asserts 100% trigger accuracy.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/sabre-geo/sabre/internal/alarm"
	"github.com/sabre-geo/sabre/internal/grid"
	"github.com/sabre-geo/sabre/internal/motion"
	"github.com/sabre-geo/sabre/internal/pyramid"
	"github.com/sabre-geo/sabre/internal/roadnet"
	"github.com/sabre-geo/sabre/internal/saferegion"
	"github.com/sabre-geo/sabre/internal/sim"
	"github.com/sabre-geo/sabre/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "alarmbench:", err)
		os.Exit(1)
	}
}

type options struct {
	scale  string
	seed   int64
	verify bool
}

// experiment is one table or figure alarmbench can print.
type experiment struct {
	name, about string
	run         func(options) error
}

// experiments is the one list of experiments: run dispatches on it, "all"
// runs it in order and the usage text prints it.
var experiments = []experiment{
	{"fig1b", "motion pdf p(φ) series (paper Figure 1(b))", runFig1b},
	{"fig4a", "client→server messages vs grid cell size, non-weighted vs weighted MWPSR (Figure 4(a))", runFig4a},
	{"fig4b", "server processing time vs grid cell size (Figure 4(b))", runFig4b},
	{"fig5a", "messages vs pyramid height per public-alarm density (Figure 5(a))", runFig5a},
	{"fig5b", "client energy vs pyramid height per density (Figure 5(b))", runFig5b},
	{"fig6a", "messages per approach per density (Figure 6(a))", runFig6a},
	{"fig6b", "downstream bandwidth per approach (Figure 6(b))", runFig6b},
	{"fig6c", "client energy per approach (Figure 6(c))", runFig6c},
	{"fig6d", "server time decomposition per approach (Figure 6(d))", runFig6d},
	{"ablate-weighting", "greedy vs exhaustive MWPSR assembly", runAblateWeighting},
	{"ablate-clipping", "MWPSR soundness clip counts", runAblateClipping},
	{"ablate-publicbitmap", "PBSR with vs without public-alarm precomputation", runAblatePublicBitmap},
	{"ablate-safeperiod", "safe-period messages and trigger recall as the v_max bound is relaxed", runAblateSafePeriod},
	{"mixed", "one engine serving three device classes, per-class costs", runMixed},
	{"coverage", "bitmap coverage and size vs pyramid height", runCoverage},
	{"scalability", "server load vs fleet size, PRD vs MWPSR", runScalability},
}

func run(args []string) error {
	fs := flag.NewFlagSet("alarmbench", flag.ContinueOnError)
	opts := options{}
	fs.StringVar(&opts.scale, "scale", "small", "workload scale: small, medium or full (paper scale)")
	fs.Int64Var(&opts.seed, "seed", 1, "workload seed")
	fs.BoolVar(&opts.verify, "verify", false, "re-run the periodic ground truth per configuration and assert 100% accuracy")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "usage: alarmbench [flags] <experiment> [<experiment>...]")
		fmt.Fprintln(w, "\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(w, "  %-20s %s\n", e.name, e.about)
		}
		fmt.Fprintf(w, "  %-20s %s\n\nflags:\n", "all", "every experiment above, in order")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("no experiment given (try: alarmbench fig6a)")
	}
	selected, err := selectExperiments(fs.Args())
	if err != nil {
		return err
	}
	for _, e := range selected {
		start := time.Now()
		if err := e.run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("  [%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// selectExperiments resolves experiment names; a lone "all" selects every
// experiment.
func selectExperiments(names []string) ([]experiment, error) {
	if len(names) == 1 && names[0] == "all" {
		return experiments, nil
	}
	var out []experiment
	for _, name := range names {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		out = append(out, experiments[i])
	}
	return out, nil
}

// workload returns the scale-appropriate configuration with the given
// public-alarm fraction.
func workload(opts options, publicFraction float64) (sim.WorkloadConfig, error) {
	var cfg sim.WorkloadConfig
	switch opts.scale {
	case "small":
		cfg = sim.SmallWorkload(opts.seed)
	case "medium":
		cfg = sim.WorkloadConfig{
			Seed:              opts.seed,
			Vehicles:          1000,
			DurationTicks:     900,
			NumAlarms:         1000,
			PublicFraction:    0.10,
			SharedSubscribers: 2,
			AlarmMinSide:      100,
			AlarmMaxSide:      400,
			Network:           roadnet.Config{Side: 10000, Spacing: 500, Jitter: 0.25, DropProb: 0.12, Seed: opts.seed},
		}
	case "full":
		cfg = sim.DefaultWorkload(opts.seed)
	default:
		return cfg, fmt.Errorf("unknown scale %q", opts.scale)
	}
	if publicFraction >= 0 {
		cfg.PublicFraction = publicFraction
	}
	return cfg, nil
}

func buildWorkload(opts options, publicFraction float64) (*sim.Workload, error) {
	cfg, err := workload(opts, publicFraction)
	if err != nil {
		return nil, err
	}
	return sim.BuildWorkload(cfg)
}

// runAndVerify executes a strategy run and, under -verify, asserts trigger
// equality with the periodic ground truth (computed once per workload and
// cached).
func runAndVerify(opts options, w *sim.Workload, sc sim.StrategyConfig, truth map[*sim.Workload]*sim.Report) (*sim.Report, error) {
	r, err := sim.Run(w, sc)
	if err != nil {
		return nil, err
	}
	if opts.verify {
		ref, ok := truth[w]
		if !ok {
			base := sc
			base.Strategy = wire.StrategyPeriodic
			ref, err = sim.Run(w, base)
			if err != nil {
				return nil, err
			}
			truth[w] = ref
		}
		if !sim.TriggersEqual(ref.Triggers, r.Triggers) {
			return nil, fmt.Errorf("%s: trigger set differs from periodic ground truth (%d vs %d)",
				r.Strategy, len(r.Triggers), len(ref.Triggers))
		}
		fmt.Printf("  verify %-6s: %d triggers, 100%% accuracy vs PRD\n", r.Strategy, len(r.Triggers))
	}
	return r, nil
}

// table prints an aligned table.
func table(title string, header []string, rows [][]string) {
	fmt.Println("==", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	printRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range rows {
		printRow(row)
	}
}

func fmtCount(v uint64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

// cellSizes are the paper's Figure 4 grid cell areas in km².
var cellSizes = []float64{0.4, 0.625, 1.11, 2.5, 10}

// densities are the paper's public-alarm percentages.
var densities = []float64{0.01, 0.10, 0.20}

func runFig1b(options) error {
	fmt.Println("== Figure 1(b): steady motion pdf p(φ), y=1")
	zs := []float64{2, 4, 8}
	models := make([]motion.Model, len(zs))
	for i, z := range zs {
		models[i] = motion.MustNew(1, z)
	}
	header := []string{"phi/pi"}
	for _, z := range zs {
		header = append(header, fmt.Sprintf("z=%g", z))
	}
	var rows [][]string
	for i := -8; i <= 8; i++ {
		phi := float64(i) / 8 * math.Pi
		row := []string{fmt.Sprintf("%+.2f", float64(i)/8)}
		for _, m := range models {
			row = append(row, fmt.Sprintf("%.4f", m.PDF(phi)))
		}
		rows = append(rows, row)
	}
	table("pdf values (uniform = 0.1592)", header, rows)
	return nil
}

// fig4Variants are the rectangular safe region variants of Figure 4(a):
// the non-weighted approach plus weighted with y=1 and increasing z.
func fig4Variants() []struct {
	name  string
	model motion.Model
} {
	return []struct {
		name  string
		model motion.Model
	}{
		{"non-weighted", motion.Uniform()},
		{"y=1,z=4", motion.MustNew(1, 4)},
		{"y=1,z=16", motion.MustNew(1, 16)},
		{"y=1,z=32", motion.MustNew(1, 32)},
	}
}

func runFig4a(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	truth := map[*sim.Workload]*sim.Report{}
	variants := fig4Variants()
	header := []string{"cell km^2"}
	for _, v := range variants {
		header = append(header, v.name)
	}
	var rows [][]string
	for _, cell := range cellSizes {
		row := []string{fmt.Sprintf("%.3f", cell)}
		for _, v := range variants {
			r, err := runAndVerify(opts, w, sim.StrategyConfig{
				Strategy:    wire.StrategyMWPSR,
				Model:       v.model,
				CellAreaKM2: cell,
			}, truth)
			if err != nil {
				return err
			}
			row = append(row, fmtCount(r.UplinkMessages))
		}
		rows = append(rows, row)
	}
	table("Figure 4(a): client-to-server messages vs grid cell size (MWPSR)", header, rows)
	prd := uint64(w.Config.Vehicles) * uint64(w.Config.DurationTicks)
	fmt.Printf("  (periodic baseline would send %s messages)\n", fmtCount(prd))
	return nil
}

func runFig4b(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	truth := map[*sim.Workload]*sim.Report{}
	header := []string{"cell km^2", "alarm proc (min)", "SR comp (min)", "total (min)"}
	var rows [][]string
	for _, cell := range cellSizes {
		r, err := runAndVerify(opts, w, sim.StrategyConfig{
			Strategy:    wire.StrategyMWPSR,
			Model:       motion.MustNew(1, 32),
			CellAreaKM2: cell,
		}, truth)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.3f", cell),
			fmt.Sprintf("%.3f", r.AlarmProcessingMinutes),
			fmt.Sprintf("%.3f", r.SafeRegionMinutes),
			fmt.Sprintf("%.3f", r.TotalServerMinutes),
		})
	}
	table("Figure 4(b): server processing time vs cell size (MWPSR, y=1 z=32)", header, rows)
	return nil
}

func runFig5(opts options, energy bool) error {
	heights := []int{1, 2, 3, 4, 5, 6, 7}
	header := []string{"pyramid h"}
	for _, d := range densities {
		header = append(header, fmt.Sprintf("%g%% public", d*100))
	}
	var rows [][]string
	workloads := make([]*sim.Workload, len(densities))
	for i, d := range densities {
		w, err := buildWorkload(opts, d)
		if err != nil {
			return err
		}
		workloads[i] = w
	}
	truth := map[*sim.Workload]*sim.Report{}
	for _, h := range heights {
		row := []string{fmt.Sprintf("%d", h)}
		for i := range densities {
			r, err := runAndVerify(opts, workloads[i], sim.StrategyConfig{
				Strategy:      wire.StrategyPBSR,
				PyramidHeight: h,
			}, truth)
			if err != nil {
				return err
			}
			if energy {
				row = append(row, fmt.Sprintf("%.1f", r.ClientProbeEnergyMWh))
			} else {
				row = append(row, fmtCount(r.UplinkMessages))
			}
		}
		rows = append(rows, row)
	}
	if energy {
		table("Figure 5(b): client containment-detection energy (mWh) vs pyramid height (BSR)", header, rows)
	} else {
		table("Figure 5(a): client-to-server messages vs pyramid height (BSR; h=1 is GBSR)", header, rows)
	}
	return nil
}

func runFig5a(opts options) error { return runFig5(opts, false) }
func runFig5b(opts options) error { return runFig5(opts, true) }

// fig6Configs are the approaches compared in Figure 6.
func fig6Configs() []struct {
	name string
	sc   sim.StrategyConfig
} {
	return []struct {
		name string
		sc   sim.StrategyConfig
	}{
		{"PRD", sim.StrategyConfig{Strategy: wire.StrategyPeriodic}},
		{"MWPSR", sim.StrategyConfig{Strategy: wire.StrategyMWPSR, Model: motion.MustNew(1, 32)}},
		{"PBSR", sim.StrategyConfig{Strategy: wire.StrategyPBSR, PyramidHeight: 5}},
		{"SP", sim.StrategyConfig{Strategy: wire.StrategySafePeriod}},
		{"OPT", sim.StrategyConfig{Strategy: wire.StrategyOptimal}},
	}
}

// runFig6 executes the Figure 6 comparison and renders the requested
// metric columns. Reports are cached per (workload, approach) so fig6a–d
// reuse runs when invoked together via "all".
func runFig6(opts options, title string, approaches []string, metric func(*sim.Report) string) error {
	configs := fig6Configs()
	header := []string{"approach"}
	for _, d := range densities {
		header = append(header, fmt.Sprintf("%g%% public", d*100))
	}
	workloads := make([]*sim.Workload, len(densities))
	for i, d := range densities {
		w, err := buildWorkload(opts, d)
		if err != nil {
			return err
		}
		workloads[i] = w
	}
	truth := map[*sim.Workload]*sim.Report{}
	var rows [][]string
	for _, c := range configs {
		include := false
		for _, a := range approaches {
			if a == c.name {
				include = true
			}
		}
		if !include {
			continue
		}
		row := []string{c.name}
		for i := range densities {
			r, err := runAndVerify(opts, workloads[i], c.sc, truth)
			if err != nil {
				return err
			}
			row = append(row, metric(r))
		}
		rows = append(rows, row)
	}
	table(title, header, rows)
	return nil
}

func runFig6a(opts options) error {
	return runFig6(opts,
		"Figure 6(a): client-to-server messages per approach (PRD sends every tick)",
		[]string{"PRD", "MWPSR", "PBSR", "SP", "OPT"},
		func(r *sim.Report) string { return fmtCount(r.UplinkMessages) })
}

func runFig6b(opts options) error {
	return runFig6(opts,
		"Figure 6(b): downstream bandwidth (Mbps) per approach",
		[]string{"MWPSR", "PBSR", "OPT"},
		func(r *sim.Report) string { return fmt.Sprintf("%.4f", r.DownlinkMbps) })
}

func runFig6c(opts options) error {
	return runFig6(opts,
		"Figure 6(c): client energy consumption (mWh) per approach",
		[]string{"MWPSR", "PBSR", "OPT"},
		func(r *sim.Report) string { return fmt.Sprintf("%.1f", r.ClientEnergyMWh) })
}

func runFig6d(opts options) error {
	configs := fig6Configs()
	header := []string{"approach", "public %", "alarm proc (min)", "SR comp (min)", "total (min)"}
	var rows [][]string
	truth := map[*sim.Workload]*sim.Report{}
	for _, d := range []float64{0.01, 0.10} {
		w, err := buildWorkload(opts, d)
		if err != nil {
			return err
		}
		for _, c := range configs {
			r, err := runAndVerify(opts, w, c.sc, truth)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				c.name,
				fmt.Sprintf("%g", d*100),
				fmt.Sprintf("%.3f", r.AlarmProcessingMinutes),
				fmt.Sprintf("%.3f", r.SafeRegionMinutes),
				fmt.Sprintf("%.3f", r.TotalServerMinutes),
			})
		}
	}
	table("Figure 6(d): server processing time decomposition", header, rows)
	return nil
}

func runAblateWeighting(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	truth := map[*sim.Workload]*sim.Report{}
	header := []string{"assembly", "messages", "SR comp (min)"}
	var rows [][]string
	for _, mode := range []struct {
		name       string
		exhaustive bool
	}{{"greedy (paper §3 step 4)", false}, {"exhaustive (optimal)", true}} {
		r, err := runAndVerify(opts, w, sim.StrategyConfig{
			Strategy:           wire.StrategyMWPSR,
			Model:              motion.MustNew(1, 32),
			ExhaustiveAssembly: mode.exhaustive,
		}, truth)
		if err != nil {
			return err
		}
		rows = append(rows, []string{mode.name, fmtCount(r.UplinkMessages),
			fmt.Sprintf("%.3f", r.SafeRegionMinutes)})
	}
	table("Ablation: greedy vs exhaustive component-rectangle assembly", header, rows)
	return nil
}

func runAblateClipping(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	truth := map[*sim.Workload]*sim.Report{}
	header := []string{"variant", "SR computations", "soundness clips"}
	var rows [][]string
	for _, v := range fig4Variants() {
		r, err := runAndVerify(opts, w, sim.StrategyConfig{
			Strategy: wire.StrategyMWPSR,
			Model:    v.model,
		}, truth)
		if err != nil {
			return err
		}
		rows = append(rows, []string{v.name, fmtCount(r.SafeRegionComputations), fmtCount(r.RectClips)})
	}
	table("Ablation: MWPSR skyline soundness (clips should be 0)", header, rows)
	return nil
}

// runAblateSafePeriod quantifies the paper's critique of the safe-period
// baseline: its 100% accuracy depends on a pessimistic v_max bound.
// Relaxing the bound cuts messages but silently loses triggers.
func runAblateSafePeriod(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	truth, err := sim.Run(w, sim.StrategyConfig{Strategy: wire.StrategyPeriodic})
	if err != nil {
		return err
	}
	truthPairs := map[[2]uint64]bool{}
	for _, tr := range truth.Triggers {
		truthPairs[[2]uint64{tr.User, tr.Alarm}] = true
	}
	header := []string{"v_max factor", "messages", "trigger recall"}
	var rows [][]string
	for _, factor := range []float64{1.0, 0.5, 0.25} {
		r, err := sim.Run(w, sim.StrategyConfig{
			Strategy:              wire.StrategySafePeriod,
			SafePeriodSpeedFactor: factor,
		})
		if err != nil {
			return err
		}
		got := map[[2]uint64]bool{}
		for _, tr := range r.Triggers {
			got[[2]uint64{tr.User, tr.Alarm}] = true
		}
		hit := 0
		for pair := range truthPairs {
			if got[pair] {
				hit++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", factor),
			fmtCount(r.UplinkMessages),
			fmt.Sprintf("%.1f%% (%d/%d)", 100*float64(hit)/float64(len(truthPairs)), hit, len(truthPairs)),
		})
	}
	table("Ablation: safe-period pessimism (factor 1.0 = paper's guarantee)", header, rows)
	return nil
}

// runMixed serves a heterogeneous fleet (paper §4's device heterogeneity)
// from one engine and reports per-class costs.
func runMixed(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	classes := []sim.MixedClass{
		{Name: "feature phone (SP)", Strategy: wire.StrategySafePeriod, Fraction: 0.3},
		{Name: "budget phone (MWPSR)", Strategy: wire.StrategyMWPSR, Fraction: 0.4},
		{Name: "flagship (PBSR h=6)", Strategy: wire.StrategyPBSR, PyramidHeight: 6, Fraction: 0.3},
	}
	mixed, err := sim.RunMixed(w, classes, sim.StrategyConfig{Model: motion.MustNew(1, 32)})
	if err != nil {
		return err
	}
	if opts.verify {
		truth, err := sim.Run(w, sim.StrategyConfig{Strategy: wire.StrategyPeriodic})
		if err != nil {
			return err
		}
		if !sim.TriggersEqual(truth.Triggers, mixed.Triggers) {
			return fmt.Errorf("mixed fleet trigger set differs from ground truth")
		}
		fmt.Printf("  verify mixed: %d triggers, 100%% accuracy vs PRD\n", len(mixed.Triggers))
	}
	header := []string{"class", "vehicles", "messages", "msgs/client p50", "energy mWh"}
	var rows [][]string
	for _, c := range mixed.Classes {
		rows = append(rows, []string{
			c.Name,
			fmt.Sprintf("%d", c.Vehicles),
			fmtCount(c.UplinkMessages),
			fmt.Sprintf("%.0f", c.PerClientMessages.P50),
			fmt.Sprintf("%.1f", c.EnergyMWh),
		})
	}
	table("Mixed fleet: one engine, three device classes", header, rows)
	fmt.Printf("  (server total %.3f min, downstream %s bytes)\n",
		mixed.TotalServerMinutes, fmtCount(mixed.DownlinkBytes))
	return nil
}

// runScalability sweeps the fleet size at fixed alarm density, comparing
// how server load grows under periodic evaluation versus MWPSR — the
// paper's headline scalability argument ("the alarm processing server may
// become a bottleneck", §1).
func runScalability(opts options) error {
	base, err := workload(opts, -1)
	if err != nil {
		return err
	}
	header := []string{"vehicles", "PRD msgs", "PRD server (min)", "MWPSR msgs", "MWPSR server (min)", "ratio"}
	var rows [][]string
	for _, scale := range []float64{0.5, 1, 2, 4} {
		cfg := base
		cfg.Vehicles = int(float64(base.Vehicles) * scale)
		if cfg.Vehicles < 1 {
			cfg.Vehicles = 1
		}
		w, err := sim.BuildWorkload(cfg)
		if err != nil {
			return err
		}
		prd, err := sim.Run(w, sim.StrategyConfig{Strategy: wire.StrategyPeriodic})
		if err != nil {
			return err
		}
		mw, err := sim.Run(w, sim.StrategyConfig{Strategy: wire.StrategyMWPSR, Model: motion.MustNew(1, 32)})
		if err != nil {
			return err
		}
		if !sim.TriggersEqual(prd.Triggers, mw.Triggers) {
			return fmt.Errorf("scalability: accuracy violation at %d vehicles", cfg.Vehicles)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", cfg.Vehicles),
			fmtCount(prd.UplinkMessages),
			fmt.Sprintf("%.3f", prd.TotalServerMinutes),
			fmtCount(mw.UplinkMessages),
			fmt.Sprintf("%.3f", mw.TotalServerMinutes),
			fmt.Sprintf("%.0fx", prd.TotalServerMinutes/mw.TotalServerMinutes),
		})
	}
	table("Scalability: server load vs fleet size (accuracy verified per row)", header, rows)
	return nil
}

// runCoverage reports the paper's §4.2 quality metrics — coverage η(Ψs)
// and bitmap size — for pyramid heights over sampled grid cells of the
// workload.
func runCoverage(opts options) error {
	w, err := buildWorkload(opts, -1)
	if err != nil {
		return err
	}
	reg := alarm.NewRegistry()
	if _, err := reg.InstallBatch(w.Alarms); err != nil {
		return err
	}
	universe := w.Net.Bounds().Expand(50)
	g, err := grid.New(universe, 2.5e6)
	if err != nil {
		return err
	}
	header := []string{"pyramid h", "mean coverage", "min coverage", "mean bits", "max bits"}
	var rows [][]string
	cols, rowsN := g.Dims()
	for h := 1; h <= 7; h++ {
		var covSum, covMin float64 = 0, 1
		var bitSum, bitMax, n int
		for c := 0; c < cols; c++ {
			for r := 0; r < rowsN; r++ {
				cellRect := g.CellRect(grid.MakeCellID(c, r))
				rects, _ := reg.PublicIn(cellRect, nil)
				res, err := saferegion.ComputeBitmap(cellRect, pyramid.Params{U: 3, V: 3, Height: h, MaxBits: 2048}, rects, nil)
				if err != nil {
					return err
				}
				region, err := pyramid.Decode(res.Bitmap)
				if err != nil {
					return err
				}
				cov := region.Coverage()
				covSum += cov
				if cov < covMin {
					covMin = cov
				}
				bits := res.Bitmap.SizeBits()
				bitSum += bits
				if bits > bitMax {
					bitMax = bits
				}
				n++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", h),
			fmt.Sprintf("%.4f", covSum/float64(n)),
			fmt.Sprintf("%.4f", covMin),
			fmt.Sprintf("%.0f", float64(bitSum)/float64(n)),
			fmt.Sprintf("%d", bitMax),
		})
	}
	table("Coverage η(Ψs) vs bitmap size per pyramid height (public alarms, 2.5 km² cells)", header, rows)
	return nil
}

func runAblatePublicBitmap(opts options) error {
	w, err := buildWorkload(opts, 0.20) // densest public workload
	if err != nil {
		return err
	}
	truth := map[*sim.Workload]*sim.Report{}
	header := []string{"variant", "messages", "SR comp (min)", "SR computations"}
	var rows [][]string
	for _, mode := range []struct {
		name string
		pre  bool
	}{{"direct", false}, {"precomputed public bitmaps (§4.2)", true}} {
		r, err := runAndVerify(opts, w, sim.StrategyConfig{
			Strategy:                wire.StrategyPBSR,
			PyramidHeight:           5,
			PrecomputePublicBitmaps: mode.pre,
		}, truth)
		if err != nil {
			return err
		}
		rows = append(rows, []string{mode.name, fmtCount(r.UplinkMessages),
			fmt.Sprintf("%.3f", r.SafeRegionMinutes), fmtCount(r.SafeRegionComputations)})
	}
	table("Ablation: PBSR public-alarm bitmap precomputation (20% public)", header, rows)
	return nil
}
