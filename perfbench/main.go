// Command perfbench is the repository's reconstruction benchmark: one
// closed-loop client running one reconstruction at a time on each of
// four workloads, reporting end-to-end metrics from untraced runs
// (--trace 0) or per-layer metrics from a traced run (--trace 1).
//
// Run it from the repository root through its build wrapper:
//
//	bash perfbench/run.sh --workload ooc-kernel --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Any failed correctness check makes the
// command exit 1 after printing it. README.md documents every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"distfdk/internal/scenario"
	"distfdk/internal/telemetry"
)

// A run sets its workload up at least minSetupReps times, and more while
// the set-ups together take under setupBudget, up to maxSetupReps: a
// set-up of milliseconds is repeated until its median is steady, one of
// seconds only three times. setup_s is their median. Every timing is
// aggregated with scenario.RobustMedian, a median after Tukey fences, so
// one scheduler hiccup moves no result.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = time.Second
)

// config is one invocation's settings.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Root is the repository checkout: scratch files go to
	// Root/.bench_build, results and trace artifacts to Root/.bench_results.
	Root string
	Log  io.Writer
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one workload's full record, written to result.json next to
// the trace artifacts.
type report struct {
	Provenance provenance           `json:"provenance"`
	Result     result               `json:"result"`
	Failures   []string             `json:"failures,omitempty"`
	Samples    map[string][]float64 `json:"samples"`
	Expect     map[string]bool      `json:"expectations,omitempty"`
	Artifacts  map[string]string    `json:"artifacts,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement window per workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Root: root, Log: stderr}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v (have %s, all)\n", err, workloadNames())
			return 2
		}
		selected = []workload{w}
	}

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		rep, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
			return 2
		}
		printReport(stdout, rep)
		total.Correct = total.Correct && rep.Result.Correct
		total.Attempted += rep.Result.Attempted
		total.Failed += rep.Result.Failed
		for k, v := range rep.Result.Metrics {
			if len(selected) > 1 {
				k = w.Name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// runWorkload sets w up several times, then reconstructs closed-loop
// for cfg.Seconds, checking every output. It returns an error only when
// the workload cannot be set up; failed reconstructions and checks are
// counted in the result.
func runWorkload(w workload, cfg config) (*report, error) {
	work := filepath.Join(cfg.Root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	defer os.RemoveAll(work)
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.Log, w.Name+": "+format+"\n", args...) }

	var b *bench
	var setupS []float64
	var spent time.Duration
	for i := 0; i < maxSetupReps && (i < minSetupReps || spent < setupBudget); i++ {
		runtime.GC()
		t0 := time.Now()
		next, err := setup(w, cfg.Seed, filepath.Join(work, fmt.Sprint(i)))
		took := time.Since(t0)
		spent += took
		setupS = append(setupS, took.Seconds())
		if b != nil {
			b.close()
			os.RemoveAll(b.dir)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b = next
	}
	defer b.close()
	if err := b.prepareChecks(); err != nil {
		return nil, fmt.Errorf("preparing checks: %w", err)
	}
	logf("set up in %.2fs (median of %d); measuring for %gs", scenario.RobustMedian(setupS), len(setupS), cfg.Seconds)

	rep := &report{
		Provenance: newProvenance(cfg.Root, w.Name, cfg.Seed, cfg.Seconds, cfg.Trace),
		Samples:    map[string][]float64{"setup_s": setupS},
	}
	res := &rep.Result
	record := func(o *outcome, err error) (rmse float64, ok bool) {
		res.Attempted++
		var fails []string
		if err != nil {
			fails = []string{err.Error()}
		} else {
			rmse, fails = b.checkOutcome(o)
		}
		if len(fails) > 0 {
			res.Failed++
			for _, f := range fails {
				logf("reconstruction %d: FAIL %s", res.Attempted, f)
			}
			rep.Failures = append(rep.Failures, fails...)
			return rmse, false
		}
		return rmse, true
	}

	var walls, traced, gupsS, firstS, allocS, rmseS, gaps []float64
	var layerS = map[string][]float64{}
	dir := filepath.Join(cfg.Root, ".bench_results", fmt.Sprintf("%s-seed%d-trace%d", w.Name, cfg.Seed, boolInt(cfg.Trace)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for res.Attempted == 0 || time.Now().Before(deadline) {
		runtime.GC()
		o, err := b.reconstruct(false)
		rmse, ok := record(o, err)
		if !ok {
			continue
		}
		walls = append(walls, o.wall.Seconds())
		gupsS = append(gupsS, gups(o.ledger.VoxelUpdates, o.wall))
		firstS = append(firstS, o.stamps[0].Seconds())
		allocS = append(allocS, float64(o.alloc)/(1<<20))
		rmseS = append(rmseS, rmse)
		gaps = append(gaps, slabGaps(o.stamps)...)
		if !cfg.Trace {
			continue
		}
		// Traced runs alternate with untraced ones, so the tracing cost is
		// measured under the same conditions.
		runtime.GC()
		o, err = b.reconstruct(true)
		if _, ok := record(o, err); !ok {
			continue
		}
		cp := telemetry.ComputeCriticalPath(o.snaps)
		m := layerMetrics(o, cp)
		// Each traced reconstruction overwrites the artifacts, so they
		// always belong to the last one.
		arts, fails := writeArtifacts(dir, w, o, cp)
		rep.Artifacts = arts
		// A traced reconstruction whose output is right but whose layer
		// checks fail still reports its layers: they explain the failure.
		if fails = append(fails, b.checkTraced(o, cp, m)...); len(fails) > 0 {
			res.Failed++
			for _, f := range fails {
				logf("traced reconstruction: FAIL %s", f)
			}
			rep.Failures = append(rep.Failures, fails...)
		}
		traced = append(traced, o.wall.Seconds())
		for k, v := range m {
			layerS[k] = append(layerS[k], v)
		}
	}

	values := map[string]float64{}
	var defs []metricDef
	if cfg.Trace {
		defs = perLayer
		for k, xs := range layerS {
			values[k] = scenario.RobustMedian(xs)
		}
		values["telemetry.overhead_frac"] = overheadFrac(traced, walls)
		rep.Samples["traced_wall_s"] = traced
		rep.Expect = expectations(w, values)
		for k, ok := range rep.Expect {
			if !ok {
				logf("expectation not met: %s", k)
			}
		}
	} else {
		defs = endToEnd
		values["gups"] = scenario.RobustMedian(gupsS)
		values["slab_p50_ms"] = percentile(gaps, 0.5)
		values["slab_p90_ms"] = percentile(gaps, 0.9)
		values["setup_s"] = scenario.RobustMedian(setupS)
		values["alloc_mb"] = scenario.RobustMedian(allocS)
		values["rmse"] = scenario.RobustMedian(rmseS)
		rep.Samples["gups"] = gupsS
		rep.Samples["first_slab_s"] = firstS
		rep.Samples["alloc_mb"] = allocS
		rep.Samples["slab_gap_ms"] = gaps
	}
	rep.Samples["wall_s"] = walls
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}

	if cfg.Trace && len(traced) == 0 {
		rep.Failures = append(rep.Failures, "no traced reconstruction completed")
	}
	res.Correct = res.Failed == 0 && len(rep.Failures) == 0
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeArtifacts writes the traced reconstruction's Chrome trace and
// metrics JSON into dir and validates both with the program's own
// validators, so the run can be explained from its artifacts alone.
func writeArtifacts(dir string, w workload, o *outcome, cp *telemetry.CriticalPath) (map[string]string, []string) {
	var fails []string
	arts := map[string]string{}
	var tr, mj bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tr, o.snaps); err != nil {
		return arts, []string{"chrome trace: " + err.Error()}
	}
	if err := telemetry.WriteMetricsJSON(&mj, o.snaps); err != nil {
		return arts, []string{"metrics json: " + err.Error()}
	}
	sum, err := telemetry.ValidateChromeTrace(tr.Bytes())
	switch {
	case err != nil:
		fails = append(fails, "chrome trace invalid: "+err.Error())
	case w.World != single && (sum.FlowBegins == 0 || sum.Unmatched() != 0):
		fails = append(fails, fmt.Sprintf("chrome trace flows: %d begins, %d unmatched", sum.FlowBegins, sum.Unmatched()))
	}
	mr, err := telemetry.ValidateMetricsJSON(mj.Bytes())
	switch {
	case err != nil:
		fails = append(fails, "metrics json invalid: "+err.Error())
	case cp == nil || mr.CriticalPath == nil || mr.CriticalPath.MakespanNs != int64(cp.Makespan):
		fails = append(fails, "metrics json critical path disagrees with the traced run's")
	}
	for name, data := range map[string][]byte{"trace.json": tr.Bytes(), "metrics.json": mj.Bytes()} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fails = append(fails, err.Error())
		}
		arts[strings.TrimSuffix(name, ".json")] = name
	}
	return arts, fails
}

// expectations are the per-layer facts each workload was chosen for,
// and on dist-socket a wire that never resends. They describe
// performance, not correctness, so a miss is reported but fails nothing.
func expectations(w workload, m map[string]float64) map[string]bool {
	largest := func(stage string) bool {
		for _, st := range critStages {
			if st != stage && m["critpath."+st+"_s"] >= m["critpath."+stage+"_s"] {
				return false
			}
		}
		return true
	}
	switch w.Name {
	case "ooc-kernel":
		return map[string]bool{"backproject has the largest critical-path share": largest("backproject")}
	case "preview-filter":
		return map[string]bool{"filter has the largest critical-path share": largest("filter")}
	case "dist-socket":
		return map[string]bool{"no retransmits or reconnects without injected faults": m["nettrans.retransmits"] == 0 && m["nettrans.reconnects"] == 0}
	}
	return nil
}

// printReport writes a workload's metrics by name and unit, and its
// provenance, for a reader.
func printReport(w io.Writer, rep *report) {
	p := rep.Provenance
	fmt.Fprintf(w, "# %s seed=%d trace=%v commit=%s cpu=%q nproc=%d gomaxprocs=%d %s avx2=%v\n",
		p.Workload, p.Seed, p.Trace, p.Commit, p.CPU, p.NProc, p.GOMAXPROCS, p.GoVersion, p.AVX2)
	names := make([]string, 0, len(rep.Result.Metrics))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := rep.Result.Metrics[d.Name]; ok {
			names = append(names, d.Name)
		}
	}
	for _, n := range names {
		v := rep.Result.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
}
