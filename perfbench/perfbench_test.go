package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"distfdk/internal/telemetry"
)

// small shrinks a workload to test size while keeping its driver.
func small(w workload) workload {
	w.Div, w.N, w.Batches = 16, 32, 4
	return w
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSlabGapPercentiles(t *testing.T) {
	ms := time.Millisecond
	gaps := slabGaps([]time.Duration{10 * ms, 30 * ms, 60 * ms, 100 * ms, 150 * ms})
	want := []float64{20, 30, 40, 50}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %v, want %v", gaps, want)
	}
	for i := range want {
		if !near(gaps[i], want[i]) {
			t.Fatalf("gaps %v, want %v", gaps, want)
		}
	}
	// Linear interpolation between order statistics: p50 of four gaps
	// sits midway between 30 and 40, p90 at 0.7 of the way from 40 to 50.
	if got := percentile(gaps, 0.5); !near(got, 35) {
		t.Errorf("p50 = %g, want 35", got)
	}
	if got := percentile(gaps, 0.9); !near(got, 47) {
		t.Errorf("p90 = %g, want 47", got)
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("p90 of no gaps = %g, want 0", got)
	}
	if got := slabGaps([]time.Duration{ms}); len(got) != 0 {
		t.Errorf("one slab has gaps %v", got)
	}
}

func TestGupsAndOverhead(t *testing.T) {
	if got := gups(3_000_000_000, 2*time.Second); !near(got, 1.5) {
		t.Errorf("gups = %g, want 1.5", got)
	}
	if got := gups(1, 0); got != 0 {
		t.Errorf("gups over no time = %g, want 0", got)
	}
	if got := overheadFrac([]float64{1.1, 1.2, 1.15}, []float64{1, 1, 1}); !near(got, 0.15) {
		t.Errorf("overhead = %g, want 0.15", got)
	}
	// The fenced median drops one straggling untraced run.
	if got := overheadFrac([]float64{2, 2, 2, 2}, []float64{1, 1, 1, 1, 9}); !near(got, 1) {
		t.Errorf("overhead with straggler = %g, want 1", got)
	}
}

func TestExpectations(t *testing.T) {
	m := map[string]float64{"critpath.backproject_s": 4, "critpath.filter_s": 1}
	if e := expectations(workload{Name: "ooc-kernel"}, m); len(e) != 1 || !e["backproject has the largest critical-path share"] {
		t.Errorf("ooc-kernel expectations %v", e)
	}
	if e := expectations(workload{Name: "preview-filter"}, m); e["filter has the largest critical-path share"] {
		t.Errorf("preview-filter expectation met with backproject largest: %v", e)
	}
	const clean = "no retransmits or reconnects without injected faults"
	if e := expectations(workload{Name: "dist-socket"}, m); !e[clean] {
		t.Errorf("dist-socket expectation missed on a clean wire: %v", e)
	}
	m["nettrans.reconnects"] = 1
	if e := expectations(workload{Name: "dist-socket"}, m); e[clean] {
		t.Errorf("dist-socket expectation met after a reconnect: %v", e)
	}
}

// TestWorkloads reconstructs every workload at test size, untraced and
// traced, and checks the derived metrics against closed-form values.
func TestWorkloads(t *testing.T) {
	for _, full := range workloads {
		w := small(full)
		t.Run(w.Name, func(t *testing.T) {
			b, err := setup(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if err := b.prepareChecks(); err != nil {
				t.Fatal(err)
			}
			sys := b.sc.Sys
			for _, traced := range []bool{false, true} {
				o, err := b.reconstruct(traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				rmse, fails := b.checkOutcome(o)
				if len(fails) > 0 {
					t.Fatalf("traced=%v: %v", traced, fails)
				}
				if rmse <= 0 || rmse > w.RMSEMax {
					t.Errorf("rmse %g outside (0, %g]", rmse, w.RMSEMax)
				}
				if got, want := len(o.stamps), len(b.plan.SlabLayout()); got != want {
					t.Errorf("%d slab stamps, want %d", got, want)
				}
				if (o.snaps != nil) != traced {
					t.Errorf("traced=%v but snapshots present=%v", traced, o.snaps != nil)
				}
			}
			o, err := b.reconstruct(true)
			if err != nil {
				t.Fatal(err)
			}
			cp := telemetry.ComputeCriticalPath(o.snaps)
			m := layerMetrics(o, cp)
			if fails := b.checkTraced(o, cp, m); len(fails) > 0 {
				t.Fatal(fails)
			}
			rows := float64(wantH2DBytes(b.plan)) / float64(4*sys.NU)
			closed := map[string]float64{
				"device.h2d_bytes":          float64(wantH2DBytes(b.plan)),
				"storage.load_bytes":        float64(wantH2DBytes(b.plan)),
				"filter.rows":               rows,
				"backproject.voxel_updates": float64(sys.NX * sys.NY * sys.NZ * sys.NP),
			}
			if w.World == single {
				// Each needed row loaded once, by the plan's own count too.
				closed["device.h2d_bytes"] = float64(4 * b.plan.InputElements(0))
			} else {
				// Rank 1 sends its whole partial volume to rank 0.
				closed["mpi.reduce_bytes"] = float64(4 * sys.NX * sys.NY * sys.NZ)
			}
			for k, want := range closed {
				if !near(m[k], want) {
					t.Errorf("%s = %g, want %g", k, m[k], want)
				}
			}
			fracs := m["backproject.interior_frac"] + m["backproject.border_frac"] + m["backproject.skipped_frac"]
			if !near(fracs, 1) {
				t.Errorf("kernel sample fractions sum to %g", fracs)
			}
			if got := m["backproject.gups"]; !near(got, m["backproject.voxel_updates"]/1e9/m["backproject.busy_s"]) {
				t.Errorf("backproject.gups %g inconsistent with its counts", got)
			}
			for _, d := range perLayer {
				if d.Name == "telemetry.overhead_frac" {
					continue
				}
				if _, ok := m[d.Name]; !ok {
					t.Errorf("per-layer metric %s not derived", d.Name)
				}
			}
			arts, fails := writeArtifacts(t.TempDir(), w, o, cp)
			if len(fails) > 0 {
				t.Fatal(fails)
			}
			if len(arts) != 2 {
				t.Errorf("artifacts %v", arts)
			}
		})
	}
}

// TestRunWorkloadResult drives the measurement loop end to end at test
// size and checks the result record it leaves next to the artifacts.
func TestRunWorkloadResult(t *testing.T) {
	root := t.TempDir()
	w := small(workloads[2])
	for _, trace := range []bool{false, true} {
		rep, err := runWorkload(w, config{Seed: 3, Seconds: 0.01, Trace: trace, Root: root, Log: testWriter{t}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Result.Correct || rep.Result.Attempted < 1 || rep.Result.Failed != 0 {
			t.Fatalf("trace=%v result %+v, failures %v", trace, rep.Result, rep.Failures)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(rep.Result.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(rep.Result.Metrics), len(defs))
		}
		for _, d := range defs {
			if rep.Result.Metrics[d.Name].Unit != d.Unit {
				t.Errorf("metric %s: %+v", d.Name, rep.Result.Metrics[d.Name])
			}
		}
		if !trace {
			for _, d := range endToEnd {
				if rep.Result.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, rep.Result.Metrics[d.Name].Value)
				}
			}
		}
		dir := filepath.Join(root, ".bench_results", w.Name+"-seed3-trace"+map[bool]string{false: "0", true: "1"}[trace])
		data, err := os.ReadFile(filepath.Join(dir, "result.json"))
		if err != nil {
			t.Fatal(err)
		}
		var saved report
		if err := json.Unmarshal(data, &saved); err != nil {
			t.Fatal(err)
		}
		if saved.Provenance.Seed != 3 || saved.Provenance.GOMAXPROCS < 1 || saved.Provenance.Commit == "" {
			t.Errorf("provenance %+v", saved.Provenance)
		}
		if trace {
			for _, name := range []string{"trace.json", "metrics.json"} {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build")); err == nil {
		entries, _ := os.ReadDir(filepath.Join(root, ".bench_build"))
		if len(entries) != 0 {
			t.Errorf("scratch files left behind: %v", entries)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "ooc-kernel", "--trace", "2"},
		{"--workload", "ooc-kernel", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut testBuffer
		if code := run(args, &out, &errOut); code != 2 || out.n != 0 {
			t.Errorf("run(%v) = %d with %d bytes of output, want 2 and none", args, code, out.n)
		}
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

type testBuffer struct{ n int }

func (b *testBuffer) Write(p []byte) (int, error) {
	b.n += len(p)
	return len(p), nil
}

// TestBenchmarkManifest keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this program reports.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].Name)
		}
	}
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			if names[i] != d.Name || units[i] != d.Unit {
				t.Errorf("%s %d: manifest %s [%s], program %s [%s]", kind, i, names[i], units[i], d.Name, d.Unit)
			}
		}
	}
	var names, units []string
	for _, e := range m.EndToEnd {
		names, units = append(names, e.Name), append(units, e.Unit)
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %s: bound %g, better %q", e.Name, e.Bound, e.Better)
		}
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, p := range m.PerLayer {
		names, units = append(names, p.Name), append(units, p.Unit)
	}
	check("per_layer", perLayer, names, units)
}
