// Command fdkbench regenerates the tables and figures of the paper's
// evaluation section. Each experiment id matches a paper artifact:
//
//	fdkbench -exp table5        # out-of-core single-device evaluation
//	fdkbench -exp fig13         # strong scaling to 1024 simulated GPUs
//	fdkbench -exp all -out out/ # everything, with images under out/
//
// Laptop-scale experiments execute the full reconstruction code path on
// synthetic twins of the paper's datasets; paper-scale experiments run the
// calibrated discrete-event simulator with the published ABCI parameters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"distfdk/internal/experiments"
	"distfdk/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: "+strings.Join(experiments.Names(), ", ")+", or all")
	out := flag.String("out", "bench_out", "directory for image/timeline artifacts")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "CPU parallelism")
	list := flag.Bool("list", false, "list experiment ids and exit")
	kernelJSON := flag.String("kernel-json", "", "run the hot-loop kernel benchmark and append the entry to this JSON file (skips -exp)")
	label := flag.String("label", "", "label stamped into the -kernel-json entry")
	reps := flag.Int("reps", 3, "repetitions per -kernel-json measurement (best-of)")
	kernel := flag.String("kernels", "recurrence", "back-projection arithmetic for -kernel-json: recurrence, exact or simd (simd needs AVX2; silently falls back to recurrence otherwise)")
	parity := flag.Bool("parity", false, "validate the recurrence kernel — and, when the host has AVX2, the simd kernel — against the exact kernel (parity gates + streaming==batch identity); exit non-zero on violation")
	smoke := flag.Bool("smoke", false, "reduced-size -kernel-json run for CI: smaller scenario, 1 rep, parity on")
	checkTrace := flag.String("check-trace", "", "validate a Chrome trace artifact (exit non-zero on violation) and exit")
	requireFlows := flag.Bool("require-matched-flows", false, "with -check-trace, additionally require flow events to be present and fully matched (every recv arrow has its send)")
	checkMetrics := flag.String("check-metrics", "", "validate a metrics JSON artifact (exit non-zero on violation) and exit")
	checkProm := flag.String("check-prom", "", "validate a Prometheus text exposition file (exit non-zero on violation) and exit")
	checkBench := flag.String("check-bench", "", "validate comma-separated BENCH_kernel.json / BENCH_exec.json ledgers (exit non-zero on violation) and exit")
	pprofAddr := flag.String("pprof", "", "serve pprof + live /metrics + /statusz on this address during the benchmarks")
	flag.Parse()

	// The bench run's own progress registry: the live endpoints show which
	// experiment is in flight and how many finished.
	benchRun := telemetry.NewRun(1)
	if *pprofAddr != "" {
		srv, err := telemetry.ListenStatus(*pprofAddr, benchRun)
		if err != nil {
			log.Fatalf("fdkbench: %v", err)
		}
		defer srv.Close()
		fmt.Printf("introspection endpoints on http://%s/{debug/pprof,metrics,statusz}\n", srv.Addr())
	}
	if *checkTrace != "" || *checkMetrics != "" || *checkProm != "" {
		checkArtifacts(*checkTrace, *checkMetrics, *checkProm, *requireFlows)
		return
	}
	if *checkBench != "" {
		checkBenchLedgers(strings.Split(*checkBench, ","))
		return
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if *kernelJSON != "" {
		opts := experiments.KernelBenchOptions{
			Workers:   *workers,
			Reps:      *reps,
			Label:     *label,
			Kernel:    *kernel,
			Parity:    *parity,
			GitCommit: gitCommit(),
		}
		if *smoke {
			// CI-sized run: small volume, single rep, always gated. The
			// GUPS number is still recorded but only the gate matters.
			opts.Div = 16
			opts.OutN = 32
			opts.Reps = 1
			opts.Parity = true
			if opts.Label == "" {
				opts.Label = "bench-smoke"
			}
		}
		entry, err := experiments.RunKernelBench(opts)
		if entry != nil {
			if aerr := experiments.AppendKernelBenchJSON(*kernelJSON, entry); err == nil {
				err = aerr
			}
			fmt.Print(entry.Summary())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		return
	}
	reg := benchRun.Rank(0)
	reg.SetStatus("stage", "experiments")
	reg.SetStatus("experiment", *exp)
	tables, err := experiments.Run(*exp, experiments.RunOptions{OutDir: *out, Workers: *workers})
	reg.SetStatus("stage", "done")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdkbench:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		reg.Counter("bench.tables").Inc()
		fmt.Println(t.Render())
	}
}

// checkArtifacts validates telemetry artifacts a run produced — the
// `make trace-smoke` gate. Exits non-zero with the violation on stderr so
// CI fails loudly on a malformed trace.
func checkArtifacts(tracePath, metricsPath, promPath string, requireFlows bool) {
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		sum, err := telemetry.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		fmt.Printf("trace %s: %d duration events across %d processes, %d/%d flow arrows matched\n",
			tracePath, sum.Events, len(sum.Pids), sum.FlowEnds, sum.FlowBegins)
		if requireFlows {
			if sum.FlowBegins == 0 {
				fmt.Fprintf(os.Stderr, "fdkbench: trace %s carries no flow events\n", tracePath)
				os.Exit(1)
			}
			if n := sum.Unmatched(); n > 0 {
				fmt.Fprintf(os.Stderr, "fdkbench: trace %s has %d unmatched flow begins\n", tracePath, n)
				os.Exit(1)
			}
		}
	}
	if metricsPath != "" {
		data, err := os.ReadFile(metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		rep, err := telemetry.ValidateMetricsJSON(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics %s: %d rank sections, %d skewed counters\n",
			metricsPath, len(rep.Ranks), len(rep.Cluster))
		if cp := rep.CriticalPath; cp != nil {
			fmt.Printf("metrics %s: critical path %v (comm %.1f%%, wait %.1f%%)\n",
				metricsPath, time.Duration(cp.MakespanNs).Round(time.Microsecond),
				100*cp.CommFraction, 100*cp.WaitFraction)
		}
	}
	if promPath != "" {
		data, err := os.ReadFile(promPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		n, err := telemetry.ValidatePrometheus(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		fmt.Printf("prom %s: %d samples\n", promPath, n)
	}
}

// checkBenchLedgers validates the append-only benchmark ledgers — the
// `make check` gate over BENCH_kernel.json / BENCH_exec.json. The ledger
// kind is sniffed from the first entry's shape (kernel entries carry
// backprojection rows, exec entries pipeline rows), so the flag takes any
// mix of paths. Exits non-zero with the violation on stderr.
func checkBenchLedgers(paths []string) {
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdkbench:", err)
			os.Exit(1)
		}
		var sniff struct {
			Entries []struct {
				Backprojection []json.RawMessage `json:"backprojection"`
				Pipeline       []json.RawMessage `json:"pipeline"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(data, &sniff); err != nil {
			fmt.Fprintf(os.Stderr, "fdkbench: %s: %v\n", path, err)
			os.Exit(1)
		}
		kind := "unrecognized"
		if len(sniff.Entries) > 0 {
			switch {
			case sniff.Entries[0].Backprojection != nil:
				kind = "kernel"
			case sniff.Entries[0].Pipeline != nil:
				kind = "exec"
			}
		}
		switch kind {
		case "kernel":
			f, err := experiments.ValidateKernelBenchJSON(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdkbench: %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("bench %s: valid kernel ledger, %d entries\n", path, len(f.Entries))
		case "exec":
			f, err := experiments.ValidateExecBenchJSON(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdkbench: %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("bench %s: valid exec ledger, %d entries\n", path, len(f.Entries))
		default:
			fmt.Fprintf(os.Stderr, "fdkbench: %s: neither a kernel nor an exec bench ledger\n", path)
			os.Exit(1)
		}
	}
}

// gitCommit resolves the working tree's short commit hash for the bench
// record, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
