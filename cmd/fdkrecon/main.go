// Command fdkrecon reconstructs a cone-beam CT volume with the streaming
// FDK pipeline. Input is either a projection container written by
// phantomgen/storage.WriteStack or a synthetic dataset generated on the
// fly:
//
//	fdkrecon -dataset tomo_00030 -div 8 -n 64 -o vol.fbk -slice slice.pgm
//	fdkrecon -in projections.fbp -dataset tomo_00030 -div 8 -n 64 -o vol.fbk
//
// Multi-rank mode (-groups/-ranks) runs the grouped decomposition with the
// segmented reduction in-process. Adding -world N spreads the same world
// over N OS processes wired through loopback sockets (see world.go):
//
//	fdkrecon -div 16 -n 32 -groups 2 -ranks 2 -world 4 -journal vol.journal -o vol.fbk
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/dataset"
	"distfdk/internal/device"
	"distfdk/internal/experiments"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/iterative"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fdkrecon: ")

	var (
		dsName     = flag.String("dataset", "tomo_00030", "dataset geometry (see DESIGN.md registry)")
		div        = flag.Int("div", 8, "detector/angle scale divisor for the synthetic twin")
		outN       = flag.Int("n", 64, "output volume size n³")
		inPath     = flag.String("in", "", "projection container (.fbp); empty synthesises the dataset's phantom")
		outPath    = flag.String("o", "volume.fbk", "output volume file")
		slice      = flag.String("slice", "", "optional central-slice PGM path")
		window     = flag.String("window", "ram-lak", "ramp window: ram-lak, shepp-logan, cosine, hamming, hann")
		groups     = flag.Int("groups", 1, "Ng rank groups")
		ranks      = flag.Int("ranks", 1, "Nr ranks per group")
		batches    = flag.Int("batches", core.DefaultBatchCount, "Nc slab batches")
		memMB      = flag.Int64("devmem", 0, "device memory budget in MiB (0 = unlimited)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "CPU parallelism")
		timeline   = flag.Bool("timeline", false, "print the pipeline timeline (single-rank mode)")
		zlo        = flag.Int("zlo", -1, "first slice of a Z-window (ROI) reconstruction; -1 = full volume")
		znz        = flag.Int("znz", 0, "slice count of the Z-window (with -zlo)")
		stats      = flag.Bool("stats", false, "print volume statistics")
		algo       = flag.String("algo", "fdk", "reconstruction algorithm: fdk, sirt, ossart, mlem, osem")
		iters      = flag.Int("iters", 10, "iterations for the iterative algorithms")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) of the run")
		metrics    = flag.String("metrics-json", "", "write the run's metrics JSON artifact")
		pprof      = flag.String("pprof", "", "serve net/http/pprof, Prometheus /metrics and /statusz on this address (e.g. localhost:6060)")
		statusPoll = flag.Duration("status-poll", 0, "with -pprof: poll the live /metrics and /statusz endpoints at this interval during the run and fail unless they validate (smoke test)")
		journal    = flag.String("journal", "", "checkpoint journal path (multi-rank mode): durable slab output with crash resume and supervised shrink-and-resume through rank loss")
		restarts   = flag.Int("max-restarts", core.DefaultMaxRestarts, "restart budget of the supervised run (with -journal)")
		backoff    = flag.Duration("restart-backoff", core.DefaultRestartBackoff, "initial relaunch backoff, doubled per restart (with -journal)")
		deadline   = flag.Duration("deadline", 0, "collective deadline: a lost peer surfaces as a typed error within this bound (0 waits for world teardown)")
		kills      = flag.String("kill", "", "chaos: comma-separated rank@batch kill schedule, e.g. 1@1,2@0 (recovery drill with -journal)")
		kernelFl   = flag.String("kernels", "recurrence", "back-projection arithmetic: recurrence, exact (the PR-1 escape hatch) or simd (AVX2; silently falls back to recurrence elsewhere)")
		worldN     = flag.Int("world", 0, "spread the multi-rank run over this many OS processes wired through loopback sockets (this process becomes the coordinator and spawns the workers)")
		transport  = flag.String("transport", "tcp", "socket transport of -world mode: tcp or unix")
		severSpec  = flag.String("sever", "", "chaos: comma-separated rank@nth wire severs, e.g. 1@2 cuts the connection carrying rank 1's 2nd outgoing frame (-world mode; the link must reconnect and replay)")
		workerFl   = flag.Bool("worker", false, "internal: run as a spawned worker process of a -world coordinator")
		procFl     = flag.Int("proc", 0, "internal: this worker's process id (with -worker)")
		procsFl    = flag.Int("procs", 0, "internal: total process count (with -worker)")
		connectFl  = flag.String("connect", "", "internal: the coordinator's socket address (with -worker)")
	)
	flag.Parse()

	nf := netFlags{world: *worldN, worker: *workerFl, proc: *procFl,
		procs: *procsFl, transport: *transport, connect: *connectFl}
	if err := nf.validate(); err != nil {
		log.Fatal(err)
	}

	if err := validateRunFlags(*restarts, *backoff, *deadline); err != nil {
		log.Fatal(err)
	}

	win, err := filter.ParseWindow(*window)
	if err != nil {
		log.Fatal(err)
	}
	kern, err := backproject.ParseKernel(*kernelFl)
	if err != nil {
		log.Fatal(err)
	}

	var source projection.Source
	var sysFromScenario *experiments.Scenario
	if *inPath != "" {
		src, err := storage.OpenStack(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		defer src.Close()
		source = src
	}
	sc, err := experiments.BuildScenario(*dsName, *div, *outN, *workers)
	if err != nil {
		log.Fatal(err)
	}
	sysFromScenario = sc
	sys := sysFromScenario.Sys
	if source == nil {
		source = sc.Source
	} else {
		nu, np, nv := source.Dims()
		if nu != sys.NU || np != sys.NP || nv != sys.NV {
			log.Fatalf("input %dx%dx%d does not match %s/%d geometry %dx%dx%d",
				nu, np, nv, *dsName, *div, sys.NU, sys.NP, sys.NV)
		}
	}

	if *algo != "fdk" {
		vol, err := runIterative(*algo, sys, source, *iters, *workers)
		if err != nil {
			log.Fatal(err)
		}
		if err := vol.SaveRaw(*outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("volume %s written to %s\n", vol.ShapeString(), *outPath)
		if *slice != "" {
			if err := vol.SavePGM(*slice, sys.NZ/2, 0, 0); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("central slice written to %s\n", *slice)
		}
		if *stats {
			printStats(vol.Summarize())
		}
		return
	}

	if *zlo >= 0 {
		vol, rep, err := core.ReconstructZWindow(core.ZWindowOptions{
			Sys: sys, Source: source,
			Device: device.New("roi", *memMB<<20, *workers),
			Window: win, Z0: *zlo, NZ: *znz, Workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ROI slices [%d,%d) reconstructed in %d slabs (H2D %.1f MiB)\n",
			*zlo, *zlo+*znz, rep.Slabs, float64(rep.Ledger.H2DBytes)/(1<<20))
		if err := vol.SaveRaw(*outPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ROI volume %s written to %s\n", vol.ShapeString(), *outPath)
		if *slice != "" {
			if err := vol.SavePGM(*slice, vol.NZ/2, 0, 0); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("central ROI slice written to %s\n", *slice)
		}
		if *stats {
			printStats(vol.Summarize())
		}
		return
	}

	plan, err := core.NewPlan(sys, *groups, *ranks, *batches)
	if err != nil {
		log.Fatal(err)
	}
	if *journal != "" && plan.Ranks() == 1 {
		log.Fatal("-journal requires multi-rank mode (-groups/-ranks > 1); a single-rank run writes its volume directly")
	}
	if nf.active() && plan.Ranks() == 1 {
		log.Fatal("-world/-worker require multi-rank mode (-groups/-ranks > 1)")
	}
	if *severSpec != "" && !nf.active() {
		log.Fatal("-sever injects wire faults; it needs -world/-worker (the channel world has no wire)")
	}
	// Durable mode streams slabs to disk through a SlabWriter instead of
	// assembling them in memory, so the sink is only built without -journal.
	// Worker processes never assemble a volume at all.
	var sink *core.VolumeSink
	if *journal == "" && !nf.worker {
		sink, err = core.NewVolumeSink(sys)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Telemetry is collected whenever any consumer of it was requested
	// (the single-rank -timeline draws from the run's stage spans);
	// otherwise every instrumented path stays at a single pointer check.
	var run *telemetry.Run
	if *traceOut != "" || *metrics != "" || *pprof != "" || (*timeline && plan.Ranks() == 1) {
		run = telemetry.NewRun(plan.Ranks())
	}
	// finishPoll stops the -status-poll loop (if any) and fails the run
	// unless the live endpoints validated while work was in flight.
	finishPoll := func() {}
	if *pprof != "" {
		srv, err := servePprof(*pprof, run)
		if err != nil {
			// -pprof was explicitly requested; a busy port must fail fast,
			// not leave the run silently unobservable.
			log.Fatal(err)
		}
		defer srv.Close()
		finishPoll = startStatusPoll(srv.Addr(), *statusPoll)
	}

	if plan.Ranks() == 1 {
		reg := run.Rank(0)
		rep, err := core.ReconstructSingle(core.ReconOptions{
			Plan: plan, Source: source,
			Device: device.New("local", *memMB<<20, *workers),
			Window: win, Sink: sink, Telemetry: reg, Kernel: kern,
		})
		if err != nil {
			log.Fatal(err)
		}
		finishPoll()
		fmt.Printf("reconstructed %d slabs in %v (H2D %.1f MiB, D2H %.1f MiB)\n",
			rep.Slabs, rep.Elapsed.Round(1e6),
			float64(rep.Ledger.H2DBytes)/(1<<20), float64(rep.Ledger.D2HBytes)/(1<<20))
		if *timeline {
			fmt.Print(telemetry.RenderGantt(reg.Spans(), []string{"load", "filter", "backproject", "store"}, 100))
		}
		writeTelemetry(*traceOut, *metrics, run.Snapshots())
	} else {
		copts := core.ClusterOptions{
			Plan: plan, Source: source, Window: win,
			DeviceMemBytes: *memMB << 20,
			Telemetry:      run, CollectiveDeadline: *deadline,
			Kernel: kern,
		}
		inj, err := buildChaosInjector(*kills, *severSpec)
		if err != nil {
			log.Fatal(err)
		}
		copts.FaultInjector = inj

		var sw *socketWorld
		if nf.active() {
			if copts.CollectiveDeadline == 0 {
				copts.CollectiveDeadline = defaultNetDeadline
			}
			// The reconstruction flags a worker must agree on, forwarded
			// verbatim; the resolved deadline keeps both sides' bounds equal.
			forward := []string{
				"-dataset", *dsName, "-div", strconv.Itoa(*div), "-n", strconv.Itoa(*outN),
				"-groups", strconv.Itoa(*groups), "-ranks", strconv.Itoa(*ranks),
				"-batches", strconv.Itoa(*batches),
				"-window", *window, "-kernels", *kernelFl,
				"-devmem", strconv.FormatInt(*memMB, 10),
				"-workers", strconv.Itoa(*workers),
				"-deadline", copts.CollectiveDeadline.String(),
			}
			if *journal != "" {
				forward = append(forward, "-journal", *journal,
					"-max-restarts", strconv.Itoa(*restarts),
					"-restart-backoff", backoff.String())
			}
			if *kills != "" {
				forward = append(forward, "-kill", *kills)
			}
			if *severSpec != "" {
				forward = append(forward, "-sever", *severSpec)
			}
			sw, err = startSocketWorld(nf, inj, run, forward)
			if err != nil {
				log.Fatal(err)
			}
			copts.Launch = sw.node.Launcher(plan.NRanksPerGroup)
		}
		if nf.worker {
			runFollower(copts, *journal, restartBudget(*restarts), *backoff)
			sw.close()
			return
		}

		if *journal != "" {
			runSupervised(copts, sys, run, supervisedConfig{
				journal:  *journal,
				outPath:  *outPath,
				restarts: restartBudget(*restarts),
				backoff:  *backoff,
				traceOut: *traceOut,
				metrics:  *metrics,
			})
			if sw != nil {
				// Workers follow the same supervision decisions; all of them
				// must land on the same recovered world and exit cleanly.
				sw.finish(*severSpec != "")
			}
			finishPoll()
			// The SlabWriter already promoted the volume; voxels are only
			// loaded back when the post-run views need them.
			if *slice != "" || *stats {
				vol, err := volume.LoadRaw(*outPath)
				if err != nil {
					log.Fatal(err)
				}
				if *slice != "" {
					if err := vol.SavePGM(*slice, sys.NZ/2, 0, 0); err != nil {
						log.Fatal(err)
					}
					fmt.Printf("central slice written to %s\n", *slice)
				}
				if *stats {
					printStats(vol.Summarize())
				}
			}
			printGeometry(*dsName)
			return
		}

		copts.Output = sink
		rep, err := core.RunDistributed(copts)
		if rep != nil {
			// Artifacts are written even when the run failed: a partial
			// trace is exactly what diagnoses the failure.
			writeTelemetry(*traceOut, *metrics, rep.Telemetry)
		}
		if err != nil {
			if sw != nil {
				sw.kill()
			}
			log.Fatal(err)
		}
		if sw != nil {
			sw.finish(*severSpec != "")
		}
		finishPoll()
		fmt.Printf("reconstructed on %d ranks (%d groups × %d) in %v; reduce traffic %.1f MiB\n",
			plan.Ranks(), *groups, *ranks, rep.Elapsed.Round(1e6),
			float64(rep.TotalReduceBytes())/(1<<20))
		fmt.Print(rep.String())
	}

	if err := sink.V.SaveRaw(*outPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("volume %dx%dx%d written to %s\n", sys.NX, sys.NY, sys.NZ, *outPath)
	if *slice != "" {
		if err := sink.V.SavePGM(*slice, sys.NZ/2, 0, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("central slice written to %s\n", *slice)
	}
	if *stats {
		printStats(sink.V.Summarize())
	}
	printGeometry(*dsName)
}

// supervisedConfig carries the durable-mode knobs into runSupervised.
type supervisedConfig struct {
	journal  string
	outPath  string
	restarts int
	backoff  time.Duration
	traceOut string
	metrics  string
}

// runSupervised runs the distributed reconstruction in durable mode: slabs
// stream into outPath+".partial" through the crash-consistent SlabWriter,
// every stored slab is journaled, and core.Supervise replans and relaunches
// the world in-process through rank loss. A failed run keeps the partial
// volume and the journal so rerunning the same command resumes where it
// stopped; a successful one promotes the volume and removes the journal.
func runSupervised(copts core.ClusterOptions, sys *geometry.System, run *telemetry.Run, cfg supervisedConfig) {
	var w *storage.SlabWriter
	var err error
	if _, serr := os.Stat(cfg.outPath + storage.PartialSuffix); serr == nil {
		w, err = storage.ResumeSlabWriter(cfg.outPath, sys.NX, sys.NY, sys.NZ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resuming %s%s: journaled slabs will be skipped\n",
			cfg.outPath, storage.PartialSuffix)
	} else {
		// A journal with no partial volume describes slabs that no longer
		// exist on disk; a fresh run must not skip them.
		if rerr := os.Remove(cfg.journal); rerr == nil {
			log.Printf("removed stale journal %s (no partial volume to resume)", cfg.journal)
		}
		w, err = storage.NewSlabWriter(cfg.outPath, sys.NX, sys.NY, sys.NZ)
		if err != nil {
			log.Fatal(err)
		}
	}
	w.SetTelemetry(run.Shared())
	copts.Output = w

	sup, err := core.Supervise(core.SuperviseOptions{
		Cluster: copts,
		OpenCheckpoint: func(fp string) (core.CheckpointLog, error) {
			j, jerr := storage.OpenJournal(cfg.journal, fp)
			if jerr != nil {
				return nil, jerr
			}
			j.SetTelemetry(run.Shared())
			return j, nil
		},
		MaxRestarts:    cfg.restarts,
		RestartBackoff: cfg.backoff,
	})
	if sup != nil && sup.Final != nil {
		// Artifacts are written even when the run failed: a partial trace
		// of the recovery attempts is exactly what diagnoses the failure.
		writeTelemetry(cfg.traceOut, cfg.metrics, sup.Final.Telemetry)
	}
	if err != nil {
		w.ClosePartial()
		log.Fatalf("%v\npartial volume and journal kept; rerun the same command to resume", err)
	}
	fmt.Print(sup.String())
	fmt.Print(sup.Final.String())
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	os.Remove(cfg.journal)
	fmt.Printf("volume %dx%dx%d written to %s\n", sys.NX, sys.NY, sys.NZ, cfg.outPath)
}

// printGeometry prints the dataset's descriptive line when its name is
// registered.
func printGeometry(dsName string) {
	ds, err := dataset.ByName(dsName)
	if err == nil {
		fmt.Printf("geometry: %s (magnification %.2f)\n", ds.Description, ds.Magnification())
	}
}

// runIterative reconstructs with one of the iterative algorithms. The
// stack must be fully loadable (iterative methods need all angles every
// pass).
func runIterative(algo string, sys *geometry.System, source projection.Source, iters, workers int) (*volume.Volume, error) {
	_, np, nv := source.Dims()
	full, err := source.LoadRows(geometry.RowRange{Lo: 0, Hi: nv}, 0, np)
	if err != nil {
		return nil, err
	}
	opts := iterative.Options{Iterations: iters, NonNegative: true, Workers: workers,
		Callback: func(it int, rel float64) bool {
			fmt.Printf("  %s pass %2d: relative residual %.4f\n", algo, it, rel)
			return true
		}}
	switch algo {
	case "sirt":
		res, err := iterative.Reconstruct(sys, full, opts)
		if err != nil {
			return nil, err
		}
		return res.Volume, nil
	case "ossart":
		opts.Subsets = 4
		res, err := iterative.Reconstruct(sys, full, opts)
		if err != nil {
			return nil, err
		}
		return res.Volume, nil
	case "mlem":
		res, err := iterative.ReconstructMLEM(sys, full, opts)
		if err != nil {
			return nil, err
		}
		return res.Volume, nil
	case "osem":
		opts.Subsets = 4
		res, err := iterative.ReconstructMLEM(sys, full, opts)
		if err != nil {
			return nil, err
		}
		return res.Volume, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (fdk, sirt, ossart, mlem, osem)", algo)
}

var publishTelemetry sync.Once

// servePprof starts the live introspection endpoint: net/http/pprof on
// /debug/pprof, an expvar view of the telemetry snapshots on /debug/vars,
// Prometheus text exposition on /metrics and the distfdk-status/1 JSON on
// /statusz — all live while back-projection runs. The bind is synchronous,
// so a busy port surfaces as a typed *telemetry.ServeError to the caller
// instead of a log line from a background goroutine.
func servePprof(addr string, run *telemetry.Run) (*telemetry.StatusServer, error) {
	// expvar panics on duplicate names: publish once even when the caller
	// retries after a failed bind.
	publishTelemetry.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return run.Snapshots()
		}))
	})
	srv, err := telemetry.ListenStatus(addr, run)
	if err != nil {
		return nil, err
	}
	fmt.Printf("introspection endpoints on http://%s/{debug/pprof,metrics,statusz}\n", srv.Addr())
	return srv, nil
}

// startStatusPoll runs the -status-poll loop against the live endpoint and
// returns the closer that stops it and enforces the smoke contract: at
// least one poll validated, at least one observed the run in flight.
// A non-positive interval disables polling.
func startStatusPoll(addr string, every time.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	resCh := make(chan telemetry.PollResult, 1)
	go func() { resCh <- telemetry.PollStatus("http://"+addr, every, done) }()
	return func() {
		close(done)
		res := <-resCh
		if res.Valid == 0 || res.Active == 0 {
			log.Fatalf("-status-poll: %d polls, %d valid, %d active (last error: %v)",
				res.Polls, res.Valid, res.Active, res.LastErr)
		}
		fmt.Printf("status poll: %d/%d polls valid, %d observed in-flight work\n",
			res.Valid, res.Polls, res.Active)
	}
}

// writeTelemetry writes the requested trace/metrics artifacts from the
// run's snapshots; empty paths are skipped.
func writeTelemetry(tracePath, metricsPath string, snaps []telemetry.Snapshot) {
	write := func(path string, render func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := render(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry artifact written to %s\n", path)
	}
	write(tracePath, func(f *os.File) error { return telemetry.WriteChromeTrace(f, snaps) })
	write(metricsPath, func(f *os.File) error { return telemetry.WriteMetricsJSON(f, snaps) })
}

func printStats(s volume.Summary) {
	fmt.Printf("stats: min %.4f, max %.4f, mean %.4f, std %.4f", s.Min, s.Max, s.Mean, s.Std)
	if s.NaNOrInf > 0 {
		fmt.Printf(", NON-FINITE VOXELS: %d", s.NaNOrInf)
	}
	fmt.Println()
}
