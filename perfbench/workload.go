package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/experiments"
	"distfdk/internal/filter"
	"distfdk/internal/forward"
	"distfdk/internal/mpi"
	"distfdk/internal/mpi/nettrans"
	"distfdk/internal/projection"
	"distfdk/internal/storage"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// world selects the driver and transport a workload runs on.
type world int

const (
	// single: core.ReconstructSingle reading a storage.FileSource and
	// writing a storage.SlabWriter.
	single world = iota
	// channel: core.RunDistributed, 1 group × 2 ranks on the in-process
	// channel world, MemorySource in, VolumeSink out.
	channel
	// socket: the channel plan over a 2-node nettrans.Fleet on loopback
	// TCP; the coordinator writes a SlabWriter plus a checkpoint journal.
	socket
)

// workload is one benchmark input and the way it is reconstructed. Every
// workload uses the tomo_00030 twin, the simd kernel and the Ram-Lak
// window; only the sizes and the driver differ.
type workload struct {
	Name string
	// Div shrinks the dataset's detector and projection count.
	Div int
	// N is the output grid edge (N³ voxels) and Batches the plan's Nc.
	N, Batches int
	World      world
	// RMSEMax bounds the volume's RMSE against the voxelized phantom.
	RMSEMax float64
}

// dataset is the paper dataset every workload reconstructs a twin of.
const dataset = "tomo_00030"

// photonBlank is the photon budget λ_blank of the Poisson noise added to
// every input: high enough that the Ram-Lak reconstruction stays close to
// the phantom, low enough that each seed gives a different input.
const photonBlank = 1e5

// workloads lists the benchmark's workloads. README.md says why each
// exists; the sizes are what the text there assumes.
var workloads = []workload{
	{Name: "ooc-kernel", Div: 4, N: 256, Batches: 16, World: single, RMSEMax: 0.2},
	{Name: "preview-filter", Div: 2, N: 64, Batches: 8, World: single, RMSEMax: 0.2},
	{Name: "dist-channel", Div: 16, N: 256, Batches: 16, World: channel, RMSEMax: 0.2},
	{Name: "dist-socket", Div: 16, N: 256, Batches: 16, World: socket, RMSEMax: 0.2},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// bench is a workload after set-up: inputs generated and persisted, plan
// built, socket world formed.
type bench struct {
	w    workload
	dir  string
	sc   *experiments.Scenario
	plan *core.Plan
	// src is what the reconstructions read: a FileSource for single, the
	// in-memory noisy stack otherwise.
	src   projection.Source
	file  *storage.FileSource
	fleet *nettrans.Fleet
	// ref is the volume every reconstruction must reproduce bit for bit:
	// the first reconstruction's, or for socket the channel world's.
	ref *volume.Volume
	// truth is the voxelized phantom the RMSE is taken against.
	truth *volume.Volume
}

// setup generates the workload's inputs from seed into dir and prepares
// everything a reconstruction needs. Its duration is the setup_s metric.
func setup(w workload, seed int64, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sc, err := experiments.BuildScenario(dataset, w.Div, w.N, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	if err := forward.AddPoissonNoise(sc.Stack, &filter.Beer{Blank: photonBlank}, seed); err != nil {
		return nil, err
	}
	ranks := 1
	if w.World != single {
		ranks = 2
	}
	// The drivers build their filter and projection ring inside every
	// call, so that cost is in each reconstruction's wall time, not here.
	plan, err := core.NewPlan(sc.Sys, 1, ranks, w.Batches)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, dir: dir, sc: sc, plan: plan, src: sc.Source}
	switch w.World {
	case single:
		path := filepath.Join(dir, "input.proj")
		if err := storage.WriteStack(path, sc.Stack); err != nil {
			return nil, err
		}
		if b.file, err = storage.OpenStack(path); err != nil {
			return nil, err
		}
		b.src = b.file
	case socket:
		if b.fleet, err = newFleet(nil); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func newFleet(reg *telemetry.Registry) (*nettrans.Fleet, error) {
	return nettrans.NewFleet(2, nettrans.Config{Network: "tcp", Telemetry: reg})
}

// close releases the bench's files and sockets.
func (b *bench) close() {
	if b.file != nil {
		b.file.Close()
	}
	if b.fleet != nil {
		b.fleet.Close()
	}
}

// prepareChecks computes what the reconstructions are checked against:
// the voxelized phantom and, for socket, the channel world's volume.
// It is not part of set-up: a user of the program never pays for it.
func (b *bench) prepareChecks() error {
	truth, err := b.sc.DS.Phantom().Voxelize(b.sc.Sys, b.sc.DS.FOV/2, 1)
	if err != nil {
		return err
	}
	b.truth = truth
	if b.w.World != socket {
		return nil
	}
	sink, err := core.NewVolumeSink(b.sc.Sys)
	if err != nil {
		return err
	}
	_, err = core.RunDistributed(b.clusterOptions(sink, nil, nil))
	b.ref = sink.V
	return err
}

// taps are the decorators of one traced reconstruction.
type taps struct {
	src    *timedSource
	log    *timedLog
	launch *launchTap
}

// outcome is what one reconstruction produced and what was observed of it.
type outcome struct {
	wall   time.Duration
	stamps []time.Duration // slab store times, from the call
	alloc  uint64          // Go heap bytes allocated during the call
	vol    *volume.Volume
	ledger device.Ledger // summed over ranks
	group  []mpi.Stats   // per-rank traffic on the group communicator
	sink   *timedSink
	// closeNs is the time the output writer's final fsync-and-promote
	// took (zero for the in-memory sink).
	closeNs int64
	// Traced reconstructions only.
	snaps []telemetry.Snapshot
	taps  *taps
}

const collectiveDeadline = time.Minute

func (b *bench) clusterOptions(out core.SlabSink, run *telemetry.Run, tp *taps) core.ClusterOptions {
	return core.ClusterOptions{
		Plan: b.plan, Source: b.source(tp), Output: out,
		Window: filter.RamLak, Kernel: backproject.KernelSIMD,
		WorkersPerRank:     1,
		CollectiveDeadline: collectiveDeadline,
		Telemetry:          run,
	}
}

// reconstruct runs one reconstruction. With traced set, the program's
// telemetry is on and every seam is wrapped in a timing decorator;
// otherwise telemetry is nil and only the output sink is stamped.
func (b *bench) reconstruct(traced bool) (*outcome, error) {
	var run *telemetry.Run
	var tp *taps
	if traced {
		run = telemetry.NewRun(b.plan.Ranks())
		tp = &taps{src: &timedSource{Source: b.src}, launch: &launchTap{}}
	}
	fleet := b.fleet
	if traced && b.w.World == socket {
		// Fleet telemetry is fixed when the nodes start, so a traced
		// reconstruction forms its own world, outside the timed call.
		var err error
		if fleet, err = newFleet(run.Shared()); err != nil {
			return nil, err
		}
		defer fleet.Close()
	}
	out := filepath.Join(b.dir, "volume.fbk")
	journal := filepath.Join(b.dir, "volume.journal")

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	o := &outcome{taps: tp}
	start := time.Now()
	var err error
	switch b.w.World {
	case single:
		err = b.runSingle(o, start, out, run, tp)
	case channel:
		err = b.runChannel(o, start, run, tp)
	case socket:
		err = b.runSocket(o, start, fleet, out, journal, run, tp)
	}
	o.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	o.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return o, err
	}
	o.stamps = o.sink.Stamps()
	o.snaps = run.Snapshots()
	if b.w.World != channel {
		if o.vol, err = volume.LoadRaw(out); err != nil {
			return o, err
		}
		if err := os.Remove(out); err != nil {
			return o, err
		}
	}
	return o, nil
}

func (b *bench) source(tp *taps) projection.Source {
	if tp != nil {
		return tp.src
	}
	return b.src
}

func (b *bench) runSingle(o *outcome, start time.Time, out string, run *telemetry.Run, tp *taps) error {
	w, err := storage.NewSlabWriter(out, b.sc.Sys.NX, b.sc.Sys.NY, b.sc.Sys.NZ)
	if err != nil {
		return err
	}
	w.SetTelemetry(run.Shared())
	o.sink = newTimedSink(w, start)
	rep, err := core.ReconstructSingle(core.ReconOptions{
		Plan: b.plan, Source: b.source(tp), Sink: o.sink,
		Device: device.New("perfbench", 0, runtime.GOMAXPROCS(0)),
		Window: filter.RamLak, Kernel: backproject.KernelSIMD,
		Telemetry: run.Rank(0),
	})
	if err != nil {
		w.ClosePartial()
		return err
	}
	o.ledger = rep.Ledger
	return o.closeWriter(w)
}

func (b *bench) runChannel(o *outcome, start time.Time, run *telemetry.Run, tp *taps) error {
	vs, err := core.NewVolumeSink(b.sc.Sys)
	if err != nil {
		return err
	}
	o.sink = newTimedSink(vs, start)
	opts := b.clusterOptions(o.sink, run, tp)
	if tp != nil {
		opts.Launch = timeLaunch(nil, tp.launch)
	}
	rep, err := core.RunDistributed(opts)
	if err != nil {
		return err
	}
	o.vol = vs.V
	o.setCluster(rep)
	return nil
}

// runSocket runs the plan on both fleet nodes at once, as the two
// processes of `fdkrecon -world 2 -journal` would: group leaders live on
// the coordinator (node 0), which alone stores slabs and journals them.
func (b *bench) runSocket(o *outcome, start time.Time, fleet *nettrans.Fleet, out, journal string, run *telemetry.Run, tp *taps) error {
	w, err := storage.NewSlabWriter(out, b.sc.Sys.NX, b.sc.Sys.NY, b.sc.Sys.NZ)
	if err != nil {
		return err
	}
	w.SetTelemetry(run.Shared())
	j, err := storage.OpenJournal(journal, b.plan.Fingerprint())
	if err != nil {
		w.ClosePartial()
		return err
	}
	j.SetTelemetry(run.Shared())
	o.sink = newTimedSink(w, start)
	var log core.CheckpointLog = j
	if tp != nil {
		tp.log = &timedLog{CheckpointLog: j}
		log = tp.log
	}
	reps := make([]*core.ClusterReport, len(fleet.Nodes))
	errs := make([]error, len(fleet.Nodes))
	var wg sync.WaitGroup
	for i, n := range fleet.Nodes {
		opts := b.clusterOptions(core.DiscardSink{}, run, tp)
		opts.Launch = n.Launcher(b.plan.NRanksPerGroup)
		if i == 0 {
			opts.Output, opts.Checkpoint = o.sink, log
			if tp != nil {
				opts.Launch = timeLaunch(opts.Launch, tp.launch)
			}
		}
		wg.Add(1)
		go func(i int, opts core.ClusterOptions) {
			defer wg.Done()
			reps[i], errs[i] = core.RunDistributed(opts)
		}(i, opts)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		w.ClosePartial()
		j.Close()
		return err
	}
	// Each node reports the ranks it hosts; merge them.
	merged := &core.ClusterReport{}
	for _, rep := range reps {
		for r, done := range rep.Completed {
			if done {
				merged.Ledgers = append(merged.Ledgers, rep.Ledgers[r])
				merged.GroupStats = append(merged.GroupStats, rep.GroupStats[r])
			}
		}
	}
	o.setCluster(merged)
	if err := o.closeWriter(w); err != nil {
		j.Close()
		return err
	}
	return j.Remove()
}

// closeWriter promotes the output volume, timing the final fsync.
func (o *outcome) closeWriter(w *storage.SlabWriter) error {
	t0 := time.Now()
	err := w.Close()
	o.closeNs = int64(time.Since(t0))
	return err
}

func (o *outcome) setCluster(rep *core.ClusterReport) {
	for _, l := range rep.Ledgers {
		o.ledger = addLedgers(o.ledger, l)
	}
	o.group = rep.GroupStats
}

// addLedgers sums two device ledgers field by field: a − (0 − b).
func addLedgers(a, b device.Ledger) device.Ledger {
	var zero device.Ledger
	return a.Sub(zero.Sub(b))
}
