package core

import (
	"fmt"
	"sync"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/pipeline"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// SlabSink receives finished sub-volumes from the store stage. Both the
// in-memory VolumeSink and storage.SlabWriter satisfy it.
type SlabSink interface {
	WriteSlab(*volume.Volume) error
}

// VolumeSink assembles slabs into one in-memory volume; safe for concurrent
// writers.
type VolumeSink struct {
	V  *volume.Volume
	mu sync.Mutex
}

// NewVolumeSink allocates a sink covering the plan's full volume.
func NewVolumeSink(sys *geometry.System) (*VolumeSink, error) {
	v, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	return &VolumeSink{V: v}, nil
}

// WriteSlab implements SlabSink.
func (s *VolumeSink) WriteSlab(slab *volume.Volume) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.V.CopySlabFrom(slab)
}

// DiscardSink is a SlabSink that drops every slab. Follower processes of
// a multi-process world use it: group leaders — the only ranks that store
// — are pinned to the coordinator process, so a follower's sink is never
// written, but ClusterOptions still requires one.
type DiscardSink struct{}

// WriteSlab implements SlabSink by discarding the slab.
func (DiscardSink) WriteSlab(*volume.Volume) error { return nil }

// NewFilter builds the FDK row filter for a system, folding the angular
// quadrature into the filter gain so back-projection output is in density
// units without post-scaling: Δβ/2 for a full scan (each ray measured
// twice), Δβ for a Parker-weighted short scan (redundancy handled by the
// weights).
func NewFilter(sys *geometry.System, window filter.Window) (*filter.FDK, error) {
	scale := sys.AngleStep() / 2
	if sys.IsShortScan() {
		scale = sys.AngleStep()
	}
	return filter.NewFDK(filter.Config{
		NU: sys.NU, NV: sys.NV,
		DU: sys.DU, DV: sys.DV,
		DSD:    sys.DSD,
		SigmaU: sys.SigmaU, SigmaV: sys.SigmaV,
		Window: window,
		Scale:  scale,
		// Filter on the virtual detector through the rotation axis
		// (the FDK magnification correction).
		RampPitch: sys.DU * sys.DSO / sys.DSD,
	})
}

// KernelMatrices precomputes the float32 projection matrices for the global
// projection window [pLo, pHi).
func KernelMatrices(sys *geometry.System, pLo, pHi int) []geometry.Mat34x4 {
	out := make([]geometry.Mat34x4, 0, pHi-pLo)
	for p := pLo; p < pHi; p++ {
		out = append(out, sys.Matrix(sys.Angle(p)).ToKernel())
	}
	return out
}

// ReconOptions configures a single-device out-of-core reconstruction.
type ReconOptions struct {
	// Plan must describe a single rank (Ng=1, Nr=1); BatchCount controls
	// the slab granularity and hence the device-memory footprint.
	Plan *Plan
	// Source supplies the (unfiltered) projection data.
	Source projection.Source
	// Device executes the kernel and enforces the memory budget.
	Device *device.Device
	// Window selects the ramp apodisation (default Ram-Lak).
	Window filter.Window
	// FilterWorkers bounds the filtering parallelism (0 = GOMAXPROCS).
	FilterWorkers int
	// Kernel selects the back-projection arithmetic (default
	// KernelRecurrence; KernelExact retains the PR-1 per-sample form).
	Kernel backproject.Kernel
	// Sink receives finished slabs (required).
	Sink SlabSink
	// DisablePipeline runs the stages serially (for ablation only).
	DisablePipeline bool
	// Retry, when set, retries transient load and store failures with
	// capped exponential backoff; permanent failures abort immediately.
	// Nil means a single attempt.
	Retry *fault.RetryPolicy
	// Checkpoint, when set, journals every stored slab (keyed by its
	// first slice z0) and skips slabs the log already records — pass a
	// reopened journal to resume a killed run from its last durable
	// batch. The resumed volume is bit-identical to an uninterrupted one.
	Checkpoint CheckpointLog
	// Telemetry, when set, collects the run's metrics and spans: pipeline
	// stage spans, ring traffic and retry activity all report into this
	// registry, so the Figure 10 timeline (telemetry.RenderGantt over its
	// spans) and the exported trace share one span set. Nil keeps every
	// instrumented path at a single pointer check.
	Telemetry *telemetry.Registry
}

// ReconReport summarises a reconstruction run.
type ReconReport struct {
	Elapsed time.Duration
	Ledger  device.Ledger
	// Slabs is the number of non-empty batches processed.
	Slabs int
}

// ReconstructSingle performs the paper's out-of-core single-device
// reconstruction (Table 5's scenario): slabs stream through the
// load → filter → back-project → store pipeline of Figure 9 while the
// projection ring keeps every detector row's host-to-device transfer to
// exactly one, no matter how large the output volume is relative to device
// memory.
func ReconstructSingle(opts ReconOptions) (*ReconReport, error) {
	p := opts.Plan
	if p == nil || opts.Source == nil || opts.Device == nil || opts.Sink == nil {
		return nil, fmt.Errorf("core: Plan, Source, Device and Sink are required")
	}
	if p.Ranks() != 1 {
		return nil, fmt.Errorf("core: ReconstructSingle needs a 1-rank plan, got %s", p)
	}
	nu, np, nv := opts.Source.Dims()
	if nu != p.Sys.NU || np != p.Sys.NP || nv != p.Sys.NV {
		return nil, fmt.Errorf("core: source %dx%dx%d does not match system %dx%dx%d",
			nu, np, nv, p.Sys.NU, p.Sys.NP, p.Sys.NV)
	}
	fdk, err := NewFilter(p.Sys, opts.Window)
	if err != nil {
		return nil, err
	}
	parker, err := NewParker(p.Sys)
	if err != nil {
		return nil, err
	}
	mats := KernelMatrices(p.Sys, 0, p.Sys.NP)

	ring, err := device.NewProjRing(opts.Device, p.Sys.NU, p.Sys.NP, p.RingDepth(0))
	if err != nil {
		return nil, err
	}
	defer ring.Close()
	// The device also holds one slab at a time.
	if err := opts.Device.Alloc(p.SlabBytes()); err != nil {
		return nil, fmt.Errorf("core: slab buffer: %w", err)
	}
	defer opts.Device.Free(p.SlabBytes())

	opts.Device.SetTelemetry(opts.Telemetry)
	retry := opts.Retry.Instrumented(opts.Telemetry)

	start := time.Now()
	before := opts.Device.Snapshot()
	slabs := 0

	var prevLoaded geometry.RowRange // owned by the load stage
	var prevResident geometry.RowRange

	loadStage := func(c int, _ any) (any, error) {
		if opts.Checkpoint != nil {
			// The checkpoint key is the slab's output identity z0, shared
			// with the distributed drivers, so the journals interoperate.
			if z0, nz := p.SlabZ(0, c); nz > 0 && opts.Checkpoint.Done(z0) {
				return skipBatch{}, nil
			}
		}
		rows := p.SlabRows(0, c)
		if rows.IsEmpty() {
			return nil, nil
		}
		diff := geometry.DifferentialRows(prevLoaded, rows)
		prevLoaded = rows
		if diff.IsEmpty() {
			return (*projection.Stack)(nil), nil
		}
		var st *projection.Stack
		err := retry.Do(func() error {
			var lerr error
			st, lerr = opts.Source.LoadRows(diff, 0, p.Sys.NP)
			return lerr
		})
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	filterStage := func(c int, in any) (any, error) {
		st, _ := in.(*projection.Stack)
		if st == nil {
			return in, nil
		}
		if err := applyParker(parker, st); err != nil {
			return nil, err
		}
		count := st.NV * st.NP
		err := fdk.FilterRows(st.Data, count, func(i int) int { return st.V0 + i/st.NP }, opts.FilterWorkers)
		return st, err
	}
	bpStage := func(c int, in any) (any, error) {
		if _, ok := in.(skipBatch); ok {
			return in, nil // checkpointed batch: leave ring and cursors alone
		}
		_, nz := p.SlabZ(0, c)
		if nz == 0 {
			return nil, nil
		}
		rows := p.SlabRows(0, c)
		if !prevResident.IsEmpty() && rows.Lo >= prevResident.Hi {
			ring.Reset() // disjoint ranges: nothing to reuse
		} else {
			ring.Release(rows.Lo)
		}
		// All ring mutation happens here, in the stage that also launches
		// the kernel reading the ring, so the two never overlap; the filter
		// stage meanwhile works on the next batch's host stack.
		if st, _ := in.(*projection.Stack); st != nil {
			if err := ring.LoadRows(st, st.Rows()); err != nil {
				return nil, err
			}
		}
		prevResident = rows
		z0, _ := p.SlabZ(0, c)
		slab, err := volume.NewSlab(p.Sys.NX, p.Sys.NY, nz, z0)
		if err != nil {
			return nil, err
		}
		if err := backproject.StreamingKernel(opts.Device, ring, mats, slab, rows, opts.Kernel); err != nil {
			return nil, err
		}
		opts.Device.RecordD2H(slab.Bytes())
		return slab, nil
	}
	storeStage := func(c int, in any) (any, error) {
		slab, _ := in.(*volume.Volume)
		if slab == nil {
			return nil, nil
		}
		slabs++
		// Slab offsets are fixed, so a retried store is idempotent.
		if err := retry.Do(func() error { return opts.Sink.WriteSlab(slab) }); err != nil {
			return nil, err
		}
		if opts.Checkpoint != nil {
			// Data before journal: force the slab to stable storage, then
			// record it done — never the other way round.
			if err := syncSink(opts.Sink); err != nil {
				return nil, err
			}
			return nil, opts.Checkpoint.Record(slab.Z0, c)
		}
		return nil, nil
	}

	if opts.DisablePipeline {
		for c := 0; c < p.BatchCount; c++ {
			var payload any
			var err error
			for _, fn := range []pipeline.StageFunc{loadStage, filterStage, bpStage, storeStage} {
				if payload, err = fn(c, payload); err != nil {
					return nil, err
				}
			}
		}
	} else {
		pl, err := pipeline.New(
			pipeline.Stage{Name: "load", Fn: loadStage},
			pipeline.Stage{Name: "filter", Fn: filterStage},
			pipeline.Stage{Name: "backproject", Fn: bpStage},
			pipeline.Stage{Name: "store", Fn: storeStage},
		)
		if err != nil {
			return nil, err
		}
		pl.Telemetry = opts.Telemetry
		if err := pl.Run(p.BatchCount); err != nil {
			return nil, err
		}
	}
	return &ReconReport{
		Elapsed: time.Since(start),
		Ledger:  opts.Device.Snapshot().Sub(before),
		Slabs:   slabs,
	}, nil
}
