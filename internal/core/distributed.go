package core

import (
	"fmt"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/device"
	"distfdk/internal/fault"
	"distfdk/internal/filter"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// ClusterOptions configures a distributed reconstruction across Ng groups
// of Nr ranks (Figure 6). Every rank runs its own load → filter →
// back-project loop over its projection window; the Nr partial slabs of
// each batch meet in a segmented reduction on the group communicator and
// the group leader stores the result.
type ClusterOptions struct {
	Plan *Plan
	// Source must be safe for concurrent partial loads (MemorySource and
	// storage.FileSource both are).
	Source projection.Source
	// Window selects the ramp apodisation.
	Window filter.Window
	// DeviceMemBytes caps each rank's simulated device memory (0 =
	// unlimited).
	DeviceMemBytes int64
	// WorkersPerRank bounds each rank's kernel parallelism; defaults to
	// 1 since ranks already run concurrently.
	WorkersPerRank int
	// Kernel selects the back-projection arithmetic (default
	// KernelRecurrence; KernelExact retains the PR-1 per-sample form).
	Kernel backproject.Kernel
	// Hierarchical enables the node-leader reduction of Section 4.4.2
	// with RanksPerNode ranks per node. Without it each batch's slabs meet
	// in a chunk-pipelined reduction, one XY plane (NX·NY) per chunk, which
	// overlaps tree latency with accumulation plane by plane. The
	// hierarchical path matches it bit for bit only when RanksPerNode is a
	// power of two dividing the group size (see mpi.HierarchicalReduce).
	Hierarchical bool
	RanksPerNode int
	// Output receives reduced slabs from group leaders (required).
	Output SlabSink
	// Retry, when set, retries transient load and store failures with
	// capped exponential backoff on the failing rank; permanent failures
	// abort the rank (and with it the world). Nil means a single attempt.
	Retry *fault.RetryPolicy
	// FaultInjector, when set, deterministically injects faults into every
	// rank's load, store, send and receive paths for chaos testing. Nil
	// costs nothing on the happy path.
	FaultInjector *fault.Injector
	// CollectiveDeadline bounds how long a rank blocks in any
	// point-to-point or collective operation before a lost peer surfaces
	// as a typed mpi.ErrRankLost instead of a hang. Zero waits forever
	// (world teardown still wakes blocked ranks when a peer errors out).
	CollectiveDeadline time.Duration
	// Checkpoint, when set, journals each output slab (keyed by its first
	// slice z0) after the group leader has durably stored it, and skips
	// slabs the log already records — pass a reopened journal to resume a
	// killed run, even one replanned onto a smaller world (see Supervise).
	// The resumed volume is bit-identical to an uninterrupted one.
	Checkpoint CheckpointLog
	// Launch, when set, replaces the in-process mpi.RunWith world with a
	// custom launcher — the multi-process socket transport wires
	// nettrans.Node.Launcher here, so the same batch loop runs unchanged
	// whether ranks are goroutines or live in other OS processes. The
	// launcher must honour the mpi world contract: run fn once per rank it
	// hosts (remote ranks run in their own processes), tear down on error
	// with RankLostError attribution, and return the joined rank errors.
	// Nil keeps the default single-process channel world.
	Launch func(n int, opt mpi.Options, fn func(c *mpi.Comm) error) error
	// Telemetry, when set, collects the run's metrics and spans: each rank
	// reports its stage spans, ring traffic, collective latency and retry
	// activity into Telemetry.Rank(rank), and the final snapshots land in
	// ClusterReport.Telemetry for export (Chrome trace, metrics JSON,
	// skew summary). Build with telemetry.NewRun(plan.Ranks()). Nil keeps
	// every instrumented path at a single pointer check.
	Telemetry *telemetry.Run
}

// ClusterReport aggregates per-rank observations of a distributed run.
type ClusterReport struct {
	Elapsed time.Duration
	// Ledgers holds each world rank's device ledger.
	Ledgers []device.Ledger
	// WorldStats and GroupStats hold each rank's traffic on the world
	// and group communicators.
	WorldStats []mpi.Stats
	GroupStats []mpi.Stats
	// Completed marks ranks whose full batch loop finished. When
	// RunDistributed returns an error the partial report still carries
	// the survivors' ledgers and stats; a rank's other slots are only
	// meaningful where Completed is true.
	Completed []bool
	// BatchesDone counts the batches each rank executed; BatchesSkipped
	// counts the checkpointed batches each rank skipped on resume. The two
	// are disjoint, so BatchesDone always reconciles with the per-rank
	// `core.batches` telemetry counter and BatchesSkipped with
	// `core.batches_skipped`, resumed run or not.
	BatchesDone    []int
	BatchesSkipped []int
	// Restarts and LostRanks are filled in by Supervise when the run was
	// the final attempt of a supervised shrink-and-resume: how many times
	// the world was relaunched, and which world ranks (numbered in the
	// attempt that lost them) were declared dead along the way. Zero and
	// empty for an unsupervised run.
	Restarts  int
	LostRanks []int
	// Telemetry holds each registry's final snapshot (ranks in order, the
	// shared registry last) when ClusterOptions.Telemetry was set — the
	// input to telemetry.WriteChromeTrace / WriteMetricsJSON and the skew
	// section of String(). Populated even when the run returns an error,
	// so a chaos run's partial trace is still exportable.
	Telemetry []telemetry.Snapshot
}

// TotalReduceBytes sums the bytes every rank sent during segmented
// reductions — the paper's headline communication metric.
func (r *ClusterReport) TotalReduceBytes() int64 {
	var total int64
	for _, s := range r.GroupStats {
		total += s.BytesSent
	}
	return total
}

// TotalH2DBytes sums host→device traffic across ranks.
func (r *ClusterReport) TotalH2DBytes() int64 {
	var total int64
	for _, l := range r.Ledgers {
		total += l.H2DBytes
	}
	return total
}

// RunDistributed executes the full distributed FBP framework in-process:
// MPI ranks as goroutines, grouped by Split (Section 4.4.1), each batch
// ending in one segmented Reduce (Section 4.4.2) instead of the global
// collectives of prior frameworks.
//
// On failure the world tears down deterministically — a lost rank surfaces
// to its peers as a typed mpi.ErrRankLost within CollectiveDeadline rather
// than a hang — and the partial ClusterReport is returned alongside the
// error with the surviving ranks' observations filled in.
func RunDistributed(opts ClusterOptions) (*ClusterReport, error) {
	p := opts.Plan
	if p == nil || opts.Source == nil || opts.Output == nil {
		return nil, fmt.Errorf("core: Plan, Source and Output are required")
	}
	if opts.Hierarchical && opts.RanksPerNode <= 0 {
		return nil, fmt.Errorf("core: hierarchical reduction needs RanksPerNode")
	}
	nu, np, nv := opts.Source.Dims()
	if nu != p.Sys.NU || np != p.Sys.NP || nv != p.Sys.NV {
		return nil, fmt.Errorf("core: source %dx%dx%d does not match system %dx%dx%d",
			nu, np, nv, p.Sys.NU, p.Sys.NP, p.Sys.NV)
	}
	workers := opts.WorkersPerRank
	if workers <= 0 {
		workers = 1
	}
	report := &ClusterReport{
		Ledgers:     make([]device.Ledger, p.Ranks()),
		WorldStats:  make([]mpi.Stats, p.Ranks()),
		GroupStats:  make([]mpi.Stats, p.Ranks()),
		Completed:   make([]bool, p.Ranks()),
		BatchesDone: make([]int, p.Ranks()),

		BatchesSkipped: make([]int, p.Ranks()),
	}
	// The assignment below must stay behind the pointer check: a typed-nil
	// interface would defeat the runtime's nil fast path.
	var icept mpi.Interceptor
	if opts.FaultInjector != nil {
		icept = opts.FaultInjector
	}
	launch := opts.Launch
	if launch == nil {
		launch = mpi.RunWith
	}
	start := time.Now()
	err := launch(p.Ranks(), mpi.Options{
		Deadline:    opts.CollectiveDeadline,
		Interceptor: icept,
		Telemetry:   opts.Telemetry,
	}, func(world *mpi.Comm) error {
		rank := world.Rank()
		g := p.GroupOf(rank)
		r := p.RankInGroup(rank)
		reg := opts.Telemetry.Rank(rank)
		retry := opts.Retry.Instrumented(reg)
		batches := reg.Counter("core.batches")
		batchesSkipped := reg.Counter("core.batches_skipped")
		// Live-introspection feeds: the current batch gauge and stage/phase
		// status keys are what /statusz reports while the loop runs.
		curBatch := reg.Gauge("core.current_batch")
		src := opts.Source
		if opts.FaultInjector != nil {
			src = fault.Source(opts.Source, opts.FaultInjector, rank)
		}
		var sink SlabSink = opts.Output
		if opts.FaultInjector != nil {
			sink = fault.Sink(opts.Output, opts.FaultInjector, rank)
		}
		group, err := world.Split(g, rank)
		if err != nil {
			return err
		}
		pLo, pHi := p.ProjWindow(r)
		mats := KernelMatrices(p.Sys, pLo, pHi)
		fdk, err := NewFilter(p.Sys, opts.Window)
		if err != nil {
			return err
		}
		parker, err := NewParker(p.Sys)
		if err != nil {
			return err
		}
		dev := device.New(fmt.Sprintf("rank%d", rank), opts.DeviceMemBytes, workers)
		dev.SetTelemetry(reg)
		ring, err := device.NewProjRing(dev, p.Sys.NU, pHi-pLo, p.RingDepth(g))
		if err != nil {
			return err
		}
		defer ring.Close()
		if err := dev.Alloc(p.SlabBytes()); err != nil {
			return fmt.Errorf("rank %d slab buffer: %w", rank, err)
		}
		defer dev.Free(p.SlabBytes())

		// Phase markers: when the injector carries a scenario phase
		// schedule, each rank's trace shows one warmup/inject/recovery
		// span per contiguous phase window — the inject window is then
		// visible in the Chrome trace right next to the faults it scoped,
		// and the SLO gate can align latencies to it.
		var endPhase func()
		phase := ""
		markPhase := func(c int) {
			ph := opts.FaultInjector.PhaseOf(rank)
			if ph == "" || ph == phase {
				return
			}
			if endPhase != nil {
				endPhase()
			}
			endPhase = reg.Span("phase."+ph, c)
			phase = ph
			reg.SetStatus("phase", ph)
		}
		defer func() {
			if endPhase != nil {
				endPhase()
			}
		}()

		prev := geometry.RowRange{}
		reg.SetStatus("stage", "run")
		defer reg.SetStatus("stage", "done")
		for c := 0; c < p.BatchCount; c++ {
			curBatch.Set(int64(c))
			z0, nz := p.SlabZ(g, c)
			if nz == 0 {
				continue // consistent across the whole group
			}
			// The batch boundary is the rank-kill injection point of the
			// chaos matrix: a scheduled kill surfaces here as a permanent
			// fault.Error, aborting this rank so its peers observe the loss
			// through world teardown.
			if opts.FaultInjector != nil {
				if kerr := opts.FaultInjector.BatchStart(rank, c); kerr != nil {
					return fmt.Errorf("rank %d batch %d: %w", rank, c, kerr)
				}
				markPhase(c)
			}
			// A checkpointed batch is skipped by the whole group: Done(z0)
			// reads the same pre-run journal state on every rank, and the
			// leader only records a batch after its group has passed it, so
			// the collectives below always pair up. The key is the slab's
			// output identity z0, not (g, c) — a journal recorded by a
			// larger world resumes cleanly after a shrink renumbers both.
			// `prev` deliberately tracks executed batches only —
			// DifferentialRows then reloads whatever a skipped batch would
			// have left resident.
			if opts.Checkpoint != nil && opts.Checkpoint.Done(z0) {
				report.BatchesSkipped[rank]++
				batchesSkipped.Inc()
				continue
			}
			rows := p.SlabRows(g, c)
			diff := geometry.DifferentialRows(prev, rows)
			if !prev.IsEmpty() && rows.Lo >= prev.Hi {
				ring.Reset()
			} else {
				ring.Release(rows.Lo)
			}
			if !diff.IsEmpty() {
				var st *projection.Stack
				endLoad := reg.Span("load", c)
				lerr := retry.Do(func() error {
					var e error
					st, e = src.LoadRows(diff, pLo, pHi)
					return e
				})
				endLoad()
				if lerr != nil {
					return fmt.Errorf("rank %d batch %d load: %w", rank, c, lerr)
				}
				// The rank loop is sequential, so the filter fills the ring
				// slots directly; the combined work lands in the filter span
				// and the upload span records the (now empty) handoff.
				endFilter := reg.Span("filter", c)
				if err := fuseUpload(ring, st, fdk, parker, 1); err != nil {
					return fmt.Errorf("rank %d batch %d filter: %w", rank, c, err)
				}
				endFilter()
				endUpload := reg.Span("upload", c)
				endUpload()
			}
			prev = rows

			slab, err := volume.NewSlab(p.Sys.NX, p.Sys.NY, nz, z0)
			if err != nil {
				return err
			}
			endBP := reg.Span("backproject", c)
			if err := backproject.StreamingKernel(dev, ring, mats, slab, rows, opts.Kernel); err != nil {
				return fmt.Errorf("rank %d batch %d: %w", rank, c, err)
			}
			endBP()
			dev.RecordD2H(slab.Bytes())

			// Segmented reduction: only within the group (Figure 3b),
			// chunk-pipelined through the tree by default.
			endReduce := reg.Span("reduce", c)
			if opts.Hierarchical {
				err = group.HierarchicalReduce(0, slab.Data, opts.RanksPerNode)
			} else {
				err = group.ReduceChunked(0, slab.Data, p.Sys.NX*p.Sys.NY)
			}
			endReduce()
			if err != nil {
				return fmt.Errorf("rank %d batch %d reduce: %w", rank, c, err)
			}
			if group.Rank() == 0 {
				endStore := reg.Span("store", c)
				// Fixed slab offsets make a retried store idempotent.
				if err := retry.Do(func() error { return sink.WriteSlab(slab) }); err != nil {
					return fmt.Errorf("rank %d batch %d store: %w", rank, c, err)
				}
				if opts.Checkpoint != nil {
					// Data before journal: the slab must be durable before
					// the entry that declares it done.
					if err := syncSink(opts.Output); err != nil {
						return fmt.Errorf("rank %d batch %d sync: %w", rank, c, err)
					}
					if err := opts.Checkpoint.Record(z0, c); err != nil {
						return fmt.Errorf("rank %d batch %d checkpoint: %w", rank, c, err)
					}
				}
				endStore()
			}
			report.BatchesDone[rank]++
			batches.Inc()
		}
		report.Ledgers[rank] = dev.Snapshot()
		report.WorldStats[rank] = world.Stats()
		report.GroupStats[rank] = group.Stats()
		report.Completed[rank] = true
		return nil
	})
	report.Elapsed = time.Since(start)
	// Snapshots are taken even on error so a chaos run's partial trace and
	// metrics are still exportable.
	report.Telemetry = opts.Telemetry.Snapshots()
	if err != nil {
		// Partial report: ledgers and stats are populated only for ranks
		// that completed; BatchesDone still shows how far each rank got.
		return report, err
	}
	return report, nil
}
