package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"distfdk/internal/backproject"
	"distfdk/internal/core"
	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/volume"
)

// KernelBenchOptions configures the hot-loop micro-benchmark behind
// BENCH_kernel.json. The defaults match the root bench harness's
// BenchmarkTable5OutOfCore scenario so the JSON record and `go test -bench`
// numbers are directly comparable.
type KernelBenchOptions struct {
	// Dataset / Div / OutN select the BuildScenario twin (defaults:
	// tomo_00030, 8, 64).
	Dataset   string
	Div, OutN int
	// Workers is the kernel execution width (0 = GOMAXPROCS).
	Workers int
	// Reps is the number of timed repetitions; the best is recorded
	// (default 3).
	Reps int
	// Kernel selects the back-projection arithmetic: "recurrence"
	// (default) or "exact" (the PR-1 escape hatch, the "before" row of a
	// before/after pair).
	Kernel string
	// Parity, when set, validates the recurrence kernel against the exact
	// kernel on the benchmark scenario (RMSE/max-abs inside the
	// backproject parity gates, streaming bit-identical to batch) and
	// records the result in the entry. A failed gate is an error: the
	// throughput number is meaningless if the kernel is wrong.
	Parity bool
	// Label tags the entry ("seed kernels", "interior-span kernel", …).
	Label string
	// GitCommit is stamped into the entry (the caller resolves it; the
	// experiment layer does not shell out).
	GitCommit string
}

// BackprojBench is one back-projection kernel measurement.
type BackprojBench struct {
	Kernel     string `json:"kernel"`     // "streaming" or "batch"
	Arithmetic string `json:"arithmetic"` // "recurrence" or "exact"
	// Layout is the ring layout older streaming rows recorded
	// ("interleaved"); the ring has one layout now, so new rows leave it
	// empty, but the field keeps the history intact when the ledger is
	// rewritten on append.
	Layout  string `json:"layout,omitempty"`
	OutN    int    `json:"out_n"`
	NP      int    `json:"np"`
	Updates int64  `json:"updates"`
	// Sample-path split of the best rep (recurrence kernel only):
	// interior fast-path, guarded border, provably-zero skipped, and the
	// re-anchor count behind the drift bound.
	Interior  int64 `json:"interior_samples,omitempty"`
	Border    int64 `json:"border_samples,omitempty"`
	Skipped   int64 `json:"skipped_samples,omitempty"`
	Reanchors int64 `json:"reanchors,omitempty"`
	// Vector-lane split of the simd kernel's interior work: whole 8-lane
	// groups vs masked-tail samples, plus silent recurrence fallbacks.
	SIMDFullGroups  int64   `json:"simd_full_groups,omitempty"`
	SIMDTailSamples int64   `json:"simd_tail_samples,omitempty"`
	SIMDFallbacks   int64   `json:"simd_fallbacks,omitempty"`
	Seconds         float64 `json:"seconds"` // best-of-reps wall time
	GUPS            float64 `json:"gups"`
	NsPerUpdate     float64 `json:"ns_per_update"`
	AllocBytesRep   uint64  `json:"alloc_bytes_per_rep"`
	AllocObjectsRep uint64  `json:"alloc_objects_per_rep"`
}

// FilterBench is one detector-row filtering measurement.
type FilterBench struct {
	NU              int     `json:"nu"`
	NV              int     `json:"nv"`
	Rows            int     `json:"rows"`
	FFTSize         int     `json:"fft_size"`
	Seconds         float64 `json:"seconds"` // best-of-reps wall time
	RowsPerSec      float64 `json:"rows_per_sec"`
	NsPerRow        float64 `json:"ns_per_row"`
	AllocBytesRep   uint64  `json:"alloc_bytes_per_rep"`
	AllocObjectsRep uint64  `json:"alloc_objects_per_rep"`
}

// ParityReport records the recurrence-vs-exact validation attached to a
// benchmark entry: the throughput number is only meaningful while the
// fast kernel stays inside the arithmetic contract.
type ParityReport struct {
	// Arithmetic names the kernel under test ("recurrence" or "simd");
	// empty in pre-PR-7 entries, which validated the recurrence kernel.
	Arithmetic string  `json:"arithmetic,omitempty"`
	RMSE       float64 `json:"rmse"`
	MaxAbs     float64 `json:"max_abs"`
	// Scale is the exact volume's max magnitude; the package gates are
	// stated for unit-scale data, so the effective gates below are the
	// package constants times max(1, Scale).
	Scale      float64 `json:"scale"`
	GateRMSE   float64 `json:"gate_rmse"`
	GateMaxAbs float64 `json:"gate_max_abs"`
	// StreamingEqualsBatch is the decomposition identity under the
	// recurrence kernel: slab-by-slab streaming bit-identical to one
	// batch launch.
	StreamingEqualsBatch bool `json:"streaming_equals_batch"`
	Pass                 bool `json:"pass"`
}

// KernelBenchEntry is one recorded run of the hot-loop benchmark.
type KernelBenchEntry struct {
	Label          string          `json:"label"`
	GitCommit      string          `json:"git_commit,omitempty"`
	Timestamp      string          `json:"timestamp"`
	GoVersion      string          `json:"go_version"`
	GOMAXPROCS     int             `json:"gomaxprocs"`
	Workers        int             `json:"workers"`
	Backprojection []BackprojBench `json:"backprojection"`
	Filtering      []FilterBench   `json:"filtering"`
	Parity         *ParityReport   `json:"parity,omitempty"`
	// ParitySIMD validates the simd kernel against exact on hosts where it
	// is available. A separate field (not a re-typed Parity) so existing
	// BENCH_kernel.json files keep unmarshalling.
	ParitySIMD *ParityReport `json:"parity_simd,omitempty"`
}

// KernelBenchFile is the BENCH_kernel.json envelope: an append-only list of
// entries so the trajectory across PRs stays in one artifact.
type KernelBenchFile struct {
	Entries []*KernelBenchEntry `json:"entries"`
}

func (o *KernelBenchOptions) fill() {
	if o.Dataset == "" {
		o.Dataset = "tomo_00030"
	}
	if o.Div <= 0 {
		o.Div = 8
	}
	if o.OutN <= 0 {
		o.OutN = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Kernel == "" {
		o.Kernel = backproject.KernelRecurrence.String()
	}
}

// RunKernelBench measures both back-projection kernels and the row-filter
// hot loop, reporting the paper's units (GUPS, ns per voxel update, rows/s)
// plus allocation behaviour.
func RunKernelBench(opts KernelBenchOptions) (*KernelBenchEntry, error) {
	opts.fill()
	entry := &KernelBenchEntry{
		Label:      opts.Label,
		GitCommit:  opts.GitCommit,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    opts.Workers,
	}

	sc, err := BuildScenario(opts.Dataset, opts.Div, opts.OutN, opts.Workers)
	if err != nil {
		return nil, err
	}
	for _, streaming := range []bool{true, false} {
		bp, err := benchBackprojection(sc, streaming, opts)
		if err != nil {
			return nil, err
		}
		entry.Backprojection = append(entry.Backprojection, *bp)
	}
	if opts.Parity {
		pr, err := validateParity(sc, opts, backproject.KernelRecurrence)
		if err != nil {
			return nil, err
		}
		entry.Parity = pr
		if !pr.Pass {
			return entry, fmt.Errorf("kernelbench: recurrence kernel outside parity gate: rmse %g (gate %g), maxabs %g (gate %g), streaming==batch %v",
				pr.RMSE, pr.GateRMSE, pr.MaxAbs, pr.GateMaxAbs, pr.StreamingEqualsBatch)
		}
		// Gate the simd kernel too wherever the host can run it; on other
		// hosts it would silently degrade to recurrence and the check would
		// duplicate the one above.
		if backproject.SIMDAvailable() {
			ps, err := validateParity(sc, opts, backproject.KernelSIMD)
			if err != nil {
				return nil, err
			}
			entry.ParitySIMD = ps
			if !ps.Pass {
				return entry, fmt.Errorf("kernelbench: simd kernel outside parity gate: rmse %g (gate %g), maxabs %g (gate %g), streaming==batch %v",
					ps.RMSE, ps.GateRMSE, ps.MaxAbs, ps.GateMaxAbs, ps.StreamingEqualsBatch)
			}
		}
	}

	fb, err := benchFiltering(opts.Reps)
	if err != nil {
		return nil, err
	}
	entry.Filtering = append(entry.Filtering, *fb)
	return entry, nil
}

// benchBackprojection times one kernel variant over Reps full
// back-projections and keeps the best wall time. Throughput comes from the
// device ledger so the recorded updates are the ones the kernel actually
// performed.
func benchBackprojection(sc *Scenario, streaming bool, opts KernelBenchOptions) (*BackprojBench, error) {
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)
	name := "batch"
	if streaming {
		name = "streaming"
	}
	kernel, err := backproject.ParseKernel(opts.Kernel)
	if err != nil {
		return nil, err
	}
	var best time.Duration
	var bestLedger device.Ledger
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for rep := 0; rep < opts.Reps; rep++ {
		dev := device.New("kernelbench", 0, opts.Workers)
		before := dev.Snapshot()
		var elapsed time.Duration
		if streaming {
			plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
			if err != nil {
				return nil, err
			}
			ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
			if err != nil {
				return nil, err
			}
			if err := ring.LoadRows(sc.Stack, sc.Stack.Rows()); err != nil {
				ring.Close()
				return nil, err
			}
			start := time.Now()
			for c := 0; c < plan.BatchCount; c++ {
				z0, nz := plan.SlabZ(0, c)
				if nz == 0 {
					continue
				}
				slab, err := volume.NewSlab(sys.NX, sys.NY, nz, z0)
				if err != nil {
					ring.Close()
					return nil, err
				}
				if err := backproject.StreamingKernel(dev, ring, mats, slab, plan.SlabRows(0, c), kernel); err != nil {
					ring.Close()
					return nil, err
				}
			}
			elapsed = time.Since(start)
			ring.Close()
		} else {
			vol, err := volume.New(sys.NX, sys.NY, sys.NZ)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := backproject.BatchKernel(dev, sc.Stack, mats, vol, kernel); err != nil {
				return nil, err
			}
			elapsed = time.Since(start)
		}
		ledger := dev.Snapshot().Sub(before)
		if best == 0 || elapsed < best {
			best, bestLedger = elapsed, ledger
		}
	}
	runtime.ReadMemStats(&m1)
	reps := uint64(opts.Reps)
	bb := &BackprojBench{
		Kernel:          name,
		Arithmetic:      kernel.String(),
		OutN:            sys.NZ,
		NP:              sys.NP,
		Updates:         bestLedger.VoxelUpdates,
		Interior:        bestLedger.InteriorSamples,
		Border:          bestLedger.BorderSamples,
		Skipped:         bestLedger.SkippedSamples,
		Reanchors:       bestLedger.Reanchors,
		SIMDFullGroups:  bestLedger.SIMDFullGroups,
		SIMDTailSamples: bestLedger.SIMDTailSamples,
		SIMDFallbacks:   bestLedger.SIMDFallbacks,
		Seconds:         best.Seconds(),
		GUPS:            bestLedger.GUPS(best),
		NsPerUpdate:     bestLedger.NsPerUpdate(best),
		AllocBytesRep:   (m1.TotalAlloc - m0.TotalAlloc) / reps,
		AllocObjectsRep: (m1.Mallocs - m0.Mallocs) / reps,
	}
	return bb, nil
}

// validateParity reconstructs the benchmark scenario through the exact
// kernel and through fast, and checks the fast result against the package
// parity gates (scaled to the data's magnitude), plus the streaming ≡ batch
// bit-identity the decomposition rests on.
func validateParity(sc *Scenario, opts KernelBenchOptions, fast backproject.Kernel) (*ParityReport, error) {
	sys := sc.Sys
	mats := core.KernelMatrices(sys, 0, sys.NP)

	exact, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	if err := backproject.BatchKernel(device.New("parity-exact", 0, opts.Workers), sc.Stack, mats, exact, backproject.KernelExact); err != nil {
		return nil, err
	}
	rec, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	if err := backproject.BatchKernel(device.New("parity-rec", 0, opts.Workers), sc.Stack, mats, rec, fast); err != nil {
		return nil, err
	}

	// Streaming decomposition identity under the kernel being validated.
	dev := device.New("parity-stream", 0, opts.Workers)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
	if err != nil {
		return nil, err
	}
	defer ring.Close()
	if err := ring.LoadRows(sc.Stack, sc.Stack.Rows()); err != nil {
		return nil, err
	}
	plan, err := core.NewPlan(sys, 1, 1, core.DefaultBatchCount)
	if err != nil {
		return nil, err
	}
	stream, err := volume.New(sys.NX, sys.NY, sys.NZ)
	if err != nil {
		return nil, err
	}
	for c := 0; c < plan.BatchCount; c++ {
		z0, nz := plan.SlabZ(0, c)
		if nz == 0 {
			continue
		}
		slab, err := volume.NewSlab(sys.NX, sys.NY, nz, z0)
		if err != nil {
			return nil, err
		}
		if err := backproject.StreamingKernel(dev, ring, mats, slab, plan.SlabRows(0, c), fast); err != nil {
			return nil, err
		}
		if err := stream.CopySlabFrom(slab); err != nil {
			return nil, err
		}
	}
	identical := true
	for i := range rec.Data {
		if stream.Data[i] != rec.Data[i] {
			identical = false
			break
		}
	}

	stats, err := volume.Compare(exact, rec)
	if err != nil {
		return nil, err
	}
	lo, hi := exact.MinMax()
	scale := math.Max(math.Abs(float64(lo)), math.Abs(float64(hi)))
	gateScale := math.Max(scale, 1)
	pr := &ParityReport{
		Arithmetic:           fast.String(),
		RMSE:                 stats.RMSE,
		MaxAbs:               stats.MaxAbs,
		Scale:                scale,
		GateRMSE:             backproject.ParityGateRMSE * gateScale,
		GateMaxAbs:           backproject.ParityGateMaxAbs * gateScale,
		StreamingEqualsBatch: identical,
	}
	pr.Pass = pr.RMSE <= pr.GateRMSE && pr.MaxAbs <= pr.GateMaxAbs && identical
	return pr, nil
}

// benchFiltering times the FDK row-filter hot loop on a detector-scale row
// length (2048 samples, the root harness's BenchmarkFilterRow2048 shape),
// single-threaded so the number is a per-core rate.
func benchFiltering(reps int) (*FilterBench, error) {
	const (
		nu   = 2048
		nv   = 64
		rows = 256
	)
	f, err := filter.NewFDK(filter.Config{
		NU: nu, NV: nv, DU: 0.2, DV: 0.2, DSD: 672.5,
		Window: filter.RamLak, Scale: 1,
	})
	if err != nil {
		return nil, err
	}
	pristine := make([]float32, rows*nu)
	for i := range pristine {
		pristine[i] = float32(i%13) - 6
	}
	buf := make([]float32, len(pristine))
	vOf := func(i int) int { return i % nv }

	var best time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for rep := 0; rep < reps; rep++ {
		copy(buf, pristine)
		start := time.Now()
		if err := f.FilterRows(buf, rows, vOf, 1); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	runtime.ReadMemStats(&m1)
	return &FilterBench{
		NU:              nu,
		NV:              nv,
		Rows:            rows,
		FFTSize:         f.FFTSize(),
		Seconds:         best.Seconds(),
		RowsPerSec:      float64(rows) / best.Seconds(),
		NsPerRow:        best.Seconds() * 1e9 / float64(rows),
		AllocBytesRep:   (m1.TotalAlloc - m0.TotalAlloc) / uint64(reps),
		AllocObjectsRep: (m1.Mallocs - m0.Mallocs) / uint64(reps),
	}, nil
}

// AppendKernelBenchJSON appends entry to the BENCH_kernel.json at path,
// creating the file when absent. The file keeps every recorded run so
// regressions are visible as a trajectory, not a single number.
func AppendKernelBenchJSON(path string, entry *KernelBenchEntry) error {
	var file KernelBenchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("kernelbench: existing %s is not a bench file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	file.Entries = append(file.Entries, entry)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// Summary renders the entry as one human line per measurement.
func (e *KernelBenchEntry) Summary() string {
	s := fmt.Sprintf("%s (%s, workers=%d)\n", e.Label, e.GitCommit, e.Workers)
	for _, bp := range e.Backprojection {
		s += fmt.Sprintf("  backproject/%-9s [%s] %6.4f GUPS  %8.2f ns/update  %.3fs\n",
			bp.Kernel, bp.Arithmetic, bp.GUPS, bp.NsPerUpdate, bp.Seconds)
	}
	for _, p := range []*ParityReport{e.Parity, e.ParitySIMD} {
		if p == nil {
			continue
		}
		verdict := "PASS"
		if !p.Pass {
			verdict = "FAIL"
		}
		arith := p.Arithmetic
		if arith == "" {
			arith = "recurrence"
		}
		s += fmt.Sprintf("  parity[%s] %s: rmse %.3g (gate %.3g)  maxabs %.3g (gate %.3g)  streaming==batch %v\n",
			arith, verdict, p.RMSE, p.GateRMSE, p.MaxAbs, p.GateMaxAbs, p.StreamingEqualsBatch)
	}
	for _, fb := range e.Filtering {
		s += fmt.Sprintf("  filter rows (NU=%d) %9.0f rows/s  %8.0f ns/row  fft=%d\n",
			fb.NU, fb.RowsPerSec, fb.NsPerRow, fb.FFTSize)
	}
	return s
}
