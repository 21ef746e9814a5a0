package experiments

import (
	"encoding/json"
	"fmt"
	"time"
)

// This file validates the repo's append-only benchmark ledgers
// (BENCH_kernel.json, BENCH_exec.json). The ledgers are hand-merged
// across PRs and branches, which is exactly how files rot: a truncated
// merge, an entry appended out of order, a rep that recorded zero
// throughput. `fdkbench -check-bench` (wired into `make check`) runs
// these so a rotten ledger fails CI instead of silently poisoning the
// trend lines.

// ValidateKernelBenchJSON checks a BENCH_kernel.json ledger: envelope
// shape, per-entry required fields, sane measurement rows, and
// monotonically non-decreasing RFC3339 timestamps (append-only means
// history stays in order).
func ValidateKernelBenchJSON(data []byte) (*KernelBenchFile, error) {
	var f KernelBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("kernel bench: %w", err)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("kernel bench: no entries")
	}
	var prev time.Time
	for i, e := range f.Entries {
		at := func(format string, args ...any) error {
			return fmt.Errorf("kernel bench: entry %d (%q): %s", i, e.Label, fmt.Sprintf(format, args...))
		}
		ts, err := checkEntryHeader(e.Timestamp, e.GoVersion, prev)
		if err != nil {
			return nil, at("%v", err)
		}
		prev = ts
		if len(e.Backprojection) == 0 {
			return nil, at("no backprojection rows")
		}
		for j, b := range e.Backprojection {
			// Arithmetic stays optional: pre-PR-6 entries recorded "" before
			// the field existed, and an append-only ledger keeps its history.
			if b.Kernel == "" {
				return nil, at("backprojection[%d]: kernel is required", j)
			}
			if b.Updates <= 0 || b.Seconds <= 0 || b.GUPS <= 0 {
				return nil, at("backprojection[%d]: non-positive measurement (updates=%d seconds=%g gups=%g)",
					j, b.Updates, b.Seconds, b.GUPS)
			}
		}
		for j, r := range e.Filtering {
			if r.Rows <= 0 || r.Seconds <= 0 || r.RowsPerSec <= 0 {
				return nil, at("filtering[%d]: non-positive measurement", j)
			}
		}
		for _, p := range []*ParityReport{e.Parity, e.ParitySIMD} {
			if p != nil && !p.Pass {
				return nil, at("recorded parity report failed its gates")
			}
		}
	}
	return &f, nil
}

// ExecBenchFile is the BENCH_exec.json envelope. The ledger is frozen:
// the scale-out executor benchmark that appended to it is retired, and
// the types below only describe its recorded rows so they stay validated.
type ExecBenchFile struct {
	Entries []*ExecBenchEntry `json:"entries"`
}

// ExecBenchEntry is one recorded run of the executor benchmark.
type ExecBenchEntry struct {
	Label       string            `json:"label"`
	GitCommit   string            `json:"git_commit,omitempty"`
	Timestamp   string            `json:"timestamp"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Pipeline    []PipelineBench   `json:"pipeline"`
	Recon       []ReconBench      `json:"recon,omitempty"`
	Collectives []CollectiveBench `json:"collectives"`
}

// PipelineBench is one sleep-modelled pipeline throughput measurement at
// a given back-projection stage width.
type PipelineBench struct {
	Workers       int     `json:"workers"`
	Batches       int     `json:"batches"`
	Seconds       float64 `json:"seconds"` // best-of-reps wall time
	BatchesPerSec float64 `json:"batches_per_sec"`
	Speedup       float64 `json:"speedup"` // relative to the Workers=1 row
}

// ReconBench is one end-to-end single-rank reconstruction measurement.
type ReconBench struct {
	Kernel  string  `json:"kernel"` // back-projection arithmetic
	Width   int     `json:"bp_workers"`
	Slabs   int     `json:"slabs"`
	Updates int64   `json:"updates"`
	Seconds float64 `json:"seconds"` // best-of-reps wall time
	GUPS    float64 `json:"gups"`
	Speedup float64 `json:"speedup"` // relative to the first recon row
	// Fallback records that a simd request degraded to the recurrence
	// kernel on the recording host.
	Fallback bool `json:"fallback,omitempty"`
}

// CollectiveBench is one reduction measurement.
type CollectiveBench struct {
	Variant string  `json:"variant"` // "reduce", "reduce_chunked", "hierarchical"
	Pooled  bool    `json:"pooled"`
	Ranks   int     `json:"ranks"`
	Elems   int     `json:"elems"`
	Chunk   int     `json:"chunk,omitempty"`
	Seconds float64 `json:"seconds"` // best-of-reps wall time
	// GBPerSec rates the tree traffic (ranks−1 buffers) against wall time.
	GBPerSec       float64 `json:"gb_per_sec"`
	AllocBytesOp   uint64  `json:"alloc_bytes_per_op"`
	AllocObjectsOp uint64  `json:"alloc_objects_per_op"`
	PoolGetsOp     int64   `json:"pool_gets_per_op"`
	PoolMissesOp   int64   `json:"pool_misses_per_op"`
}

// ValidateExecBenchJSON checks a BENCH_exec.json ledger with the same
// contract as ValidateKernelBenchJSON.
func ValidateExecBenchJSON(data []byte) (*ExecBenchFile, error) {
	var f ExecBenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("exec bench: %w", err)
	}
	if len(f.Entries) == 0 {
		return nil, fmt.Errorf("exec bench: no entries")
	}
	var prev time.Time
	for i, e := range f.Entries {
		at := func(format string, args ...any) error {
			return fmt.Errorf("exec bench: entry %d (%q): %s", i, e.Label, fmt.Sprintf(format, args...))
		}
		ts, err := checkEntryHeader(e.Timestamp, e.GoVersion, prev)
		if err != nil {
			return nil, at("%v", err)
		}
		prev = ts
		if len(e.Pipeline) == 0 {
			return nil, at("no pipeline rows")
		}
		for j, p := range e.Pipeline {
			if p.Workers <= 0 || p.Batches <= 0 || p.Seconds <= 0 || p.BatchesPerSec <= 0 {
				return nil, at("pipeline[%d]: non-positive measurement", j)
			}
		}
		for j, r := range e.Recon {
			if r.Kernel == "" {
				return nil, at("recon[%d]: kernel is required", j)
			}
			if r.Updates <= 0 || r.Seconds <= 0 || r.GUPS <= 0 {
				return nil, at("recon[%d]: non-positive measurement", j)
			}
		}
		for j, c := range e.Collectives {
			if c.Variant == "" {
				return nil, at("collectives[%d]: variant is required", j)
			}
			if c.Ranks <= 0 || c.Elems <= 0 || c.Seconds <= 0 {
				return nil, at("collectives[%d]: non-positive measurement", j)
			}
		}
	}
	return &f, nil
}

// checkEntryHeader validates the fields every ledger entry must carry
// and enforces append-only timestamp order against prev. Labels are not
// required — early history recorded unlabeled entries, and an append-only
// ledger keeps its history.
func checkEntryHeader(timestamp, goVersion string, prev time.Time) (time.Time, error) {
	if goVersion == "" {
		return time.Time{}, fmt.Errorf("go_version is required")
	}
	ts, err := time.Parse(time.RFC3339, timestamp)
	if err != nil {
		return time.Time{}, fmt.Errorf("timestamp %q is not RFC3339: %v", timestamp, err)
	}
	if ts.Before(prev) {
		return time.Time{}, fmt.Errorf("timestamp %s is before the previous entry's %s (ledger must be append-only)",
			ts.Format(time.RFC3339), prev.Format(time.RFC3339))
	}
	return ts, nil
}
