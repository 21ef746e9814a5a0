package device

import (
	"fmt"
	"sync"
	"time"

	"distfdk/internal/geometry"
	"distfdk/internal/projection"
)

// ProjRing is the device-resident projection row store of Algorithm 3: a
// 3-D buffer of H detector rows × NP projections × NU columns addressed
// modulo H in the row dimension (`Z = z % dimZ` in Listing 1's devPixel).
// Consecutive volume slabs need overlapping, monotonically increasing row
// ranges (Figure 4); the ring keeps the overlap resident and accepts only
// the differential rows, splitting a wrapping load into two copies exactly
// like Algorithm 3 lines 10–15. Each detector row therefore crosses the
// host↔device link exactly once per reconstruction — the property that
// distinguishes the paper from batch-decomposition frameworks that re-ship
// projections for every sub-volume.
//
// Storage follows Listing 1's devPixel order: slot-major with the NP
// projections of one detector row adjacent, data[((v%H)·NP+p)·NU+u], so
// uploading one row is a single contiguous copy.
type ProjRing struct {
	dev    *Device
	NU, NP int
	H      int // ring depth in rows

	data []float32

	// mu guards valid, which Valid and Row read from any goroutine (the
	// kernel's residency check, tests, introspection) while the stage that
	// owns the ring extends or releases it. The row data itself is
	// unguarded: a single stage both mutates the ring and launches the
	// kernel that reads it, so the two never overlap.
	mu    sync.RWMutex
	valid geometry.RowRange // global rows currently resident
}

// NewProjRing allocates a ring of depth h rows on the device, charging its
// memory budget.
func NewProjRing(dev *Device, nu, np, h int) (*ProjRing, error) {
	if nu <= 0 || np <= 0 || h <= 0 {
		return nil, fmt.Errorf("device: ring dimensions %dx%dx%d must be positive", nu, np, h)
	}
	bytes := int64(nu) * int64(np) * int64(h) * 4
	if err := dev.Alloc(bytes); err != nil {
		return nil, fmt.Errorf("device: projection ring of %d rows (%d bytes): %w", h, bytes, err)
	}
	return &ProjRing{dev: dev, NU: nu, NP: np, H: h, data: make([]float32, int(bytes/4))}, nil
}

// Close releases the ring's device memory.
func (r *ProjRing) Close() {
	if r.data != nil {
		r.dev.Free(int64(len(r.data)) * 4)
		r.data = nil
	}
}

// Bytes returns the ring's device-memory footprint.
func (r *ProjRing) Bytes() int64 { return int64(r.NU) * int64(r.NP) * int64(r.H) * 4 }

// RowBase returns the storage offset of global row v (projection 0); the
// sample (v, p, u) lives at RowBase(v) + p·ProjStride() + u. Callers must
// have verified residency for v.
func (r *ProjRing) RowBase(v int) int { return (v % r.H) * r.NP * r.NU }

// ProjStride returns the storage distance between consecutive projections
// of one detector row.
func (r *ProjRing) ProjStride() int { return r.NU }

// rowSlice returns the writable storage of (global row v, projection p).
func (r *ProjRing) rowSlice(v, p int) []float32 {
	off := r.RowBase(v) + p*r.ProjStride()
	return r.data[off : off+r.NU]
}

// Valid returns the global row range currently resident.
func (r *ProjRing) Valid() geometry.RowRange {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.valid
}

// Reset discards all resident rows. The slab driver uses it when
// consecutive slabs need disjoint row ranges (possible for very thin
// detectors), where there is no overlap to preserve.
func (r *ProjRing) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.dev.tel; t != nil {
		t.evictedRows.Add(int64(r.valid.Len()))
		t.resets.Inc()
		t.resident.Set(0)
	}
	r.valid = geometry.RowRange{}
}

// Release drops resident rows below upTo, making their slots reusable. It
// is called when advancing to the next slab, whose required range starts at
// upTo (= a_{i+1}).
func (r *ProjRing) Release(upTo int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if upTo > r.valid.Lo {
		newLo := min(upTo, r.valid.Hi)
		if t := r.dev.tel; t != nil {
			t.evictedRows.Add(int64(newLo - r.valid.Lo))
			t.resident.Set(int64(r.valid.Hi - newLo))
		}
		r.valid.Lo = newLo
	}
}

// admitRows validates that loading `rows` respects the ring discipline:
// contiguous upward extension, no eviction of un-Released rows, and the
// resident range fitting the depth. Callers hold mu. Returns the new valid
// range.
func (r *ProjRing) admitRows(rows geometry.RowRange) (geometry.RowRange, error) {
	newValid := r.valid.Union(rows)
	if !r.valid.IsEmpty() && rows.Lo > r.valid.Hi {
		return newValid, fmt.Errorf("device: load %v leaves a gap after resident %v", rows, r.valid)
	}
	if newValid.Len() > r.H {
		return newValid, fmt.Errorf("device: resident range %v (%d rows) exceeds ring depth %d", newValid, newValid.Len(), r.H)
	}
	// Overwriting rows that are still valid (not Released) is an
	// eviction bug.
	if !r.valid.IsEmpty() && rows.Lo < r.valid.Hi {
		return newValid, fmt.Errorf("device: load %v overlaps resident rows %v", rows, r.valid)
	}
	return newValid, nil
}

// LoadRows copies the global detector rows `rows` from the host stack into
// the ring (the host→device Memcpy3D of Algorithm 3). The stack must
// contain the rows and share the ring's NU/NP extents. Loads must extend
// the resident range contiguously upward and may not evict rows that have
// not been Released; both violations are programming errors in the caller's
// slab schedule and are reported rather than silently corrupting data.
func (r *ProjRing) LoadRows(src *projection.Stack, rows geometry.RowRange) error {
	if rows.IsEmpty() {
		return nil
	}
	if src.NU != r.NU || src.NP != r.NP {
		return fmt.Errorf("device: stack %dx%d does not match ring %dx%d", src.NU, src.NP, r.NU, r.NP)
	}
	if rows.Lo < src.V0 || rows.Hi > src.V0+src.NV {
		return fmt.Errorf("device: rows %v not present in host stack %v", rows, src.Rows())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	newValid, err := r.admitRows(rows)
	if err != nil {
		return err
	}

	rowBytes := int64(r.NU) * int64(r.NP) * 4
	ops := int64(1)
	// Copy row by row through the modular mapping; contiguous global
	// rows map to at most two contiguous slot spans (the split copy of
	// Algorithm 3), which we detect for the ledger.
	if (rows.Lo%r.H)+rows.Len() > r.H {
		ops = 2
	}
	var t0 time.Time
	if r.dev.tel != nil {
		t0 = time.Now()
	}
	for v := rows.Lo; v < rows.Hi; v++ {
		slot := v % r.H
		dst := r.data[slot*r.NP*r.NU : (slot+1)*r.NP*r.NU]
		srcOff := (v - src.V0) * src.NP * src.NU
		copy(dst, src.Data[srcOff:srcOff+len(dst)])
	}
	if t := r.dev.tel; t != nil {
		t.loadNs.Add(int64(time.Since(t0)))
		t.loadRows.Add(int64(rows.Len()))
		t.loadOps.Add(ops)
		t.resident.Set(int64(newValid.Len()))
	}
	r.dev.RecordH2D(rowBytes*int64(rows.Len()), ops)
	r.valid = newValid
	return r.checkInvariant()
}

// FillRows extends the resident range exactly like LoadRows but produces
// the row data in place instead of copying it from a host stack:
// fill(v, p, dst) must write the NU samples of projection p, global
// detector row v, into dst. This is the fused filter→upload path — the
// filtered row lands directly in its ring slot, skipping the intermediate
// host-stack pass. The (v, p) fills are distributed over `workers`
// goroutines (0 or 1 = sequential); the ledger charges the same H2D
// traffic as a LoadRows of the range, since the same bytes cross the
// simulated link. On any fill error the resident range is left unchanged
// (the slots written so far hold undefined data but remain un-admitted).
func (r *ProjRing) FillRows(rows geometry.RowRange, workers int, fill func(v, p int, dst []float32) error) error {
	if rows.IsEmpty() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	newValid, err := r.admitRows(rows)
	if err != nil {
		return err
	}

	rowBytes := int64(r.NU) * int64(r.NP) * 4
	ops := int64(1)
	if (rows.Lo%r.H)+rows.Len() > r.H {
		ops = 2
	}
	var t0 time.Time
	if r.dev.tel != nil {
		t0 = time.Now()
	}
	tasks := rows.Len() * r.NP
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for v := rows.Lo; v < rows.Hi; v++ {
			for p := 0; p < r.NP; p++ {
				if err := fill(v, p, r.rowSlice(v, p)); err != nil {
					return err
				}
			}
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for t := wk; t < tasks; t += workers {
					v := rows.Lo + t/r.NP
					p := t % r.NP
					if err := fill(v, p, r.rowSlice(v, p)); err != nil {
						errs[wk] = err
						return
					}
				}
			}(wk)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if t := r.dev.tel; t != nil {
		t.loadNs.Add(int64(time.Since(t0)))
		t.loadRows.Add(int64(rows.Len()))
		t.loadOps.Add(ops)
		t.resident.Set(int64(newValid.Len()))
	}
	r.dev.RecordH2D(rowBytes*int64(rows.Len()), ops)
	r.valid = newValid
	return r.checkInvariant()
}

// checkInvariant verifies the resident range fits the ring depth.
func (r *ProjRing) checkInvariant() error {
	if r.valid.Len() > r.H {
		return fmt.Errorf("device: invariant violated: %v exceeds depth %d", r.valid, r.H)
	}
	return nil
}

// Row returns the resident row v of projection p as a slice view, erroring
// if the row is not resident. The back-projection kernel uses RawData for
// its inner loop; Row exists for verification and tests.
func (r *ProjRing) Row(v, p int) ([]float32, error) {
	if valid := r.Valid(); !valid.Contains(v) {
		return nil, fmt.Errorf("device: row %d not resident (valid %v)", v, valid)
	}
	if p < 0 || p >= r.NP {
		return nil, fmt.Errorf("device: projection %d outside [0,%d)", p, r.NP)
	}
	return r.rowSlice(v, p), nil
}

// RawData exposes the ring storage for the kernel inner loop, which indexes
// it as data[RowBase(v)+p·ProjStride()+u] — the devPixel addressing of
// Listing 1. Callers must have verified
// residency via Valid() for the row range they touch.
func (r *ProjRing) RawData() []float32 { return r.data }
