package filter

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"distfdk/internal/fft"
)

// FDK performs the per-row filtering computation of Equation 2: each
// detector row is multiplied point-wise by the cosine (distance) weight
// Dsd/√(D(u,v)²+Dsd²) and then convolved with the one-dimensional ramp
// filter. One FDK value is built per acquisition geometry and is safe for
// concurrent use by many goroutines (each supplies its own Scratch).
type FDK struct {
	nu, nv  int
	ramp    *fft.RealFilter
	weights []float32 // nv×nu cosine weights, row-major
	window  Window
}

// Config carries the geometry slice that filtering needs. Scale folds the
// angular quadrature of the FDK reconstruction formula (Δβ/2 = angleRange /
// (2·Np)) into the filtered values so Algorithm 1's accumulation needs no
// further normalisation.
type Config struct {
	NU, NV         int
	DU, DV         float64
	DSD            float64
	SigmaU, SigmaV float64
	Window         Window
	Scale          float64
	// RampPitch is the sample pitch used for the ramp convolution. The
	// FDK derivation filters on the *virtual* detector through the
	// rotation axis, so the correct value is DU·Dso/Dsd; zero defaults
	// to DU (a parallel-beam-style approximation that underweights the
	// reconstruction by Dso/Dsd).
	RampPitch float64
}

// NewFDK builds the filter tables for the given configuration.
func NewFDK(cfg Config) (*FDK, error) {
	if cfg.NU <= 0 || cfg.NV <= 0 {
		return nil, fmt.Errorf("filter: detector %dx%d must be positive", cfg.NU, cfg.NV)
	}
	if cfg.DU <= 0 || cfg.DV <= 0 {
		return nil, fmt.Errorf("filter: pixel pitch %gx%g must be positive", cfg.DU, cfg.DV)
	}
	if cfg.DSD <= 0 {
		return nil, fmt.Errorf("filter: DSD %g must be positive", cfg.DSD)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	rampPitch := cfg.RampPitch
	if rampPitch == 0 {
		rampPitch = cfg.DU
	}
	if rampPitch < 0 {
		return nil, fmt.Errorf("filter: ramp pitch %g must be positive", rampPitch)
	}
	n := fft.NextPow2(2 * cfg.NU)
	resp, err := rampResponse(n, rampPitch, cfg.Window, scale)
	if err != nil {
		return nil, err
	}
	// The response is real and even (resp[k] == resp[n−k]), so bins 0..n/2
	// determine it; n >= 2·NU keeps the circular convolution linear over
	// the kept samples.
	ramp, err := fft.NewRealFilter(resp[:n/2+1])
	if err != nil {
		return nil, err
	}
	f := &FDK{nu: cfg.NU, nv: cfg.NV, ramp: ramp, window: cfg.Window}
	f.weights = make([]float32, cfg.NV*cfg.NU)
	cu := (float64(cfg.NU)-1)/2 + cfg.SigmaU
	cv := (float64(cfg.NV)-1)/2 + cfg.SigmaV
	for v := 0; v < cfg.NV; v++ {
		dv := cfg.DV * (float64(v) - cv)
		for u := 0; u < cfg.NU; u++ {
			du := cfg.DU * (float64(u) - cu)
			d2 := du*du + dv*dv
			f.weights[v*cfg.NU+u] = float32(cfg.DSD / math.Sqrt(d2+cfg.DSD*cfg.DSD))
		}
	}
	return f, nil
}

// NU returns the row length the filter was built for.
func (f *FDK) NU() int { return f.nu }

// NV returns the detector height the filter was built for.
func (f *FDK) NV() int { return f.nv }

// Window returns the apodisation window in use.
func (f *FDK) Window() Window { return f.window }

// FFTSize returns the transform length used for row filtering.
func (f *FDK) FFTSize() int { return f.ramp.Size() }

// Scratch is the per-goroutine workspace for row filtering: one row packed
// into a complex transform of size FFTSize/2, even samples in re and odd
// samples in im.
type Scratch struct {
	re, im []float64
}

// NewScratch allocates a workspace sized for this filter.
func (f *FDK) NewScratch() *Scratch {
	m := f.ramp.Size() / 2
	return &Scratch{re: make([]float64, m), im: make([]float64, m)}
}

// FilterRow filters one detector row in place. v is the physical detector
// row index of the data (used to look up the cosine weight); it must lie in
// [0, NV).
func (f *FDK) FilterRow(row []float32, v int, s *Scratch) error {
	return f.FilterRowInto(row, row, v, nil, s)
}

// FilterRowInto filters the detector row src of physical row index v into
// dst, optionally folding in the per-column redundancy weights pw (nil for
// a full scan). This is the fused filter→upload primitive: dst may be a
// device-ring slot, so the filtered row lands in device memory without an
// intermediate host-stack pass. The arithmetic is bit-identical to the
// unfused ApplyRow-then-FilterRow sequence — the redundancy product rounds
// to float32 before the cosine weight multiplies it, exactly as when the
// stack is weighted in place — so fused and unfused reconstructions match
// to the last ulp. dst and src may alias.
func (f *FDK) FilterRowInto(dst, src []float32, v int, pw []float32, s *Scratch) error {
	if len(src) != f.nu {
		return fmt.Errorf("filter: row length %d, want %d", len(src), f.nu)
	}
	if len(dst) != f.nu {
		return fmt.Errorf("filter: dst length %d, want %d", len(dst), f.nu)
	}
	if v < 0 || v >= f.nv {
		return fmt.Errorf("filter: row index %d outside detector [0,%d)", v, f.nv)
	}
	if pw != nil && len(pw) != f.nu {
		return fmt.Errorf("filter: weight length %d, want %d", len(pw), f.nu)
	}
	w := f.weights[v*f.nu : (v+1)*f.nu]
	// Weight straight into the packed transform buffer: sample u goes to
	// re[u/2] (u even) or im[u/2] (u odd). The samples from NU up to
	// FFTSize/2 are the zero padding that RealFilter.Apply reads.
	re, im := s.re, s.im
	h := f.nu / 2
	if pw != nil {
		for j := 0; j < h; j++ {
			// Two float32 roundings, matching ApplyRow + FilterRow.
			re[j] = float64(src[2*j] * pw[2*j] * w[2*j])
			im[j] = float64(src[2*j+1] * pw[2*j+1] * w[2*j+1])
		}
	} else {
		for j := 0; j < h; j++ {
			re[j] = float64(src[2*j] * w[2*j])
			im[j] = float64(src[2*j+1] * w[2*j+1])
		}
	}
	if f.nu%2 == 1 {
		u := f.nu - 1
		x := src[u] * w[u]
		if pw != nil {
			x = src[u] * pw[u] * w[u]
		}
		re[h], im[h] = float64(x), 0
		h++
	}
	for j := h; j < max(1, len(re)/2); j++ {
		re[j], im[j] = 0, 0
	}
	if err := f.ramp.Apply(re, im); err != nil {
		return err
	}
	for j := 0; j < f.nu/2; j++ {
		dst[2*j], dst[2*j+1] = float32(re[j]), float32(im[j])
	}
	if f.nu%2 == 1 {
		dst[f.nu-1] = float32(re[f.nu/2])
	}
	return nil
}

// FilterRows filters count contiguous rows stored back to back in data,
// where row i of the buffer corresponds to physical detector row
// vOf(i). Rows are distributed across workers goroutines (0 means
// GOMAXPROCS), mirroring the paper's OpenMP-parallel filtering thread.
func (f *FDK) FilterRows(data []float32, count int, vOf func(i int) int, workers int) error {
	if len(data) != count*f.nu {
		return fmt.Errorf("filter: buffer holds %d values, want %d rows × %d", len(data), count, f.nu)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		s := f.NewScratch()
		for i := 0; i < count; i++ {
			if err := f.FilterRow(data[i*f.nu:(i+1)*f.nu], vOf(i), s); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			s := f.NewScratch()
			for i := wk; i < count; i += workers {
				if err := f.FilterRow(data[i*f.nu:(i+1)*f.nu], vOf(i), s); err != nil {
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
	return nil
}
