package filter

import (
	"fmt"
	"math"

	"distfdk/internal/fft"
)

// rampResponse builds the length-n frequency response of the band-limited
// ramp filter with the given window, pixel pitch du and overall gain scale.
// n must be a power of two.
//
// Following the classic discrete derivation (Kak & Slaney §3.3), the
// response is obtained by transforming the band-limited spatial impulse
// response
//
//	h(0)      = 1/(4Δu²)
//	h(±m)     = 0                 m even
//	h(±m)     = −1/(m²π²Δu²)      m odd
//
// wrapped circularly onto n samples, rather than by sampling |f| directly;
// sampling |f| underweights the DC region and biases reconstructed density.
// The convolution sum approximates the filtration integral, so the response
// additionally carries the Δu quadrature weight and the caller's scale
// (which folds in the angular quadrature Δβ/2 of the FDK formula).
func rampResponse(n int, du float64, w Window, scale float64) ([]float64, error) {
	if !fft.IsPow2(n) {
		return nil, fmt.Errorf("filter: response length %d is not a power of two", n)
	}
	if du <= 0 {
		return nil, fmt.Errorf("filter: pixel pitch %g must be positive", du)
	}
	plan, err := fft.NewPlan(n)
	if err != nil {
		return nil, err
	}
	re := make([]float64, n)
	im := make([]float64, n)
	pi2du2 := math.Pi * math.Pi * du * du
	re[0] = 1 / (4 * du * du)
	for m := 1; m <= n/2; m++ {
		var v float64
		if m%2 == 1 {
			v = -1 / (float64(m) * float64(m) * pi2du2)
		}
		re[m] = v
		re[n-m] = v // wrap negative lags; overwrites m == n/2 with itself
	}
	if err := plan.Forward(re, im); err != nil {
		return nil, err
	}
	// The spatial kernel is real and even, so the spectrum is real: keep
	// the real part, discarding numerical imaginary dust, put each bin back
	// in natural order (the one permutation, at build time) and apodise.
	resp := im
	for pos, v := range re {
		k := plan.Bin(pos)
		f := min(k, n-k)
		resp[k] = v * w.gain(float64(f)/float64(n/2)) * du * scale
	}
	return resp, nil
}
