package fft

import (
	"fmt"
	"math"
)

// RealFilter applies a real, even frequency response H (H[k] == H[n−k]) to
// real sequences of length n/2, zero-padded to n: y = IDFT(H·DFT(x)), of
// which the first n/2 samples are kept. A sequence travels packed, sample
// 2j in re[j] and sample 2j+1 in im[j], through one complex transform of
// size m = n/2, one row per transform. Between the pruned forward and
// inverse passes a single sweep over bit-reversed bin pairs applies the
// whole untangle → H → retangle → 1/n chain as
//
//	Z'[k] = α_k·Z[k] + i·γ_k·conj(Z[m−k]),
//
// with α_k and γ_k real and precomputed. A RealFilter is safe for
// concurrent use once built; callers supply their own buffers.
type RealFilter struct {
	plan         *Plan
	alpha, gamma []float64 // per bit-reversed position
}

// NewRealFilter builds the filter for the response bins H[0..n/2] given in
// resp (length n/2 + 1, n a power of two >= 2).
func NewRealFilter(resp []float64) (*RealFilter, error) {
	m := len(resp) - 1
	if !IsPow2(m) {
		return nil, fmt.Errorf("fft: response of %d bins is not n/2+1 for a power-of-two n", len(resp))
	}
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	f := &RealFilter{plan: plan, alpha: make([]float64, m), gamma: make([]float64, m)}
	// With Fe/Fo the spectra of the even/odd samples, Z = Fe + i·Fo and
	// X[k] = Fe[k] + W^k·Fo[k] (W = exp(−2πi/n)). Filtering X[k] by H[k] and
	// X[k+m] by H[m−k] and repacking gives
	//   Z'[k] = S·Z[k] + D·(W^k·Fo[k] + i·W^{−k}·Fe[k])
	//         = (S − D·sin θ)·Z[k] + i·D·cos θ·conj(Z[m−k]),
	// θ = 2πk/n, S and D the half sum and difference of H[k] and H[m−k].
	// The 1/m of the unscaled inverse folds in here too.
	for pos := 0; pos < m; pos++ {
		k := plan.Bin(pos)
		s, d := (resp[k]+resp[m-k])/2, (resp[k]-resp[m-k])/2
		sin, cos := math.Sincos(math.Pi * float64(k) / float64(m))
		f.alpha[pos] = (s - d*sin) / float64(m)
		f.gamma[pos] = d * cos / float64(m)
	}
	return f, nil
}

// Size returns the padded real transform length n.
func (f *RealFilter) Size() int { return 2 * f.plan.n }

// Apply filters one packed sequence in place. re and im must have length
// n/2. Only their first max(1, n/4) entries — samples 0..n/2−1 — are read
// (the rest is the zero padding), and only those hold output afterwards.
func (f *RealFilter) Apply(re, im []float64) error {
	if err := f.plan.check(re, im); err != nil {
		return err
	}
	m := f.plan.n
	f.plan.dif(re, im, true)
	a, g := f.alpha, f.gamma
	// Bin k sits at position Bin(k); position 0 (k = 0) pairs with itself,
	// and in every octave [b, 2b) of positions, p holds the partner m−k of
	// position 3b−1−p's bin — so the pairs sweep inward from both ends.
	zr, zi := re[0], im[0]
	re[0], im[0] = a[0]*zr+g[0]*zi, a[0]*zi+g[0]*zr
	for b := 1; b < m; b *= 2 {
		for p, q := b, 2*b-1; p <= q; p, q = p+1, q-1 {
			pr, pi, qr, qi := re[p], im[p], re[q], im[q]
			re[p], im[p] = a[p]*pr+g[p]*qi, a[p]*pi+g[p]*qr
			re[q], im[q] = a[q]*qr+g[p]*pi, a[q]*qi+g[p]*pr
		}
	}
	f.plan.dit(re, im, true)
	return nil
}
