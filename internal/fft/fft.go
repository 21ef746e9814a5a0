// Package fft provides the fast Fourier transform primitives used by the
// filtering stage of the FBP pipeline (Equation 2 of the paper). The paper
// performs row filtering with Intel IPP on the host CPU; this package is the
// stdlib-only substitute: a radix-2² transform whose forward pass leaves its
// spectrum in bit-reversed order and whose inverse consumes it there, so
// filtering never runs a permutation pass.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Plan caches the twiddle factors of complex transforms of one power-of-two
// size n. The forward transform is decimation-in-frequency (natural order
// in, bit-reversed order out) and the inverse the matching
// decimation-in-time transform (bit-reversed in, natural out), so a
// spectrum that is only scaled in between never needs reordering. Both run
// radix-2² passes — the butterflies of two radix-2 stages fused over four
// points, three twiddle multiplies instead of four — after (forward) or
// before (inverse) one radix-2 stage when log₂n is odd. A Plan is safe for
// concurrent use once built.
type Plan struct {
	n    int
	logn int
	// r2 holds cos, sin of 2πj/n for j < n/2: the radix-2 stage, present
	// when log₂n is odd.
	r2 []float64
	// r4[s] holds c1, s1, c2, s2, c3, s3 — cos, sin of 2πj/L, 4πj/L,
	// 6πj/L — for j < L/4, for the s-th radix-2² pass of Forward, whose
	// blocks have size L = 4·len(r4[s])/6 >= 16. The last pass (L = 4)
	// needs no twiddles.
	r4 [][]float64
}

// NewPlan builds a transform plan of size n, which must be a power of two.
func NewPlan(n int) (*Plan, error) {
	if !IsPow2(n) {
		return nil, fmt.Errorf("fft: size %d is not a power of two", n)
	}
	p := &Plan{n: n, logn: bits.Len(uint(n)) - 1}
	L := n
	if p.logn%2 == 1 {
		p.r2 = make([]float64, n)
		for j := 0; j < n/2; j++ {
			p.r2[2*j], p.r2[2*j+1] = cosSin(j, n)
		}
		L = n / 2
	}
	for ; L >= 16; L /= 4 {
		t := make([]float64, 6*(L/4))
		for j := 0; j < L/4; j++ {
			t[6*j], t[6*j+1] = cosSin(j, L)
			t[6*j+2], t[6*j+3] = cosSin(2*j, L)
			t[6*j+4], t[6*j+5] = cosSin(3*j, L)
		}
		p.r4 = append(p.r4, t)
	}
	return p, nil
}

// cosSin returns cos and sin of 2πk/L.
func cosSin(k, L int) (float64, float64) {
	s, c := math.Sincos(2 * math.Pi * float64(k) / float64(L))
	return c, s
}

// Bin returns the frequency index whose coefficient Forward stores at
// position pos (and the inverse expects there): the bit reversal of pos.
func (p *Plan) Bin(pos int) int {
	if p.logn == 0 {
		return 0
	}
	return int(bits.Reverse(uint(pos)) >> (bits.UintSize - p.logn))
}

// Forward computes the in-place forward DFT of the complex sequence given as
// separate real and imaginary slices, each of length n. The output is in
// bit-reversed order: bin Bin(i) lands at index i. (The inverse, dit, runs
// inside RealFilter.Apply.)
func (p *Plan) Forward(re, im []float64) error {
	if err := p.check(re, im); err != nil {
		return err
	}
	p.dif(re, im, false)
	return nil
}

func (p *Plan) check(re, im []float64) error {
	if len(re) != p.n || len(im) != p.n {
		return fmt.Errorf("fft: input length %d/%d, plan size %d", len(re), len(im), p.n)
	}
	return nil
}

// dif runs the forward passes. With zeroTop the upper half of the input is
// taken as zero and never read: the first pass skips its loads and adds.
func (p *Plan) dif(re, im []float64, zeroTop bool) {
	n := p.n
	if p.r2 != nil {
		h := n / 2
		rl, rh, il, ih := re[:h], re[h:][:h], im[:h], im[h:][:h]
		for j := range rl {
			ar, ai := rl[j], il[j]
			br, bi := ar, ai
			if !zeroTop {
				br, bi = rh[j], ih[j]
				rl[j], il[j] = ar+br, ai+bi
				br, bi = ar-br, ai-bi
			}
			w := p.r2[2*j : 2*j+2 : 2*j+2]
			rh[j], ih[j] = br*w[0]+bi*w[1], bi*w[0]-br*w[1]
		}
		zeroTop = false
	}
	for _, t := range p.r4 {
		L := 4 * len(t) / 6
		q := L / 4
		for base := 0; base < n; base += L {
			r0, r1, r2, r3 := quarters(re[base:], q)
			i0, i1, i2, i3 := quarters(im[base:], q)
			for j := range r0 {
				x0r, x0i, x1r, x1i := r0[j], i0[j], r1[j], i1[j]
				ar, ai, br, bi := x0r, x0i, x1r, x1i
				cr, ci, dr, di := x0r, x0i, x1r, x1i
				if !zeroTop {
					x2r, x2i, x3r, x3i := r2[j], i2[j], r3[j], i3[j]
					ar, ai, br, bi = x0r+x2r, x0i+x2i, x1r+x3r, x1i+x3i
					cr, ci, dr, di = x0r-x2r, x0i-x2i, x1r-x3r, x1i-x3i
				}
				// out0 = a+b, out1 = (a−b)·W^{2j}, out2 = (c−id)·W^{j},
				// out3 = (c+id)·W^{3j}, with W = exp(−2πi/L).
				w := t[6*j : 6*j+6 : 6*j+6]
				ur, ui := ar-br, ai-bi
				vr, vi := cr+di, ci-dr
				wr, wi := cr-di, ci+dr
				r0[j], i0[j] = ar+br, ai+bi
				r1[j], i1[j] = ur*w[2]+ui*w[3], ui*w[2]-ur*w[3]
				r2[j], i2[j] = vr*w[0]+vi*w[1], vi*w[0]-vr*w[1]
				r3[j], i3[j] = wr*w[4]+wi*w[5], wi*w[4]-wr*w[5]
			}
		}
		zeroTop = false
	}
	if n < 4 {
		return
	}
	for base := 0; base < n; base += 4 {
		r, i := re[base:][:4], im[base:][:4]
		x0r, x0i, x1r, x1i := r[0], i[0], r[1], i[1]
		ar, ai, br, bi := x0r, x0i, x1r, x1i
		cr, ci, dr, di := x0r, x0i, x1r, x1i
		if !zeroTop {
			ar, ai, br, bi = x0r+r[2], x0i+i[2], x1r+r[3], x1i+i[3]
			cr, ci, dr, di = x0r-r[2], x0i-i[2], x1r-r[3], x1i-i[3]
		}
		r[0], i[0] = ar+br, ai+bi
		r[1], i[1] = ar-br, ai-bi
		r[2], i[2] = cr+di, ci-dr
		r[3], i[3] = cr-di, ci+dr
	}
}

// dit runs the inverse passes, bit-reversed order in and natural order
// out, unscaled: it returns n times the inverse DFT. It undoes dif's
// butterflies in reverse order with conjugate twiddles. With lowOnly only the lower half of the output is produced;
// the last pass skips the stores (and adds) of the upper half.
func (p *Plan) dit(re, im []float64, lowOnly bool) {
	n := p.n
	low := lowOnly && n == 4
	for base := 0; n >= 4 && base < n; base += 4 {
		r, i := re[base:][:4], im[base:][:4]
		ar, ai := r[0]+r[1], i[0]+i[1]
		br, bi := r[0]-r[1], i[0]-i[1]
		cr, ci := r[2]+r[3], i[2]+i[3]
		dr, di := i[3]-i[2], r[2]-r[3]
		r[0], i[0] = ar+cr, ai+ci
		r[1], i[1] = br+dr, bi+di
		if !low {
			r[2], i[2] = ar-cr, ai-ci
			r[3], i[3] = br-dr, bi-di
		}
	}
	for s := len(p.r4) - 1; s >= 0; s-- {
		t := p.r4[s]
		L := 4 * len(t) / 6
		q := L / 4
		low := lowOnly && L == n
		for base := 0; base < n; base += L {
			r0, r1, r2, r3 := quarters(re[base:], q)
			i0, i1, i2, i3 := quarters(im[base:], q)
			for j := range r0 {
				w := t[6*j : 6*j+6 : 6*j+6]
				ur, ui := r1[j]*w[2]-i1[j]*w[3], i1[j]*w[2]+r1[j]*w[3]
				vr, vi := r2[j]*w[0]-i2[j]*w[1], i2[j]*w[0]+r2[j]*w[1]
				wr, wi := r3[j]*w[4]-i3[j]*w[5], i3[j]*w[4]+r3[j]*w[5]
				// 2a = out0 + out1', 2b = out0 − out1', 2c = out2' + out3',
				// 2d = i·(out2' − out3'); then x0 ∝ a+c, x1 ∝ b+d,
				// x2 ∝ a−c, x3 ∝ b−d.
				ar, ai := r0[j]+ur, i0[j]+ui
				br, bi := r0[j]-ur, i0[j]-ui
				cr, ci := vr+wr, vi+wi
				dr, di := wi-vi, vr-wr
				r0[j], i0[j] = ar+cr, ai+ci
				r1[j], i1[j] = br+dr, bi+di
				if !low {
					r2[j], i2[j] = ar-cr, ai-ci
					r3[j], i3[j] = br-dr, bi-di
				}
			}
		}
	}
	if p.r2 != nil {
		h := n / 2
		rl, rh, il, ih := re[:h], re[h:][:h], im[:h], im[h:][:h]
		for j := range rl {
			w := p.r2[2*j : 2*j+2 : 2*j+2]
			br, bi := rh[j]*w[0]-ih[j]*w[1], ih[j]*w[0]+rh[j]*w[1]
			ar, ai := rl[j], il[j]
			rl[j], il[j] = ar+br, ai+bi
			if !lowOnly {
				rh[j], ih[j] = ar-br, ai-bi
			}
		}
	}
}

// quarters splits the block starting at b into its four length-q quarters.
func quarters(b []float64, q int) (x0, x1, x2, x3 []float64) {
	return b[:q], b[q:][:q], b[2*q:][:q], b[3*q:][:q]
}
