package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(re, im []float64) ([]float64, []float64) {
	n := len(re)
	or := make([]float64, n)
	oi := make([]float64, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			w := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(t)/float64(n)))
			acc += complex(re[t], im[t]) * w
		}
		or[k] = real(acc)
		oi[k] = imag(acc)
	}
	return or, oi
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 12, 1<<20 + 1} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d): expected error", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 256, 512} {
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantR, wantI := naiveDFT(re, im)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Forward(re, im); err != nil {
			t.Fatal(err)
		}
		// Forward leaves bin Bin(i) at index i; Bin must be a permutation.
		seen := make([]bool, n)
		for i := range re {
			k := p.Bin(i)
			if k < 0 || k >= n || seen[k] {
				t.Fatalf("n=%d: Bin(%d) = %d is not a permutation", n, i, k)
			}
			seen[k] = true
			if math.Abs(re[i]-wantR[k]) > 1e-9*float64(n) || math.Abs(im[i]-wantI[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: bin %d = (%g,%g), want (%g,%g)", n, k, re[i], im[i], wantR[k], wantI[k])
			}
		}
	}
}

func TestForwardRejectsWrongLength(t *testing.T) {
	p, _ := NewPlan(8)
	if err := p.Forward(make([]float64, 4), make([]float64, 8)); err == nil {
		t.Fatal("expected length error")
	}
	if err := p.Forward(make([]float64, 8), make([]float64, 9)); err == nil {
		t.Fatal("expected length error")
	}
}

// Property: the unscaled inverse of Forward(x) is n·x, with the
// bit-reversed spectrum passed straight through, for both parities of
// log₂n.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := 1 << (size % 9)
		p, _ := NewPlan(n)
		rng := rand.New(rand.NewSource(seed))
		re := make([]float64, n)
		im := make([]float64, n)
		orig := make([]float64, 2*n)
		for i := range re {
			re[i] = rng.NormFloat64() * 10
			im[i] = rng.NormFloat64() * 10
			orig[i], orig[n+i] = re[i], im[i]
		}
		if p.Forward(re, im) != nil {
			return false
		}
		p.dit(re, im, false)
		for i := range re {
			re[i], im[i] = re[i]/float64(n), im[i]/float64(n)
			if math.Abs(re[i]-orig[i]) > 1e-9 || math.Abs(im[i]-orig[n+i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
func TestLinearityProperty(t *testing.T) {
	const n = 64
	p, _ := NewPlan(n)
	f := func(seed int64, a8, b8 int8) bool {
		a, b := float64(a8)/16, float64(b8)/16
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		zi1 := make([]float64, n)
		zi2 := make([]float64, n)
		zi3 := make([]float64, n)
		xc := append([]float64(nil), x...)
		yc := append([]float64(nil), y...)
		if p.Forward(xc, zi1) != nil || p.Forward(yc, zi2) != nil || p.Forward(comb, zi3) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if math.Abs(comb[i]-(a*xc[i]+b*yc[i])) > 1e-9 ||
				math.Abs(zi3[i]-(a*zi1[i]+b*zi2[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Parseval: Σ|x|² == (1/n)·Σ|X|².
func TestParseval(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(7))
	re := make([]float64, n)
	im := make([]float64, n)
	var timeE float64
	for i := range re {
		re[i] = rng.NormFloat64()
		timeE += re[i] * re[i]
	}
	p, _ := NewPlan(n)
	if err := p.Forward(re, im); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for i := range re {
		freqE += re[i]*re[i] + im[i]*im[i]
	}
	if math.Abs(timeE-freqE/n) > 1e-9*n {
		t.Fatalf("Parseval violated: time %g vs freq/n %g", timeE, freqE/n)
	}
}

func BenchmarkForward1024(b *testing.B) {
	p, _ := NewPlan(1024)
	re := make([]float64, 1024)
	im := make([]float64, 1024)
	for i := range re {
		re[i] = float64(i % 17)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Forward(re, im)
	}
}
