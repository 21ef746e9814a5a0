package fft

import (
	"math"
	"math/rand"
	"testing"
)

// naiveRealFilter is the O(n²) reference for RealFilter: the first n/2
// samples of IDFT(H·DFT(pad(x))), with x zero-padded to n and H extended
// evenly from its bins 0..n/2.
func naiveRealFilter(x, resp []float64) []float64 {
	n := 2 * (len(resp) - 1)
	re := make([]float64, n)
	copy(re, x)
	xr, xi := naiveDFT(re, make([]float64, n))
	for k := range xr {
		h := resp[min(k, n-k)]
		// Conjugating in and out turns the forward DFT into n·IDFT.
		xr[k], xi[k] = h*xr[k], -h*xi[k]
	}
	yr, _ := naiveDFT(xr, xi)
	out := make([]float64, n/2)
	for i := range out {
		out[i] = yr[i] / float64(n)
	}
	return out
}

// packRow lays x out as Apply expects: sample 2j in re[j], 2j+1 in im[j].
// The unread upper half is poisoned so a pass that reads it shows up.
func packRow(x []float64) (re, im []float64) {
	m := len(x)
	re, im = make([]float64, m), make([]float64, m)
	for j := range re {
		re[j], im[j] = math.NaN(), math.NaN()
	}
	for i, v := range x {
		if i%2 == 0 {
			re[i/2], im[i/2] = v, 0
		} else {
			im[i/2] = v
		}
	}
	return re, im
}

func unpackRow(re, im []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = re[i/2]
		} else {
			out[i] = im[i/2]
		}
	}
	return out
}

// The fused filter must match the naive filter for an arbitrary real even
// response, across sizes from the n=2 edge up and both parities of
// log₂(n/2).
func TestRealFilterMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 256, 1024} {
		resp := make([]float64, n/2+1)
		for k := range resp {
			resp[k] = rng.Float64() * 3
		}
		f, err := NewRealFilter(resp)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != n {
			t.Fatalf("n=%d: Size=%d", n, f.Size())
		}
		x := make([]float64, n/2)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := naiveRealFilter(x, resp)
		re, im := packRow(x)
		if err := f.Apply(re, im); err != nil {
			t.Fatal(err)
		}
		got := unpackRow(re, im, n/2)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: got %g, want %g", n, i, got[i], want[i])
			}
		}
	}
}

// A unit response makes the filter the identity: the pruned forward and
// inverse passes round-trip every kept sample, including odd lengths that
// leave the last packed imaginary slot as padding.
func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 4, 32, 512, 1024} {
		resp := make([]float64, n/2+1)
		for k := range resp {
			resp[k] = 1
		}
		f, err := NewRealFilter(resp)
		if err != nil {
			t.Fatal(err)
		}
		for _, length := range []int{n / 2, n/2 - 1} {
			x := make([]float64, length)
			for i := range x {
				x[i] = rng.NormFloat64() * 10
			}
			re, im := packRow(append(x, make([]float64, n/2-length)...))
			if err := f.Apply(re, im); err != nil {
				t.Fatal(err)
			}
			got := unpackRow(re, im, length)
			for i := range x {
				if math.Abs(got[i]-x[i]) > 1e-9 {
					t.Fatalf("n=%d len=%d sample %d: round trip %g, want %g", n, length, i, got[i], x[i])
				}
			}
		}
	}
}

func TestRealFilterErrors(t *testing.T) {
	for _, bins := range []int{0, 1, 4, 6, 10} {
		if _, err := NewRealFilter(make([]float64, bins)); err == nil {
			t.Errorf("NewRealFilter accepted %d bins", bins)
		}
	}
	f, err := NewRealFilter(make([]float64, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Apply(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("Apply accepted a short real buffer")
	}
	if err := f.Apply(make([]float64, 4), make([]float64, 5)); err == nil {
		t.Error("Apply accepted a long imaginary buffer")
	}
}

// BenchmarkRealFilter1024 times one filtered row of the 1024-point
// transform a 334-sample detector row pads to.
func BenchmarkRealFilter1024(b *testing.B) {
	resp := make([]float64, 513)
	for k := range resp {
		resp[k] = float64(k)
	}
	f, err := NewRealFilter(resp)
	if err != nil {
		b.Fatal(err)
	}
	re, im := make([]float64, 512), make([]float64, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 167; j++ {
			re[j], im[j] = float64(j%17)-8, float64(j%5)
		}
		if err := f.Apply(re, im); err != nil {
			b.Fatal(err)
		}
	}
}
