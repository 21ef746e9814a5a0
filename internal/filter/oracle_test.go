package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleConfig is the geometry the oracle tests filter with: a ramp pitch
// and gain away from 1 and an off-centre principal point, so every factor
// of the filter shows in its output.
func oracleConfig(nu int, w Window) Config {
	return Config{NU: nu, NV: 5, DU: 0.4, DV: 0.3, DSD: 500, SigmaU: 0.7, Window: w, Scale: 0.02, RampPitch: 0.25}
}

// oracleFilterRow is the float64 O(n²) reference for FilterRowInto, built
// from the definitions alone — no FFT: the row is weighted, zero-padded to
// n, transformed by a naive DFT, multiplied by the windowed band-limited
// ramp H (itself the naive DFT of the spatial kernel), and transformed
// back, keeping the first NU samples.
func oracleFilterRow(cfg Config, f *FDK, src, pw []float32, v int) []float64 {
	nu := cfg.NU
	n := f.FFTSize()
	if n < 2*nu || n&(n-1) != 0 {
		panic("oracle: FFT size does not pad the row linearly")
	}
	cos, sin := make([]float64, n), make([]float64, n)
	for t := range cos {
		cos[t], sin[t] = math.Cos(2*math.Pi*float64(t)/float64(n)), math.Sin(2*math.Pi*float64(t)/float64(n))
	}
	du := cfg.RampPitch
	h := make([]float64, n)
	h[0] = 1 / (4 * du * du)
	for m := 1; m <= n/2; m++ {
		if m%2 == 1 {
			h[m] = -1 / (float64(m*m) * math.Pi * math.Pi * du * du)
			h[n-m] = h[m]
		}
	}
	x := make([]float64, nu)
	for u := range x {
		x[u] = float64(src[u]) * float64(f.weights[v*nu+u])
		if pw != nil {
			x[u] *= float64(pw[u])
		}
	}
	// Y[k] = H[k]·X[k] for k = 0..n/2; the upper bins are conjugates.
	yr, yi := make([]float64, n/2+1), make([]float64, n/2+1)
	for k := range yr {
		var hk, xr, xi float64
		for t := 0; t < n; t++ {
			hk += h[t] * cos[k*t%n]
		}
		for t, s := range x {
			xr += s * cos[k*t%n]
			xi -= s * sin[k*t%n]
		}
		hk *= cfg.Window.gain(float64(k)/float64(n/2)) * du * cfg.Scale
		yr[k], yi[k] = hk*xr, hk*xi
	}
	out := make([]float64, nu)
	for t := range out {
		acc := yr[0] + yr[n/2]*cos[(n/2)*t%n]
		for k := 1; k < n/2; k++ {
			acc += 2 * (yr[k]*cos[k*t%n] - yi[k]*sin[k*t%n])
		}
		out[t] = acc / float64(n)
	}
	return out
}

// checkAgainstOracle requires got to match want within 1e-5 of the row's
// peak magnitude (a per-sample relative bound is meaningless at the zero
// crossings every ramp-filtered row has).
func checkAgainstOracle(t *testing.T, label string, got []float32, want []float64) {
	t.Helper()
	var peak, worst float64
	for u := range want {
		peak = math.Max(peak, math.Abs(want[u]))
		worst = math.Max(worst, math.Abs(float64(got[u])-want[u]))
	}
	if worst > 1e-5*peak || math.IsNaN(worst) {
		t.Fatalf("%s: max error %g against oracle peak %g (rel %.3g)", label, worst, peak, worst/peak)
	}
}

// FilterRowInto must agree with the naive-DFT oracle for odd and even row
// lengths, both parities of log₂(FFTSize/2), every window, with and
// without redundancy weights, and with dst aliasing src.
func TestFilterRowIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// FFTSize/2 = 1, 2, 8, 64, 64, 128, 256, 512, 1024: log₂ parities
	// 0, 1, 3, 6, 6, 7, 8, 9, 10.
	for _, nu := range []int{1, 2, 7, 41, 64, 100, 167, 334, 1000} {
		for _, w := range []Window{RamLak, SheppLogan, Cosine, Hamming, Hann} {
			cfg := oracleConfig(nu, w)
			f, err := NewFDK(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := f.NewScratch()
			for _, withPW := range []bool{false, true} {
				for _, alias := range []bool{false, true} {
					src := make([]float32, nu)
					for u := range src {
						src[u] = float32(rng.Float64()*4 - 1)
					}
					var pw []float32
					if withPW {
						pw = make([]float32, nu)
						for u := range pw {
							pw[u] = float32(rng.Float64())
						}
					}
					v := rng.Intn(cfg.NV)
					want := oracleFilterRow(cfg, f, src, pw, v)
					dst := make([]float32, nu)
					if alias {
						dst = src
					}
					if err := f.FilterRowInto(dst, src, v, pw, s); err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, fmt.Sprintf("nu=%d %v pw=%v alias=%v", nu, w, withPW, alias), dst, want)
				}
			}
		}
	}
}

// The fused path must equal ApplyRow followed by FilterRow to the last bit,
// the contract fused ≡ unfused reconstructions rest on.
func TestFilterRowIntoMatchesApplyRowThenFilterRow(t *testing.T) {
	pk, _, _, _ := parkerFixture(t)
	cfg := testConfig()
	rng := rand.New(rand.NewSource(23))
	for _, w := range []Window{RamLak, Hann} {
		cfg.Window = w
		f, err := NewFDK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := f.NewScratch()
		for trial := 0; trial < 20; trial++ {
			p, v := rng.Intn(180), rng.Intn(cfg.NV)
			src := make([]float32, cfg.NU)
			for u := range src {
				src[u] = float32(rng.NormFloat64())
			}
			pw, err := pk.RowWeights(p)
			if err != nil {
				t.Fatal(err)
			}
			fused := make([]float32, cfg.NU)
			if err := f.FilterRowInto(fused, src, v, pw, s); err != nil {
				t.Fatal(err)
			}
			if err := pk.ApplyRow(src, p); err != nil {
				t.Fatal(err)
			}
			if err := f.FilterRow(src, v, s); err != nil {
				t.Fatal(err)
			}
			for u := range src {
				if math.Float32bits(fused[u]) != math.Float32bits(src[u]) {
					t.Fatalf("%v trial %d sample %d: fused %x, unfused %x", w, trial, u,
						math.Float32bits(fused[u]), math.Float32bits(src[u]))
				}
			}
		}
	}
}

// FuzzFilterRow checks FilterRowInto against the oracle over fuzzed row
// lengths, windows, redundancy weights and samples. Bytes map to bounded
// finite values: NaN or Inf input is garbage in, garbage out. The seed
// corpus is in testdata/fuzz/FuzzFilterRow.
func FuzzFilterRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, nu16 uint16, win uint8, withPW bool, data []byte) {
		nu := 1 + int(nu16)%1100
		cfg := oracleConfig(nu, Window(win%5))
		fd, err := NewFDK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		at := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		src := make([]float32, nu)
		for u := range src {
			src[u] = (float32(at(u)) - 128) / 32
		}
		var pw []float32
		if withPW {
			pw = make([]float32, nu)
			for u := range pw {
				pw[u] = float32(at(u+nu)) / 255
			}
		}
		v := int(at(2*nu)) % cfg.NV
		want := oracleFilterRow(cfg, fd, src, pw, v)
		got := make([]float32, nu)
		if err := fd.FilterRowInto(got, src, v, pw, fd.NewScratch()); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, cfg.Window.String(), got, want)
	})
}
