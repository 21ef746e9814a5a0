package backproject

import (
	"math"
	"math/rand"
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/geometry"
	"distfdk/internal/volume"
)

// The recurrence contract: the value a kernel lane holds at column i must
// be recCoords(i, …) to the last bit, for any span the kernel is asked to
// walk — including spans that start mid-segment and straddle re-anchor
// boundaries. The walker below reproduces the kernel's exact two-lane
// structure (anchor eval at b and b|1, exact-step advances of 2·ax); if
// this test holds, every decomposition of a row into sub-spans sees
// identical coordinates, which is what the streaming ≡ batch ≡ resume
// bit-identity rests on.
func TestRecurrenceDriftProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		ax := float32(rng.NormFloat64() * 0.3)
		ay := float32(rng.NormFloat64() * 0.3)
		az := float32(rng.NormFloat64() * 0.01)
		xc := float32(rng.NormFloat64() * 50)
		yc := float32(rng.NormFloat64() * 50)
		zc := float32(0.1 + rng.Float64()*3)
		nx := 1 + rng.Intn(4*reanchorPeriod)
		// Spans deliberately placed to straddle re-anchor boundaries:
		// random start anywhere in the row, random length crossing
		// multiple segments.
		c0 := rng.Intn(nx)
		c1 := c0 + 1 + rng.Intn(nx-c0)

		// Kernel-shaped lane walk over [c0, c1).
		ax2, ay2, az2 := ax*2, ay*2, az*2
		for b := c0 &^ (reanchorPeriod - 1); b < c1; b += reanchorPeriod {
			fb0 := float32(b)
			u0, v0, w0 := ax*fb0+xc, ay*fb0+yc, az*fb0+zc
			fb1 := float32(b + 1)
			u1, v1, w1 := ax*fb1+xc, ay*fb1+yc, az*fb1+zc
			seg1 := b + reanchorPeriod
			if seg1 > c1 {
				seg1 = c1
			}
			for base := b; base < seg1; base += 2 {
				if base >= c0 {
					ru, rv, rw := recCoords(base, ax, ay, az, xc, yc, zc)
					if ru != u0 || rv != v0 || rw != w0 {
						t.Fatalf("trial %d: lane 0 at col %d holds (%g,%g,%g), recCoords says (%g,%g,%g)",
							trial, base, u0, v0, w0, ru, rv, rw)
					}
				}
				if base+1 >= c0 && base+1 < seg1 {
					ru, rv, rw := recCoords(base+1, ax, ay, az, xc, yc, zc)
					if ru != u1 || rv != v1 || rw != w1 {
						t.Fatalf("trial %d: lane 1 at col %d holds (%g,%g,%g), recCoords says (%g,%g,%g)",
							trial, base+1, u1, v1, w1, ru, rv, rw)
					}
				}
				u0 += ax2
				v0 += ay2
				w0 += az2
				u1 += ax2
				v1 += ay2
				w1 += az2
			}
		}

		// Drift bound: the recurrence value stays within a small multiple
		// of float32 epsilon of the exact float64 affine value — far under
		// the predicateSlack the residency predicates assume.
		for _, i := range []int{c0, (c0 + c1) / 2, c1 - 1} {
			ru, rv, rw := recCoords(i, ax, ay, az, xc, yc, zc)
			fi := float64(i)
			for _, pair := range [][2]float64{
				{float64(ru), float64(ax)*fi + float64(xc)},
				{float64(rv), float64(ay)*fi + float64(yc)},
				{float64(rw), float64(az)*fi + float64(zc)},
			} {
				scale := math.Max(math.Abs(pair[1]), 1)
				if diff := math.Abs(pair[0] - pair[1]); diff > 1e-5*scale {
					t.Fatalf("trial %d col %d: drift %g beyond bound (rec %g, exact %g)",
						trial, i, diff, pair[0], pair[1])
				}
			}
		}
	}
}

// Zero-voxel slabs (an empty projection window's degenerate launch) must
// count one kernel launch and zero updates without spawning workers over
// the empty range — the ledger's sample-path split stays all-zero too.
func TestZeroVoxelSlabLaunch(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 5)
	dev := device.New("empty", 0, 4)
	slab := &volume.Volume{NX: sys.NX, NY: sys.NY, NZ: 0}
	if err := BatchKernel(dev, stack, kernelMats(sys), slab, KernelRecurrence); err != nil {
		t.Fatal(err)
	}
	l := dev.Snapshot()
	if l.KernelLaunches != 1 {
		t.Errorf("KernelLaunches = %d, want 1", l.KernelLaunches)
	}
	if l.VoxelUpdates != 0 {
		t.Errorf("VoxelUpdates = %d, want 0", l.VoxelUpdates)
	}
	if l.InteriorSamples != 0 || l.BorderSamples != 0 || l.SkippedSamples != 0 || l.Reanchors != 0 {
		t.Errorf("sample split non-zero on empty launch: %+v", l)
	}
}

// One full-depth ring load streamed in a single launch must reproduce the
// batch kernel bit for bit: the ring's RowBase/ProjStride addressing reads
// the same samples as the stack's own indexing.
func TestFullRingStreamingEqualsBatch(t *testing.T) {
	sys := testSystem()
	stack := randomStack(sys, 13)
	mats := kernelMats(sys)
	rows := geometry.RowRange{Lo: 0, Hi: sys.NV}

	want, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Batch(device.New("batch", 0, 2), stack, mats, want); err != nil {
		t.Fatal(err)
	}
	dev := device.New("ring", 0, 2)
	ring, err := device.NewProjRing(dev, sys.NU, sys.NP, sys.NV)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	if err := ring.LoadRows(stack, rows); err != nil {
		t.Fatal(err)
	}
	got, _ := volume.New(sys.NX, sys.NY, sys.NZ)
	if err := Streaming(dev, ring, mats, got, rows); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("voxel %d: ring streaming %g != batch %g", i, got.Data[i], want.Data[i])
		}
	}
}
