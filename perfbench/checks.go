package main

import (
	"fmt"
	"math"

	"distfdk/internal/core"
	"distfdk/internal/cpufeat"
	"distfdk/internal/telemetry"
	"distfdk/internal/volume"
)

// wantH2DBytes is the host→device traffic of a plan when every detector
// row a rank needs is uploaded exactly once (Table 5's claim): per group,
// the rows any batch needs, times the detector width and the projections
// the group holds, in float32s.
func wantH2DBytes(p *core.Plan) int64 {
	var total int64
	for g := 0; g < p.NGroups; g++ {
		needed := make([]bool, p.Sys.NV)
		for c := 0; c < p.BatchCount; c++ {
			r := p.SlabRows(g, c)
			for v := r.Lo; v < r.Hi; v++ {
				needed[v] = true
			}
		}
		var rows int64
		for _, n := range needed {
			if n {
				rows++
			}
		}
		total += rows * int64(p.Sys.NU) * int64(p.Sys.NP) * 4
	}
	return total
}

// sameBits reports whether two volumes hold bit-identical voxels.
func sameBits(a, b *volume.Volume) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, x := range a.Data {
		if math.Float32bits(x) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// checkOutcome returns every correctness check one reconstruction fails,
// and its RMSE against the phantom. The first reconstruction of a
// single-rank or channel bench becomes the reference the later ones must
// reproduce bit for bit.
func (b *bench) checkOutcome(o *outcome) (rmse float64, failures []string) {
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	sys := b.sc.Sys
	if want := int64(sys.NX) * int64(sys.NY) * int64(sys.NZ) * int64(sys.NP); o.ledger.VoxelUpdates != want {
		fail("voxel updates %d, want Nx·Ny·Nz·Np = %d", o.ledger.VoxelUpdates, want)
	}
	if want := wantH2DBytes(b.plan); o.ledger.H2DBytes != want {
		fail("device.h2d_bytes %d, want %d (each needed row once)", o.ledger.H2DBytes, want)
	}
	if cpufeat.AVX2() && o.ledger.SIMDFallbacks != 0 {
		fail("backproject.simd_fallbacks = %d on an AVX2 host", o.ledger.SIMDFallbacks)
	}
	if want := len(b.plan.SlabLayout()); len(o.stamps) != want {
		fail("%d slabs reached the sink, want %d", len(o.stamps), want)
	}
	if o.vol == nil {
		fail("no output volume")
		return 0, failures
	}
	st, err := volume.Compare(b.truth, o.vol)
	if err != nil {
		fail("rmse: %v", err)
	} else if rmse = st.RMSE; !(rmse <= b.w.RMSEMax) {
		fail("rmse %.5f exceeds the workload bound %.3f", rmse, b.w.RMSEMax)
	}
	if b.ref == nil {
		b.ref = o.vol
	} else if !sameBits(b.ref, o.vol) {
		if b.w.World == socket {
			fail("socket-world volume differs from the channel world's")
		} else {
			fail("volume differs from the first reconstruction's")
		}
	}
	return rmse, failures
}

// checkTraced returns every check a traced reconstruction fails beyond
// checkOutcome's: the critical path must tile the makespan exactly, no
// frame may fail its CRC, and each layer must be active exactly where
// the workload's driver uses it. Retransmits are not checked here: they
// resend frames the peer has not acked, so they cost time but never
// change what is delivered; expectations reports them.
func (b *bench) checkTraced(o *outcome, cp *telemetry.CriticalPath, m map[string]float64) []string {
	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	if cp == nil {
		fail("traced run recorded no spans")
	} else {
		if got := cp.AttributedTotal(); got != cp.Makespan {
			fail("critical path attributes %v of a %v makespan", got, cp.Makespan)
		}
		var sum int64
		for _, d := range critStageTotals(cp) {
			sum += int64(d)
		}
		if sum != int64(cp.Makespan) {
			fail("per-stage critical-path time %dns does not tile the %dns makespan", sum, int64(cp.Makespan))
		}
	}
	dist := b.w.World != single
	if (m["mpi.reduce_s"] > 0) != dist {
		fail("mpi.reduce_s = %g on a %s world", m["mpi.reduce_s"], b.w.Name)
	}
	if (m["nettrans.frames_sent"] > 0) != (b.w.World == socket) {
		fail("nettrans.frames_sent = %g on %s", m["nettrans.frames_sent"], b.w.Name)
	}
	if m["nettrans.crc_errors"] != 0 {
		fail("%g CRC errors without injected faults", m["nettrans.crc_errors"])
	}
	if dist {
		if _, fs := telemetry.MatchFlows(o.snaps); fs.Sends == 0 || fs.Matched != fs.Recvs {
			fail("flows: %d sends, %d of %d receives matched", fs.Sends, fs.Matched, fs.Recvs)
		}
	}
	return failures
}
