package core

import (
	"testing"

	"distfdk/internal/device"
	"distfdk/internal/projection"
)

// The two drivers upload differently — ReconstructSingle filters the host
// stack in its own stage and copies it into the ring, RunDistributed fills
// the ring slots straight from the filter (fuseUpload) — and must still
// produce the same volume to the last bit: FilterRowInto's rounding
// matches ApplyRow-then-FilterRow exactly, so fusion only moves where the
// filtered row is written, never what is written. On a 1×1 plan the
// distributed reduction is a 1-rank identity, so the whole volume is
// compared, pipelined and serial, at batch counts that give one slab,
// even slabs and an uneven tail.
func TestFusionBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	for _, batches := range []int{1, 4, 7} {
		p, err := NewPlan(sys, 1, 1, batches)
		if err != nil {
			t.Fatal(err)
		}
		fusedSink, err := NewVolumeSink(sys)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: fusedSink}); err != nil {
			t.Fatalf("batches=%d distributed: %v", batches, err)
		}
		want := fusedSink.V.Data
		for _, serial := range []bool{false, true} {
			sink, err := NewVolumeSink(sys)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReconstructSingle(ReconOptions{
				Plan: p, Source: src, Device: device.New("single", 0, 2),
				Sink: sink, DisablePipeline: serial,
			}); err != nil {
				t.Fatalf("batches=%d serial=%v: %v", batches, serial, err)
			}
			for i, v := range sink.V.Data {
				if v != want[i] {
					t.Fatalf("batches=%d serial=%v: voxel %d: unfused %g != fused %g",
						batches, serial, i, v, want[i])
				}
			}
		}
	}
}
