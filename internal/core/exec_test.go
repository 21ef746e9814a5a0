package core

import (
	"testing"

	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// RunDistributed's reduction must assemble bit-identical volumes whether
// the collectives draw their buffers from the pool or allocate per step:
// pooling is pure plumbing. (Chunk-size invariance of the reduction itself
// is pinned in internal/mpi by TestReductionPathsBitIdentical.)
func TestDistributedReduceVariantsBitIdentical(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	run := func(pooled bool) *volume.Volume {
		prevPool := mpi.SetBufferPooling(pooled)
		defer mpi.SetBufferPooling(prevPool)
		p, _ := NewPlan(sys, 2, 2, 4)
		sink, _ := NewVolumeSink(sys)
		if _, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink}); err != nil {
			t.Fatalf("pooled=%v: %v", pooled, err)
		}
		return sink.V
	}

	want, got := run(false), run(true)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("voxel %d: pooled %g != unpooled %g", i, got.Data[i], want.Data[i])
		}
	}
}

// The chunked default must preserve the headline communication bound:
// total reduce traffic is still (Nr−1)·Vol bytes, just in more messages.
func TestDistributedChunkedReduceTraffic(t *testing.T) {
	sys := testSystem()
	st := sheppStack(t, sys)
	src := &projection.MemorySource{Full: st}

	p, _ := NewPlan(sys, 1, 4, 4)
	sink, _ := NewVolumeSink(sys)
	rep, err := RunDistributed(ClusterOptions{Plan: p, Source: src, Output: sink})
	if err != nil {
		t.Fatal(err)
	}
	volBytes := 4 * int64(sys.NX) * int64(sys.NY) * int64(sys.NZ)
	if got := rep.TotalReduceBytes(); got != 3*volBytes {
		t.Fatalf("reduce bytes %d, want %d", got, 3*volBytes)
	}
	var chunks int64
	for _, s := range rep.GroupStats {
		chunks += s.ReduceChunks
	}
	if chunks == 0 {
		t.Fatal("default reduction forwarded no chunk segments; chunking is not wired in")
	}
}
