package core

import (
	"sync"

	"distfdk/internal/device"
	"distfdk/internal/filter"
	"distfdk/internal/projection"
)

// fuseUpload admits st's rows to the ring, producing each slot by
// filtering the raw stack row directly into it: Parker redundancy weights
// (nil for a full scan) and the FDK cosine/ramp filter are applied by
// FilterRowInto on the way. This skips the intermediate host-stack write
// and the upload copy of the ApplyRow → FilterRows → LoadRows sequence,
// and is bit-identical to it: FilterRowInto rounds the redundancy product
// to float32 before the cosine weight exactly as ApplyRow-then-FilterRow
// does. The distributed per-rank batch loop, which is sequential anyway,
// uploads through it; the pipelined single-device driver keeps a separate
// filter stage so filtering overlaps back-projection.
//
// The (row, projection) fills run on `workers` goroutines with pooled FFT
// scratch. st must hold *unfiltered* data; its projection window must
// match the ring's.
func fuseUpload(ring *device.ProjRing, st *projection.Stack, fdk *filter.FDK, pk *filter.Parker, workers int) error {
	if st == nil {
		return nil
	}
	pool := sync.Pool{New: func() any { return fdk.NewScratch() }}
	return ring.FillRows(st.Rows(), workers, func(v, p int, dst []float32) error {
		row, err := st.Row(v, p)
		if err != nil {
			return err
		}
		var pw []float32
		if pk != nil {
			if pw, err = pk.RowWeights(st.P0 + p); err != nil {
				return err
			}
		}
		s := pool.Get().(*filter.Scratch)
		defer pool.Put(s)
		return fdk.FilterRowInto(dst, row, v, pw, s)
	})
}
