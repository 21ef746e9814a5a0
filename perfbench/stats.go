package main

import (
	"sort"
	"time"

	"distfdk/internal/scenario"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics, without dropping outliers: the
// slab-gap percentiles exist to show stragglers. Zero for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// slabGaps returns the intervals between consecutive slab stores, in
// milliseconds. The first slab's latency is first_slab_s, not a gap.
func slabGaps(stamps []time.Duration) []float64 {
	var gaps []float64
	for i := 1; i < len(stamps); i++ {
		gaps = append(gaps, float64(stamps[i]-stamps[i-1])/float64(time.Millisecond))
	}
	return gaps
}

// gups is voxel×projection updates per second of wall time, in billions.
func gups(updates int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(updates) / wall.Seconds() / 1e9
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overheadFrac is the tracing cost: the traced median wall time over the
// untraced one, minus one.
func overheadFrac(traced, untraced []float64) float64 {
	u := scenario.RobustMedian(untraced)
	if u == 0 {
		return 0
	}
	return scenario.RobustMedian(traced)/u - 1
}
