package main

import (
	"strings"
	"time"

	"distfdk/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"gups", "GUPS"},
	{"slab_p50_ms", "ms"},
	{"slab_p90_ms", "ms"},
	{"setup_s", "s"},
	{"alloc_mb", "MiB"},
	{"rmse", "density"},
}

// critStages are the pipeline stages whose critical-path time is
// reported; "idle" and "msg" steps make up the rest of the makespan.
var critStages = []string{"load", "filter", "upload", "backproject", "reduce", "store"}

// perLayer lists the metrics a traced run reports, by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"storage.load_s", "s"},
		{"storage.load_bytes", "bytes"},
		{"storage.load_mbps", "MB/s"},
		{"storage.store_s", "s"},
		{"storage.store_mbps", "MB/s"},
		{"storage.sync_s", "s"},
		{"filter.busy_s", "s"},
		{"filter.rows", "count"},
		{"filter.rows_per_s", "1/s"},
		{"device.h2d_bytes", "bytes"},
		{"device.h2d_ops", "count"},
		{"device.ring_evicted_rows", "count"},
		{"device.upload_s", "s"},
		{"backproject.busy_s", "s"},
		{"backproject.voxel_updates", "count"},
		{"backproject.gups", "GUPS"},
		{"backproject.interior_frac", "ratio"},
		{"backproject.border_frac", "ratio"},
		{"backproject.skipped_frac", "ratio"},
		{"backproject.simd_tail_frac", "ratio"},
		{"backproject.simd_fallbacks", "count"},
		{"pipeline.first_slab_s", "s"},
		{"pipeline.credit_wait_s", "s"},
		{"pipeline.stage_overlap", "ratio"},
		{"mpi.reduce_s", "s"},
		{"mpi.reduce_bytes", "bytes"},
		{"mpi.reduce_gbps", "GB/s"},
		{"mpi.messages", "count"},
		{"mpi.reduce_chunks", "count"},
		{"mpi.launch_overhead_s", "s"},
		{"nettrans.frames_sent", "count"},
		{"nettrans.retransmits", "count"},
		{"nettrans.reconnects", "count"},
		{"nettrans.crc_errors", "count"},
		{"critpath.makespan_s", "s"},
		{"critpath.compute_frac", "ratio"},
		{"critpath.comm_frac", "ratio"},
		{"critpath.wait_frac", "ratio"},
		{"critpath.backoff_frac", "ratio"},
	}
	for _, st := range critStages {
		defs = append(defs, metricDef{"critpath." + st + "_s", "s"})
	}
	return append(defs, metricDef{"telemetry.overhead_frac", "ratio"})
}()

// spanSeconds sums the durations of every rank span with the given name.
func spanSeconds(snaps []telemetry.Snapshot, name string) float64 {
	var ns float64
	for _, d := range telemetry.SpanDurations(snaps, name) {
		ns += d
	}
	return ns / 1e9
}

// counterSuffixTotal sums, across snapshots, every counter whose name has
// the given prefix and suffix.
func counterSuffixTotal(snaps []telemetry.Snapshot, prefix, suffix string) int64 {
	var total int64
	for _, s := range snaps {
		for name, v := range s.Counters {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				total += v
			}
		}
	}
	return total
}

// layerMetrics derives the per-layer metrics of one traced reconstruction
// from its decorators and the program's own telemetry. cp is the run's
// critical path. telemetry.overhead_frac needs untraced runs too and is
// filled in by the caller.
func layerMetrics(o *outcome, cp *telemetry.CriticalPath) map[string]float64 {
	m := map[string]float64{}
	snaps, tp, l := o.snaps, o.taps, o.ledger
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	count := func(name string) float64 { return float64(telemetry.CounterTotal(snaps, name)) }

	m["storage.load_s"] = secs(tp.src.ns.Load())
	m["storage.load_bytes"] = float64(tp.src.bytes.Load())
	m["storage.load_mbps"] = ratio(m["storage.load_bytes"]/1e6, m["storage.load_s"])
	writeNs, syncNs, stored := o.sink.Totals()
	m["storage.store_s"] = secs(writeNs)
	m["storage.store_mbps"] = ratio(float64(stored)/1e6, m["storage.store_s"])
	syncNs += o.closeNs
	if tp.log != nil {
		syncNs += tp.log.ns.Load()
	}
	m["storage.sync_s"] = secs(syncNs)

	m["filter.busy_s"] = spanSeconds(snaps, "filter")
	m["filter.rows"] = float64(tp.src.rows.Load())
	m["filter.rows_per_s"] = ratio(m["filter.rows"], m["filter.busy_s"])

	m["device.h2d_bytes"] = float64(l.H2DBytes)
	m["device.h2d_ops"] = float64(l.H2DOps)
	m["device.ring_evicted_rows"] = count("device.ring.evicted_rows")
	m["device.upload_s"] = count("device.ring.load_ns") / 1e9

	updates := float64(l.VoxelUpdates)
	m["backproject.busy_s"] = spanSeconds(snaps, "backproject")
	m["backproject.voxel_updates"] = updates
	m["backproject.gups"] = ratio(updates/1e9, m["backproject.busy_s"])
	m["backproject.interior_frac"] = ratio(float64(l.InteriorSamples), updates)
	m["backproject.border_frac"] = ratio(float64(l.BorderSamples), updates)
	m["backproject.skipped_frac"] = ratio(float64(l.SkippedSamples), updates)
	m["backproject.simd_tail_frac"] = ratio(float64(l.SIMDTailSamples),
		float64(8*l.SIMDFullGroups+l.SIMDTailSamples))
	m["backproject.simd_fallbacks"] = float64(l.SIMDFallbacks)

	if len(o.stamps) > 0 {
		m["pipeline.first_slab_s"] = o.stamps[0].Seconds()
	}
	m["pipeline.credit_wait_s"] = secs(counterSuffixTotal(snaps, "pipeline.", ".credit_wait_ns"))
	var busy float64
	for _, st := range critStages {
		busy += spanSeconds(snaps, st)
	}

	var reduceBytes, messages, chunks int64
	for _, s := range o.group {
		reduceBytes += s.BytesSent
		messages += s.MessagesSent
		chunks += s.ReduceChunks
	}
	m["mpi.reduce_s"] = spanSeconds(snaps, "reduce")
	m["mpi.reduce_bytes"] = float64(reduceBytes)
	m["mpi.reduce_gbps"] = ratio(float64(reduceBytes)/1e9, m["mpi.reduce_s"])
	m["mpi.messages"] = float64(messages)
	m["mpi.reduce_chunks"] = float64(chunks)
	m["mpi.launch_overhead_s"] = secs(tp.launch.OverheadNs())

	m["nettrans.frames_sent"] = count("transport.frames_sent")
	m["nettrans.retransmits"] = count("transport.retransmits")
	m["nettrans.reconnects"] = count("transport.reconnects")
	m["nettrans.crc_errors"] = count("transport.crc_errors")

	if cp != nil && cp.Makespan > 0 {
		span := float64(cp.Makespan)
		m["critpath.makespan_s"] = cp.Makespan.Seconds()
		m["pipeline.stage_overlap"] = busy / cp.Makespan.Seconds()
		m["critpath.compute_frac"] = float64(cp.ByClass[telemetry.ClassCompute]) / span
		m["critpath.comm_frac"] = float64(cp.ByClass[telemetry.ClassComm]) / span
		m["critpath.wait_frac"] = float64(cp.ByClass[telemetry.ClassWait]) / span
		m["critpath.backoff_frac"] = float64(cp.ByClass[telemetry.ClassBackoff]) / span
	}
	byStage := critStageTotals(cp)
	for _, st := range critStages {
		m["critpath."+st+"_s"] = byStage[st].Seconds()
	}
	return m
}

// critStageTotals sums a critical path's shares per stage name, across
// ranks and classes ("idle" and "msg" included).
func critStageTotals(cp *telemetry.CriticalPath) map[string]time.Duration {
	out := map[string]time.Duration{}
	if cp == nil {
		return out
	}
	for _, s := range cp.Shares {
		out[s.Stage] += time.Duration(s.Ns)
	}
	return out
}
