package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestComputeSpanStats(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "load", Batch: 0, Start: ms(10), End: ms(12)},
		{Name: "load", Batch: 1, Start: ms(13), End: ms(15)},
		// Two overlapping backproject workers: busy time exceeds the window
		// they cover.
		{Name: "bp", Batch: 0, Start: ms(12), End: ms(20)},
		{Name: "bp", Batch: 1, Start: ms(12), End: ms(20)},
	}
	st := ComputeSpanStats(spans)
	if st.First != ms(10) {
		t.Fatalf("First = %v, want 10ms", st.First)
	}
	if st.Total != ms(10) {
		t.Fatalf("Total = %v, want 10ms (wall clock first-start to last-end)", st.Total)
	}
	if st.Busy["load"] != ms(4) || st.Busy["bp"] != ms(16) {
		t.Fatalf("Busy = %v", st.Busy)
	}
	if st.Idle("load") != ms(6) {
		t.Fatalf("Idle(load) = %v, want 6ms", st.Idle("load"))
	}
	// Busy > Total (overlapping spans) clamps idle to zero.
	if st.Idle("bp") != 0 {
		t.Fatalf("Idle(bp) = %v, want 0", st.Idle("bp"))
	}
	if u := st.Utilization("bp"); u != 1.6 {
		t.Fatalf("Utilization(bp) = %v, want 1.6", u)
	}
	empty := ComputeSpanStats(nil)
	if empty.Total != 0 || empty.Busy == nil {
		t.Fatalf("empty stats = %+v", empty)
	}
	if empty.Utilization("x") != 0 {
		t.Fatal("empty window must have zero utilization")
	}
}

func TestRenderGantt(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "load", Batch: 0, Start: ms(0), End: ms(5)},
		{Name: "store", Batch: 0, Start: ms(5), End: ms(10)},
	}
	out := RenderGantt(spans, []string{"load", "store"}, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "load") || !strings.Contains(lines[2], "store") {
		t.Fatalf("rows out of order:\n%s", out)
	}
	if !strings.Contains(lines[1], "50% busy") {
		t.Fatalf("load row should be 50%% busy:\n%s", out)
	}
	if RenderGantt(nil, []string{"load"}, 20) != "(no spans)\n" {
		t.Fatal("empty span set must render the placeholder")
	}
}

// A span set whose wall-clock window is zero (instantaneous spans only)
// must render finite rows — the historical failure mode was a division by
// the zero total producing NaN utilization.
func TestRenderGanttZeroTotal(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "load", Batch: 3, Start: ms(5), End: ms(5)},
		{Name: "store", Batch: 4, Start: ms(5), End: ms(5)},
	}
	st := ComputeSpanStats(spans)
	if st.Total != 0 {
		t.Fatalf("Total = %v, want 0", st.Total)
	}
	if u := st.Utilization("load"); u != 0 {
		t.Fatalf("Utilization = %v, want 0 (not NaN/Inf)", u)
	}
	out := RenderGantt(spans, []string{"load", "store"}, 20)
	if strings.Contains(out, "NaN") || strings.Contains(out, "%!") {
		t.Fatalf("zero-total render corrupt:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
	// Each instantaneous span collapses to the first column of its row.
	if !strings.Contains(lines[1], "|3") || !strings.Contains(lines[2], "|4") {
		t.Fatalf("spans missing from zero-total rows:\n%s", out)
	}
	if !strings.Contains(lines[1], "0% busy") {
		t.Fatalf("zero-total utilization should render as 0%%:\n%s", out)
	}
}
