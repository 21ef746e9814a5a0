package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"distfdk/internal/telemetry"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("expected no-stages error")
	}
	if _, err := New(Stage{Name: "x"}); err == nil {
		t.Error("expected nil-fn error")
	}
}

func TestDataFlowsThroughStagesInOrder(t *testing.T) {
	var mu sync.Mutex
	got := []string{}
	p, err := New(
		Stage{Name: "a", Fn: func(b int, in any) (any, error) {
			return fmt.Sprintf("b%d", b), nil
		}},
		Stage{Name: "b", Fn: func(b int, in any) (any, error) {
			return in.(string) + "+", nil
		}},
		Stage{Name: "c", Fn: func(b int, in any) (any, error) {
			mu.Lock()
			got = append(got, in.(string))
			mu.Unlock()
			return nil, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(4); err != nil {
		t.Fatal(err)
	}
	want := []string{"b0+", "b1+", "b2+", "b3+"}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order: got %v, want %v", got, want)
		}
	}
}

func TestZeroBatchesAndNegative(t *testing.T) {
	p, _ := New(Stage{Name: "a", Fn: func(int, any) (any, error) { return nil, nil }})
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(-1); err == nil {
		t.Error("expected negative-batches error")
	}
}

func TestErrorPropagationKeepsLiveness(t *testing.T) {
	var downstream int
	var mu sync.Mutex
	p, _ := New(
		Stage{Name: "src", Fn: func(b int, in any) (any, error) { return b, nil }},
		Stage{Name: "mid", Fn: func(b int, in any) (any, error) {
			if b == 1 {
				return nil, errors.New("kaboom")
			}
			return in, nil
		}},
		Stage{Name: "sink", Fn: func(b int, in any) (any, error) {
			mu.Lock()
			downstream++
			mu.Unlock()
			return nil, nil
		}},
	)
	// Many batches after the failure: upstream must not deadlock.
	err := p.Run(50)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("expected kaboom, got %v", err)
	}
	if !strings.Contains(err.Error(), `stage "mid" batch 1`) {
		t.Fatalf("error lacks context: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if downstream != 1 { // only batch 0 made it through
		t.Fatalf("downstream processed %d batches, want 1", downstream)
	}
}

// The whole point of the pipeline: stages overlap, so total wall time is
// far below the serial sum. 5 stages × 6 batches × 10ms serialises to
// 300ms; pipelined it is ~(6+4)×10ms = 100ms. Assert a generous midpoint.
func TestStagesOverlap(t *testing.T) {
	const d = 10 * time.Millisecond
	mk := func(name string) Stage {
		return Stage{Name: name, Fn: func(int, any) (any, error) {
			time.Sleep(d)
			return nil, nil
		}}
	}
	reg := telemetry.NewRegistry()
	p, _ := New(mk("load"), mk("filter"), mk("bp"), mk("mpi"), mk("store"))
	p.Telemetry = reg
	start := time.Now()
	if err := p.Run(6); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if serial := 30 * d; elapsed > serial*3/4 {
		t.Fatalf("pipeline took %v, want well under serial %v", elapsed, serial)
	}
	spans := reg.Spans()
	if got := len(spans); got != 30 {
		t.Fatalf("traced %d spans, want 30", got)
	}
	busy := telemetry.ComputeSpanStats(spans).Busy
	for _, stage := range []string{"load", "filter", "bp", "mpi", "store"} {
		if busy[stage] < 6*d*8/10 {
			t.Fatalf("stage %s busy %v, want ≈ %v", stage, busy[stage], 6*d)
		}
	}
}

func TestQueueDepthBoundsBuffering(t *testing.T) {
	// With depth 1, a slow consumer throttles the producer: at no time
	// can the producer be more than (depth + in-flight) batches ahead.
	var mu sync.Mutex
	produced, consumed := 0, 0
	maxLead := 0
	p, _ := New(
		Stage{Name: "fast", Fn: func(int, any) (any, error) {
			mu.Lock()
			produced++
			lead := produced - consumed
			if lead > maxLead {
				maxLead = lead
			}
			mu.Unlock()
			return nil, nil
		}},
		Stage{Name: "slow", Fn: func(int, any) (any, error) {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			consumed++
			mu.Unlock()
			return nil, nil
		}},
	)
	p.QueueDepth = 1
	if err := p.Run(20); err != nil {
		t.Fatal(err)
	}
	if maxLead > 4 {
		t.Fatalf("producer ran %d batches ahead despite depth 1", maxLead)
	}
}

func TestRunRejectsInvalidQueueDepth(t *testing.T) {
	p, _ := New(Stage{Name: "a", Fn: func(int, any) (any, error) { return nil, nil }})
	p.QueueDepth = 0
	if err := p.Run(3); err == nil || !strings.Contains(err.Error(), "QueueDepth") {
		t.Fatalf("expected QueueDepth validation error, got %v", err)
	}
	p.QueueDepth = -1
	if err := p.Run(3); err == nil {
		t.Fatal("expected QueueDepth validation error")
	}
}
