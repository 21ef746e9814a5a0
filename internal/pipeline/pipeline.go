// Package pipeline implements the end-to-end processing pipeline of
// Figure 9: a chain of stages (load → filter → back-projection → MPI →
// store in the paper) connected by bounded FIFO queues, so every batch
// flows through all stages while different batches occupy different
// stages concurrently. Each stage is one goroutine handling its batches in
// order; parallelism within a stage (the device's kernel workers, the
// filter's row workers) belongs to the stage function. Stage spans land in
// the pipeline's telemetry registry, from which telemetry.RenderGantt draws
// the Figure 10-style timeline that demonstrates the overlap.
package pipeline

import (
	"errors"
	"fmt"
	"sync"

	"distfdk/internal/telemetry"
)

// StageFunc processes one batch. It receives the batch index and the
// payload produced by the previous stage (nil for the first stage) and
// returns the payload for the next stage.
type StageFunc func(batch int, in any) (any, error)

// Stage is one named step of the pipeline.
type Stage struct {
	Name string
	Fn   StageFunc
}

// Pipeline executes its stages over a sequence of batches.
type Pipeline struct {
	stages []Stage
	// QueueDepth bounds each inter-stage FIFO (Figure 9's queues). New
	// initialises it to DefaultQueueDepth, enough to decouple neighbours
	// without unbounded buffering of multi-gigabyte payloads; callers may
	// raise it before Run. Run rejects non-positive values instead of
	// silently substituting a default.
	QueueDepth int
	// Telemetry, when non-nil, records one span per (stage, batch), named
	// after the stage and tagged with the batch index. Nil records nothing.
	Telemetry *telemetry.Registry
}

// DefaultQueueDepth is the inter-stage FIFO bound New installs.
const DefaultQueueDepth = 2

// New builds a pipeline from the given stages and validates that every
// stage has a function. QueueDepth is set to DefaultQueueDepth here — Run
// does not default it, so a caller that overrides the field owns the value
// it set.
func New(stages ...Stage) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, errors.New("pipeline: no stages")
	}
	for i, s := range stages {
		if s.Fn == nil {
			return nil, fmt.Errorf("pipeline: stage %d (%q) has no function", i, s.Name)
		}
	}
	return &Pipeline{stages: stages, QueueDepth: DefaultQueueDepth}, nil
}

type item struct {
	batch   int
	payload any
}

// Run pushes batches 0..nBatches−1 through every stage and returns the
// first error from each failing stage. After a stage fails it keeps
// draining its input so upstream stages never block, preserving liveness;
// downstream stages see the contiguous prefix of batches that passed it.
func (p *Pipeline) Run(nBatches int) error {
	if nBatches < 0 {
		return fmt.Errorf("pipeline: negative batch count %d", nBatches)
	}
	if p.QueueDepth <= 0 {
		return fmt.Errorf("pipeline: QueueDepth %d must be positive (New sets %d)", p.QueueDepth, DefaultQueueDepth)
	}
	n := len(p.stages)
	queues := make([]chan item, n-1)
	for i := range queues {
		queues[i] = make(chan item, p.QueueDepth)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := range p.stages {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			var in <-chan item
			if si > 0 {
				in = queues[si-1]
			}
			var out chan<- item
			if si < n-1 {
				out = queues[si]
				defer close(queues[si])
			}
			errs[si] = p.runStage(p.stages[si], nBatches, in, out)
		}(si)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runStage executes one stage until its input is exhausted. in is nil for
// the first stage, which generates batches 0..nBatches−1 itself; out is
// nil for the last stage.
func (p *Pipeline) runStage(stage Stage, nBatches int, in <-chan item, out chan<- item) error {
	var stageErr error
	process := func(it item) {
		if stageErr != nil {
			return // draining after failure
		}
		end := p.Telemetry.Span(stage.Name, it.batch)
		payload, err := stage.Fn(it.batch, it.payload)
		end()
		if err != nil {
			stageErr = fmt.Errorf("pipeline: stage %q batch %d: %w", stage.Name, it.batch, err)
			return
		}
		if out != nil {
			out <- item{batch: it.batch, payload: payload}
		}
	}
	if in == nil {
		for b := 0; b < nBatches; b++ {
			process(item{batch: b})
		}
	} else {
		for it := range in {
			process(it)
		}
	}
	return stageErr
}
