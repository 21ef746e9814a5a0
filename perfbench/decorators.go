package main

import (
	"sync"
	"sync/atomic"
	"time"

	"distfdk/internal/core"
	"distfdk/internal/geometry"
	"distfdk/internal/mpi"
	"distfdk/internal/projection"
	"distfdk/internal/volume"
)

// The decorators below wrap the seams the reconstruction drivers take as
// arguments, so the benchmark can time a layer from outside the program:
// nothing inside the program is instrumented for the benchmark's sake.

// launchFunc is the shape of core.ClusterOptions.Launch.
type launchFunc = func(n int, opt mpi.Options, fn func(c *mpi.Comm) error) error

// timedSource times every LoadRows call of a projection source and
// counts what it returned.
type timedSource struct {
	projection.Source
	ns    atomic.Int64
	bytes atomic.Int64
	// rows counts detector rows of one projection each (NV·NP per load):
	// the units the FDK filter processes, each exactly once.
	rows atomic.Int64
}

func (s *timedSource) LoadRows(rows geometry.RowRange, pLo, pHi int) (*projection.Stack, error) {
	t0 := time.Now()
	st, err := s.Source.LoadRows(rows, pLo, pHi)
	s.ns.Add(int64(time.Since(t0)))
	if err == nil {
		s.bytes.Add(st.Bytes())
		s.rows.Add(int64(st.NV) * int64(st.NP))
	}
	return st, err
}

// timedSink times the slab writes and syncs of a SlabSink and stamps the
// moment each slab has been stored, measured from start. It is the only
// decorator the untraced runs use: the stamps give the slab cadence a
// user watching the output sees.
type timedSink struct {
	inner core.SlabSink
	start time.Time

	mu      sync.Mutex
	stamps  []time.Duration
	writeNs int64
	bytes   int64
	syncNs  int64
}

func newTimedSink(inner core.SlabSink, start time.Time) *timedSink {
	return &timedSink{inner: inner, start: start}
}

// WriteSlab implements core.SlabSink.
func (s *timedSink) WriteSlab(slab *volume.Volume) error {
	t0 := time.Now()
	err := s.inner.WriteSlab(slab)
	done := time.Now()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.stamps = append(s.stamps, done.Sub(s.start))
	s.writeNs += int64(done.Sub(t0))
	s.bytes += slab.Bytes()
	s.mu.Unlock()
	return nil
}

// Sync forwards the drivers' data-before-journal flush when the wrapped
// sink supports it, so wrapping keeps the durability contract.
func (s *timedSink) Sync() error {
	sy, ok := s.inner.(interface{ Sync() error })
	if !ok {
		return nil
	}
	t0 := time.Now()
	err := sy.Sync()
	s.mu.Lock()
	s.syncNs += int64(time.Since(t0))
	s.mu.Unlock()
	return err
}

// Stamps returns the store times of the slabs in arrival order.
func (s *timedSink) Stamps() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.stamps...)
}

// Totals returns the time spent writing and syncing, and the bytes
// written.
func (s *timedSink) Totals() (writeNs, syncNs, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeNs, s.syncNs, s.bytes
}

// timedLog times the durable appends of a checkpoint log.
type timedLog struct {
	core.CheckpointLog
	ns atomic.Int64
}

func (l *timedLog) Record(z0, batch int) error {
	t0 := time.Now()
	err := l.CheckpointLog.Record(z0, batch)
	l.ns.Add(int64(time.Since(t0)))
	return err
}

// launchTap accumulates what timeLaunch observes: total launcher time and
// the longest rank body of each launch. Their difference is the time the
// world spends forming and tearing down around the ranks' work.
type launchTap struct {
	mu      sync.Mutex
	totalNs int64
	bodyNs  int64
}

// OverheadNs is launcher time not covered by the slowest rank body.
func (t *launchTap) OverheadNs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totalNs - t.bodyNs
}

// timeLaunch wraps a world launcher (nil means the in-process channel
// world) so every launch reports into tap.
func timeLaunch(inner launchFunc, tap *launchTap) launchFunc {
	if inner == nil {
		inner = mpi.RunWith
	}
	return func(n int, opt mpi.Options, fn func(c *mpi.Comm) error) error {
		var mu sync.Mutex
		var longest time.Duration
		t0 := time.Now()
		err := inner(n, opt, func(c *mpi.Comm) error {
			r0 := time.Now()
			ferr := fn(c)
			d := time.Since(r0)
			mu.Lock()
			longest = max(longest, d)
			mu.Unlock()
			return ferr
		})
		total := time.Since(t0)
		mu.Lock()
		body := longest
		mu.Unlock()
		tap.mu.Lock()
		tap.totalNs += int64(total)
		tap.bodyNs += int64(body)
		tap.mu.Unlock()
		return err
	}
}
