package nettrans

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"distfdk/internal/fault"
	"distfdk/internal/mpi"
	"distfdk/internal/telemetry"
)

func testConfig() Config {
	return Config{
		Network:    "tcp",
		Heartbeat:  20 * time.Millisecond,
		DeathAfter: 1500 * time.Millisecond,
	}
}

func newTestFleet(t *testing.T, procs int, cfg Config) *Fleet {
	t.Helper()
	fl, err := NewFleet(procs, cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(fl.Close)
	return fl
}

func rankBuf(rank, n int) []float32 {
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(math.Sin(float64(rank*1000+i))) * float32(i%7+1)
	}
	return buf
}

// TestFleetAllreduceMatchesChannels runs the same collective workload on
// the in-process channel world and on a 3-proc TCP fleet and requires
// bit-identical per-rank results: the transport must not perturb the
// reduction's summation order.
func TestFleetAllreduceMatchesChannels(t *testing.T) {
	const size, elems = 4, 257
	workload := func(sink *sync.Map) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			buf := rankBuf(c.Rank(), elems)
			if err := c.Allreduce(buf); err != nil {
				return err
			}
			// A point-to-point ring pass on top, to cover Send/Recv framing.
			next, prev := (c.Rank()+1)%size, (c.Rank()+size-1)%size
			if err := c.Send(next, 7, append([]float32(nil), buf[:8]...)); err != nil {
				return err
			}
			got, err := c.RecvFloat32(prev, 7)
			if err != nil {
				return err
			}
			sink.Store(c.Rank(), append(append([]float32(nil), buf...), got...))
			return nil
		}
	}

	var wantSink sync.Map
	if err := mpi.Run(size, workload(&wantSink)); err != nil {
		t.Fatalf("channel world: %v", err)
	}

	fl := newTestFleet(t, 3, testConfig())
	assign, err := AssignRanks(size, 2, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("AssignRanks: %v", err)
	}
	var gotSink sync.Map
	for p, err := range fl.Run(size, assign, mpi.Options{}, workload(&gotSink)) {
		if err != nil {
			t.Fatalf("fleet proc %d: %v", p, err)
		}
	}
	for r := 0; r < size; r++ {
		w, _ := wantSink.Load(r)
		g, ok := gotSink.Load(r)
		if !ok {
			t.Fatalf("rank %d produced no result over TCP", r)
		}
		want, got := w.([]float32), g.([]float32)
		if len(want) != len(got) {
			t.Fatalf("rank %d: length %d vs %d", r, len(got), len(want))
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("rank %d elem %d: %x over TCP vs %x over channels",
					r, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestFleetSplitOverWire exercises the communicator-split protocol across
// processes (sub-communicators negotiated via the hub).
func TestFleetSplitOverWire(t *testing.T) {
	const size = 4
	fl := newTestFleet(t, 3, testConfig())
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)
	var sums sync.Map
	errs := fl.Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
		sub, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		buf := []float32{float32(c.Rank() + 1)}
		if err := sub.Allreduce(buf); err != nil {
			return err
		}
		sums.Store(c.Rank(), buf[0])
		return nil
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	want := map[int]float32{0: 3, 1: 3, 2: 7, 3: 7} // 1+2 and 3+4
	for r, w := range want {
		g, ok := sums.Load(r)
		if !ok || g.(float32) != w {
			t.Fatalf("rank %d group sum = %v, want %v", r, g, w)
		}
	}
}

// TestFleetWireChaosRecovers injects every wire fault class — sever,
// drop, corrupt, duplicate — under one seeded schedule and requires the
// run to complete with correct results, recovered entirely by the link's
// CRC/sequence/replay machinery, with the transport counters proving each
// path actually fired.
func TestFleetWireChaosRecovers(t *testing.T) {
	const size, rounds = 4, 30
	reg := telemetry.NewRegistry()
	inj := fault.NewInjector(42,
		fault.Rule{Op: fault.OpSever, Rank: 1, Nth: 2},
		fault.Rule{Op: fault.OpFrameDrop, Rank: 2, Nth: 3},
		fault.Rule{Op: fault.OpFrameCorrupt, Rank: 3, Nth: 2},
		fault.Rule{Op: fault.OpFrameDup, Rank: 1, Nth: 5, Count: 2},
	)
	cfg := testConfig()
	cfg.Telemetry = reg
	cfg.Injector = inj
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)

	var mu sync.Mutex
	sums := map[int][]float32{}
	errs := fl.Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
		total := make([]float32, 64)
		for round := 0; round < rounds; round++ {
			buf := rankBuf(c.Rank()*31+round, len(total))
			if err := c.Allreduce(buf); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			for i := range total {
				total[i] += buf[i]
			}
		}
		mu.Lock()
		sums[c.Rank()] = total
		mu.Unlock()
		return nil
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d under wire chaos: %v", p, err)
		}
	}
	// All ranks agree on the reduced totals.
	for r := 1; r < size; r++ {
		if !reflect.DeepEqual(sums[r], sums[0]) {
			t.Fatalf("rank %d diverged from rank 0 under chaos", r)
		}
	}
	if inj.Fired() < 4 {
		t.Fatalf("injector fired %d times, want >= 4", inj.Fired())
	}
	snap := reg.Snapshot().Counters
	for _, want := range []string{"transport.reconnects", "transport.crc_errors",
		"transport.dup_frames", "transport.retransmits"} {
		if snap[want] < 1 {
			t.Fatalf("%s = %d, want >= 1 (snapshot: %v)", want, snap[want], snap)
		}
	}
}

// TestFleetCleanWireNoRetransmits runs a fault-free exchange of
// reduce-sized messages with a heartbeat far shorter than one frame's
// write. A heartbeat may advertise only frames already on the wire, so it
// never overtakes a queued frame and makes the peer see a gap that does
// not exist: no connection may cycle, and nothing may be resent.
func TestFleetCleanWireNoRetransmits(t *testing.T) {
	const size, elems, rounds = 4, 1 << 18, 8
	reg := telemetry.NewRegistry()
	cfg := testConfig()
	cfg.Heartbeat = time.Millisecond
	cfg.Telemetry = reg
	fl := newTestFleet(t, 2, cfg)
	assign, err := AssignRanks(size, 2, []int{0, 1}, 2)
	if err != nil {
		t.Fatalf("AssignRanks: %v", err)
	}
	errs := fl.Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
		for round := 0; round < rounds; round++ {
			if err := c.Allreduce(rankBuf(c.Rank()+round, elems)); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		return nil
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	snap := reg.Snapshot().Counters
	if snap["transport.frames_sent"] == 0 {
		t.Fatal("no frames crossed the wire")
	}
	for _, name := range []string{"transport.retransmits", "transport.reconnects", "transport.crc_errors"} {
		if snap[name] != 0 {
			t.Errorf("%s = %d on a fault-free wire, want 0 (snapshot: %v)", name, snap[name], snap)
		}
	}
}

// TestFleetHeartbeatHealsDroppedTail drops the last data frame a worker
// rank sends, with no later frame on that link to expose the gap: only the
// heartbeat's send cursor, which counts the dropped frame as finished,
// can trigger the reconnect-replay that delivers it.
func TestFleetHeartbeatHealsDroppedTail(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := fault.NewInjector(7, fault.Rule{Op: fault.OpFrameDrop, Rank: 1, Nth: 1})
	cfg := testConfig()
	cfg.Telemetry = reg
	cfg.Injector = inj
	fl := newTestFleet(t, 2, cfg)
	assign := [][]int{{0}, {1}}
	errs := fl.Run(2, assign, mpi.Options{Deadline: 5 * time.Second}, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			// The dropped frame; then wait for rank 0's reply, so the
			// worker sends nothing else until it is delivered.
			if err := c.Send(0, 3, []float32{42}); err != nil {
				return err
			}
			_, err := c.RecvFloat32(0, 4)
			return err
		}
		got, err := c.RecvFloat32(1, 3)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != 42 {
			return fmt.Errorf("rank 0 received %v, want [42]", got)
		}
		return c.Send(1, 4, []float32{1})
	})
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.Fired())
	}
	snap := reg.Snapshot().Counters
	if snap["transport.reconnects"] < 1 || snap["transport.retransmits"] < 1 {
		t.Fatalf("dropped tail not healed by reconnect-replay (snapshot: %v)", snap)
	}
}

// TestFleetPartitionAttributesRanks partitions one worker mid-run: the
// survivors must unblock with the dead proc's ranks attributed via
// ErrRankLost — the exact contract core.Supervise shrinks on — and agree
// on the loss set (hub and worker alike).
func TestFleetPartitionAttributesRanks(t *testing.T) {
	const size = 4
	cfg := testConfig()
	cfg.DeathAfter = 400 * time.Millisecond
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)

	var once sync.Once
	partition := func() {
		// Model a network partition of proc 2: its side of the link dies
		// (it sees the hub gone), and its silence drives the hub's failure
		// detector.
		fl.Nodes[2].links[0].declareDead()
	}
	errs := fl.Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
		for round := 0; ; round++ {
			buf := []float32{float32(c.Rank())}
			if err := c.Allreduce(buf); err != nil {
				return err
			}
			if round == 2 {
				once.Do(partition)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	wantLost := assign[2]
	for _, p := range []int{0, 1} {
		err := errs[p]
		if err == nil {
			t.Fatalf("proc %d: run succeeded despite partition", p)
		}
		if !errors.Is(err, mpi.ErrRankLost) {
			t.Fatalf("proc %d: error not ErrRankLost: %v", p, err)
		}
		if got := mpi.LostRanks(err); !reflect.DeepEqual(got, wantLost) {
			t.Fatalf("proc %d: LostRanks = %v, want %v (err: %v)", p, got, wantLost, err)
		}
	}
	// The partitioned proc unblocks too (hub unreachable from its side).
	if errs[2] == nil || !errors.Is(errs[2], mpi.ErrRankLost) {
		t.Fatalf("partitioned proc: %v", errs[2])
	}
	// And the survivors' nodes agree proc 2 is gone for the next epoch.
	for _, p := range []int{0, 1} {
		if got := fl.Nodes[p].LiveProcs(); !reflect.DeepEqual(got, []int{0, 1}) {
			t.Fatalf("proc %d LiveProcs = %v, want [0 1]", p, got)
		}
	}
}

// TestFleetFormationTimeoutFailsEpoch starts an epoch on only 2 of 3
// procs: the hub must declare the no-show dead, fail the epoch with its
// ranks, and hand the joined worker the same verdict.
func TestFleetFormationTimeoutFailsEpoch(t *testing.T) {
	const size = 4
	cfg := testConfig()
	cfg.DeathAfter = 200 * time.Millisecond
	fl := newTestFleet(t, 3, cfg)
	assign, _ := AssignRanks(size, 2, []int{0, 1, 2}, 3)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for _, p := range []int{0, 1} { // proc 2 never calls Run
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = fl.Nodes[p].Run(size, assign, mpi.Options{}, func(c *mpi.Comm) error {
				t.Errorf("rank %d ran despite failed formation", c.Rank())
				return nil
			})
		}(p)
	}
	wg.Wait()
	wantLost := assign[2]
	for p, err := range errs {
		if err == nil {
			t.Fatalf("proc %d: formation succeeded without proc 2", p)
		}
		if got := mpi.LostRanks(err); !reflect.DeepEqual(got, wantLost) {
			t.Fatalf("proc %d: LostRanks = %v, want %v (err: %v)", p, got, wantLost, err)
		}
	}
}

func TestAssignRanks(t *testing.T) {
	got, err := AssignRanks(8, 2, []int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2, 4, 6}, {1, 7}, {3}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AssignRanks(8,2,[0..3]) = %v, want %v", got, want)
	}
	// After losing proc 2, its share redistributes over the survivors.
	got, err = AssignRanks(4, 2, []int{0, 1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want = [][]int{{0, 2}, {1}, nil, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AssignRanks(4,2,[0,1,3]) = %v, want %v", got, want)
	}
	// Leaders always land on the hub, whatever the shrink.
	if _, err := AssignRanks(4, 2, []int{1, 2}, 3); err == nil {
		t.Fatal("AssignRanks accepted a world without the hub")
	}
	if _, err := AssignRanks(5, 2, []int{0}, 1); err == nil {
		t.Fatal("AssignRanks accepted n % nr != 0")
	}
}
