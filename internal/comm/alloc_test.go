package comm

import (
	"testing"

	"nicbarrier/internal/sim"
)

// The communicator's own per-op dispatch — the pacer gate consulted once
// per issued operation, plus the deferred-post path that schedules a
// session member as a pooled sim.Event — must not allocate in steady
// state: a saturating 32-tenant workload consults it once per operation
// per rank. (The Myrinet collective path underneath is gated by its own
// steady-state allocation tests in internal/myrinet; this gate is the
// only thing internal/comm adds per op.)
func TestPacerDispatchZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	open := &pacer{eng: eng, arrivals: make([]sim.Time, 1024)}
	closed := &pacer{eng: eng, think: make([]sim.Duration, 1024)}
	bare := &pacer{eng: eng}
	for i := range open.arrivals {
		open.arrivals[i] = sim.Time(i * 100)
		closed.think[i] = sim.Duration(i)
	}
	var sink sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 64; k++ {
			sink = open.nextAt(0, k)
			sink = closed.nextAt(1, k)
			sink = bare.nextAt(2, k)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("pacer dispatch allocates %.1f objects per round, want 0", allocs)
	}
}

// BenchmarkPacerNextAt is the bench-smoke form of the invariant: the CI
// job gates it at exactly 0 allocs/op alongside the engine and netsim
// hot-path benchmarks.
func BenchmarkPacerNextAt(b *testing.B) {
	eng := sim.NewEngine()
	p := &pacer{eng: eng, arrivals: make([]sim.Time, 256)}
	q := &pacer{eng: eng, think: make([]sim.Duration, 256)}
	b.ReportAllocs()
	var sink sim.Time
	for i := 0; i < b.N; i++ {
		k := i & 255
		sink = p.nextAt(0, k)
		sink = q.nextAt(1, k)
	}
	_ = sink
}

// TestDeferredPostDrivesEveryOp exercises the deferred-post path end to
// end: with a think time on every op, each chained post goes through
// NextAt -> ScheduleEvent(deferral record) instead of a direct start, and the
// stream must still complete in order. (The allocation-free property of
// the mechanism is gated piecewise: the pacer gate above, and
// ScheduleEvent's pooled value-event path in internal/sim's alloc
// tests.)
func TestDeferredPostDrivesEveryOp(t *testing.T) {
	c := xpComm(8)
	g := barrierGroup(t, c, 0, 1, 2, 3)
	// Uniform 1us think per op defers every chained post.
	think := make([]sim.Duration, 4000)
	for i := range think {
		think[i] = sim.Micros(1)
	}
	g.pace = pacer{eng: c.Eng, think: think}
	g.applyPace()
	g.Launch(len(think))
	c.DriveAll()
	if !g.Done() {
		t.Fatal("deferred workload incomplete")
	}
	done := g.DoneAt()
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatalf("op %d completion %v not after %v", i, done[i], done[i-1])
		}
	}
}
