package core

import (
	"runtime"
	"testing"
	"testing/quick"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/sim"
)

func mustStart(t *testing.T, o *OpState, seq int) (sends []int, completed bool) {
	t.Helper()
	sends, completed, err := o.Start(seq)
	if err != nil {
		t.Fatal(err)
	}
	return sends, completed
}

func mustArrive(t *testing.T, o *OpState, seq, from int) (sends []int, completed bool) {
	t.Helper()
	sends, completed, err := o.Arrive(seq, from)
	if err != nil {
		t.Fatal(err)
	}
	return sends, completed
}

func TestOpSingletonCompletesAtStart(t *testing.T) {
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 1, barrier.Options{}).Rank(0))
	sends, completed := mustStart(t, o, 0)
	if len(sends) != 0 || !completed {
		t.Fatalf("sends=%v completed=%v", sends, completed)
	}
	if o.Active() {
		t.Fatal("still active")
	}
}

func TestOpDisseminationTwoRanks(t *testing.T) {
	// n=2: each rank sends one message and waits for one.
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 2, barrier.Options{}).Rank(0))
	sends, completed := mustStart(t, o, 0)
	if len(sends) != 1 || sends[0] != 1 || completed {
		t.Fatalf("start: sends=%v completed=%v", sends, completed)
	}
	if got := o.Missing(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("missing = %v", got)
	}
	sends, completed = mustArrive(t, o, 0, 1)
	if len(sends) != 0 || !completed {
		t.Fatalf("arrive: sends=%v completed=%v", sends, completed)
	}
	if o.Missing() != nil {
		t.Fatalf("missing after completion: %v", o.Missing())
	}
}

func TestOpDisseminationCascade(t *testing.T) {
	// n=4 rank 0: step m sends to (0+2^m)%4, waits on (0-2^m)%4:
	// step 0: send 1 wait 3; step 1: send 2 wait 2.
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 4, barrier.Options{}).Rank(0))
	sends, _ := mustStart(t, o, 0)
	if len(sends) != 1 || sends[0] != 1 {
		t.Fatalf("start sends %v", sends)
	}
	// Step-1 wait arrives early: no progress yet.
	sends, completed := mustArrive(t, o, 0, 2)
	if len(sends) != 0 || completed {
		t.Fatalf("early arrival unblocked: %v %v", sends, completed)
	}
	if o.step != 0 {
		t.Fatalf("step = %d", o.step)
	}
	// Step-0 wait arrives: both steps unblock, send to 2 fires, complete.
	sends, completed = mustArrive(t, o, 0, 3)
	if len(sends) != 1 || sends[0] != 2 || !completed {
		t.Fatalf("cascade: sends=%v completed=%v", sends, completed)
	}
}

func TestOpHasSent(t *testing.T) {
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 4, barrier.Options{}).Rank(0))
	if o.HasSent(0, 1) {
		t.Fatal("HasSent before start")
	}
	mustStart(t, o, 0)
	if !o.HasSent(0, 1) {
		t.Fatal("step-0 send not recorded")
	}
	if o.HasSent(0, 2) {
		t.Fatal("step-1 send recorded before step started")
	}
	if o.HasSent(0, 3) {
		t.Fatal("HasSent to a rank never sent to")
	}
	mustArrive(t, o, 0, 3)
	mustArrive(t, o, 0, 2)
	// Completed: everything sent.
	if !o.HasSent(0, 1) || !o.HasSent(0, 2) {
		t.Fatal("HasSent after completion")
	}
	if o.HasSent(1, 1) {
		t.Fatal("HasSent for future op")
	}
}

func TestOpEarlyBufferAcrossOps(t *testing.T) {
	// Rank 0, n=2, consecutive barriers: peer's message for op 1 arrives
	// while op 0 is still active.
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 2, barrier.Options{}).Rank(0))
	mustStart(t, o, 0)
	if sends, completed := mustArrive(t, o, 1, 1); len(sends) != 0 || completed {
		t.Fatalf("future arrival acted on: %v %v", sends, completed)
	}
	if _, completed := mustArrive(t, o, 0, 1); !completed {
		t.Fatal("op 0 did not complete")
	}
	// Op 1 starts with the buffered arrival already in: completes on the
	// spot after issuing its send.
	sends, completed := mustStart(t, o, 1)
	if len(sends) != 1 || !completed {
		t.Fatalf("op 1 with buffered arrival: sends=%v completed=%v", sends, completed)
	}
}

func TestOpDuplicateAndStale(t *testing.T) {
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 2, barrier.Options{}).Rank(0))
	mustStart(t, o, 0)
	mustArrive(t, o, 0, 1)
	// Duplicate of a completed op: stale.
	mustArrive(t, o, 0, 1)
	if o.Stale() != 1 {
		t.Fatalf("stale = %d", o.Stale())
	}
	mustStart(t, o, 1)
	mustArrive(t, o, 1, 1)
	if o.Duplicates() != 0 {
		t.Fatalf("duplicates = %d", o.Duplicates())
	}
	// Op 1 completed; op 2 not started. A retransmit for op 2 buffers,
	// then its duplicate counts.
	mustArrive(t, o, 2, 1)
	mustArrive(t, o, 2, 1)
	if o.Duplicates() != 1 {
		t.Fatalf("duplicates = %d", o.Duplicates())
	}
}

func TestOpErrors(t *testing.T) {
	o := NewOpState(barrier.NewPlan(barrier.Dissemination, 4, barrier.Options{}).Rank(0))
	if _, _, err := o.Start(1); err == nil {
		t.Error("Start(1) before Start(0) accepted")
	}
	mustStart(t, o, 0)
	if _, _, err := o.Start(1); err == nil {
		t.Error("Start while active accepted")
	}
	if _, _, err := o.Arrive(0, 1); err == nil {
		t.Error("arrival from rank never waited on accepted")
	}
	if _, _, err := o.Arrive(2, 3); err == nil {
		t.Error("impossible lookahead accepted")
	}
}

// driveGroup runs a full group of OpStates against each other with a
// deterministic random delivery order, optionally dropping each message
// once (recovered via the NACK path). Returns false on any failure.
func driveGroup(alg barrier.Algorithm, n int, ops int, seed uint64, lossRate float64) bool {
	rng := sim.NewRNG(seed)
	states := make([]*OpState, n)
	for r := 0; r < n; r++ {
		states[r] = NewOpState(barrier.NewPlan(alg, n, barrier.Options{}).Rank(r))
	}
	type msg struct{ seq, from, to int }
	var inflight []msg

	completed := make([]int, n) // next op to complete per rank

	send := func(seq, from int, tos []int) {
		for _, to := range tos {
			inflight = append(inflight, msg{seq, from, to})
		}
	}
	for op := 0; op < ops; op++ {
		for r := 0; r < n; r++ {
			sends, done, err := states[r].Start(op)
			if err != nil {
				return false
			}
			send(op, r, sends)
			if done {
				completed[r]++
			}
		}
		// Deliver until the op completes everywhere. Lost messages are
		// re-sent by consulting HasSent, mimicking the NACK path.
		for {
			allDone := true
			for r := 0; r < n; r++ {
				if completed[r] <= op {
					allDone = false
				}
			}
			if allDone {
				break
			}
			if len(inflight) == 0 {
				// Deadlock: recover every missing message via NACK.
				for r := 0; r < n; r++ {
					for _, from := range states[r].Missing() {
						if states[from].HasSent(states[r].Seq(), r) {
							inflight = append(inflight, msg{states[r].Seq(), from, r})
						}
					}
				}
				if len(inflight) == 0 {
					return false // true deadlock
				}
			}
			i := rng.Intn(len(inflight))
			m := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			if rng.Bool(lossRate) {
				continue // dropped; NACK path will recover
			}
			sends, done, err := states[m.to].Arrive(m.seq, m.from)
			if err != nil {
				return false
			}
			send(states[m.to].Seq(), m.to, sends)
			if done {
				completed[m.to]++
			}
		}
	}
	return true
}

func TestOpGroupExecutionAllAlgorithms(t *testing.T) {
	for _, alg := range []barrier.Algorithm{
		barrier.Dissemination, barrier.PairwiseExchange, barrier.GatherBroadcast,
	} {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 33} {
			if !driveGroup(alg, n, 4, 42, 0) {
				t.Fatalf("%v n=%d failed", alg, n)
			}
		}
	}
}

func TestOpGroupExecutionWithLoss(t *testing.T) {
	for _, alg := range []barrier.Algorithm{
		barrier.Dissemination, barrier.PairwiseExchange, barrier.GatherBroadcast,
	} {
		for _, n := range []int{2, 5, 8, 12} {
			if !driveGroup(alg, n, 3, 7, 0.3) {
				t.Fatalf("%v n=%d with loss failed", alg, n)
			}
		}
	}
}

// Property: random (algorithm, size, seed, loss) always completes.
func TestOpGroupProperty(t *testing.T) {
	f := func(algRaw, nRaw uint8, seed uint64, lossRaw uint8) bool {
		alg := barrier.Algorithm(int(algRaw) % 3)
		n := int(nRaw)%24 + 1
		loss := float64(lossRaw%50) / 100
		return driveGroup(alg, n, 3, seed, loss)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

var installSink any

// Building a state machine costs the same few allocations at any group
// size: a one-member arena (the arena, its state slice, one word array
// for the bit vectors and the result buffer, plus the value and snapshot
// arrays of an allreduce). A session's arena costs the same whatever its
// member count.
func TestInstallAllocsConstant(t *testing.T) {
	// The 32,768-rank arenas trigger collections inside the measured
	// runs. The runtime starts a GC background mark worker per P, each an
	// allocation, in the first cycle that finds one missing; a forced
	// cycle now starts them all, so none is counted against a build.
	runtime.GC()
	for _, c := range []struct {
		name  string
		want  float64
		build func(barrier.Schedule)
	}{
		{"NewOpState", 4, func(s barrier.Schedule) { installSink = NewOpState(s) }},
		{"NewReduceState", 6, func(s barrier.Schedule) { installSink, _ = newReduceState(ReduceSum, s) }},
	} {
		for _, n := range []int{8, 32768} {
			for _, alg := range []barrier.Algorithm{barrier.PairwiseExchange, barrier.Dissemination} {
				sched := barrier.NewPlan(alg, n, barrier.Options{}).Rank(3)
				if got := testing.AllocsPerRun(20, func() { c.build(sched) }); got != c.want {
					t.Errorf("%s over %v at n=%d: %.0f allocations, want %.0f", c.name, alg, n, got, c.want)
				}
			}
		}
	}
	for _, n := range []int{8, 32768} {
		plan := barrier.NewPlan(barrier.PairwiseExchange, n, barrier.Options{})
		if got := testing.AllocsPerRun(5, func() { installSink = NewArena(plan) }); got != 4 {
			t.Errorf("NewArena at n=%d: %.0f allocations, want 4", n, got)
		}
		if got := testing.AllocsPerRun(5, func() { installSink, _ = NewReduceArena(ReduceMax, plan) }); got != 6 {
			t.Errorf("NewReduceArena at n=%d: %.0f allocations, want 6", n, got)
		}
	}
}

// BenchmarkOpStateArrive32k drives one rank of a 32,768-rank
// dissemination group through a whole operation per iteration: Start,
// then one Arrive per step, each resolving its sender's arrival bit in
// closed form and advancing the schedule.
func BenchmarkOpStateArrive32k(b *testing.B) {
	sched := barrier.NewPlan(barrier.Dissemination, 32768, barrier.Options{}).Rank(12345)
	o := NewOpState(sched)
	from := make([]int, sched.TotalWaits())
	for bit := range from {
		from[bit] = sched.Sender(bit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Start(i); err != nil {
			b.Fatal(err)
		}
		done := false
		for _, r := range from {
			var err error
			if _, done, err = o.Arrive(i, r); err != nil {
				b.Fatal(err)
			}
		}
		if !done {
			b.Fatalf("operation %d did not complete", i)
		}
	}
}

// CountNack counts per destination and operation, for the current and
// the previous operation: operation seq+2 starts its destination's count
// afresh. Members of one arena keep their own counts.
func TestCountNack(t *testing.T) {
	plan := barrier.NewPlan(barrier.Dissemination, 4, barrier.Options{})
	a := NewArena(plan)
	o, p := a.Op(0), a.Op(1)
	for i, c := range []struct{ seq, to, want int }{
		{0, 1, 1}, {0, 1, 2}, {0, 2, 1}, {1, 1, 1}, {0, 1, 3}, {2, 1, 1}, {1, 1, 2},
	} {
		if got := o.CountNack(c.seq, c.to); got != c.want {
			t.Fatalf("step %d: CountNack(%d, %d) = %d, want %d", i, c.seq, c.to, got, c.want)
		}
	}
	if got := p.CountNack(0, 2); got != 1 {
		t.Fatalf("rank 1's first NACK to rank 2 counts %d, want 1", got)
	}
	// A one-member arena holds a rank other than 0.
	if got := NewOpState(plan.Rank(3)).CountNack(5, 0); got != 1 {
		t.Fatalf("one-member arena: CountNack = %d, want 1", got)
	}
}
