package core

import (
	"testing"
	"testing/quick"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/sim"
)

// newReduceState builds an allreduce state machine over a schedule as a
// one-member arena. It returns an error when the (operator, schedule)
// combination cannot be exact.
func newReduceState(op ReduceOp, sched barrier.Schedule) (*ReduceState, error) {
	a, err := newArena(1, func(int) barrier.Schedule { return sched }, &op)
	if err != nil {
		return nil, err
	}
	return &a.reds[0], nil
}

func TestReduceOpBasics(t *testing.T) {
	if ReduceSum.Combine(2, 3) != 5 || ReduceMin.Combine(2, 3) != 2 || ReduceMax.Combine(2, 3) != 3 {
		t.Fatal("combine wrong")
	}
	if ReduceSum.String() != "sum" || ReduceMin.String() != "min" || ReduceMax.String() != "max" {
		t.Fatal("stringer wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown op did not panic")
		}
	}()
	ReduceOp(9).Combine(1, 2)
}

func TestNewReduceStateValidation(t *testing.T) {
	// Sum over non-power-of-two dissemination double-counts: rejected.
	if _, err := newReduceState(ReduceSum, barrier.NewPlan(barrier.Dissemination, 6, barrier.Options{}).Rank(0)); err == nil {
		t.Error("sum over DS n=6 accepted")
	}
	// Min over the same schedule is fine (idempotent).
	if _, err := newReduceState(ReduceMin, barrier.NewPlan(barrier.Dissemination, 6, barrier.Options{}).Rank(0)); err != nil {
		t.Errorf("min over DS n=6 rejected: %v", err)
	}
	// Sum over PE n=6 (pre/post fold) and GB are fine.
	if _, err := newReduceState(ReduceSum, barrier.NewPlan(barrier.PairwiseExchange, 6, barrier.Options{}).Rank(0)); err != nil {
		t.Errorf("sum over PE n=6 rejected: %v", err)
	}
	if _, err := newReduceState(ReduceSum, barrier.NewPlan(barrier.GatherBroadcast, 6, barrier.Options{}).Rank(0)); err != nil {
		t.Errorf("sum over GB n=6 rejected: %v", err)
	}
}

// driveReduce runs a full allreduce group abstractly with random delivery
// order and optional loss (recovered via HasSent, like the NACK path),
// returning each rank's final value.
func driveReduce(t *testing.T, op ReduceOp, alg barrier.Algorithm, values []int64, seed uint64, lossRate float64) []int64 {
	t.Helper()
	n := len(values)
	rng := sim.NewRNG(seed)
	states := make([]*ReduceState, n)
	for r := 0; r < n; r++ {
		st, err := newReduceState(op, barrier.NewPlan(alg, n, barrier.Options{}).Rank(r))
		if err != nil {
			t.Fatal(err)
		}
		states[r] = st
	}
	type msg struct {
		from, to int
		value    int64
	}
	var inflight []msg
	done := make([]bool, n)
	send := func(from int, tos []int) {
		for _, to := range tos {
			v, ok := states[from].SentValue(0, to)
			if !ok {
				t.Fatalf("no snapshot for %d->%d", from, to)
			}
			inflight = append(inflight, msg{from, to, v})
		}
	}
	for r := 0; r < n; r++ {
		sends, completed, err := states[r].Start(0, values[r])
		if err != nil {
			t.Fatal(err)
		}
		send(r, sends)
		done[r] = done[r] || completed
	}
	for {
		allDone := true
		for r := 0; r < n; r++ {
			if !done[r] {
				allDone = false
			}
		}
		if allDone {
			break
		}
		if len(inflight) == 0 {
			// NACK recovery: resend the recorded snapshot (never the
			// current partial, which could double-count).
			for r := 0; r < n; r++ {
				for _, from := range states[r].st.Missing() {
					if v, ok := states[from].SentValue(0, r); ok {
						inflight = append(inflight, msg{from, r, v})
					}
				}
			}
			if len(inflight) == 0 {
				t.Fatal("allreduce deadlocked")
			}
		}
		i := rng.Intn(len(inflight))
		m := inflight[i]
		inflight[i] = inflight[len(inflight)-1]
		inflight = inflight[:len(inflight)-1]
		if rng.Bool(lossRate) {
			continue
		}
		sends, completed, err := states[m.to].Arrive(0, m.from, m.value)
		if err != nil {
			t.Fatal(err)
		}
		send(m.to, sends)
		done[m.to] = done[m.to] || completed
	}
	out := make([]int64, n)
	for r := 0; r < n; r++ {
		out[r] = states[r].Value()
	}
	return out
}

func expect(op ReduceOp, values []int64) int64 {
	acc := values[0]
	for _, v := range values[1:] {
		acc = op.Combine(acc, v)
	}
	return acc
}

func TestAllreduceCorrectness(t *testing.T) {
	cases := []struct {
		op  ReduceOp
		alg barrier.Algorithm
		n   int
	}{
		{ReduceSum, barrier.PairwiseExchange, 8},
		{ReduceSum, barrier.PairwiseExchange, 6}, // pre/post fold
		{ReduceSum, barrier.PairwiseExchange, 13},
		{ReduceSum, barrier.GatherBroadcast, 9},
		{ReduceSum, barrier.GatherBroadcast, 16},
		{ReduceSum, barrier.Dissemination, 8}, // power of two only
		{ReduceMin, barrier.Dissemination, 7},
		{ReduceMax, barrier.Dissemination, 11},
		{ReduceMin, barrier.GatherBroadcast, 5},
	}
	for _, c := range cases {
		values := make([]int64, c.n)
		rng := sim.NewRNG(uint64(c.n) * 31)
		for i := range values {
			values[i] = int64(rng.Intn(1000)) - 500
		}
		want := expect(c.op, values)
		got := driveReduce(t, c.op, c.alg, values, 42, 0)
		for r, v := range got {
			if v != want {
				t.Errorf("%v/%v n=%d rank %d: got %d want %d", c.op, c.alg, c.n, r, v, want)
			}
		}
	}
}

func TestAllreduceUnderLossAndRetransmission(t *testing.T) {
	// Retransmitted values must never double-combine (the bit vector
	// rejects duplicates before the value is applied).
	values := []int64{5, -3, 11, 7, 2, 9, -8, 1}
	want := expect(ReduceSum, values)
	for seed := uint64(0); seed < 10; seed++ {
		got := driveReduce(t, ReduceSum, barrier.PairwiseExchange, values, seed, 0.3)
		for r, v := range got {
			if v != want {
				t.Fatalf("seed %d rank %d: got %d want %d", seed, r, v, want)
			}
		}
	}
}

// Property: random values, sizes, operators and delivery orders always
// converge to the reference reduction on every rank.
func TestAllreduceProperty(t *testing.T) {
	f := func(opRaw, algRaw, nRaw uint8, seed uint64, raw []int16) bool {
		op := ReduceOp(int(opRaw) % 3)
		alg := barrier.Algorithm(int(algRaw) % 3)
		n := int(nRaw)%12 + 2
		if op == ReduceSum && alg == barrier.Dissemination && !barrier.IsPowerOfTwo(n) {
			return true // rejected combination, covered elsewhere
		}
		values := make([]int64, n)
		for i := range values {
			if i < len(raw) {
				values[i] = int64(raw[i])
			} else {
				values[i] = int64(i * 17)
			}
		}
		want := expect(op, values)
		got := driveReduce(t, op, alg, values, seed, 0.1)
		for _, v := range got {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceConsecutiveOpsWithEarlyValue(t *testing.T) {
	// n=2 sum: peer's op-1 value arrives while op 0 still active; it must
	// buffer and combine only at Start(1).
	a, err := newReduceState(ReduceSum, barrier.NewPlan(barrier.PairwiseExchange, 2, barrier.Options{}).Rank(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Start(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Arrive(1, 1, 99); err != nil { // early for op 1
		t.Fatal(err)
	}
	if a.Value() != 10 {
		t.Fatalf("early value leaked into op 0: %d", a.Value())
	}
	if _, completed, err := a.Arrive(0, 1, 5); err != nil || !completed {
		t.Fatalf("op 0: %v %v", completed, err)
	}
	if a.Value() != 15 {
		t.Fatalf("op 0 result %d, want 15", a.Value())
	}
	if _, completed, err := a.Start(1, 1); err != nil || !completed {
		t.Fatalf("op 1: %v %v", completed, err)
	}
	if a.Value() != 100 {
		t.Fatalf("op 1 result %d, want 100", a.Value())
	}
}

// SentValue answers for the current and the previous operation from the
// two-slot snapshot ring, never with another operation's value, and a
// steady stream of operations allocates nothing (reused send buffer, no
// per-operation snapshot map).
func TestSentValueRingAndZeroAlloc(t *testing.T) {
	a, err := newReduceState(ReduceSum, barrier.NewPlan(barrier.PairwiseExchange, 2, barrier.Options{}).Rank(0))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seq int, local int64) {
		t.Helper()
		sends, _, err := a.Start(seq, local)
		if err != nil || len(sends) != 1 || sends[0] != 1 {
			t.Fatalf("Start(%d): sends %v, err %v", seq, sends, err)
		}
		if _, completed, err := a.Arrive(seq, 1, 1); err != nil || !completed {
			t.Fatalf("Arrive(%d): completed %v, err %v", seq, completed, err)
		}
	}
	for seq, local := range []int64{10, 20, 30} {
		run(seq, local)
	}
	for _, c := range []struct {
		seq, to int
		want    int64
		ok      bool
	}{
		{2, 1, 30, true},
		{1, 1, 20, true},
		{0, 1, 0, false},  // overwritten by operation 2
		{3, 1, 0, false},  // not sent yet
		{-1, 1, 0, false}, // before the first operation
		{2, 5, 0, false},  // never a destination
	} {
		if v, ok := a.SentValue(c.seq, c.to); v != c.want || ok != c.ok {
			t.Errorf("SentValue(%d, %d) = %d, %v; want %d, %v", c.seq, c.to, v, ok, c.want, c.ok)
		}
	}
	seq := 3
	if allocs := testing.AllocsPerRun(100, func() { run(seq, int64(seq)); seq++ }); allocs != 0 {
		t.Errorf("steady-state allreduce op allocates %.1f objects, want 0", allocs)
	}
}
