package barrier

import (
	"testing"
	"testing/quick"
)

func TestAlgorithmString(t *testing.T) {
	cases := map[Algorithm]string{
		Dissemination:    "DS",
		PairwiseExchange: "PE",
		GatherBroadcast:  "GB",
		Algorithm(99):    "Algorithm(99)",
	}
	for alg, want := range cases {
		if got := alg.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(alg), got, want)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{
		"DS": Dissemination, "dissemination": Dissemination,
		"PE": PairwiseExchange, "pairwise": PairwiseExchange,
		"GB": GatherBroadcast, "tree": GatherBroadcast,
	} {
		got, err := ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm accepted garbage")
	}
}

func TestLogHelpers(t *testing.T) {
	cases := []struct{ n, ceil, floor int }{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2},
		{7, 3, 2}, {8, 3, 3}, {9, 4, 3}, {1023, 10, 9}, {1024, 10, 10},
	}
	for _, c := range cases {
		if got := Log2Ceil(c.n); got != c.ceil {
			t.Errorf("Log2Ceil(%d) = %d, want %d", c.n, got, c.ceil)
		}
		if got := Log2Floor(c.n); got != c.floor {
			t.Errorf("Log2Floor(%d) = %d, want %d", c.n, got, c.floor)
		}
	}
	if !IsPowerOfTwo(8) || IsPowerOfTwo(6) || IsPowerOfTwo(0) {
		t.Error("IsPowerOfTwo misbehaves")
	}
}

// Step counts must match the paper's Section 5 formulas.
func TestCriticalStepsFormulas(t *testing.T) {
	for n := 2; n <= 64; n++ {
		if got, want := CriticalSteps(Dissemination, n, Options{}), Log2Ceil(n); got != want {
			t.Errorf("DS steps(%d) = %d, want ⌈log2⌉ = %d", n, got, want)
		}
		wantPE := Log2Floor(n)
		if !IsPowerOfTwo(n) {
			wantPE += 2
		}
		if got := CriticalSteps(PairwiseExchange, n, Options{}); got != wantPE {
			t.Errorf("PE steps(%d) = %d, want %d", n, got, wantPE)
		}
	}
	// GB with degree d: 2·⌈log_d N⌉.
	if got := CriticalSteps(GatherBroadcast, 16, Options{TreeDegree: 2}); got != 8 {
		t.Errorf("GB d=2 steps(16) = %d, want 8", got)
	}
	if got := CriticalSteps(GatherBroadcast, 16, Options{TreeDegree: 4}); got != 4 {
		t.Errorf("GB d=4 steps(16) = %d, want 4", got)
	}
	if got := CriticalSteps(Dissemination, 1, Options{}); got != 0 {
		t.Errorf("steps(1) = %d", got)
	}
}

// Per-rank schedule lengths: dissemination is uniform; PE varies only for
// non-power-of-two groups.
func TestScheduleShapes(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8, 12, 16} {
		for r := 0; r < n; r++ {
			ds := NewPlan(Dissemination, n, Options{}).Rank(r)
			if ds.Steps() != Log2Ceil(n) {
				t.Errorf("DS n=%d rank=%d: %d steps", n, r, ds.Steps())
			}
			for _, st := range resolve(ds) {
				if len(st.Send) != 1 || len(st.Wait) != 1 {
					t.Errorf("DS n=%d rank=%d: step %+v", n, r, st)
				}
			}
		}
	}
	// PE power of two: every step is a symmetric exchange.
	pe := NewPlan(PairwiseExchange, 8, Options{}).Rank(3)
	if pe.Steps() != 3 {
		t.Fatalf("PE n=8: %d steps", pe.Steps())
	}
	for _, st := range resolve(pe) {
		if len(st.Send) != 1 || len(st.Wait) != 1 || st.Send[0] != st.Wait[0] {
			t.Errorf("PE pow2 step not an exchange: %+v", st)
		}
	}
	// PE n=6: ranks 4,5 are extras with exactly one send and one wait.
	for r := 4; r <= 5; r++ {
		s := NewPlan(PairwiseExchange, 6, Options{}).Rank(r)
		if s.TotalSends() != 1 || s.TotalWaits() != 1 {
			t.Errorf("PE extra rank %d: sends=%d arrivals=%d",
				r, s.TotalSends(), s.TotalWaits())
		}
		if to := resolve(s)[0].Send[0]; to != r-4 {
			t.Errorf("PE extra rank %d announces to %d", r, to)
		}
	}
}

func TestGatherBroadcastTreeShape(t *testing.T) {
	// n=13, d=4: rank 0 has children 1..4; rank 1 has children 5..8;
	// rank 2 has 9..12; ranks 3..12 are leaves.
	opts := Options{TreeDegree: 4}
	root := NewPlan(GatherBroadcast, 13, opts).Rank(0)
	if root.Steps() != 2 {
		t.Fatalf("root steps = %d", root.Steps())
	}
	if got := root.AppendWaits(nil, 0); len(got) != 4 {
		t.Fatalf("root waits on %v", got)
	}
	interior := NewPlan(GatherBroadcast, 13, opts).Rank(1)
	if interior.Steps() != 3 {
		t.Fatalf("interior steps = %d", interior.Steps())
	}
	leaf := resolve(NewPlan(GatherBroadcast, 13, opts).Rank(12))
	if len(leaf) != 1 || leaf[0].Send[0] != 2 || leaf[0].Wait[0] != 2 {
		t.Fatalf("leaf schedule %+v", leaf)
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":        func() { NewPlan(Dissemination, 0, Options{}).Rank(0) },
		"plan n=0":   func() { NewPlan(PairwiseExchange, 0, Options{}) },
		"view range": func() { NewPlan(Dissemination, 4, Options{}).Rank(4) },
		"rank range": func() { NewPlan(Dissemination, 4, Options{}).Rank(4) },
		"neg rank":   func() { NewPlan(Dissemination, 4, Options{}).Rank(-1) },
		"bad alg":    func() { NewPlan(Algorithm(9), 4, Options{}).Rank(0) },
		"degree 1":   func() { NewPlan(GatherBroadcast, 4, Options{TreeDegree: 1}).Rank(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSingletonGroup(t *testing.T) {
	for _, alg := range []Algorithm{Dissemination, PairwiseExchange, GatherBroadcast} {
		s := NewPlan(alg, 1, Options{}).Rank(0)
		if s.Steps() != 0 {
			t.Errorf("%v n=1 has %d steps", alg, s.Steps())
		}
		if err := Verify(alg, 1, Options{}); err != nil {
			t.Errorf("%v n=1: %v", alg, err)
		}
	}
}

// The paper's key structural fact: each ordered (sender, receiver) pair
// appears at most once per barrier, for every algorithm and group size.
func TestNoDuplicatePairs(t *testing.T) {
	for _, alg := range []Algorithm{Dissemination, PairwiseExchange, GatherBroadcast} {
		for n := 2; n <= 70; n++ {
			pairs := map[[2]int]bool{}
			for _, s := range NewPlan(alg, n, Options{}).all() {
				for _, st := range resolve(s) {
					for _, dst := range st.Send {
						key := [2]int{s.Rank(), dst}
						if pairs[key] {
							t.Fatalf("%v n=%d: duplicate send %d->%d", alg, n, s.Rank(), dst)
						}
						pairs[key] = true
					}
				}
			}
		}
	}
}

// Sends and waits must be mirror images across the whole group, or
// notifications would be lost or spuriously expected.
func TestSendWaitSymmetry(t *testing.T) {
	for _, alg := range []Algorithm{Dissemination, PairwiseExchange, GatherBroadcast} {
		for _, n := range []int{2, 3, 5, 8, 13, 16, 31, 64} {
			sends := map[[2]int]int{}
			waits := map[[2]int]int{}
			for _, s := range NewPlan(alg, n, Options{}).all() {
				for _, st := range resolve(s) {
					for _, dst := range st.Send {
						sends[[2]int{s.Rank(), dst}]++
					}
					for _, src := range st.Wait {
						waits[[2]int{src, s.Rank()}]++
					}
				}
			}
			if len(sends) != len(waits) {
				t.Fatalf("%v n=%d: %d sends vs %d waits", alg, n, len(sends), len(waits))
			}
			for k, v := range sends {
				if waits[k] != v {
					t.Fatalf("%v n=%d: pair %v sent %d times, awaited %d",
						alg, n, k, v, waits[k])
				}
			}
		}
	}
}

// Full correctness (progress + synchronization) over a dense range of
// sizes for all three algorithms.
func TestVerifyAllAlgorithms(t *testing.T) {
	for _, alg := range []Algorithm{Dissemination, PairwiseExchange, GatherBroadcast} {
		for n := 1; n <= 80; n++ {
			if err := Verify(alg, n, Options{}); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
		// Spot-check large and awkward sizes, including the paper's 1024.
		for _, n := range []int{127, 128, 129, 1000, 1024} {
			if err := Verify(alg, n, Options{}); err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
		}
	}
}

// Property: any (algorithm, size, degree) triple verifies.
func TestVerifyProperty(t *testing.T) {
	f := func(algRaw, nRaw, dRaw uint8) bool {
		alg := Algorithm(int(algRaw) % 3)
		n := int(nRaw)%96 + 1
		opts := Options{TreeDegree: int(dRaw)%6 + 2}
		return Verify(alg, n, opts) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The verifier must actually catch broken schedules.
func TestVerifyCatchesBrokenSchedules(t *testing.T) {
	// broken rebuilds every rank's schedule with its lists edited.
	broken := func(n int, edit func(rank int, st *refStep)) []refSchedule {
		scheds := make([]refSchedule, n)
		for r := range scheds {
			steps := refNew(Dissemination, n, r, Options{})
			for i := range steps {
				edit(r, &steps[i])
			}
			scheds[r] = steps
		}
		return scheds
	}
	// Drop one rank's sends entirely: peers deadlock.
	dropped := broken(8, func(rank int, st *refStep) {
		if rank == 3 {
			st.Send = nil
		}
	})
	if err := verifySchedules(dropped, "DS"); err == nil {
		t.Fatal("verifier accepted schedule with dropped sends")
	}

	// A "barrier" where nobody waits: completes but without knowledge.
	free := broken(4, func(_ int, st *refStep) { st.Wait = nil })
	if err := verifySchedules(free, "DS"); err == nil {
		t.Fatal("verifier accepted barrier with no synchronization")
	}
}

// Arrival bits number a rank's waits in step order.
func TestExpectedArrivalsAndTotalSends(t *testing.T) {
	s := NewPlan(Dissemination, 8, Options{}).Rank(0)
	if s.TotalWaits() != 3 {
		t.Fatalf("total waits = %d", s.TotalWaits())
	}
	// Rank 0 waits for ranks 7 (step 0), 6 (step 1), 4 (step 2).
	for bit, want := range []int{7, 6, 4} {
		if got := s.Sender(bit); got != want {
			t.Fatalf("Sender(%d) = %d, want %d", bit, got, want)
		}
		if b, step, ok := s.Arrival(want); !ok || b != bit || step != bit {
			t.Fatalf("Arrival(%d) = %d, %d, %v", want, b, step, ok)
		}
	}
	if s.TotalSends() != 3 {
		t.Fatalf("total sends = %d", s.TotalSends())
	}
}

var (
	planSink     *Plan
	scheduleSink Schedule
)

// A plan is one allocation at any size, and a rank's schedule is a view
// of it that costs none, for every algorithm.
func TestDisseminationScheduleAllocs(t *testing.T) {
	for _, n := range []int{8, 65536} {
		if got := testing.AllocsPerRun(20, func() { planSink = NewPlan(Dissemination, n, Options{}) }); got != 1 {
			t.Errorf("NewPlan(Dissemination, %d): %.0f allocations, want 1", n, got)
		}
		for _, plan := range []*Plan{
			NewPlan(Dissemination, n, Options{}),
			NewPlan(PairwiseExchange, n+3, Options{}),
			NewPlan(GatherBroadcast, n, Options{TreeDegree: 3}),
			NewBroadcastPlan(n, n/2, 4),
		} {
			if got := testing.AllocsPerRun(20, func() { scheduleSink = plan.Rank(5) }); got != 0 {
				t.Errorf("Rank on a %d-rank %v plan: %.0f allocations, want 0", plan.Size(), plan.alg, got)
			}
			if !plan.Rank(0).Shares(plan.Rank(plan.Size() - 1)) {
				t.Errorf("n=%d %v: ranks view different plans", plan.Size(), plan.alg)
			}
		}
	}
}
