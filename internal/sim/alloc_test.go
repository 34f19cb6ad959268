package sim

import "testing"

// The zero-allocation steady state is a regression-testable invariant,
// not just a benchmark property: paper-fidelity runs schedule hundreds
// of millions of events, and a single stray allocation per event hands
// the run back to the garbage collector.

func TestEngineScheduleZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 128; i++ { // warm the queue and slot arrays
		eng.After(1, fn)
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

func TestEngineCancelZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 128; i++ {
		eng.After(1000, fn).Cancel()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1000, fn).Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects per event, want 0", allocs)
	}
}

func TestEngineScheduleEventZeroAlloc(t *testing.T) {
	eng := NewEngine()
	ev := &countEvent{}
	for i := 0; i < 128; i++ {
		eng.AfterEvent(1, ev)
		eng.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterEvent(1, ev)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("pooled-event schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}

// A deep queue with mixed delays exercises refill across buckets and
// the front; once the slot arrays and the front have grown to the
// working depth, neither may allocate again.
func TestEngineRefillZeroAlloc(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	delays := depthDelays()
	for i := 0; i < 1024; i++ {
		eng.After(delays[i], fn)
	}
	i := 0
	hold := func() {
		eng.After(delays[i%len(delays)], fn)
		eng.Step()
		i++
	}
	for i < 1<<15 {
		hold()
	}
	allocs := testing.AllocsPerRun(4096, hold)
	if allocs != 0 {
		t.Fatalf("deep-queue schedule+fire allocates %.1f objects per event, want 0", allocs)
	}
}
