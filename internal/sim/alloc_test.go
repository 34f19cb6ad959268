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
		eng.step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.After(1, fn)
		eng.step()
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
		eng.step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterEvent(1, ev)
		eng.step()
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
		eng.step()
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

// Reserve sizes the slot table for a burst: n events scheduled at one
// instant fit without regrowing it, and the key and payload arrays
// always grow together to one capacity.
func TestEngineReserveBurst(t *testing.T) {
	const n = 1000
	eng := NewEngine()
	eng.Reserve(n)
	if cap(eng.keys) < n || cap(eng.payload) != cap(eng.keys) {
		t.Fatalf("Reserve(%d): key capacity %d, payload capacity %d", n, cap(eng.keys), cap(eng.payload))
	}
	keys, payload := &eng.keys[:1][0], &eng.payload[:1][0]
	fn := func() {}
	for i := 0; i < cap(eng.keys); i++ {
		eng.After(0, fn)
	}
	if &eng.keys[0] != keys || &eng.payload[0] != payload {
		t.Fatal("the slot table regrew within its reserved capacity")
	}
	eng.After(0, fn)
	if cap(eng.payload) != cap(eng.keys) || len(eng.keys) != len(eng.payload) {
		t.Fatalf("after growth: keys %d/%d, payload %d/%d",
			len(eng.keys), cap(eng.keys), len(eng.payload), cap(eng.payload))
	}
	eng.Run()
	if eng.Executed() != uint64(len(eng.keys)) {
		t.Fatalf("executed %d events, want %d", eng.Executed(), len(eng.keys))
	}
}
