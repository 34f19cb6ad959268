package sim

import "testing"

type countingObserver struct {
	fired     int
	cancelled int
	lastAt    Time
}

func (o *countingObserver) EventFired(at Time)     { o.fired++; o.lastAt = at }
func (o *countingObserver) EventCancelled(at Time) { o.cancelled++ }

func TestObserverSeesFiresAndCancels(t *testing.T) {
	e := NewEngine()
	var obs countingObserver
	e.SetObserver(&obs)
	for i := 0; i < 5; i++ {
		e.After(Duration(i+1)*Microsecond, func() {})
	}
	tm := e.After(10*Microsecond, func() {})
	tm.Cancel()
	e.Run()
	if obs.fired != 5 {
		t.Fatalf("observed %d fires, want 5", obs.fired)
	}
	if obs.cancelled != 1 {
		t.Fatalf("observed %d cancels, want 1", obs.cancelled)
	}
	if obs.lastAt != Time(5*Microsecond) {
		t.Fatalf("last fire at %v", obs.lastAt)
	}
}

func TestObserverDoesNotChangeTimeline(t *testing.T) {
	run := func(withObs bool) (Time, uint64) {
		e := NewEngine()
		if withObs {
			e.SetObserver(&countingObserver{})
		}
		var done Time
		for i := 0; i < 100; i++ {
			d := Duration(i%7+1) * Microsecond
			e.After(d, func() { done = e.Now() })
			if i%3 == 0 {
				e.After(d+Microsecond, func() {}).Cancel()
			}
		}
		e.Run()
		return done, e.Executed()
	}
	t1, n1 := run(false)
	t2, n2 := run(true)
	if t1 != t2 || n1 != n2 {
		t.Fatalf("observer changed the run: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}

// TestEngineZeroAllocWithNilObserver pins the disabled-tracer contract
// at the engine layer: the observer hook costs one nil check and no
// allocation.
func TestEngineZeroAllocWithNilObserver(t *testing.T) {
	e := NewEngine()
	ev := nopEvent{}
	// Warm the queue and slot arrays.
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(e.Now().Add(Microsecond), ev)
	}
	for e.step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleEvent(e.Now().Add(Microsecond), ev)
		e.step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step allocates %.1f/op with nil observer, want 0", allocs)
	}
}

type nopEvent struct{}

func (nopEvent) Fire() {}
