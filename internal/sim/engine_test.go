package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", e.Now())
	}
	if e.Executed() != 0 {
		t.Fatalf("executed %d events on empty run", e.Executed())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: pos %d got %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested schedule fired at %v, want [10 15]", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.After(1, nil)
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	timer := e.After(10, func() { ran = true })
	if !timer.Cancel() {
		t.Fatal("first Cancel reported not pending")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel reported pending")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event still ran")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run", e.Pending())
	}
}

func TestTimerCancelZero(t *testing.T) {
	var timer Timer
	if timer.Cancel() {
		t.Fatal("zero timer Cancel reported pending")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ran := 0
	timer := e.After(10, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("event ran %d times, want 1", ran)
	}
	if timer.Cancel() {
		t.Fatal("Cancel after fire reported pending")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel after fire reported pending")
	}
}

// A Timer retained across its slot's reuse must stay inert: the
// generation stamp has moved on, so cancelling the stale handle cannot
// kill the unrelated event now occupying the slot.
func TestTimerGenerationReuse(t *testing.T) {
	e := NewEngine()
	stale := e.After(1, func() {})
	e.Run() // fires; the slot returns to the free list
	ran := false
	e.After(1, func() { ran = true }) // reuses the same slot
	if stale.Cancel() {
		t.Fatal("stale timer cancelled a recycled slot's event")
	}
	e.Run()
	if !ran {
		t.Fatal("event on recycled slot did not fire")
	}
}

// Cancelled-then-rescheduled churn must not leak slots or queue space.
func TestTimerSlotReuseAfterCancel(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10*compactMin; i++ {
		timer := e.After(1000, func() {})
		if !timer.Cancel() {
			t.Fatal("fresh timer not pending")
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancelling everything", e.Pending())
	}
	if n := queuedEntries(e); n >= compactMin {
		t.Fatalf("queue holds %d entries after mass cancellation; compaction did not run", n)
	}
	if len(e.slots) > 2*compactMin {
		t.Fatalf("slot table grew to %d for a schedule/cancel loop", len(e.slots))
	}
}

// Pending is a live counter, not a queue scan: it must track schedule,
// cancel, and fire exactly.
func TestPendingCounter(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = e.After(Duration(i+1), func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", e.Pending())
	}
	timers[3].Cancel()
	timers[7].Cancel()
	if e.Pending() != 8 {
		t.Fatalf("pending = %d after 2 cancels, want 8", e.Pending())
	}
	timers[3].Cancel() // double cancel must not double-count
	if e.Pending() != 8 {
		t.Fatalf("pending = %d after double cancel, want 8", e.Pending())
	}
	e.Step()
	if e.Pending() != 7 {
		t.Fatalf("pending = %d after one step, want 7", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", e.Pending())
	}
	if e.Executed() != 8 {
		t.Fatalf("executed = %d, want 8", e.Executed())
	}
}

type countEvent struct{ fired int }

func (c *countEvent) Fire() { c.fired++ }

func TestScheduleEvent(t *testing.T) {
	e := NewEngine()
	ev := &countEvent{}
	e.ScheduleEvent(10, ev)
	e.AfterEvent(20, ev)
	timer := e.AfterEvent(30, ev)
	if !timer.Cancel() {
		t.Fatal("event timer not pending")
	}
	e.Run()
	if ev.fired != 2 {
		t.Fatalf("event fired %d times, want 2", ev.fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock %v, want 20", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("nil Event did not panic")
		}
	}()
	e.ScheduleEvent(100, nil)
}

// Interleaved cancels and fires across compaction boundaries must keep
// the firing order identical to a never-cancelling reference engine.
func TestCancelCompactionOrdering(t *testing.T) {
	e := NewEngine()
	var fired []int
	var timers []Timer
	for i := 0; i < 4*compactMin; i++ {
		i := i
		timers = append(timers, e.Schedule(Time(1000+i), func() { fired = append(fired, i) }))
	}
	want := make([]int, 0, len(timers))
	for i, timer := range timers {
		if i%4 != 0 {
			if !timer.Cancel() {
				t.Fatalf("timer %d not pending", i)
			}
		} else {
			want = append(want, i)
		}
	}
	e.Run()
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %d, want %d", i, fired[i], want[i])
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.After(Duration(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	drained := e.RunUntil(12)
	if drained {
		t.Fatal("RunUntil reported drained with events pending")
	}
	if e.Now() != 12 {
		t.Fatalf("clock %v after RunUntil(12)", e.Now())
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) should drain")
	}
	if e.Now() != 100 {
		t.Fatalf("clock %v after drained RunUntil(100), want 100", e.Now())
	}
}

func TestEngineRunCondition(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.After(Duration(i), func() { count++ })
	}
	ok := e.RunCondition(func() bool { return count >= 4 })
	if !ok {
		t.Fatal("condition not reached")
	}
	if count != 4 {
		t.Fatalf("count = %d at condition, want 4", count)
	}
	// Draining without meeting an impossible condition reports false.
	if e.RunCondition(func() bool { return false }) {
		t.Fatal("impossible condition reported satisfied")
	}
	if count != 10 {
		t.Fatalf("count = %d after drain, want 10", count)
	}
}

func TestEngineRunConditionAlreadyTrue(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(1, func() { ran = true })
	if !e.RunCondition(func() bool { return true }) {
		t.Fatal("pre-satisfied condition reported false")
	}
	if ran {
		t.Fatal("event ran though condition held before stepping")
	}
}

// Property: for any set of non-negative delays, the engine fires events in
// non-decreasing time order and ends with the clock at the max delay.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		last := Time(-1)
		monotonic := true
		var maxd Duration
		for _, d := range delays {
			d := Duration(d)
			if d > maxd {
				maxd = d
			}
			e.After(d, func() {
				if e.Now() < last {
					monotonic = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return monotonic && e.Now() == Time(maxd) &&
			e.Executed() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Micros(5.6) != 5600 {
		t.Fatalf("Micros(5.6) = %d", Micros(5.6))
	}
	if d := Time(5600).Micros(); d != 5.6 {
		t.Fatalf("Time(5600).Micros() = %v", d)
	}
	if got := Time(1500).String(); got != "1.500us" {
		t.Fatalf("Time.String() = %q", got)
	}
	if got := Duration(250).String(); got != "0.250us" {
		t.Fatalf("Duration.String() = %q", got)
	}
	if got := Time(100).Add(50); got != 150 {
		t.Fatalf("Add = %v", got)
	}
	if got := Time(150).Sub(100); got != 50 {
		t.Fatalf("Sub = %v", got)
	}
}

func TestCycles(t *testing.T) {
	// 133 cycles at 133 MHz is exactly 1us.
	if got := Cycles(133, 133); got != 1000 {
		t.Fatalf("Cycles(133, 133MHz) = %v, want 1000ns", got)
	}
	// 225 cycles at 225 MHz is exactly 1us.
	if got := Cycles(225, 225); got != 1000 {
		t.Fatalf("Cycles(225, 225MHz) = %v, want 1000ns", got)
	}
	// The identical handler is ~1.69x slower on the slower NIC.
	slow := Cycles(650, 133)
	fast := Cycles(650, 225)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.68 || ratio > 1.70 {
		t.Fatalf("clock scaling ratio = %v, want ~225/133", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("Cycles with zero clock did not panic")
		}
	}()
	Cycles(1, 0)
}

func TestBytesAt(t *testing.T) {
	// 256 bytes at 256 MB/s is exactly 1us.
	if got := BytesAt(256, 256); got != 1000 {
		t.Fatalf("BytesAt(256, 256MB/s) = %v, want 1000ns", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("BytesAt with zero bandwidth did not panic")
		}
	}()
	BytesAt(1, 0)
}
