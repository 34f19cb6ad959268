package sim

import "testing"

// stamp is an Event recording when it fired.
type stamp struct {
	eng *Engine
	at  []Time
}

func (s *stamp) Fire() { s.at = append(s.at, s.eng.Now()) }

// A hold on an idle processor completes after exactly its duration: a
// 400-ns PIO write on an idle bus completes at 400 ns.
func TestProcHoldLatency(t *testing.T) {
	eng := NewEngine()
	bus := &Proc{Eng: eng}
	ev := &stamp{eng: eng}
	bus.Hold(400, ev)
	eng.Run()
	if len(ev.at) != 1 || ev.at[0] != 400 {
		t.Fatalf("hold completed at %v, want 400ns", ev.at)
	}
}

// Holds issued back to back serialize: each starts when the previous
// one ends (a 1,600-ns DMA, then two 400-ns PIO writes on one bus), and
// the completions allocate nothing once the engine is warm.
func TestProcSerializes(t *testing.T) {
	eng := NewEngine()
	bus := &Proc{Eng: eng}
	ev := &stamp{eng: eng, at: make([]Time, 0, 8)}
	bus.Hold(600+BytesAt(528, 528), ev) // DMA setup + 528 B at 528 MB/s
	bus.Hold(400, ev)
	bus.Hold(400, ev)
	eng.Run()
	want := []Time{1600, 2000, 2400}
	for i, w := range want {
		if ev.at[i] != w {
			t.Fatalf("completions %v, want %v", ev.at, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev.at = ev.at[:0]
		bus.Hold(400, ev)
		bus.Hold(664, ev)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("holds allocate %.1f objects per round, want 0", allocs)
	}
}

// Exec is a Hold of the cycles at the clock plus the fixed latency, so
// holds and executions on one processor queue behind each other.
func TestProcExecIsHold(t *testing.T) {
	eng := NewEngine()
	p := &Proc{Eng: eng, ClockMHz: 200}
	ev := &stamp{eng: eng}
	p.Exec(100, 50, ev) // 500 ns of cycles + 50
	p.Hold(250, ev)
	eng.Run()
	if len(ev.at) != 2 || ev.at[0] != 550 || ev.at[1] != 800 {
		t.Fatalf("completions %v, want [550 800]", ev.at)
	}
}

func TestProcIdleGapNotCharged(t *testing.T) {
	eng := NewEngine()
	bus := &Proc{Eng: eng}
	ev := &stamp{eng: eng}
	bus.Hold(400, Nop{})
	eng.After(10_000, func() { bus.Hold(400, ev) })
	eng.Run()
	if len(ev.at) != 1 || ev.at[0] != 10_400 {
		t.Fatalf("post-idle hold completed at %v, want 10400ns", ev.at)
	}
}

// A zero-length hold fires at the end of the backlog, not before it.
func TestProcZeroHold(t *testing.T) {
	eng := NewEngine()
	bus := &Proc{Eng: eng}
	ev := &stamp{eng: eng}
	bus.Hold(0, ev)
	bus.Hold(600, Nop{})
	bus.Hold(0, ev)
	eng.Run()
	if len(ev.at) != 2 || ev.at[0] != 0 || ev.at[1] != 600 {
		t.Fatalf("zero-length holds completed at %v, want [0 600]", ev.at)
	}
}

func TestProcGuards(t *testing.T) {
	eng := NewEngine()
	p := &Proc{Eng: eng}
	for name, fn := range map[string]func(){
		"nil event":     func() { p.Hold(1, nil) },
		"negative hold": func() { p.Hold(-1, Nop{}) },
		"no clock":      func() { p.Exec(1, 0, Nop{}) },
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
