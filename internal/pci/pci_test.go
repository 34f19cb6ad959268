package pci

import (
	"testing"

	"nicbarrier/internal/sim"
)

func testBus(eng *sim.Engine) *Bus {
	return New(eng, Params{
		PIOWrite:      sim.Nanos(400),
		DMASetup:      sim.Nanos(600),
		BandwidthMBps: 528, // 66 MHz * 64 bit PCI
	})
}

func TestPIOWriteLatency(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.PIOWrite(func() { done = eng.Now() })
	eng.Run()
	if done != 400 {
		t.Fatalf("PIO completion at %v, want 400ns", done)
	}
}

func TestDMALatency(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.DMA(528, func() { done = eng.Now() }) // 528B at 528MB/s = 1000ns
	eng.Run()
	if done != 1600 {
		t.Fatalf("DMA completion at %v, want 1600ns", done)
	}
}

func TestZeroByteDMA(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.DMA(0, func() { done = eng.Now() })
	eng.Run()
	if done != 600 {
		t.Fatalf("zero-byte DMA completion at %v, want setup-only 600ns", done)
	}
}

func TestBusArbitrationSerializes(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var order []sim.Time
	// Issue a DMA and two PIOs back-to-back: they must serialize.
	bus.DMA(528, func() { order = append(order, eng.Now()) }) // 600+1000
	bus.PIOWrite(func() { order = append(order, eng.Now()) }) // +400
	bus.PIOWrite(func() { order = append(order, eng.Now()) }) // +400
	eng.Run()
	want := []sim.Time{1600, 2000, 2400}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("completions %v, want %v", order, want)
		}
	}
}

func TestBusIdleGapDoesNotCharge(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var second sim.Time
	bus.PIOWrite(func() {})
	eng.After(10_000, func() {
		bus.PIOWrite(func() { second = eng.Now() })
	})
	eng.Run()
	if second != 10_400 {
		t.Fatalf("post-idle PIO completed at %v, want 10400ns", second)
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	bus.PIOWrite(func() {})
	bus.DMA(100, func() {})
	bus.DMA(200, func() {})
	eng.Run()
	c := bus.Counters()
	if c.PIOWrites != 1 || c.DMAs != 2 || c.DMABytes != 300 {
		t.Fatalf("counters %+v", c)
	}
	if c.BusyTime <= 0 {
		t.Fatalf("busy time %v", c.BusyTime)
	}
	bus.ResetCounters()
	if got := bus.Counters(); got != (Counters{}) {
		t.Fatalf("reset failed: %+v", got)
	}
}

// stamp is a sim.Event recording when it fired.
type stamp struct {
	eng *sim.Engine
	at  []sim.Time
}

func (s *stamp) Fire() { s.at = append(s.at, s.eng.Now()) }

// The Event forms arbitrate, count and complete exactly like the closure
// forms, and allocate nothing once the engine is warm.
func TestEventFormsMatchClosures(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	ev := &stamp{eng: eng, at: make([]sim.Time, 0, 8)}
	bus.DMAEvent(528, ev)
	bus.PIOWriteEvent(ev)
	bus.PIOWriteEvent(ev)
	eng.Run()
	want := []sim.Time{1600, 2000, 2400} // as TestBusArbitrationSerializes
	for i, w := range want {
		if ev.at[i] != w {
			t.Fatalf("completions %v, want %v", ev.at, want)
		}
	}
	if c := bus.Counters(); c.PIOWrites != 2 || c.DMAs != 1 || c.DMABytes != 528 {
		t.Fatalf("counters %+v", c)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev.at = ev.at[:0]
		bus.PIOWriteEvent(ev)
		bus.DMAEvent(64, ev)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("event forms allocate %.1f objects per round, want 0", allocs)
	}
}

func TestGuards(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	for name, fn := range map[string]func(){
		"nil pio":      func() { bus.PIOWrite(nil) },
		"nil dma":      func() { bus.DMA(1, nil) },
		"nil pio ev":   func() { bus.PIOWriteEvent(nil) },
		"nil dma ev":   func() { bus.DMAEvent(1, nil) },
		"negative dma": func() { bus.DMA(-1, func() {}) },
		"bad params":   func() { New(eng, Params{}) },
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

// The PCI-X bus on the Xeon cluster is roughly twice as fast; verify the
// parameterization orders transfers correctly.
func TestPCIvsPCIX(t *testing.T) {
	lat := func(bw float64) sim.Duration {
		eng := sim.NewEngine()
		bus := New(eng, Params{PIOWrite: 400, DMASetup: 600, BandwidthMBps: bw})
		var done sim.Time
		bus.DMA(4096, func() { done = eng.Now() })
		eng.Run()
		return sim.Duration(done)
	}
	pci, pcix := lat(528), lat(1064)
	if pcix >= pci {
		t.Fatalf("PCI-X (%v) not faster than PCI (%v)", pcix, pci)
	}
}
