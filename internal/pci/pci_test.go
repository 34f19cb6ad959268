package pci

import (
	"testing"

	"nicbarrier/internal/sim"
)

func testBus(eng *sim.Engine) *Bus {
	return &NewBuses(eng, Params{
		PIOWrite:      sim.Nanos(400),
		DMASetup:      sim.Nanos(600),
		BandwidthMBps: 528, // 66 MHz * 64 bit PCI
	}, 1)[0]
}

// fn adapts a closure to sim.Event for tests; the bus itself takes only
// Event completions.
type fn func()

func (f fn) Fire() { f() }

func TestPIOWriteLatency(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.PIOWrite(fn(func() { done = eng.Now() }))
	eng.Run()
	if done != 400 {
		t.Fatalf("PIO completion at %v, want 400ns", done)
	}
}

func TestDMALatency(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.DMA(528, fn(func() { done = eng.Now() })) // 528B at 528MB/s = 1000ns
	eng.Run()
	if done != 1600 {
		t.Fatalf("DMA completion at %v, want 1600ns", done)
	}
}

func TestZeroByteDMA(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var done sim.Time
	bus.DMA(0, fn(func() { done = eng.Now() }))
	eng.Run()
	if done != 600 {
		t.Fatalf("zero-byte DMA completion at %v, want setup-only 600ns", done)
	}
}

// stamp is a sim.Event recording when it fired.
type stamp struct {
	eng *sim.Engine
	at  []sim.Time
}

func (s *stamp) Fire() { s.at = append(s.at, s.eng.Now()) }

// A DMA and two PIOs issued back to back serialize on the bus, and the
// completions allocate nothing once the engine is warm.
func TestBusArbitrationSerializes(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	ev := &stamp{eng: eng, at: make([]sim.Time, 0, 8)}
	bus.DMA(528, ev) // 600+1000
	bus.PIOWrite(ev) // +400
	bus.PIOWrite(ev) // +400
	eng.Run()
	want := []sim.Time{1600, 2000, 2400}
	for i, w := range want {
		if ev.at[i] != w {
			t.Fatalf("completions %v, want %v", ev.at, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		ev.at = ev.at[:0]
		bus.PIOWrite(ev)
		bus.DMA(64, ev)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("bus completions allocate %.1f objects per round, want 0", allocs)
	}
}

func TestBusIdleGapDoesNotCharge(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	var second sim.Time
	bus.PIOWrite(sim.Nop{})
	eng.After(10_000, func() {
		bus.PIOWrite(fn(func() { second = eng.Now() }))
	})
	eng.Run()
	if second != 10_400 {
		t.Fatalf("post-idle PIO completed at %v, want 10400ns", second)
	}
}

func TestCounters(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	bus.PIOWrite(sim.Nop{})
	bus.DMA(100, sim.Nop{})
	bus.DMA(200, sim.Nop{})
	eng.Run()
	c := bus.Counters()
	if c.PIOWrites != 1 || c.DMAs != 2 || c.DMABytes != 300 {
		t.Fatalf("counters %+v", c)
	}
	if c.BusyTime <= 0 {
		t.Fatalf("busy time %v", c.BusyTime)
	}
}

func TestGuards(t *testing.T) {
	eng := sim.NewEngine()
	bus := testBus(eng)
	for name, fn := range map[string]func(){
		"nil pio":      func() { bus.PIOWrite(nil) },
		"nil dma":      func() { bus.DMA(1, nil) },
		"negative dma": func() { bus.DMA(-1, sim.Nop{}) },
		"bad params":   func() { NewBuses(eng, Params{}, 1) },
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
		bus := &NewBuses(eng, Params{PIOWrite: 400, DMASetup: 600, BandwidthMBps: bw}, 1)[0]
		var done sim.Time
		bus.DMA(4096, fn(func() { done = eng.Now() }))
		eng.Run()
		return sim.Duration(done)
	}
	pci, pcix := lat(528), lat(1064)
	if pcix >= pci {
		t.Fatalf("PCI-X (%v) not faster than PCI (%v)", pcix, pci)
	}
}
