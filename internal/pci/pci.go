// Package pci models the host I/O bus that sits between the host CPU and
// the NIC: 66 MHz/64-bit PCI on the paper's 700 MHz Pentium-III cluster and
// 133 MHz/64-bit PCI-X on the 2.4 GHz Xeon cluster.
//
// The bus is shared: programmed-I/O writes (doorbells) and DMA
// transactions arbitrate for it and serialize. Reduced PCI round-trip
// traffic is one of the two headline benefits of NIC-based barriers (the
// other being removed host involvement), so the bus keeps counters that
// experiments can compare.
package pci

import (
	"fmt"

	"nicbarrier/internal/sim"
)

// Params fixes the bus constants.
type Params struct {
	// PIOWrite is the end-to-end latency of one programmed-I/O write
	// from host to NIC (doorbell ring or small descriptor write).
	PIOWrite sim.Duration
	// DMASetup is the fixed cost to start one DMA transaction
	// (arbitration, address phase, engine startup).
	DMASetup sim.Duration
	// BandwidthMBps is the burst transfer bandwidth of the bus.
	BandwidthMBps float64
}

// usage records bus usage for experiment reports.
type usage struct {
	PIOWrites uint64
	DMAs      uint64
	DMABytes  uint64
	// BusyTime accumulates total bus occupancy, the contention metric.
	BusyTime sim.Duration
}

// Bus is one host's I/O bus. All methods must be called from engine
// callbacks (simulation time).
type Bus struct {
	eng       *sim.Engine
	params    Params
	busyUntil sim.Time
	counters  usage
}

// NewBuses builds n buses on the engine as one slice, one per host of a
// cluster, so a cluster's buses cost one allocation.
func NewBuses(eng *sim.Engine, p Params, n int) []Bus {
	if p.BandwidthMBps <= 0 {
		panic("pci: non-positive bandwidth")
	}
	buses := make([]Bus, n)
	for i := range buses {
		buses[i] = Bus{eng: eng, params: p}
	}
	return buses
}

// acquire reserves the bus for d starting no earlier than now, returning
// the completion time.
func (b *Bus) acquire(d sim.Duration) sim.Time {
	start := b.eng.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	done := start.Add(d)
	b.busyUntil = done
	b.counters.BusyTime += d
	return done
}

// PIOWrite performs one programmed-I/O write and fires ev when it has
// landed on the NIC. Backends pass pooled handler records, so no closure
// is built per write.
func (b *Bus) PIOWrite(ev sim.Event) {
	if ev == nil {
		panic("pci: nil completion")
	}
	b.counters.PIOWrites++
	b.eng.ScheduleEvent(b.acquire(b.params.PIOWrite), ev)
}

// DMA moves bytes across the bus (either direction; the model is
// symmetric) and fires ev at completion.
func (b *Bus) DMA(bytes int, ev sim.Event) {
	if ev == nil {
		panic("pci: nil completion")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("pci: negative DMA size %d", bytes))
	}
	b.counters.DMAs++
	b.counters.DMABytes += uint64(bytes)
	b.eng.ScheduleEvent(b.acquire(b.params.DMASetup+sim.BytesAt(int64(bytes), b.params.BandwidthMBps)), ev)
}
