package sim

import "fmt"

// Proc is a sequential resource with a busy-until discipline: work
// queues behind earlier work, which is how a host CPU, a single NIC
// firmware processor (LANai, Elan event unit) and a host's I/O bus
// serialize. Backends embed one per host and per NIC and keep one per
// node as its PCI bus; a bus has no clock and is only ever Held.
type Proc struct {
	Eng       *Engine
	ClockMHz  float64
	busyUntil Time
}

// Exec schedules ev once the processor has finished its current backlog
// plus cycles of work at its clock plus a fixed latency; the processor
// is held busy for the whole span.
func (p *Proc) Exec(cycles int64, fixed Duration, ev Event) {
	p.Hold(Cycles(cycles, p.ClockMHz)+fixed, ev)
}

// Hold schedules ev once the resource has finished its current backlog
// plus d, and holds it busy until then. An idle gap before the call is
// not charged: the span starts at the later of now and the backlog.
func (p *Proc) Hold(d Duration, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative hold %v", d))
	}
	start := p.Eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done := start.Add(d)
	p.busyUntil = done
	p.Eng.ScheduleEvent(done, ev)
}

// Nop is an Event that does nothing. Exec(cycles, fixed, Nop{}) charges
// work that has no effect beyond holding the processor, such as a group
// install or teardown.
type Nop struct{}

// Fire implements Event.
func (Nop) Fire() {}
