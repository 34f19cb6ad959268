package sim

// Proc is a sequential processor with a busy-until discipline: handlers
// queue behind each other, which is how a host CPU and a single NIC
// firmware processor (LANai, Elan event unit) serialize work. Backends
// embed one per host and per NIC.
type Proc struct {
	Eng       *Engine
	ClockMHz  float64
	busyUntil Time
}

// Exec schedules ev once the processor has finished its current backlog
// plus cycles of work at its clock plus a fixed latency; the processor
// is held busy for the whole span.
func (p *Proc) Exec(cycles int64, fixed Duration, ev Event) {
	start := p.Eng.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	done := start.Add(Cycles(cycles, p.ClockMHz)).Add(fixed)
	p.busyUntil = done
	p.Eng.ScheduleEvent(done, ev)
}

// Nop is an Event that does nothing. Exec(cycles, fixed, Nop{}) charges
// work that has no effect beyond holding the processor, such as a group
// install or teardown.
type Nop struct{}

// Fire implements Event.
func (Nop) Fire() {}
