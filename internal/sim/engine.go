package sim

import (
	"fmt"
	"sync/atomic"
)

// Event is the allocation-free alternative to a closure callback: a
// value implementing Event is dispatched by the engine without capturing
// anything. Hot paths (the wire simulator's per-packet events) pool
// their Event implementations and schedule them via ScheduleEvent, so a
// steady-state simulation performs no per-event heap allocation at all.
type Event interface {
	Fire()
}

// Timer handle slots. A slot is acquired per scheduled entry and
// released when the entry fires or is removed; its generation counter
// increments on release, so a stale Timer held across the slot's reuse
// can never cancel the wrong event.
const (
	slotFree = iota
	slotLive
	slotCancelled
)

// A live or cancelled slot also holds its queued entry: the timestamp,
// the FIFO tie-breaker and exactly one of fn and ev. The queue keeps no
// copy of the callback, only slot indices (see queue.go). The fields a
// bucket refill walks lead the struct so they share a cache line.
type slot struct {
	at    Time
	next  int32 // bucket-chain link while queued, free-list link while free
	state uint8
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	gen   uint64
	fn    func()
	ev    Event
}

// compactMin is the queue size below which cancelled entries are left
// for lazy removal; compacting tiny queues is churn for no benefit.
const compactMin = 64

// Engine is the discrete-event simulation core. The zero value is not
// usable; construct with NewEngine. An Engine (and everything scheduled
// on it) belongs to a single goroutine.
//
// The queue is a monotone radix heap over the engine clock (queue.go):
// because time never runs backwards, entries past the last instant taken
// out wait unsorted in buckets keyed by the highest bit in which their
// timestamp differs from it, chained through the Timer slot table, and
// only the earliest instant (plus any event scheduled between now and
// it) is kept sorted, in a small front heap.
// Steady-state scheduling performs no heap allocation (the slot table
// and front heap are reused), Cancel is O(1) (entries are marked through
// their slot and skipped when they surface), and the queue compacts
// itself when cancelled entries outnumber live ones.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	// last is the latest instant the queue has taken out of its
	// buckets; front holds the entries at or before it, and heads the
	// bucket chains after it. Bucket b is non-empty iff bit b of
	// buckets is set, and its earliest timestamp is earliest[b].
	last     Time
	front    []frontEntry
	heads    [64]int32
	earliest [64]Time
	buckets  uint64
	// executed counts events that have run; useful as a progress and
	// complexity metric in tests and benchmarks.
	executed uint64
	// flushed is the executed prefix already added to the process-wide
	// counter (see TotalExecuted).
	flushed uint64
	// live counts scheduled, not-yet-fired, not-cancelled entries;
	// Pending returns it in O(1).
	live int
	// cancelled counts cancelled entries still occupying the queue.
	cancelled int
	slots     []slot
	freeSlot  int32 // head of the slot free list, -1 when empty
	// obs, when non-nil, is notified of every event firing and
	// cancellation. The disabled cost is one nil check per event.
	obs EventObserver
}

// EventObserver receives engine-level notifications: one call per
// fired event (at the event's timestamp, before its action runs) and
// one per cancellation. Observers must only observe — scheduling new
// events or mutating engine state from a callback is a modeling bug.
// The tracing layer (internal/obs) implements this interface; the sim
// package only defines it, keeping the engine dependency-free.
type EventObserver interface {
	EventFired(at Time)
	EventCancelled(at Time)
}

// SetObserver installs (or clears, with nil) the event observer.
func (e *Engine) SetObserver(o EventObserver) { e.obs = o }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{freeSlot: -1}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled and not cancelled.
func (e *Engine) Pending() int { return e.live }

// totalExecuted accumulates fired events across every engine in the
// process; engines flush their local counts into it when a Run variant
// returns, so the per-event hot path stays free of atomics.
var totalExecuted atomic.Uint64

// TotalExecuted reports the process-wide count of fired simulation
// events, aggregated across all engines at Run/RunUntil/RunCondition
// boundaries. The benchmark reporting layer divides wall-clock and
// allocation deltas by deltas of this counter to derive per-event cost
// metrics.
func TotalExecuted() uint64 { return totalExecuted.Load() }

func (e *Engine) flushExecuted() {
	if d := e.executed - e.flushed; d > 0 {
		totalExecuted.Add(d)
		e.flushed = e.executed
	}
}

// --- Timer handle slots ---

func (e *Engine) acquireSlot() int32 {
	if s := e.freeSlot; s >= 0 {
		e.freeSlot = e.slots[s].next
		e.slots[s].state = slotLive
		return s
	}
	e.slots = append(e.slots, slot{state: slotLive})
	return int32(len(e.slots) - 1)
}

// releaseSlot returns a slot to the free list and bumps its generation,
// invalidating every outstanding Timer that still points at it.
// The callback references are dropped so a free slot pins no garbage.
func (e *Engine) releaseSlot(s int32) {
	sl := &e.slots[s]
	sl.fn, sl.ev = nil, nil
	sl.gen++
	sl.state = slotFree
	sl.next = e.freeSlot
	e.freeSlot = s
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it
// always indicates a modeling bug, and silently reordering time would
// invalidate every latency measurement built on the engine.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return e.schedule(at, fn, nil)
}

// ScheduleEvent is Schedule for pooled Event values: no closure, and no
// allocation on the engine side — the entry lives in its Timer slot.
func (e *Engine) ScheduleEvent(at Time, ev Event) Timer {
	if ev == nil {
		panic("sim: nil event")
	}
	return e.schedule(at, nil, ev)
}

func (e *Engine) schedule(at Time, fn func(), ev Event) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	s := e.acquireSlot()
	sl := &e.slots[s]
	sl.at, sl.seq, sl.fn, sl.ev = at, e.seq, fn, ev
	e.push(s)
	e.seq++
	e.live++
	return Timer{eng: e, slot: s, gen: sl.gen}
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterEvent runs ev d after the current time.
func (e *Engine) AfterEvent(d Duration, ev Event) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleEvent(e.now.Add(d), ev)
}

// Step executes the single next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if !e.settle() {
		return false
	}
	e.fire()
	return true
}

// fire runs the entry at the front heap's head, which settle has
// checked is live.
func (e *Engine) fire() {
	top := e.frontPop()
	sl := &e.slots[top.slot]
	fn, ev := sl.fn, sl.ev
	e.releaseSlot(top.slot)
	e.now = top.at
	e.executed++
	e.live--
	if e.obs != nil {
		e.obs.EventFired(top.at)
	}
	if fn != nil {
		fn()
	} else {
		ev.Fire()
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	e.flushExecuted()
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. It reports whether the queue drained before the
// deadline (i.e. no runnable event remained at or past it).
func (e *Engine) RunUntil(deadline Time) bool {
	defer e.flushExecuted()
	e.stopped = false
	for !e.stopped {
		if !e.settle() {
			e.now = maxTime(e.now, deadline)
			return true
		}
		if e.front[0].at > deadline {
			e.now = deadline
			return false
		}
		e.fire()
	}
	return false
}

// RunCondition executes events until pred() reports true after some event,
// or the queue drains. It reports whether the predicate was satisfied.
// This is how experiments run "until the barrier completed".
func (e *Engine) RunCondition(pred func() bool) bool {
	defer e.flushExecuted()
	e.stopped = false
	if pred() {
		return true
	}
	for !e.stopped && e.Step() {
		if pred() {
			return true
		}
	}
	return pred()
}

// Stop makes the current Run/RunUntil/RunCondition return after the current
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextAt reports the timestamp of the next live (not cancelled) event,
// or ok == false when the queue is empty. Cancelled entries that have
// surfaced at the queue head are collected as a side effect. The
// partitioned runtime (internal/shard) uses it to skip empty lookahead
// windows: the coordinator advances every shard straight to the
// earliest pending event instead of stepping fixed windows through
// idle virtual time.
func (e *Engine) NextAt() (Time, bool) {
	if !e.settle() {
		return 0, false
	}
	return e.front[0].at, true
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Timer is a value handle for a scheduled event; its only operation is
// Cancel. The zero Timer is valid and cancels nothing. Handles are
// generation-stamped: once the event fires (or the cancellation is
// collected), the underlying slot is recycled with a new generation, so
// a retained Timer stays inert instead of cancelling an unrelated
// later event.
type Timer struct {
	eng  *Engine
	slot int32
	gen  uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op. It reports whether the event was
// still pending. Cancel is O(1): the entry is marked through its slot
// and skipped when it surfaces; when cancelled entries outnumber live
// ones the queue compacts itself. The entry's callback is dropped at
// once, so a cancelled timer keeps nothing it referenced alive.
func (t Timer) Cancel() bool {
	e := t.eng
	if e == nil {
		return false
	}
	sl := &e.slots[t.slot]
	if sl.state != slotLive || sl.gen != t.gen {
		return false
	}
	sl.state = slotCancelled
	sl.fn, sl.ev = nil, nil // a cancelled entry never fires; pin nothing
	e.cancelled++
	e.live--
	if e.obs != nil {
		e.obs.EventCancelled(e.now)
	}
	if n := e.live + e.cancelled; n >= compactMin && e.cancelled > n/2 {
		e.compact()
	}
	return true
}
