package sim

import (
	"math/bits"
	"testing"
)

// The radix queue promises one thing: events fire in exactly (at, seq)
// order whatever the interleaving of schedules, cancels and partial
// runs. These tests hold it to a reference model that keeps every entry
// in a slice and finds the next one by linear scan.

// queuedEntries counts the entries physically held by the queue, live
// or cancelled: the unconsumed front run plus every bucket chain.
func queuedEntries(e *Engine) int {
	n := len(e.front) - e.head
	for m := e.buckets; m != 0; m &= m - 1 {
		for s := e.heads[bits.TrailingZeros64(m)]; s >= 0; s = e.keys[s].next {
			n++
		}
	}
	return n
}

// checkQueue verifies the queue's structural invariants: last is not
// after now, the front is a run of entries at last in increasing seq
// order, each bucket chain holds only entries after last in the bucket
// their distance from last selects and records its earliest timestamp
// and the slot holding it, and the queue holds exactly the live and
// not yet dropped cancelled entries.
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	if e.last > e.now {
		t.Fatalf("last %v is after now %v", e.last, e.now)
	}
	for i, s := range e.front[e.head:] {
		if k := e.keys[s]; k.state == slotFree || k.at != e.last {
			t.Fatalf("front[%d]: slot %d (state %d) at %v, last %v", i, s, k.state, k.at, e.last)
		}
		if i > 0 && e.payload[s].seq <= e.payload[e.front[e.head+i-1]].seq {
			t.Fatalf("front[%d] is out of seq order", i)
		}
	}
	for m := e.buckets; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if e.heads[b] < 0 {
			t.Fatalf("bucket %d marked non-empty with no chain", b)
		}
		earliest, holdsFirst := Time(-1), false
		for s := e.heads[b]; s >= 0; s = e.keys[s].next {
			k := e.keys[s]
			if k.state == slotFree {
				t.Fatalf("free slot %d chained in bucket %d", s, b)
			}
			if k.at <= e.last || bits.Len64(uint64(k.at^e.last)) != b {
				t.Fatalf("slot %d at %v sits in bucket %d with last %v", s, k.at, b, e.last)
			}
			if earliest < 0 || k.at < earliest {
				earliest = k.at
			}
			holdsFirst = holdsFirst || s == e.first[b]
		}
		if e.earliest[b] != earliest {
			t.Fatalf("bucket %d records earliest %v, holds %v", b, e.earliest[b], earliest)
		}
		if !holdsFirst || e.keys[e.first[b]].at != earliest {
			t.Fatalf("bucket %d: first slot %d is not its earliest entry", b, e.first[b])
		}
	}
	if n := queuedEntries(e); n != e.live+e.cancelled {
		t.Fatalf("queue holds %d entries, want live %d + cancelled %d", n, e.live, e.cancelled)
	}
}

const (
	refPending = iota
	refFired
	refCancelled
)

type refEntry struct {
	at    Time
	state int
	timer Timer
	pos   int // index in orderScript.live while pending
}

type funcEvent struct{ f func() }

func (f *funcEvent) Fire() { f.f() }

// maxRefEntries bounds how many entries one script may schedule, so a
// long fuzz input stays quick against the quadratic reference.
const maxRefEntries = 1 << 12

// orderScript drives an engine and the reference model through the
// operations a byte script encodes, failing at the first divergence.
type orderScript struct {
	t      *testing.T
	e      *Engine
	ref    []refEntry // indexed by scheduling order, i.e. by seq
	live   []int      // seqs of the pending entries, unordered
	script []byte
}

func (o *orderScript) byte() byte {
	if len(o.script) == 0 {
		return 0
	}
	b := o.script[0]
	o.script = o.script[1:]
	return b
}

// delay decodes a delay shaped like the simulator's: mostly short hops,
// some ~0.5 ms timers, same-instant events and far-future outliers that
// land in high buckets.
func (o *orderScript) delay() Duration {
	switch b := o.byte(); b % 8 {
	case 0:
		return 0
	case 1, 2, 3:
		return Duration(1 + int(o.byte())*32)
	case 4:
		return Duration(500_000 + int(o.byte())*16)
	case 5:
		return Duration(1 + o.byte()%4)
	case 6:
		return Duration(o.byte()) << (o.byte() % 40)
	default:
		return Duration(b)
	}
}

// nextLive returns the seq of the least live (at, seq) in the model.
func (o *orderScript) nextLive() (int, bool) {
	best := -1
	for _, i := range o.live {
		if best < 0 || o.ref[i].at < o.ref[best].at ||
			(o.ref[i].at == o.ref[best].at && i < best) {
			best = i
		}
	}
	return best, best >= 0
}

// settle records that pending entry seq fired or was cancelled.
func (o *orderScript) settle(seq, state int) {
	pos := o.ref[seq].pos
	last := o.live[len(o.live)-1]
	o.live[pos] = last
	o.ref[last].pos = pos
	o.live = o.live[:len(o.live)-1]
	o.ref[seq].state = state
}

// schedule adds an entry at at; when it fires it may schedule a child
// childDelay later (childDelay < 0: none), through fn or Event.
func (o *orderScript) schedule(at Time, useEvent bool, childDelay Duration) {
	if len(o.ref) == maxRefEntries {
		return
	}
	seq := len(o.ref)
	o.ref = append(o.ref, refEntry{at: at, pos: len(o.live)})
	o.live = append(o.live, seq)
	fire := func() {
		want, ok := o.nextLive()
		if !ok || want != seq {
			o.t.Fatalf("fired seq %d at %v, reference expects seq %d (ok=%v)", seq, o.e.Now(), want, ok)
		}
		if o.e.Now() != at {
			o.t.Fatalf("seq %d fired at %v, scheduled for %v", seq, o.e.Now(), at)
		}
		o.settle(seq, refFired)
		if childDelay >= 0 {
			o.schedule(o.e.Now().Add(childDelay), !useEvent, -1)
		}
	}
	var tm Timer
	if useEvent {
		tm = o.e.ScheduleEvent(at, &funcEvent{fire})
	} else {
		tm = o.e.Schedule(at, fire)
	}
	o.ref[seq].timer = tm
}

func (o *orderScript) cancel(i int) {
	want := o.ref[i].state == refPending
	if got := o.ref[i].timer.Cancel(); got != want {
		o.t.Fatalf("Cancel(seq %d) = %v, want %v", i, got, want)
	}
	if want {
		o.settle(i, refCancelled)
	}
}

func (o *orderScript) run() {
	e := o.e
	for len(o.script) > 0 {
		switch op := o.byte(); op % 9 {
		case 0, 1: // one schedule, maybe with a child
			child := Duration(-1)
			if op&0x10 != 0 {
				child = o.delay()
			}
			o.schedule(e.Now().Add(o.delay()), op&0x20 != 0, child)
		case 2: // same-instant burst
			at := e.Now().Add(o.delay())
			for n := 1 + int(o.byte()%96); n > 0; n-- {
				o.schedule(at, n%3 == 0, -1)
			}
		case 3: // cancel any entry, fired and stale ones included
			if len(o.ref) > 0 {
				o.cancel(int(o.byte()) * len(o.ref) / 256)
			}
		case 4: // cancel a stride of entries: enough to compact
			stride := 1 + int(o.byte()%4)
			for i := int(o.byte()) % stride; i < len(o.ref); i += stride {
				if o.ref[i].state == refPending {
					o.cancel(i)
				}
			}
		case 5:
			_, want := o.nextLive()
			if got := e.step(); got != want {
				o.t.Fatalf("Step() = %v, reference has live entry %v", got, want)
			}
		case 6: // RunUntil with a deadline that may fall between events
			before := e.Now()
			deadline := before.Add(o.delay())
			drained := e.RunUntil(deadline)
			next, left := o.nextLive()
			if left && o.ref[next].at <= deadline {
				o.t.Fatalf("RunUntil(%v) left seq %d at %v", deadline, next, o.ref[next].at)
			}
			if drained == left {
				o.t.Fatalf("RunUntil(%v) = %v with live entries %v", deadline, drained, left)
			}
			if e.Now() != max(before, deadline) {
				o.t.Fatalf("clock %v after RunUntil(%v) from %v", e.Now(), deadline, before)
			}
		case 7: // NextAt, possibly over cancelled heads
			at, ok := e.NextAt()
			next, want := o.nextLive()
			if ok != want || (ok && at != o.ref[next].at) {
				o.t.Fatalf("NextAt() = %v, %v; reference has live entry %v (seq %d)", at, ok, want, next)
			}
		case 8: // a few steps in a row
			for n := 1 + int(o.byte()%16); n > 0 && e.step(); n-- {
			}
		}
		if got, want := e.Pending(), len(o.live); got != want {
			o.t.Fatalf("Pending() = %d, reference %d", got, want)
		}
		checkQueue(o.t, e)
	}
	e.Run()
	if _, left := o.nextLive(); left || e.Pending() != 0 {
		o.t.Fatalf("Run() returned with live entries (Pending %d)", e.Pending())
	}
	checkQueue(o.t, e)
}

func runOrderScript(t *testing.T, script []byte) {
	o := &orderScript{t: t, e: NewEngine(), script: script}
	o.run()
}

// TestEngineOrderDifferential runs random operation scripts against the
// reference model.
func TestEngineOrderDifferential(t *testing.T) {
	rng := NewRNG(12)
	for i := 0; i < 300; i++ {
		script := make([]byte, 64+rng.Intn(1500))
		for j := range script {
			script[j] = byte(rng.uint64())
		}
		runOrderScript(t, script)
	}
}

// FuzzEngineOrder is the coverage-guided form of the differential test;
// its seed corpus is under testdata/fuzz/FuzzEngineOrder.
func FuzzEngineOrder(f *testing.F) {
	f.Fuzz(runOrderScript)
}

// NextAt and RunUntil only peek: neither takes an instant out of the
// buckets, so last stays at or before now even when a cancelled head
// has to be skipped (the shard runner's window pattern), and an event
// scheduled afterwards between now and the peeked instant is an
// ordinary bucket entry that still fires first.
func TestEnginePeekKeepsLastBehindNow(t *testing.T) {
	e := NewEngine()
	var order []string
	head := e.Schedule(100, func() { order = append(order, "head") })
	e.Schedule(200, func() { order = append(order, "b") })
	e.Schedule(200, func() { order = append(order, "c") })
	head.Cancel()
	if at, ok := e.NextAt(); !ok || at != 200 {
		t.Fatalf("NextAt() = %v, %v; want 200, true", at, ok)
	}
	if e.last > e.Now() {
		t.Fatalf("NextAt moved last to %v past now %v", e.last, e.Now())
	}
	e.Schedule(150, func() { order = append(order, "early") })
	e.Schedule(200, func() { order = append(order, "d") })
	checkQueue(t, e)
	if e.RunUntil(120) {
		t.Fatal("RunUntil(120) drained")
	}
	if e.last > e.Now() {
		t.Fatalf("RunUntil moved last to %v past now %v", e.last, e.Now())
	}
	e.Schedule(130, func() { order = append(order, "late") })
	checkQueue(t, e)
	e.Run()
	want := []string{"late", "early", "b", "c", "d"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A queue that drains through cancelled entries only must not leave
// last ahead of now: an event scheduled before the cancelled instant
// fires at its own time.
func TestScheduleAfterCancelledDrain(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() { t.Fatal("cancelled event fired") }).Cancel()
	if e.step() {
		t.Fatal("Step() ran an event from a queue holding only a cancelled one")
	}
	checkQueue(t, e)
	fired := Time(-1)
	e.Schedule(50, func() { fired = e.Now() })
	checkQueue(t, e)
	if !e.step() || fired != 50 {
		t.Fatalf("event scheduled at 50 fired at %v", fired)
	}
}
