package sim

import "math/bits"

// The event queue is a radix heap over the engine clock. It relies on
// one property of a discrete-event simulation: the queue minimum never
// decreases between refills, because time never runs backwards
// (schedule panics on at < now).
//
// last is the timestamp of the most recent instant the queue took out
// of its buckets. Every queued entry sits in exactly one of two places:
//
//   - at > last: unsorted in bucket bits.Len64(at ^ last), a singly
//     linked chain threaded through the Timer slot table's next field.
//     All entries of bucket b agree with last above bit b-1, so the
//     lowest non-empty bucket holds the earliest entries.
//   - at <= last: in the front, a small pointer-free 4-ary heap
//     ordered by (at, seq). It holds the current instant plus
//     stragglers: entries scheduled in [now, last) after NextAt or
//     RunUntil looked past now (the shard runner's window pattern).
//
// Every front entry precedes every bucket entry, so the front's head is
// the global minimum. When the front runs dry, refill takes the lowest
// non-empty bucket's earliest timestamp (kept up to date as entries are
// linked), makes that the new last, moves the entries at that instant
// to the front and relinks the rest into strictly lower buckets. Each entry therefore moves at most
// once per bit of its distance from last, and the front heap stays a
// handful of entries deep however many timers are pending.
//
// The firing order is (at, seq) by construction: bucket placement only
// decides when an entry reaches the front, and the front orders by
// (at, seq). Cancelled entries are dropped lazily, wherever a refill,
// a head inspection or compact meets them.

// frontEntry is one front-heap cell. It copies at and seq out of the
// slot so sifting compares within the heap array, and carries no
// pointers, so moving it needs no GC write barrier.
type frontEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// before orders entries by (at, seq), the engine's total event order.
func (a frontEntry) before(b frontEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push queues the entry held in slot s.
func (e *Engine) push(s int32) {
	sl := &e.slots[s]
	if sl.at <= e.last {
		e.frontPush(frontEntry{at: sl.at, seq: sl.seq, slot: s})
		return
	}
	e.link(s, bits.Len64(uint64(sl.at^e.last)))
}

// link prepends slot s to bucket b's chain and keeps the bucket's
// earliest timestamp.
func (e *Engine) link(s int32, b int) {
	bit := uint64(1) << b
	sl := &e.slots[s]
	if e.buckets&bit == 0 {
		e.buckets |= bit
		e.earliest[b] = sl.at
		sl.next = -1
	} else {
		e.earliest[b] = min(e.earliest[b], sl.at)
		sl.next = e.heads[b]
	}
	e.heads[b] = s
}

// drop releases slot s if its entry was cancelled and reports whether
// it did.
func (e *Engine) drop(s int32) bool {
	if e.slots[s].state != slotCancelled {
		return false
	}
	e.cancelled--
	e.releaseSlot(s)
	return true
}

// settle brings the earliest live entry to the front heap's head,
// discarding cancelled entries on the way. It reports false when no
// live entry remains.
func (e *Engine) settle() bool {
	for {
		if len(e.front) == 0 && !e.refill() {
			return false
		}
		if !e.drop(e.front[0].slot) {
			return true
		}
		e.frontPop()
	}
}

// refill moves the earliest instant held in the buckets into the empty
// front heap. It reports false when the buckets hold no live entry.
//
// A bucket's earliest timestamp may belong to a cancelled entry (Cancel
// leaves the chains alone). Making it last is still sound: it precedes
// every other entry of the bucket. If every entry at that instant was
// cancelled, the front stays empty and the loop goes on with the
// buckets the rest were relinked into.
func (e *Engine) refill() bool {
	for e.buckets != 0 {
		b := bits.TrailingZeros64(e.buckets)
		e.buckets &^= 1 << b
		at := e.earliest[b]
		e.last = at
		for s := e.heads[b]; s >= 0; {
			sl := &e.slots[s]
			next := sl.next
			switch {
			case e.drop(s):
			case sl.at == at:
				e.frontPush(frontEntry{at: at, seq: sl.seq, slot: s})
			default:
				e.link(s, bits.Len64(uint64(sl.at^at)))
			}
			s = next
		}
		if len(e.front) > 0 {
			return true
		}
	}
	return false
}

// compact removes every cancelled entry from the front heap and the
// bucket chains in one O(n) pass. Without it, a workload that schedules
// and cancels many timers (retransmission timers under heavy loss)
// would grow the queue unboundedly until the dead entries surfaced.
func (e *Engine) compact() {
	kept := e.front[:0]
	for _, f := range e.front {
		if !e.drop(f.slot) {
			kept = append(kept, f)
		}
	}
	e.front = kept
	if n := len(kept); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
	for m := e.buckets; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		e.buckets &^= 1 << b
		for s := e.heads[b]; s >= 0; {
			next := e.slots[s].next
			if !e.drop(s) {
				e.link(s, b)
			}
			s = next
		}
	}
}

// --- the front: a 4-ary min-heap of frontEntry ---

func (e *Engine) frontPush(f frontEntry) {
	e.front = append(e.front, f)
	i := len(e.front) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !f.before(e.front[p]) {
			break
		}
		e.front[i] = e.front[p]
		i = p
	}
	e.front[i] = f
}

func (e *Engine) frontPop() frontEntry {
	top := e.front[0]
	n := len(e.front) - 1
	e.front[0] = e.front[n]
	e.front = e.front[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftDown(i int) {
	h := e.front
	n := len(h)
	f := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(f) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = f
}
