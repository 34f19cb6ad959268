package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// The event queue is a radix heap over the engine clock. It relies on
// one property of a discrete-event simulation: the queue minimum never
// decreases between refills, because time never runs backwards
// (schedule panics on at < now).
//
// last is the instant the queue most recently took out of its buckets,
// and last <= now holds after every public call: Step takes an instant
// out only to fire it, RunUntil none past its deadline (the clock then
// moves to the deadline), and NextAt only peeks. If the instants taken
// out held only cancelled entries and the queue drains, last falls
// back to now. Every queued entry sits in exactly one of two places:
//
//   - at > last: unsorted in bucket bits.Len64(at ^ last), a singly
//     linked chain threaded through the key array's next field. All
//     entries of bucket b agree with last above bit b-1, so the lowest
//     non-empty bucket holds the earliest entries.
//   - at == last: in the front, a run of slot indices in seq order.
//     A refill sorts the instant it takes out by seq once; a zero-delay
//     schedule appends, since its seq is the largest so far. Because
//     at >= now >= last for every new entry, nothing can land before
//     last, and the front never needs a heap.
//
// Every front entry precedes every bucket entry, so the front's head is
// the global minimum. With the front empty, a refill takes the lowest
// bucket's earliest instant (kept up to date as entries are linked),
// makes it last, moves its entries to the front and relinks the rest
// of the bucket into strictly lower buckets. Each entry therefore
// moves at most once per bit of its distance from last. NextAt reads
// that earliest timestamp without a refill; each bucket also keeps the
// slot holding it, and only when that entry has been cancelled is the
// bucket rescanned.
//
// The bucket walk reads only the 16-byte key array (at, next, state);
// the seq, generation and callback live in the parallel payload array,
// which the walk touches only to sort a refilled instant.
//
// The firing order is (at, seq) by construction: bucket placement only
// decides when an entry reaches the front, and the front holds one
// instant in seq order. Cancelled entries are dropped lazily, wherever
// a refill, NextAt or compact meets them.

// push queues the entry held in slot s.
func (e *Engine) push(s int32) {
	at := e.keys[s].at
	if at == e.last {
		e.front = append(e.front, s)
		return
	}
	e.link(s, bits.Len64(uint64(at^e.last)))
}

// link prepends slot s to bucket b's chain and keeps the bucket's
// earliest timestamp and the slot holding it.
func (e *Engine) link(s int32, b int) {
	bit := uint64(1) << b
	k := &e.keys[s]
	if e.buckets&bit == 0 {
		e.buckets |= bit
		e.earliest[b], e.first[b] = k.at, s
		k.next = -1
	} else {
		if k.at < e.earliest[b] {
			e.earliest[b], e.first[b] = k.at, s
		}
		k.next = e.heads[b]
	}
	e.heads[b] = s
}

// drop releases slot s if its entry was cancelled and reports whether
// it did.
func (e *Engine) drop(s int32) bool {
	if e.keys[s].state != slotCancelled {
		return false
	}
	e.cancelled--
	e.releaseSlot(s)
	return true
}

// frontLive drops the cancelled entries at the front's head and
// reports whether a live one remains there, resetting an exhausted
// front for reuse.
func (e *Engine) frontLive() bool {
	for ; e.head < len(e.front); e.head++ {
		if !e.drop(e.front[e.head]) {
			return true
		}
	}
	e.front, e.head = e.front[:0], 0
	return false
}

// next brings the earliest live entry to the front's head, taking
// instants out of the buckets while the front is empty, but none after
// limit. It reports false when no live entry is due by limit. Only
// Step and RunUntil call it, and each fires what it brings forward or
// moves the clock to limit, so last never passes now.
func (e *Engine) next(limit Time) bool {
	if e.frontLive() {
		return e.last <= limit
	}
	for e.buckets != 0 && e.earliest[bits.TrailingZeros64(e.buckets)] <= limit {
		if e.refill(); len(e.front) > 0 {
			return true // a refill drops cancelled entries on its walk
		}
	}
	if e.buckets == 0 {
		e.last = e.now // only cancelled entries were left
	}
	return false
}

// NextAt reports the timestamp of the next live (not cancelled) event,
// or ok == false when the queue is empty. It only peeks: no instant is
// taken out of the buckets, so events scheduled afterwards before it
// stay ordinary bucket entries. A bucket's earliest entry may have been
// cancelled (Cancel leaves the chains alone); only then is that bucket
// rescanned. The partitioned runtime (internal/shard) uses it to skip
// empty lookahead windows: the coordinator advances every shard
// straight to the earliest pending event instead of stepping fixed
// windows through idle virtual time.
func (e *Engine) NextAt() (Time, bool) {
	if e.live == 0 {
		return 0, false
	}
	if e.frontLive() {
		return e.last, true
	}
	for {
		b := bits.TrailingZeros64(e.buckets)
		if e.keys[e.first[b]].state == slotLive {
			return e.earliest[b], true
		}
		e.rescan(b)
	}
}

// rescan drops bucket b's cancelled entries and recomputes its earliest
// timestamp, emptying the bucket if nothing live is left in it.
func (e *Engine) rescan(b int) {
	e.buckets &^= 1 << b
	for s := e.heads[b]; s >= 0; {
		next := e.keys[s].next
		if !e.drop(s) {
			e.link(s, b)
		}
		s = next
	}
}

// refill moves the lowest bucket's earliest instant into the empty
// front and makes it last. If every entry at that instant was
// cancelled, the front stays empty and next goes on with the buckets
// the rest were relinked into.
func (e *Engine) refill() {
	b := bits.TrailingZeros64(e.buckets)
	e.buckets &^= 1 << b
	at := e.earliest[b]
	e.last = at
	for s := e.heads[b]; s >= 0; {
		k := &e.keys[s]
		next := k.next
		switch {
		case e.drop(s):
		case k.at == at:
			e.front = append(e.front, s)
		default:
			e.link(s, bits.Len64(uint64(k.at^at)))
		}
		s = next
	}
	if len(e.front) > 1 {
		p := e.payload
		slices.SortFunc(e.front, func(a, b int32) int { return cmp.Compare(p[a].seq, p[b].seq) })
	}
}

// compact removes every cancelled entry from the front and the bucket
// chains in one O(n) pass. Without it, a workload that schedules and
// cancels many timers (retransmission timers under heavy loss) would
// grow the queue unboundedly until the dead entries surfaced.
func (e *Engine) compact() {
	kept := e.front[:0]
	for _, s := range e.front[e.head:] {
		if !e.drop(s) {
			kept = append(kept, s)
		}
	}
	e.front, e.head = kept, 0
	for m := e.buckets; m != 0; m &= m - 1 {
		e.rescan(bits.TrailingZeros64(m))
	}
}
