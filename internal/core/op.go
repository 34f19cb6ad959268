package core

import (
	"fmt"

	"nicbarrier/internal/barrier"
)

// OpState is the per-group, per-rank state machine for consecutive
// collective operations. It is the protocol's "single send record per
// operation": one bit vector tracks peer arrivals, a step counter
// tracks this rank's sends, and a second bit vector, a one-deep early
// buffer, absorbs notifications for operation seq+1 that arrive while
// seq is still in flight (a fast peer may complete barrier k and inject
// its first message of barrier k+1 before a slow peer finishes k;
// messages for k+2 are impossible while k is incomplete, because
// completing k+1 requires this rank's k+1 messages, so one buffer is
// provably enough).
//
// The state machine is pure: it charges no simulated time and sends no
// packets. Callers (the Myrinet MCP collective module, the Quadrics
// chained-RDMA model) translate the returned rank lists into wire traffic
// and charge their own processing costs. The lists live in one result
// buffer that every state machine of an Arena shares, so a steady stream
// of operations allocates nothing: a returned list is valid only until
// the next Start, Arrive or Missing call on any member of the arena.
type OpState struct {
	sched barrier.Schedule

	seq    int // active or most recently completed operation; -1 before first
	active bool
	step   int // current step of the active operation
	bit    int // first arrival bit not yet seen set (all below it are)
	sentTo int // steps of the active operation whose sends have fired

	// Arrival bits are numbered in schedule (wait-list) order. arrived
	// holds the active operation's arrivals, early the buffered arrivals
	// for seq+1; the two are carved from the arena's word array, and
	// Start swaps them.
	arrived, early []uint64

	buf *[]int // the arena's result buffer of Start, Arrive and Missing

	// Duplicates counts arrivals that were already recorded (retransmits
	// that raced the original); they are ignored but visible for tests.
	Duplicates int
	// Stale counts arrivals for operations already completed.
	Stale int
}

// NewOpState builds the state machine for one rank's schedule as a
// one-member arena: four allocations whatever the group size. Sessions
// build every member's state at once with NewArena instead.
func NewOpState(sched barrier.Schedule) *OpState {
	a, _ := newArena(1, func(int) barrier.Schedule { return sched }, nil)
	return a.Op(0)
}

// init builds o in place over words, which holds two bit vectors of
// len(words)/2 words each.
func (o *OpState) init(sched barrier.Schedule, words []uint64, buf *[]int) {
	half := len(words) / 2
	*o = OpState{
		sched:   sched,
		seq:     -1,
		arrived: words[:half:half],
		early:   words[half:],
		buf:     buf,
	}
}

// setBit sets bit i of w, reporting whether it was previously clear.
func setBit(w []uint64, i int) bool {
	m := uint64(1) << (i % 64)
	if w[i/64]&m != 0 {
		return false
	}
	w[i/64] |= m
	return true
}

// getBit reports bit i of w.
func getBit(w []uint64, i int) bool { return w[i/64]&(uint64(1)<<(i%64)) != 0 }

// SendIndex reports the position of toRank among this rank's
// destinations, in schedule send order; ok is false when the schedule
// never sends to toRank. Callers key per-destination records by it.
func (o *OpState) SendIndex(toRank int) (idx int, ok bool) {
	idx, _, ok = o.sched.Dest(toRank)
	return idx, ok
}

// Schedule returns the schedule this state machine executes.
func (o *OpState) Schedule() barrier.Schedule { return o.sched }

// Seq reports the active (or most recently completed) operation sequence;
// -1 before the first Start.
func (o *OpState) Seq() int { return o.seq }

// Active reports whether an operation is in flight.
func (o *OpState) Active() bool { return o.active }

// Step reports the current step index of the active operation.
func (o *OpState) Step() int { return o.step }

// Start activates operation seq (which must be exactly the successor of
// the previous operation), replays any buffered early arrivals, and
// returns the ranks to notify immediately. completed is true when the
// schedule finishes without waiting (e.g. a single-rank group).
func (o *OpState) Start(seq int) (sends []int, completed bool, err error) {
	if o.active {
		return nil, false, fmt.Errorf("core: Start(%d) while op %d active", seq, o.seq)
	}
	if seq != o.seq+1 {
		return nil, false, fmt.Errorf("core: Start(%d) after op %d", seq, o.seq)
	}
	o.seq = seq
	o.active = true
	o.step, o.bit, o.sentTo = 0, 0, 0
	o.arrived, o.early = o.early, o.arrived
	clear(o.early)
	sends, completed = o.advance()
	return sends, completed, nil
}

// Arrive records a peer notification for operation seq. It returns the
// newly unblocked sends and whether the active operation completed.
// Arrivals for seq+1 are buffered; duplicates and stale arrivals are
// counted and ignored.
func (o *OpState) Arrive(seq, fromRank int) (sends []int, completed bool, err error) {
	_, _, sends, completed, err = o.arrive(seq, fromRank)
	return sends, completed, err
}

// arrive is Arrive that also returns the sender's arrival bit and step
// when the arrival was recorded, for the active operation or buffered
// for the next one, and bit -1 when it was not.
func (o *OpState) arrive(seq, fromRank int) (bit, step int, sends []int, completed bool, err error) {
	switch {
	case seq <= o.seq-1 || (seq == o.seq && !o.active):
		o.Stale++
		return -1, 0, nil, false, nil
	case seq == o.seq && o.active:
		bit, step, ok := o.sched.Arrival(fromRank)
		if !ok {
			return -1, 0, nil, false, fmt.Errorf("core: arrival from unexpected rank %d", fromRank)
		}
		if !setBit(o.arrived, bit) {
			o.Duplicates++
			return -1, 0, nil, false, nil
		}
		sends, completed = o.advance()
		return bit, step, sends, completed, nil
	case seq == o.seq+1:
		bit, step, ok := o.sched.Arrival(fromRank)
		if !ok {
			return -1, 0, nil, false, fmt.Errorf("core: early arrival from unexpected rank %d", fromRank)
		}
		if !setBit(o.early, bit) {
			o.Duplicates++
			return -1, 0, nil, false, nil
		}
		return bit, step, nil, false, nil
	default:
		return -1, 0, nil, false, fmt.Errorf("core: arrival for op %d while at op %d (impossible lookahead)", seq, o.seq)
	}
}

// advance performs all sends whose steps have started and completes all
// steps whose waits are satisfied, returning newly issued sends (nil when
// there are none) in the shared buffer.
func (o *OpState) advance() (sends []int, completed bool) {
	buf := (*o.buf)[:0]
	completed = true
	for steps := o.sched.Steps(); o.step < steps; o.step++ {
		if o.sentTo == o.step {
			o.sentTo++
			buf = o.sched.AppendSends(buf, o.step)
		}
		for end := o.sched.WaitEnd(o.step); o.bit < end; o.bit++ {
			if !getBit(o.arrived, o.bit) {
				completed = false
				break
			}
		}
		if !completed {
			break
		}
	}
	if completed {
		o.active = false
	}
	*o.buf = buf
	if len(buf) == 0 {
		return nil, completed
	}
	return buf, completed
}

// Abort force-quiesces the state machine after a deadline expiry: the
// active operation (if any) is abandoned without its missing arrivals
// and the early buffer is discarded, so teardown paths that refuse to
// run mid-operation (UninstallGroup, DisarmChain, session Close) become
// legal. The aborted sequence number stays consumed — its partial state
// is meaningless — and the caller must not restart the group: recovery
// installs a fresh group (new ID, fresh records) instead.
func (o *OpState) Abort() {
	o.active = false
	o.step = o.sched.Steps()
	clear(o.early)
}

// Missing lists the peer ranks whose notifications for the active
// operation have not arrived — the NACK targets of receiver-driven
// retransmission. It is nil when no operation is active or nothing is
// missing.
func (o *OpState) Missing() []int {
	if !o.active {
		return nil
	}
	// Arrival bits follow the schedule's wait lists, step by step.
	buf := (*o.buf)[:0]
	for bit := range o.sched.TotalWaits() {
		if !getBit(o.arrived, bit) {
			buf = append(buf, o.sched.Sender(bit))
		}
	}
	*o.buf = buf
	if len(buf) == 0 {
		return nil
	}
	return buf
}

// HasSent reports whether this rank's notification to toRank for
// operation seq has already been transmitted (and so can be retransmitted
// in response to a NACK). Operations before the current one sent
// everything by construction.
func (o *OpState) HasSent(seq, toRank int) bool {
	_, step, sendsToRank := o.sched.Dest(toRank)
	if !sendsToRank {
		return false
	}
	switch {
	case seq < o.seq || (seq == o.seq && !o.active):
		return true
	case seq == o.seq:
		return step < o.sentTo
	default:
		return false
	}
}
