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
// and charge their own processing costs. The lists live in buffers the
// state machine reuses, so a steady stream of operations allocates
// nothing: each list is valid only until the next Start, Arrive or
// Missing call on the same state machine.
type OpState struct {
	sched barrier.Schedule

	seq    int // active or most recently completed operation; -1 before first
	active bool
	step   int // current step of the active operation
	bit    int // first arrival bit not yet seen set (all below it are)
	sentTo int // steps of the active operation whose sends have fired

	// Arrival bits are numbered in schedule (wait-list) order. arrived
	// holds the active operation's arrivals, early the buffered arrivals
	// for seq+1; the two share one word array, and Start swaps them.
	arrived, early BitVector

	buf []int // reused result buffer of Start, Arrive and Missing

	// Duplicates counts arrivals that were already recorded (retransmits
	// that raced the original); they are ignored but visible for tests.
	Duplicates int
	// Stale counts arrivals for operations already completed.
	Stale int
}

// NewOpState builds the state machine for one rank's schedule. It makes
// three allocations whatever the group size: the state, one word array
// for its two bit vectors and its result buffer. Peer lookups read the
// schedule's step table, which a plan shares among its ranks.
func NewOpState(sched barrier.Schedule) *OpState {
	o := new(OpState)
	o.init(sched)
	return o
}

// init builds o in place; ReduceState embeds its OpState by value.
func (o *OpState) init(sched barrier.Schedule) {
	nw, ns := sched.TotalWaits(), sched.TotalSends()
	words := make([]uint64, 2*((nw+63)/64))
	half := len(words) / 2
	*o = OpState{
		sched:   sched,
		seq:     -1,
		arrived: BitVector{bits: words[:half:half], n: nw},
		early:   BitVector{bits: words[half:], n: nw},
		buf:     make([]int, 0, max(nw, ns)),
	}
}

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
	o.early.Clear()
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
		if !o.arrived.Set(bit) {
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
		if !o.early.Set(bit) {
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
// there are none) in the reused buffer.
func (o *OpState) advance() (sends []int, completed bool) {
	o.buf = o.buf[:0]
	completed = true
	for o.step < o.sched.Steps() {
		if o.sentTo == o.step {
			o.sentTo++
			o.buf = o.sched.AppendSends(o.buf, o.step)
		}
		for end := o.sched.WaitEnd(o.step); o.bit < end; o.bit++ {
			if !o.arrived.Get(o.bit) {
				completed = false
				break
			}
		}
		if !completed {
			break
		}
		o.step++
	}
	if completed {
		o.active = false
	}
	if len(o.buf) == 0 {
		return nil, completed
	}
	return o.buf, completed
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
	o.early.Clear()
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
	o.buf = o.buf[:0]
	for bit := range o.sched.TotalWaits() {
		if !o.arrived.Get(bit) {
			o.buf = append(o.buf, o.sched.Sender(bit))
		}
	}
	if len(o.buf) == 0 {
		return nil
	}
	return o.buf
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
