package core

import (
	"fmt"

	"nicbarrier/internal/barrier"
)

// OpState is the per-group, per-rank state machine for consecutive
// collective operations. It is the protocol's "single send record per
// operation": one bit vector tracks peer arrivals, one flag per step
// tracks this rank's sends, and a one-deep early buffer absorbs
// notifications for operation seq+1 that arrive while seq is still in
// flight (a fast peer may complete barrier k and inject its first message
// of barrier k+1 before a slow peer finishes k; messages for k+2 are
// impossible while k is incomplete, because completing k+1 requires this
// rank's k+1 messages, so one buffer is provably enough).
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
	step   int
	sent   []bool // per step

	arrived  *BitVector
	rankBit  map[int]int // expected sender rank -> bit index
	sendStep map[int]int // destination rank -> step performing that send

	buf []int // reused result buffer of Start, Arrive and Missing

	early map[int]bool // buffered arrivals for seq+1, by sender rank

	// Duplicates counts arrivals that were already recorded (retransmits
	// that raced the original); they are ignored but visible for tests.
	Duplicates int
	// Stale counts arrivals for operations already completed.
	Stale int
}

// NewOpState builds the state machine for one rank's schedule.
func NewOpState(sched barrier.Schedule) *OpState {
	o := &OpState{
		sched:    sched,
		seq:      -1,
		sent:     make([]bool, len(sched.Steps)),
		rankBit:  make(map[int]int),
		sendStep: make(map[int]int),
		early:    make(map[int]bool),
	}
	for _, r := range sched.ExpectedArrivals() {
		if _, dup := o.rankBit[r]; dup {
			panic(fmt.Sprintf("core: schedule waits twice on rank %d", r))
		}
		o.rankBit[r] = len(o.rankBit)
	}
	for i, st := range sched.Steps {
		for _, dst := range st.Send {
			if _, dup := o.sendStep[dst]; dup {
				panic(fmt.Sprintf("core: schedule sends twice to rank %d", dst))
			}
			o.sendStep[dst] = i
		}
	}
	o.arrived = NewBitVector(len(o.rankBit))
	return o
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
	o.step = 0
	for i := range o.sent {
		o.sent[i] = false
	}
	o.arrived.Clear()
	for r := range o.early {
		bit, ok := o.rankBit[r]
		if !ok {
			return nil, false, fmt.Errorf("core: buffered arrival from unexpected rank %d", r)
		}
		o.arrived.Set(bit)
	}
	clear(o.early)
	sends, completed = o.advance()
	return sends, completed, nil
}

// Arrive records a peer notification for operation seq. It returns the
// newly unblocked sends and whether the active operation completed.
// Arrivals for seq+1 are buffered; duplicates and stale arrivals are
// counted and ignored.
func (o *OpState) Arrive(seq, fromRank int) (sends []int, completed bool, err error) {
	switch {
	case seq <= o.seq-1 || (seq == o.seq && !o.active):
		o.Stale++
		return nil, false, nil
	case seq == o.seq && o.active:
		bit, ok := o.rankBit[fromRank]
		if !ok {
			return nil, false, fmt.Errorf("core: arrival from unexpected rank %d", fromRank)
		}
		if !o.arrived.Set(bit) {
			o.Duplicates++
			return nil, false, nil
		}
		sends, completed = o.advance()
		return sends, completed, nil
	case seq == o.seq+1:
		if _, ok := o.rankBit[fromRank]; !ok {
			return nil, false, fmt.Errorf("core: early arrival from unexpected rank %d", fromRank)
		}
		if o.early[fromRank] {
			o.Duplicates++
			return nil, false, nil
		}
		o.early[fromRank] = true
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("core: arrival for op %d while at op %d (impossible lookahead)", seq, o.seq)
	}
}

// advance performs all sends whose steps have started and completes all
// steps whose waits are satisfied, returning newly issued sends (nil when
// there are none) in the reused buffer.
func (o *OpState) advance() (sends []int, completed bool) {
	o.buf = o.buf[:0]
	completed = true
	for o.step < len(o.sched.Steps) {
		st := o.sched.Steps[o.step]
		if !o.sent[o.step] {
			o.sent[o.step] = true
			o.buf = append(o.buf, st.Send...)
		}
		done := true
		for _, w := range st.Wait {
			if !o.arrived.Get(o.rankBit[w]) {
				done = false
				break
			}
		}
		if !done {
			completed = false
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
	o.step = len(o.sched.Steps)
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
	// Bits were assigned in ExpectedArrivals order: the schedule's wait
	// lists, step by step.
	o.buf = o.buf[:0]
	bit := 0
	for _, st := range o.sched.Steps {
		for _, r := range st.Wait {
			if !o.arrived.Get(bit) {
				o.buf = append(o.buf, r)
			}
			bit++
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
	step, sendsToRank := o.sendStep[toRank]
	if !sendsToRank {
		return false
	}
	switch {
	case seq < o.seq || (seq == o.seq && !o.active):
		return true
	case seq == o.seq:
		return o.sent[step]
	default:
		return false
	}
}
