// Package core implements the paper's primary contribution: the NIC-based
// collective message passing protocol. It contains the pieces the paper
// identifies as the collective replacements for point-to-point processing:
//
//   - groups (Group) whose members the NIC models install into their
//     group-queue slot tables, one dedicated queue entry per group
//     (queuing done collectively — Section 3 "Queuing" and Section 6.1);
//   - a single send record per collective operation holding a bit vector
//     over peer messages (bookkeeping done collectively — Section 3
//     "Bookkeeping" and Section 6.3);
//   - the operation state machine that advances a barrier.Schedule as
//     notifications arrive, buffering one barrier ahead (the consecutive-
//     barrier case), with a session's state machines kept in one Arena;
//   - receiver-driven retransmission support: Missing() lists the peers
//     to NACK, HasSent() answers whether a NACK can be served (error
//     control done collectively — Section 3 "Flow/Error Control" and
//     Section 6.3).
//
// The package is engine-agnostic and cost-free: the Myrinet MCP model
// (internal/myrinet) and the Quadrics chained-RDMA model (internal/elan)
// both drive these state machines, charging their own processing costs.
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
	// a is the arena the state machine lives in: it holds the arrival
	// words, the result buffer of Start, Arrive and Missing, and the
	// NACK counts.
	a *Arena

	// Small integers, so that a member's state stays 56 bytes: a group
	// has fewer than 2^31 ranks, steps and operations.
	off    int32 // first of this state's words in a.words
	seq    int32 // active or most recently completed operation; -1 before first
	step   int32 // current step of the active operation
	bit    int32 // first arrival bit not yet seen set (all below it are)
	sentTo int32 // steps of the active operation whose sends have fired
	dups   int32 // see Duplicates
	stale  int32 // see Stale
	active bool
}

// Arrival bits are numbered in schedule (wait-list) order, and each
// operation's bits live in the vector of its parity: word i of
// operation seq's vector is a.words[off+2i+seq&1]. The active
// operation's arrivals are in its own vector, the buffered arrivals of
// seq+1 in the other, so Start swaps nothing: it clears the other
// vector, which held seq-1's arrivals, for seq+1 to buffer into.

// NewOpState builds the state machine for one rank's schedule as a
// one-member arena: four allocations whatever the group size. Sessions
// build every member's state at once with NewArena instead.
func NewOpState(sched barrier.Schedule) *OpState {
	a, _ := newArena(1, func(int) barrier.Schedule { return sched }, nil)
	return a.Op(0)
}

// words reports how many words each of sched's two arrival vectors
// takes.
func words(sched barrier.Schedule) int { return (sched.TotalWaits() + 63) / 64 }

// word returns the index in a.words of word i of operation seq's
// vector.
func (o *OpState) word(seq, i int) int { return int(o.off) + 2*i + seq&1 }

// setBit sets arrival bit i of operation seq, reporting whether it was
// previously clear.
func (o *OpState) setBit(seq, i int) bool {
	w, m := &o.a.words[o.word(seq, i/64)], uint64(1)<<(i%64)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// getBit reports arrival bit i of operation seq.
func (o *OpState) getBit(seq, i int) bool {
	return o.a.words[o.word(seq, i/64)]&(uint64(1)<<(i%64)) != 0
}

// clearBits clears operation seq's arrival vector.
func (o *OpState) clearBits(seq int) {
	for i := range words(o.sched) {
		o.a.words[o.word(seq, i)] = 0
	}
}

// Schedule returns the schedule this state machine executes.
func (o *OpState) Schedule() barrier.Schedule { return o.sched }

// Seq reports the active (or most recently completed) operation sequence;
// -1 before the first Start.
func (o *OpState) Seq() int { return int(o.seq) }

// Active reports whether an operation is in flight.
func (o *OpState) Active() bool { return o.active }

// Duplicates counts arrivals that were already recorded (retransmits
// that raced the original); they are ignored but visible for tests.
func (o *OpState) Duplicates() int { return int(o.dups) }

// Stale counts arrivals for operations already completed.
func (o *OpState) Stale() int { return int(o.stale) }

// Reduce returns the allreduce state machine wrapping o, nil for a
// barrier or broadcast state machine.
func (o *OpState) Reduce() *ReduceState {
	if o.a.reds == nil {
		return nil
	}
	return &o.a.reds[o.a.index(o)]
}

// CountNack records one more NACK answered for this rank's operation seq
// notification to toRank, a destination of its schedule, and returns
// how many it has answered. Counts are kept for the current and the
// previous operation only: operation seq+2 takes over seq's. The arena
// builds every member's counts on the first NACK any of them answers.
func (o *OpState) CountNack(seq, toRank int) int {
	i, _, ok := o.sched.Dest(toRank)
	if !ok {
		panic(fmt.Sprintf("core: rank %d never sends to rank %d", o.sched.Rank(), toRank))
	}
	a := o.a
	if a.nacks == nil {
		a.nacks = make([]nackCount, 2*a.sends*max(len(a.ops), len(a.reds)))
	}
	c := &a.nacks[(2*a.index(o)+seq&1)*a.sends+i]
	if c.seq != seq {
		*c = nackCount{seq: seq}
	}
	c.n++
	return c.n
}

// Start activates operation seq (which must be exactly the successor of
// the previous operation), replays any buffered early arrivals, and
// returns the ranks to notify immediately. completed is true when the
// schedule finishes without waiting (e.g. a single-rank group).
func (o *OpState) Start(seq int) (sends []int, completed bool, err error) {
	if o.active {
		return nil, false, fmt.Errorf("core: Start(%d) while op %d active", seq, o.seq)
	}
	if seq != int(o.seq)+1 {
		return nil, false, fmt.Errorf("core: Start(%d) after op %d", seq, o.seq)
	}
	o.seq = int32(seq)
	o.active = true
	o.step, o.bit, o.sentTo = 0, 0, 0
	o.clearBits(seq + 1)
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
	cur := int(o.seq)
	switch {
	case seq <= cur-1 || (seq == cur && !o.active):
		o.stale++
		return -1, 0, nil, false, nil
	case seq == cur && o.active:
		bit, step, ok := o.sched.Arrival(fromRank)
		if !ok {
			return -1, 0, nil, false, fmt.Errorf("core: arrival from unexpected rank %d", fromRank)
		}
		if !o.setBit(seq, bit) {
			o.dups++
			return -1, 0, nil, false, nil
		}
		sends, completed = o.advance()
		return bit, step, sends, completed, nil
	case seq == cur+1:
		bit, step, ok := o.sched.Arrival(fromRank)
		if !ok {
			return -1, 0, nil, false, fmt.Errorf("core: early arrival from unexpected rank %d", fromRank)
		}
		if !o.setBit(seq, bit) {
			o.dups++
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
	buf := o.a.buf[:0]
	seq, step, bit := int(o.seq), int(o.step), int(o.bit)
	completed = true
	for steps := o.sched.Steps(); step < steps; step++ {
		if int(o.sentTo) == step {
			o.sentTo++
			buf = o.sched.AppendSends(buf, step)
		}
		for end := o.sched.WaitEnd(step); bit < end; bit++ {
			if !o.getBit(seq, bit) {
				completed = false
				break
			}
		}
		if !completed {
			break
		}
	}
	o.step, o.bit = int32(step), int32(bit)
	if completed {
		o.active = false
	}
	o.a.buf = buf
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
	o.step = int32(o.sched.Steps())
	o.clearBits(int(o.seq) + 1)
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
	buf := o.a.buf[:0]
	for bit := range o.sched.TotalWaits() {
		if !o.getBit(int(o.seq), bit) {
			buf = append(buf, o.sched.Sender(bit))
		}
	}
	o.a.buf = buf
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
	switch cur := int(o.seq); {
	case seq < cur || (seq == cur && !o.active):
		return true
	case seq == cur:
		return step < int(o.sentTo)
	default:
		return false
	}
}
