package core

import "nicbarrier/internal/barrier"

// Arena holds the protocol state of every member of one session in a
// fixed number of allocations whatever the group size: the members'
// state machines in one slice, their arrival bit vectors in one word
// array, for allreduce their arrival values and sent snapshots carved
// from one value and one snapshot array, and the one result buffer they
// all share. The members' NACK counts, which only retransmission
// needs, are built on the first NACK. The paper's NIC keeps one bit
// vector per group and operation; the arena keeps a session's worth of
// them side by side rather than as an object graph per rank.
//
// Because the result buffer is shared, a rank list returned by any
// member's Start, Arrive or Missing is valid only until the next such
// call on any member of the arena. Every caller consumes the list
// within the handler that produced it.
type Arena struct {
	ops   []OpState     // barrier and broadcast arenas
	reds  []ReduceState // allreduce arenas
	words []uint64      // every member's arrival vectors (see OpState)
	buf   []int
	// nacks holds every member's NACK counts (see OpState.CountNack):
	// member i's counts for operations of parity p start at
	// (2i+p)*sends. nil until the first NACK.
	nacks []nackCount
	sends int // the most notifications any member sends per operation
}

// nackCount is the number of NACKs answered for one destination's
// notification of operation seq.
type nackCount struct{ seq, n int }

// index returns o's position among the arena's members. A session's
// arena holds one member per rank of its plan, in rank order; a
// one-member arena holds one member of any rank.
func (a *Arena) index(o *OpState) int {
	if len(a.ops)+len(a.reds) == 1 {
		return 0
	}
	return o.sched.Rank()
}

// NewArena builds the state machines of every rank of plan.
func NewArena(plan *barrier.Plan) *Arena {
	a, _ := newArena(plan.Size(), plan.Rank, nil)
	return a
}

// NewReduceArena builds the allreduce state machines of every rank of
// plan. It returns an error when the (operator, plan) combination cannot
// be exact.
func NewReduceArena(op ReduceOp, plan *barrier.Plan) (*Arena, error) {
	return newArena(plan.Size(), plan.Rank, &op)
}

// newArena builds n state machines over the schedules rank returns,
// allreduce ones when op is non-nil.
func newArena(n int, rank func(int) barrier.Schedule, op *ReduceOp) (*Arena, error) {
	if op != nil {
		if err := CheckReduce(*op, rank(0)); err != nil {
			return nil, err
		}
	}
	var nwords, waits, sends, maxSends, list int
	for r := range n {
		s := rank(r)
		nw, ns := s.TotalWaits(), s.TotalSends()
		nwords += 2 * words(s)
		waits += nw
		sends += ns
		maxSends = max(maxSends, ns)
		list = max(list, nw, ns)
	}
	a := &Arena{words: make([]uint64, nwords), buf: make([]int, 0, list), sends: maxSends}
	off := 0
	if op == nil {
		a.ops = make([]OpState, n)
		for r := range a.ops {
			off = a.ops[r].carve(rank(r), a, off)
		}
		return a, nil
	}
	vals := make([]int64, 2*waits)
	sent := make([]sentVal, 2*sends)
	for i := range sent {
		sent[i].seq = -1
	}
	a.reds = make([]ReduceState, n)
	for r := range a.reds {
		red := &a.reds[r]
		s := rank(r)
		off = red.st.carve(s, a, off)
		nw, ns := 2*s.TotalWaits(), 2*s.TotalSends()
		*red = ReduceState{op: *op, st: red.st, vals: vals[:nw:nw], sent: sent[:ns:ns]}
		vals, sent = vals[nw:], sent[ns:]
	}
	return a, nil
}

// carve builds o in arena a over the words from off on and returns the
// first word past them.
func (o *OpState) carve(sched barrier.Schedule, a *Arena, off int) int {
	*o = OpState{sched: sched, a: a, off: int32(off), seq: -1}
	return off + 2*words(sched)
}

// Op returns rank's state machine; on an allreduce arena, the one its
// ReduceState wraps.
func (a *Arena) Op(rank int) *OpState {
	if a.reds != nil {
		return &a.reds[rank].st
	}
	return &a.ops[rank]
}
