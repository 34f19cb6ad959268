package core

import "nicbarrier/internal/barrier"

// Arena holds the protocol state of every member of one session in a
// fixed number of allocations whatever the group size: the members'
// state machines in one slice, their arrival bit vectors carved from one
// word array, for allreduce their arrival values and sent snapshots
// carved from one value and one snapshot array, and the one result
// buffer they all share. The paper's NIC keeps one bit vector per group
// and operation; the arena keeps a session's worth of them side by side
// rather than as an object graph per rank.
//
// Because the result buffer is shared, a rank list returned by any
// member's Start, Arrive or Missing is valid only until the next such
// call on any member of the arena. Every caller consumes the list
// within the handler that produced it.
type Arena struct {
	ops  []OpState     // barrier and broadcast arenas
	reds []ReduceState // allreduce arenas
	buf  []int
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
	var words, waits, sends, list int
	for r := range n {
		s := rank(r)
		nw, ns := s.TotalWaits(), s.TotalSends()
		words += 2 * ((nw + 63) / 64)
		waits += nw
		sends += ns
		list = max(list, nw, ns)
	}
	a := &Arena{buf: make([]int, 0, list)}
	w := make([]uint64, words)
	if op == nil {
		a.ops = make([]OpState, n)
		for r := range a.ops {
			w = a.ops[r].carve(rank(r), w, &a.buf)
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
		w = red.st.carve(s, w, &a.buf)
		nw, ns := 2*s.TotalWaits(), 2*s.TotalSends()
		*red = ReduceState{op: *op, st: red.st, vals: vals[:nw:nw], sent: sent[:ns:ns]}
		vals, sent = vals[nw:], sent[ns:]
	}
	return a, nil
}

// carve builds o over the next words of w and returns the rest.
func (o *OpState) carve(sched barrier.Schedule, w []uint64, buf *[]int) []uint64 {
	k := 2 * ((sched.TotalWaits() + 63) / 64)
	o.init(sched, w[:k:k], buf)
	return w[k:]
}

// Op returns rank's state machine; on an allreduce arena, the one its
// ReduceState wraps.
func (a *Arena) Op(rank int) *OpState {
	if a.reds != nil {
		return &a.reds[rank].st
	}
	return &a.ops[rank]
}

// Reduce returns rank's allreduce state machine, nil on a barrier arena.
func (a *Arena) Reduce(rank int) *ReduceState {
	if a.reds == nil {
		return nil
	}
	return &a.reds[rank]
}
