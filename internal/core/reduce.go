package core

import (
	"fmt"

	"nicbarrier/internal/barrier"
)

// ReduceOp is the combining operator of a NIC-based allreduce. The
// paper's future work asks "whether other collective communication
// operations could benefit from similar NIC-level implementations"
// (Section 9, citing Moody et al.'s NIC-based reduction); a single-word
// allreduce is the natural first one: the operand fits the same static
// packet as the barrier integer, and the combining happens in the
// operation's send record, so the whole collective protocol machinery —
// group queue, bit vector, receiver-driven NACK — carries over unchanged.
type ReduceOp int

// Supported combining operators.
const (
	ReduceSum ReduceOp = iota
	ReduceMin
	ReduceMax
)

// String implements fmt.Stringer.
func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// CheckReduce reports whether op folded over sched's plan is exact: op
// must be known, and sum over dissemination is exact only at powers of
// two (see ReduceState).
func CheckReduce(op ReduceOp, sched barrier.Schedule) error {
	if op < ReduceSum || op > ReduceMax {
		return fmt.Errorf("core: unknown reduce op %d", int(op))
	}
	if op == ReduceSum && sched.Algorithm() == barrier.Dissemination && !barrier.IsPowerOfTwo(sched.Size()) {
		return fmt.Errorf(
			"core: sum-allreduce over dissemination needs a power-of-two group, got %d", sched.Size())
	}
	return nil
}

// Combine applies the operator.
func (op ReduceOp) Combine(a, b int64) int64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMin:
		if b < a {
			return b
		}
		return a
	case ReduceMax:
		if b > a {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("core: unknown reduce op %d", int(op)))
	}
}

// ReduceState turns a barrier schedule into an allreduce. Every
// notification carries the sender's partial value. Two rules make the
// result exact for non-idempotent operators:
//
//  1. Step-ordered folding. The value transmitted with a step-s send is
//     the local contribution combined with the arrivals of steps BEFORE
//     s only — in a butterfly, partners exchange partials over disjoint
//     rank sets, so an arrival buffered early (for a step not yet
//     reached) must not leak into earlier snapshots. ReduceState
//     therefore stores arrival values per sender and folds them in
//     schedule-step order on demand.
//
//  2. Snapshot retransmission. A NACK-triggered resend must carry the
//     originally transmitted snapshot (SentValue), never the current
//     partial, which may meanwhile include the receiver's own
//     contribution.
//
// Steps marked ResultWait (the broadcast-down phase of gather-broadcast)
// carry the final result and replace the fold instead of combining.
//
// Exactness holds for pairwise exchange at any size, gather-broadcast,
// and dissemination at powers of two (each step combines a disjoint
// window of predecessors); dissemination at other sizes wraps its windows
// and double-counts, so NewReduceArena rejects sum there. Idempotent
// operators work over any complete schedule.
type ReduceState struct {
	op ReduceOp
	st OpState

	local int64
	// vals holds arrival values by operation parity and arrival bit:
	// vals[(seq%2)*waits+bit] is operation seq's value from the sender
	// of that bit, present while the bit is set (in the arrival vector
	// for the active operation, in the early vector for seq+1). An early
	// arrival lands in the other half, so Start moves no values.
	vals []int64
	// sent is a ring of the transmitted snapshots of the current and
	// previous operation (receivers lag by at most one):
	// sent[(seq%2)*dests+i] holds the value sent to destination i (in
	// schedule send order), tagged with the operation that sent it. A
	// slot is overwritten destination by destination as the operation
	// two later sends, so it needs no clearing.
	sent []sentVal
}

// sentVal is one transmitted snapshot and the operation that sent it.
type sentVal struct {
	seq int
	val int64
}

// Op reports the combining operator.
func (r *ReduceState) Op() ReduceOp { return r.op }

// Inner exposes the wrapped OpState (sequence numbers, NACK bookkeeping).
func (r *ReduceState) Inner() *OpState { return &r.st }

// fold combines the local contribution with the (arrived) values of all
// steps before uptoStep, in schedule order, honoring ResultWait replace
// semantics.
func (r *ReduceState) fold(uptoStep int) int64 {
	val := r.local
	sched := r.st.sched
	seq := int(r.st.seq)
	vals := r.vals[(seq&1)*len(r.vals)/2:]
	bit := 0
	for s, steps := 0, min(uptoStep, sched.Steps()); s < steps; s++ {
		result := sched.ResultWait(s)
		for end := sched.WaitEnd(s); bit < end; bit++ {
			if r.st.getBit(seq, bit) {
				if result {
					val = vals[bit]
				} else {
					val = r.op.Combine(val, vals[bit])
				}
			}
		}
	}
	return val
}

// Value reports the full fold — the allreduce result once the operation
// has completed.
func (r *ReduceState) Value() int64 { return r.fold(r.st.sched.Steps()) }

// SentValue reports the value snapshot that was transmitted to toRank for
// operation seq — what a NACK-triggered retransmission must carry.
func (r *ReduceState) SentValue(seq, toRank int) (int64, bool) {
	i, _, ok := r.st.sched.Dest(toRank)
	if !ok || seq < 0 {
		return 0, false
	}
	sv := r.sent[(seq&1)*len(r.sent)/2+i]
	if sv.seq != seq {
		return 0, false
	}
	return sv.val, true
}

// recordSends snapshots, for each outgoing notification, the fold up to
// (but excluding) its step, overwriting the ring slot of operation seq-2.
func (r *ReduceState) recordSends(seq int, sends []int) {
	ring := r.sent[(seq&1)*len(r.sent)/2:]
	for _, to := range sends {
		i, step, _ := r.st.sched.Dest(to)
		ring[i] = sentVal{seq: seq, val: r.fold(step)}
	}
}

// Start begins operation seq with this rank's local contribution and
// returns the ranks to notify; the value each notification must carry is
// SentValue(seq, rank). Early arrivals are always contributions: a
// result message presupposes our own contribution reached its sender,
// which requires this Start to have already happened.
func (r *ReduceState) Start(seq int, local int64) (sends []int, completed bool, err error) {
	r.local = local
	sends, completed, err = r.st.Start(seq)
	if err != nil {
		return nil, false, err
	}
	r.recordSends(seq, sends)
	return sends, completed, nil
}

// Arrive records a peer's value for operation seq and advances the
// schedule. Duplicates (NACK-recovered retransmissions that raced the
// original) are detected by the bit vector and never combined twice.
func (r *ReduceState) Arrive(seq, fromRank int, value int64) (sends []int, completed bool, err error) {
	active := r.st.Active() && r.st.Seq() == seq
	bit, step, sends, completed, err := r.st.arrive(seq, fromRank)
	if err != nil {
		return nil, false, err
	}
	if bit < 0 {
		return sends, completed, nil // duplicate or stale: drop the value
	}
	if !active && r.st.sched.ResultWait(step) {
		return nil, false, fmt.Errorf(
			"core: result message from rank %d arrived before operation %d started", fromRank, seq)
	}
	r.vals[(seq&1)*len(r.vals)/2+bit] = value
	if active {
		r.recordSends(seq, sends)
	}
	return sends, completed, nil
}
