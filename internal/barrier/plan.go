package barrier

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan is one collective over an n-rank group. It holds only the
// algorithm's parameters: every peer, step boundary and arrival bit of
// every rank is arithmetic in (alg, n, degree, root, rank), so a plan is
// one small allocation at any size and Rank costs nothing.
//
// Sessions build one plan and hand each member its Rank view.
type Plan struct {
	alg    Algorithm
	n      int
	degree int // tree arity of gather-broadcast and broadcast plans
	root   int // broadcast root (gather-broadcast trees are rooted at 0)
	log    int // dissemination: ⌈log2 n⌉ steps; pairwise: ⌊log2 n⌋
}

// broadcast is the Algorithm of broadcast-tree schedules, which are not
// barriers.
const broadcast Algorithm = -1

func checkSize(n int) {
	if n < 1 || n > math.MaxInt32 {
		panic(fmt.Sprintf("barrier: group size %d", n))
	}
}

// Size reports the group size.
func (p *Plan) Size() int { return p.n }

// Rank returns rank's schedule, a view of the plan.
func (p *Plan) Rank(rank int) Schedule {
	if rank < 0 || rank >= p.n {
		panic(fmt.Sprintf("barrier: rank %d outside group of %d", rank, p.n))
	}
	return Schedule{p, rank}
}

// Schedule is one rank's complete collective script: a view of a plan
// from that rank. Steps run in order. When a step starts (all earlier
// steps completed) the rank notifies every peer on the step's send list
// (AppendSends); the step completes once notifications from every peer
// on its wait list (the senders of arrival bits WaitEnd(i−1) up to
// WaitEnd(i)) have arrived.
// Notifications may arrive before their step starts and must be buffered
// — the bit-vector bookkeeping in the NIC collective protocol exists for
// exactly this.
//
// ResultWait marks steps whose awaited messages carry a final combined
// result rather than a partial contribution (the broadcast-down phase of
// gather-broadcast). Barriers ignore it; the allreduce extension uses it
// to replace instead of combine.
//
// The per-rank shapes:
//
//   - dissemination: step m sends to rank+2^m and waits on rank−2^m
//     (mod n), so arrival bit m is step m;
//   - pairwise exchange: step m exchanges with rank XOR 2^m among the
//     largest power of two M ≤ n; for other n, a rank r ≥ M first
//     notifies r−M and then waits for its result, and its partner r−M
//     waits on it before the exchange and notifies it after;
//   - trees (gather-broadcast and broadcast): virtual rank
//     v = (rank − root) mod n has parent (v−1)/d and children
//     dv+1 … dv+d clipped to n (see tree).
type Schedule struct {
	p    *Plan
	rank int
}

// Algorithm reports the schedule's algorithm (-1 for a broadcast tree).
func (s Schedule) Algorithm() Algorithm { return s.p.alg }

// Size reports the group size.
func (s Schedule) Size() int { return s.p.n }

// Rank reports the rank the schedule belongs to.
func (s Schedule) Rank() int { return s.rank }

// Steps reports the number of steps.
func (s Schedule) Steps() int {
	switch s.p.alg {
	case Dissemination:
		return s.p.log
	case PairwiseExchange:
		if s.extra() {
			return 2
		}
		return s.p.log + 2*s.partnered()
	}
	t := s.tree()
	return max(t.cw, t.up, t.cs) + 1
}

// AppendSends appends the ranks step i notifies, in order, to dst.
func (s Schedule) AppendSends(dst []int, i int) []int {
	switch s.p.alg {
	case Dissemination:
		return append(dst, s.mod(s.rank+1<<i))
	case PairwiseExchange:
		if s.extra() {
			if i == 0 {
				dst = append(dst, s.rank-s.half())
			}
			return dst
		}
		hp := s.partnered()
		switch {
		case i < hp:
		case i < s.p.log+hp:
			dst = append(dst, s.rank^1<<(i-hp))
		default:
			dst = append(dst, s.rank+s.half())
		}
		return dst
	}
	t := s.tree()
	if t.sendUp && i == t.up {
		dst = append(dst, s.parent(t))
	}
	if i == t.cs {
		dst = s.appendChildren(dst, t)
	}
	return dst
}

// WaitEnd returns the arrival bit just past step i's waits. Arrival bits
// number the waits in schedule order, so step i waits on bits
// WaitEnd(i−1) (0 for the first step) up to WaitEnd(i).
func (s Schedule) WaitEnd(i int) int {
	switch s.p.alg {
	case Dissemination:
		return i + 1
	case PairwiseExchange:
		if s.extra() {
			return i // step 0 only sends, step 1 waits on bit 0
		}
		return min(i+1, s.p.log+s.partnered())
	}
	t := s.tree()
	end := 0
	if i >= t.cw && t.cw >= 0 {
		end = t.k
	}
	if i >= t.up && t.up >= 0 {
		end++
	}
	return end
}

// ResultWait reports whether step i's awaited messages carry the final
// result: the extra rank's second pairwise step, and the step in which a
// gather-broadcast rank hears back from its parent.
func (s Schedule) ResultWait(i int) bool {
	switch s.p.alg {
	case PairwiseExchange:
		return i == 1 && s.extra()
	case GatherBroadcast:
		return i == s.tree().up
	}
	return false
}

// TotalWaits counts the notifications the rank awaits per operation.
func (s Schedule) TotalWaits() int {
	if steps := s.Steps(); steps > 0 {
		return s.WaitEnd(steps - 1)
	}
	return 0
}

// TotalSends counts the notifications the rank transmits per operation.
func (s Schedule) TotalSends() int {
	switch s.p.alg {
	case Dissemination, PairwiseExchange:
		return s.TotalWaits() // one send per wait, paired by construction
	}
	t := s.tree()
	if t.sendUp {
		return t.k + 1
	}
	return t.k
}

// Sender returns the rank whose notification sets arrival bit bit.
func (s Schedule) Sender(bit int) int {
	switch s.p.alg {
	case Dissemination:
		return s.mod(s.rank - 1<<bit)
	case PairwiseExchange:
		if s.extra() {
			return s.rank - s.half()
		}
		if s.partnered() == 1 {
			if bit == 0 {
				return s.rank + s.half()
			}
			bit--
		}
		return s.rank ^ 1<<bit
	}
	t := s.tree()
	if t.cw >= 0 && bit < t.k {
		return s.p.rankAt(t.first + bit)
	}
	return s.parent(t)
}

// Arrival locates fromRank's notification: its arrival bit and the step
// waiting on it. ok is false when the schedule never waits on fromRank.
func (s Schedule) Arrival(fromRank int) (bit, step int, ok bool) {
	if uint(fromRank) >= uint(s.p.n) || fromRank == s.rank {
		return 0, 0, false
	}
	switch s.p.alg {
	case Dissemination:
		// fromRank = rank − 2^m (mod n) for m = bit = step.
		back := s.p.n - s.mod(fromRank-s.rank)
		if back&(back-1) != 0 {
			return 0, 0, false
		}
		m := bits.TrailingZeros(uint(back))
		return m, m, true
	case PairwiseExchange:
		half := s.half()
		if s.extra() {
			if fromRank != s.rank-half {
				return 0, 0, false
			}
			return 0, 1, true
		}
		hp := s.partnered()
		if hp == 1 && fromRank == s.rank+half {
			return 0, 0, true
		}
		if m, ok := s.butterfly(fromRank); ok {
			return m + hp, m + hp, true
		}
		return 0, 0, false
	}
	t := s.tree()
	if t.up >= 0 && fromRank == s.parent(t) {
		if t.cw >= 0 {
			return t.k, t.up, true // after the children's bits
		}
		return 0, t.up, true
	}
	if c, ok := s.child(t, fromRank); ok && t.cw >= 0 {
		return c, t.cw, true
	}
	return 0, 0, false
}

// Dest locates toRank among the rank's destinations: its index in
// schedule send order and the step sending to it. ok is false when the
// schedule never sends to toRank.
func (s Schedule) Dest(toRank int) (index, step int, ok bool) {
	if uint(toRank) >= uint(s.p.n) || toRank == s.rank {
		return 0, 0, false
	}
	switch s.p.alg {
	case Dissemination:
		// toRank = rank + 2^m (mod n) for m = index = step.
		fwd := s.mod(toRank - s.rank)
		if fwd&(fwd-1) != 0 {
			return 0, 0, false
		}
		m := bits.TrailingZeros(uint(fwd))
		return m, m, true
	case PairwiseExchange:
		half := s.half()
		if s.extra() {
			return 0, 0, toRank == s.rank-half // the extra rank's one send
		}
		hp := s.partnered()
		if hp == 1 && toRank == s.rank+half {
			return s.p.log, s.p.log + 1, true
		}
		if m, ok := s.butterfly(toRank); ok {
			return m, m + hp, true
		}
		return 0, 0, false
	}
	t := s.tree()
	if t.sendUp && toRank == s.parent(t) {
		return 0, t.up, true
	}
	if c, ok := s.child(t, toRank); ok {
		if t.sendUp {
			c++
		}
		return c, t.cs, true
	}
	return 0, 0, false
}

// mod reduces r, which lies in (−n, 2n), into [0, n).
func (s Schedule) mod(r int) int {
	switch n := s.p.n; {
	case r < 0:
		return r + n
	case r >= n:
		return r - n
	}
	return r
}

// half returns M, the largest power of two ≤ n: the pairwise exchange's
// butterfly ranks are 0 … M−1, the extra ranks M … n−1.
func (s Schedule) half() int { return 1 << s.p.log }

// extra reports whether the rank is a pairwise exchange's extra rank.
func (s Schedule) extra() bool { return s.rank >= s.half() }

// partnered returns 1 when a butterfly rank has an extra partner
// (rank+M < n), whose wait and send bracket its exchange steps.
func (s Schedule) partnered() int {
	if s.rank+s.half() < s.p.n {
		return 1
	}
	return 0
}

// butterfly returns the exchange step m at which the butterfly rank
// meets peer = rank XOR 2^m.
func (s Schedule) butterfly(peer int) (int, bool) {
	x := uint(peer ^ s.rank)
	if peer >= s.half() || x&(x-1) != 0 {
		return 0, false
	}
	return bits.TrailingZeros(x), true
}

// tree is a rank's place in a d-ary tree over virtual ranks
// v = (rank − root) mod n: its virtual rank, child count and the virtual
// rank of its first child, and the steps in which it waits on its
// children (cw), exchanges with its parent (up) and notifies its
// children (cs), each -1 when absent. A gather-broadcast rank waits on
// its children, then notifies its parent and waits for the result in
// one step, then notifies its children; a broadcast rank waits on its
// parent, then notifies its children.
type tree struct {
	v, k, first int
	cw, up, cs  int
	sendUp      bool // gather-broadcast: the up step also notifies the parent
}

func (s Schedule) tree() tree {
	p := s.p
	v := s.rank - p.root
	if v < 0 {
		v += p.n
	}
	first := v*p.degree + 1
	t := tree{v: v, k: max(0, min(p.degree, p.n-first)), first: first, cw: -1, up: -1, cs: -1}
	gb := p.alg == GatherBroadcast
	if gb && t.k > 0 {
		t.cw = 0
	}
	if v > 0 {
		t.up = t.cw + 1
		t.sendUp = gb
	}
	if t.k > 0 {
		t.cs = max(t.cw, t.up) + 1
	}
	return t
}

// parent returns the rank of t's parent.
func (s Schedule) parent(t tree) int { return s.p.rankAt((t.v - 1) / s.p.degree) }

// child returns peer's index among t's children.
func (s Schedule) child(t tree, peer int) (int, bool) {
	c := peer - s.p.root
	if c < 0 {
		c += s.p.n
	}
	c -= t.first
	return c, c >= 0 && c < t.k
}

func (s Schedule) appendChildren(dst []int, t tree) []int {
	for c := range t.k {
		dst = append(dst, s.p.rankAt(t.first+c))
	}
	return dst
}

// rankAt maps virtual rank v back to its rank.
func (p *Plan) rankAt(v int) int {
	if r := v + p.root; r < p.n {
		return r
	}
	return v + p.root - p.n
}
