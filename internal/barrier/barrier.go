// Package barrier defines the three point-to-point barrier algorithms the
// paper considers — gather-broadcast, pairwise-exchange and dissemination —
// as pure, engine-independent message schedules.
//
// A Schedule lists, for one rank, the ordered steps of the barrier: which
// peers to send a notification to when the step starts, and which peers'
// notifications must arrive before the step completes. Both the host-based
// engines and the NIC-based engines (Myrinet collective protocol, Quadrics
// chained RDMA) execute these same schedules; only *where* the processing
// happens differs, which is precisely the paper's point.
//
// Within one barrier each ordered (sender, receiver) pair occurs at most
// once in every algorithm (for dissemination this holds because
// 0 < 2^b − 2^a < N for steps a < b ≤ ⌈log2 N⌉−1), so a notification is
// fully identified by (group, barrier sequence, sender rank).
package barrier

import "fmt"

// Algorithm selects a barrier algorithm.
type Algorithm int

// The algorithms from the paper's Section 5.
const (
	// Dissemination: at step m, rank i sends to (i+2^m) mod N and waits
	// for (i−2^m) mod N. Always ⌈log2 N⌉ steps.
	Dissemination Algorithm = iota
	// PairwiseExchange: recursive doubling (MPICH). log2 N steps when N
	// is a power of two, ⌊log2 N⌋+2 otherwise.
	PairwiseExchange
	// GatherBroadcast: combine up a d-ary tree to rank 0, broadcast back
	// down. 2·⌈log_d N⌉ steps on the critical path.
	GatherBroadcast
)

// String implements fmt.Stringer with the paper's abbreviations.
func (a Algorithm) String() string {
	switch a {
	case Dissemination:
		return "DS"
	case PairwiseExchange:
		return "PE"
	case GatherBroadcast:
		return "GB"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a name ("DS", "PE", "GB", or the long names)
// into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "DS", "ds", "dissemination":
		return Dissemination, nil
	case "PE", "pe", "pairwise-exchange", "pairwise":
		return PairwiseExchange, nil
	case "GB", "gb", "gather-broadcast", "tree":
		return GatherBroadcast, nil
	}
	return 0, fmt.Errorf("barrier: unknown algorithm %q", s)
}

// Step is one stage of a rank's barrier participation. When a step starts
// (all earlier steps completed), the rank sends a notification to every
// rank in Send; the step completes once notifications from every rank in
// Wait have arrived. Notifications may arrive before their step starts and
// must be buffered — the bit-vector bookkeeping in the NIC collective
// protocol exists for exactly this.
//
// ResultWait marks steps whose awaited messages carry a final combined
// result rather than a partial contribution (the broadcast-down phase of
// gather-broadcast). Barriers ignore it; the allreduce extension uses it
// to replace instead of combine.
//
// A schedule's lists share one backing array, and an exchange step's
// Send and Wait are the same list: treat them as read-only.
type Step struct {
	Send       []int
	Wait       []int
	ResultWait bool
}

// Schedule is one rank's complete barrier script.
type Schedule struct {
	Algorithm Algorithm
	N         int // group size
	Rank      int
	Steps     []Step
}

// Options tunes schedule construction.
type Options struct {
	// TreeDegree is the arity d of the gather-broadcast tree; 0 means
	// the default of 4 (the degree Elanlib's gsync tree uses).
	TreeDegree int
}

// DefaultTreeDegree is the gather-broadcast arity used when Options does
// not override it.
const DefaultTreeDegree = 4

// New builds the schedule for one rank.
func New(alg Algorithm, n, rank int, opts Options) Schedule {
	if n < 1 {
		panic(fmt.Sprintf("barrier: group size %d", n))
	}
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("barrier: rank %d outside group of %d", rank, n))
	}
	s := Schedule{Algorithm: alg, N: n, Rank: rank}
	if n == 1 {
		return s
	}
	switch alg {
	case Dissemination:
		s.Steps = disseminationSteps(n, rank)
	case PairwiseExchange:
		s.Steps = pairwiseSteps(n, rank)
	case GatherBroadcast:
		d := opts.TreeDegree
		if d == 0 {
			d = DefaultTreeDegree
		}
		if d < 2 {
			panic(fmt.Sprintf("barrier: tree degree %d", d))
		}
		s.Steps = gatherBroadcastSteps(n, rank, d)
	default:
		panic(fmt.Sprintf("barrier: unknown algorithm %d", int(alg)))
	}
	return s
}

// All builds the schedules of every rank in an n-rank group.
func All(alg Algorithm, n int, opts Options) []Schedule {
	out := make([]Schedule, n)
	for r := 0; r < n; r++ {
		out[r] = New(alg, n, r, opts)
	}
	return out
}

// Log2Ceil returns ⌈log2 n⌉ for n >= 1.
func Log2Ceil(n int) int {
	if n < 1 {
		panic("barrier: Log2Ceil of non-positive")
	}
	steps, p := 0, 1
	for p < n {
		p <<= 1
		steps++
	}
	return steps
}

// Log2Floor returns ⌊log2 n⌋ for n >= 1.
func Log2Floor(n int) int {
	if n < 1 {
		panic("barrier: Log2Floor of non-positive")
	}
	f := 0
	for n > 1 {
		n >>= 1
		f++
	}
	return f
}

// IsPowerOfTwo reports whether n is a power of two (n >= 1).
func IsPowerOfTwo(n int) bool { return n >= 1 && n&(n-1) == 0 }

// CriticalSteps reports the number of communication steps on the critical
// path, matching the paper's Section 5 formulas.
func CriticalSteps(alg Algorithm, n int, opts Options) int {
	if n <= 1 {
		return 0
	}
	switch alg {
	case Dissemination:
		return Log2Ceil(n)
	case PairwiseExchange:
		if IsPowerOfTwo(n) {
			return Log2Floor(n)
		}
		return Log2Floor(n) + 2
	case GatherBroadcast:
		d := opts.TreeDegree
		if d == 0 {
			d = DefaultTreeDegree
		}
		steps, p := 0, 1
		for p < n {
			p *= d
			steps++
		}
		return 2 * steps
	default:
		panic(fmt.Sprintf("barrier: unknown algorithm %d", int(alg)))
	}
}

// peerLists is the one backing array a schedule constructor carves a
// rank's Send and Wait lists from, so building a schedule costs two
// allocations (the steps and their peers) whatever its shape.
type peerLists []int

// take returns the next k peers as a capacity-capped list (nil when k is
// 0, as an absent list reads), filled with ranks in order when given.
func (p *peerLists) take(k int, ranks ...int) []int {
	if k == 0 {
		return nil
	}
	l := (*p)[:k:k]
	*p = (*p)[k:]
	copy(l, ranks)
	return l
}

func disseminationSteps(n, rank int) []Step {
	k := Log2Ceil(n)
	steps := make([]Step, 0, k)
	peers := make(peerLists, 2*k)
	for m := 1; m < n; m <<= 1 {
		steps = append(steps, Step{
			Send: peers.take(1, (rank+m)%n),
			Wait: peers.take(1, (rank-m+n)%n),
		})
	}
	return steps
}

func pairwiseSteps(n, rank int) []Step {
	if IsPowerOfTwo(n) {
		k := Log2Floor(n)
		steps := make([]Step, 0, k)
		peers := make(peerLists, k)
		for m := 1; m < n; m <<= 1 {
			// An exchange sends to and waits on the same peer.
			peer := peers.take(1, rank^m)
			steps = append(steps, Step{Send: peer, Wait: peer})
		}
		return steps
	}
	m := 1 << Log2Floor(n) // largest power of two below n
	if rank >= m {
		// Extra rank: announce entry to its partner, then wait for the
		// partner's exit notification — which carries the final combined
		// result (the partner finished the whole exchange first).
		partner := []int{rank - m}
		return []Step{
			{Send: partner},
			{Wait: partner, ResultWait: true},
		}
	}
	partner := rank + m
	hasPartner := partner < n
	k := Log2Floor(m)
	if hasPartner {
		k++
	}
	steps := make([]Step, 0, k+1)
	peers := make(peerLists, k)
	var partnerList []int
	if hasPartner {
		partnerList = peers.take(1, partner)
		steps = append(steps, Step{Wait: partnerList})
	}
	for b := 1; b < m; b <<= 1 {
		peer := peers.take(1, rank^b)
		steps = append(steps, Step{Send: peer, Wait: peer})
	}
	if hasPartner {
		steps = append(steps, Step{Send: partnerList})
	}
	return steps
}

// treeChildren counts the tree children of position pos: positions
// pos*d+1 .. pos*d+d below n.
func treeChildren(n, pos, d int) int { return max(0, min(d, n-(pos*d+1))) }

func gatherBroadcastSteps(n, rank, d int) []Step {
	k := treeChildren(n, rank, d)
	if rank == 0 {
		children := make([]int, k)
		for i := range children {
			children[i] = i + 1
		}
		return []Step{{Wait: children}, {Send: children}}
	}
	peers := make(peerLists, k+1)
	up := peers.take(1, (rank-1)/d)
	if k == 0 {
		// Leaf: one combined step — notify the parent, wait for the
		// broadcast (carrying the final result) to come back.
		return []Step{{Send: up, Wait: up, ResultWait: true}}
	}
	children := peers.take(k)
	for i := range children {
		children[i] = rank*d + 1 + i
	}
	return []Step{
		{Wait: children},
		{Send: up, Wait: up, ResultWait: true},
		{Send: children},
	}
}

// ExpectedArrivals returns, in step order, the ranks whose notifications
// this schedule waits for. The NIC collective protocol numbers its
// arrival bits in this order.
func (s Schedule) ExpectedArrivals() []int {
	out := make([]int, 0, s.TotalWaits())
	for _, st := range s.Steps {
		out = append(out, st.Wait...)
	}
	return out
}

// TotalWaits counts the notifications this rank awaits per barrier.
func (s Schedule) TotalWaits() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st.Wait)
	}
	return n
}

// TotalSends counts the notifications this rank transmits per barrier.
func (s Schedule) TotalSends() int {
	n := 0
	for _, st := range s.Steps {
		n += len(st.Send)
	}
	return n
}
