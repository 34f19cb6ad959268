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
// A Plan holds the schedules of a whole group with peers stored relative
// to the reading rank, so a dissemination group keeps one step table for
// all its ranks; a Schedule is one rank's view of a plan.
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

// Options tunes schedule construction.
type Options struct {
	// TreeDegree is the arity d of the gather-broadcast tree; 0 means
	// the default of 4 (the degree Elanlib's gsync tree uses).
	TreeDegree int
}

// DefaultTreeDegree is the gather-broadcast arity used when Options does
// not override it.
const DefaultTreeDegree = 4

// NewPlan builds the plan of algorithm alg over an n-rank group.
func NewPlan(alg Algorithm, n int, opts Options) *Plan {
	checkSize(n)
	p := &Plan{alg: alg, n: n}
	if n == 1 {
		p.shared = newTable(alg, n, 0, 0, 0).index()
		return p
	}
	switch alg {
	case Dissemination:
		p.shared = disseminationTable(n)
	case PairwiseExchange:
	case GatherBroadcast:
		p.degree = opts.TreeDegree
		if p.degree == 0 {
			p.degree = DefaultTreeDegree
		}
		if p.degree < 2 {
			panic(fmt.Sprintf("barrier: tree degree %d", p.degree))
		}
	default:
		panic(fmt.Sprintf("barrier: unknown algorithm %d", int(alg)))
	}
	return p
}

// New builds the schedule of one rank: NewPlan(alg, n, opts).Rank(rank).
func New(alg Algorithm, n, rank int, opts Options) Schedule {
	return NewPlan(alg, n, opts).Rank(rank)
}

// All builds the schedules of every rank in an n-rank group.
func All(alg Algorithm, n int, opts Options) []Schedule {
	return NewPlan(alg, n, opts).all()
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

// disseminationTable builds the one table of a dissemination plan: rank
// 0's schedule, which every rank reads rotated.
func disseminationTable(n int) *table {
	k := Log2Ceil(n)
	t := newTable(Dissemination, n, k, k, k)
	for m := 1; m < n; m <<= 1 {
		t.send(0, m)
		t.wait(0, n-m)
		t.endStep(false)
	}
	return t.index()
}

func pairwiseTable(n, rank int) *table {
	if IsPowerOfTwo(n) {
		k := Log2Floor(n)
		t := newTable(PairwiseExchange, n, k, k, k)
		for m := 1; m < n; m <<= 1 {
			// An exchange sends to and waits on the same peer.
			t.send(rank, rank^m)
			t.wait(rank, rank^m)
			t.endStep(false)
		}
		return t.index()
	}
	m := 1 << Log2Floor(n) // largest power of two below n
	if rank >= m {
		// Extra rank: announce entry to its partner, then wait for the
		// partner's exit notification — which carries the final combined
		// result (the partner finished the whole exchange first).
		t := newTable(PairwiseExchange, n, 2, 1, 1)
		t.send(rank, rank-m)
		t.endStep(false)
		t.wait(rank, rank-m)
		t.endStep(true)
		return t.index()
	}
	partner := rank + m
	hasPartner := partner < n
	k := Log2Floor(m)
	steps, peers := k, k
	if hasPartner {
		steps, peers = k+2, k+1
	}
	t := newTable(PairwiseExchange, n, steps, peers, peers)
	if hasPartner {
		t.wait(rank, partner)
		t.endStep(false)
	}
	for b := 1; b < m; b <<= 1 {
		t.send(rank, rank^b)
		t.wait(rank, rank^b)
		t.endStep(false)
	}
	if hasPartner {
		t.send(rank, partner)
		t.endStep(false)
	}
	return t.index()
}

// treeChildren counts the tree children of position pos: positions
// pos*d+1 .. pos*d+d below n.
func treeChildren(n, pos, d int) int { return max(0, min(d, n-(pos*d+1))) }

func gatherBroadcastTable(n, rank, d int) *table {
	k := treeChildren(n, rank, d)
	if rank == 0 {
		t := newTable(GatherBroadcast, n, 2, k, k)
		for i := 1; i <= k; i++ {
			t.wait(rank, i)
		}
		t.endStep(false)
		for i := 1; i <= k; i++ {
			t.send(rank, i)
		}
		t.endStep(false)
		return t.index()
	}
	up := (rank - 1) / d
	if k == 0 {
		// Leaf: one combined step — notify the parent, wait for the
		// broadcast (carrying the final result) to come back.
		t := newTable(GatherBroadcast, n, 1, 1, 1)
		t.send(rank, up)
		t.wait(rank, up)
		t.endStep(true)
		return t.index()
	}
	t := newTable(GatherBroadcast, n, 3, k+1, k+1)
	for i := 0; i < k; i++ {
		t.wait(rank, rank*d+1+i)
	}
	t.endStep(false)
	t.send(rank, up)
	t.wait(rank, up)
	t.endStep(true)
	for i := 0; i < k; i++ {
		t.send(rank, rank*d+1+i)
	}
	t.endStep(false)
	return t.index()
}
