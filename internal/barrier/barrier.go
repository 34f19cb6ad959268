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
// A Plan describes the schedules of a whole group in closed form: every
// peer is computed from the algorithm's parameters and the reading rank,
// so a plan is one small allocation at any group size; a Schedule is one
// rank's view of a plan.
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

// DefaultTreeDegree is the tree arity used when Options (or a broadcast's
// degree) does not override it.
const DefaultTreeDegree = 4

// TreeDegree returns the tree arity a requested degree d selects: d
// itself, or DefaultTreeDegree for 0.
func TreeDegree(d int) int {
	if d == 0 {
		return DefaultTreeDegree
	}
	return d
}

// NewPlan builds the plan of algorithm alg over an n-rank group.
func NewPlan(alg Algorithm, n int, opts Options) *Plan {
	checkSize(n)
	p := &Plan{alg: alg, n: n}
	switch alg {
	case Dissemination:
		p.log = Log2Ceil(n)
	case PairwiseExchange:
		p.log = Log2Floor(n)
	case GatherBroadcast:
		p.degree = TreeDegree(opts.TreeDegree)
		if p.degree < 2 {
			panic(fmt.Sprintf("barrier: tree degree %d", p.degree))
		}
		p.degree = starDegree(p.degree, n)
	default:
		panic(fmt.Sprintf("barrier: unknown algorithm %d", int(alg)))
	}
	return p
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
		d := TreeDegree(opts.TreeDegree)
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
