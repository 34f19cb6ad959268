package barrier

import (
	"fmt"
	"slices"
	"testing"
)

// The per-rank constructors that plans replaced are kept here, unchanged
// but for their names, as the reference model of TestPlanMatchesReference:
// each builds one rank's steps with absolute peer ranks.

type refStep struct {
	Send       []int
	Wait       []int
	ResultWait bool
}

func refNew(alg Algorithm, n, rank int, opts Options) []refStep {
	if n == 1 {
		return nil
	}
	switch alg {
	case Dissemination:
		return refDisseminationSteps(n, rank)
	case PairwiseExchange:
		return refPairwiseSteps(n, rank)
	default:
		d := opts.TreeDegree
		if d == 0 {
			d = DefaultTreeDegree
		}
		return refGatherBroadcastSteps(n, rank, d)
	}
}

type refPeerLists []int

func (p *refPeerLists) take(k int, ranks ...int) []int {
	if k == 0 {
		return nil
	}
	l := (*p)[:k:k]
	*p = (*p)[k:]
	copy(l, ranks)
	return l
}

func refDisseminationSteps(n, rank int) []refStep {
	k := Log2Ceil(n)
	steps := make([]refStep, 0, k)
	peers := make(refPeerLists, 2*k)
	for m := 1; m < n; m <<= 1 {
		steps = append(steps, refStep{
			Send: peers.take(1, (rank+m)%n),
			Wait: peers.take(1, (rank-m+n)%n),
		})
	}
	return steps
}

func refPairwiseSteps(n, rank int) []refStep {
	if IsPowerOfTwo(n) {
		k := Log2Floor(n)
		steps := make([]refStep, 0, k)
		peers := make(refPeerLists, k)
		for m := 1; m < n; m <<= 1 {
			peer := peers.take(1, rank^m)
			steps = append(steps, refStep{Send: peer, Wait: peer})
		}
		return steps
	}
	m := 1 << Log2Floor(n)
	if rank >= m {
		partner := []int{rank - m}
		return []refStep{
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
	steps := make([]refStep, 0, k+1)
	peers := make(refPeerLists, k)
	var partnerList []int
	if hasPartner {
		partnerList = peers.take(1, partner)
		steps = append(steps, refStep{Wait: partnerList})
	}
	for b := 1; b < m; b <<= 1 {
		peer := peers.take(1, rank^b)
		steps = append(steps, refStep{Send: peer, Wait: peer})
	}
	if hasPartner {
		steps = append(steps, refStep{Send: partnerList})
	}
	return steps
}

func refGatherBroadcastSteps(n, rank, d int) []refStep {
	k := treeChildren(n, rank, d)
	if rank == 0 {
		children := make([]int, k)
		for i := range children {
			children[i] = i + 1
		}
		return []refStep{{Wait: children}, {Send: children}}
	}
	peers := make(refPeerLists, k+1)
	up := peers.take(1, (rank-1)/d)
	if k == 0 {
		return []refStep{{Send: up, Wait: up, ResultWait: true}}
	}
	children := peers.take(k)
	for i := range children {
		children[i] = rank*d + 1 + i
	}
	return []refStep{
		{Wait: children},
		{Send: up, Wait: up, ResultWait: true},
		{Send: children},
	}
}

func refBroadcastTree(n, rank, root, degree int) []refStep {
	if n == 1 {
		return nil
	}
	pos := (rank - root + n) % n
	k := treeChildren(n, pos, degree)
	peers := make(refPeerLists, k+1)
	children := peers.take(k)
	for i := range children {
		children[i] = (pos*degree + 1 + i + root) % n
	}
	if pos == 0 {
		return []refStep{{Send: children}}
	}
	parent := peers.take(1, ((pos-1)/degree+root)%n)
	if k == 0 {
		return []refStep{{Wait: parent}}
	}
	return []refStep{
		{Wait: parent},
		{Send: children},
	}
}

// resolve reads a schedule back into absolute per-step lists.
func resolve(s Schedule) []refStep {
	var out []refStep
	for i := range s.Steps() {
		out = append(out, refStep{
			Send:       s.AppendSends(nil, i),
			Wait:       s.AppendWaits(nil, i),
			ResultWait: s.ResultWait(i),
		})
	}
	return out
}

// refSchedule is a schedule held as absolute per-step lists, so tests
// can hand the verifier schedules the plans never produce.
type refSchedule []refStep

func (r refSchedule) Steps() int                         { return len(r) }
func (r refSchedule) AppendSends(dst []int, i int) []int { return append(dst, r[i].Send...) }
func (r refSchedule) AppendWaits(dst []int, i int) []int { return append(dst, r[i].Wait...) }

// treeChildren counts the tree children of position pos: positions
// pos*d+1 .. pos*d+d below n.
func treeChildren(n, pos, d int) int { return max(0, min(d, n-(pos*d+1))) }

// checkAgainstRef compares one plan view with the reference steps: the
// resolved lists and flags, the totals, and every Arrival, Dest and
// Sender lookup, including ranks the schedule never names.
func checkAgainstRef(s Schedule, want []refStep) error {
	got := resolve(s)
	if len(got) != len(want) {
		return fmt.Errorf("%d steps, want %d", len(got), len(want))
	}
	bits, dests := map[int][2]int{}, map[int][2]int{}
	var ns, nw int
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Send, w.Send) || !slices.Equal(g.Wait, w.Wait) || g.ResultWait != w.ResultWait {
			return fmt.Errorf("step %d = %+v, want %+v", i, g, w)
		}
		for _, r := range w.Send {
			dests[r] = [2]int{ns, i}
			ns++
		}
		for _, r := range w.Wait {
			bits[r] = [2]int{nw, i}
			nw++
		}
	}
	if s.TotalSends() != ns || s.TotalWaits() != nw {
		return fmt.Errorf("totals %d sends %d waits, want %d %d", s.TotalSends(), s.TotalWaits(), ns, nw)
	}
	for r := -1; r <= s.Size(); r++ {
		bit, step, ok := s.Arrival(r)
		if w, want := bits[r]; ok != want || (ok && [2]int{bit, step} != w) {
			return fmt.Errorf("Arrival(%d) = %d, %d, %v; want %v, %v", r, bit, step, ok, w, want)
		}
		idx, step, ok := s.Dest(r)
		if w, want := dests[r]; ok != want || (ok && [2]int{idx, step} != w) {
			return fmt.Errorf("Dest(%d) = %d, %d, %v; want %v, %v", r, idx, step, ok, w, want)
		}
	}
	for bit := range nw {
		if from := s.Sender(bit); bits[from][0] != bit {
			return fmt.Errorf("Sender(%d) = %d", bit, from)
		}
	}
	return nil
}

// Every plan view resolves to exactly the schedule the per-rank
// constructors built: dense sizes 1..70 at every rank, and sampled ranks
// of 1,024- and 32,768-rank groups.
func TestPlanMatchesReference(t *testing.T) {
	ranks := func(n int) []int {
		if n <= 70 {
			out := make([]int, n)
			for r := range out {
				out[r] = r
			}
			return out
		}
		return []int{0, 1, 2, 3, 5, n/4 - 1, n / 3, n/2 - 1, n / 2, n/2 + 1, n - 5, n - 2, n - 1}
	}
	sizes := []int{1024, 32768}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, alg := range []Algorithm{Dissemination, PairwiseExchange, GatherBroadcast} {
			for _, d := range []int{0, 2, 3} {
				if d != 0 && alg != GatherBroadcast {
					continue
				}
				opts := Options{TreeDegree: d}
				plan := NewPlan(alg, n, opts)
				for _, r := range ranks(n) {
					s := plan.Rank(r)
					if s.Algorithm() != alg || s.Size() != n || s.Rank() != r {
						t.Fatalf("%v n=%d rank %d: view reads %v/%d/%d", alg, n, r, s.Algorithm(), s.Size(), s.Rank())
					}
					if err := checkAgainstRef(s, refNew(alg, n, r, opts)); err != nil {
						t.Fatalf("%v d=%d n=%d rank %d: %v", alg, d, n, r, err)
					}
				}
			}
		}
		for _, root := range []int{0, n / 2, n - 1} {
			for _, d := range []int{2, 4} {
				plan := NewBroadcastPlan(n, root, d)
				for _, r := range ranks(n) {
					if err := checkAgainstRef(plan.Rank(r), refBroadcastTree(n, r, root, d)); err != nil {
						t.Fatalf("broadcast n=%d root %d d=%d rank %d: %v", n, root, d, r, err)
					}
				}
			}
		}
	}
}

// FuzzPlan checks the closed-form plans against the per-rank reference
// constructors at random shapes: algorithm (the three barriers and the
// broadcast tree), group size up to 65,536, tree degree 2–8, broadcast
// root and reading rank.
func FuzzPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, alg uint8, n uint32, degree uint8, root, rank uint32) {
		size := int(n%65536) + 1
		d := int(degree%7) + 2
		r := int(rank % uint32(size))
		var s Schedule
		var want []refStep
		switch a := Algorithm(alg % 4); a {
		case Dissemination, PairwiseExchange, GatherBroadcast:
			opts := Options{TreeDegree: d}
			s, want = NewPlan(a, size, opts).Rank(r), refNew(a, size, r, opts)
		default:
			top := int(root % uint32(size))
			s, want = NewBroadcastPlan(size, top, d).Rank(r), refBroadcastTree(size, r, top, d)
		}
		if err := checkAgainstRef(s, want); err != nil {
			t.Fatalf("%v n=%d d=%d root=%d rank %d: %v", s.Algorithm(), size, d, root, r, err)
		}
	})
}
