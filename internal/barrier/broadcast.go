package barrier

import "fmt"

// BroadcastTree builds the schedule of one rank in a one-to-all
// notification broadcast down a d-ary tree rooted at root. This is not a
// barrier — it is the NIC-based broadcast of the paper's future-work
// section (and of Yu et al., ICPP'03), expressed in the same Schedule
// form so the NIC collective protocol executes it unchanged: the root
// fires its children immediately, interior ranks forward upon arrival,
// leaves simply complete.
//
// Tree positions are assigned on ranks rotated so the root maps to
// position 0; children of position p are positions p*d+1 .. p*d+d.
func BroadcastTree(n, rank, root, degree int) Schedule {
	if n < 1 {
		panic(fmt.Sprintf("barrier: group size %d", n))
	}
	if rank < 0 || rank >= n || root < 0 || root >= n {
		panic(fmt.Sprintf("barrier: rank %d / root %d outside group of %d", rank, root, n))
	}
	if degree < 2 {
		panic(fmt.Sprintf("barrier: broadcast degree %d", degree))
	}
	s := Schedule{Algorithm: -1, N: n, Rank: rank}
	if n == 1 {
		return s
	}
	pos := (rank - root + n) % n
	k := treeChildren(n, pos, degree)
	peers := make(peerLists, k+1)
	children := peers.take(k)
	for i := range children {
		children[i] = (pos*degree + 1 + i + root) % n // unrotated position
	}
	if pos == 0 {
		s.Steps = []Step{{Send: children}}
		return s
	}
	parent := peers.take(1, ((pos-1)/degree+root)%n)
	if k == 0 {
		s.Steps = []Step{{Wait: parent}}
		return s
	}
	// Forwarding must happen only after the parent's notification
	// arrives, so the wait and the send are separate steps (a step's
	// sends fire when the step starts).
	s.Steps = []Step{
		{Wait: parent},
		{Send: children},
	}
	return s
}

// AllBroadcast builds the broadcast schedules of every rank.
func AllBroadcast(n, root, degree int) []Schedule {
	out := make([]Schedule, n)
	for r := 0; r < n; r++ {
		out[r] = BroadcastTree(n, r, root, degree)
	}
	return out
}

// VerifyBroadcast abstractly executes broadcast schedules and checks that
// every rank completes and has transitively heard from the root.
func VerifyBroadcast(n, root, degree int) error {
	scheds := AllBroadcast(n, root, degree)
	// Reuse the barrier executor's progress machinery, then check the
	// weaker knowledge property (heard from root, not from everyone).
	return verifyKnowledge(scheds, func(rank int, knowledge []bool) error {
		if !knowledge[root] {
			return fmt.Errorf("barrier: rank %d completed broadcast without hearing from root %d", rank, root)
		}
		return nil
	})
}
