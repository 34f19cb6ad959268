package barrier

import "fmt"

// NewBroadcastPlan builds the plan of a one-to-all notification
// broadcast down a d-ary tree rooted at root. This is not a barrier — it
// is the NIC-based broadcast of the paper's future-work section (and of
// Yu et al., ICPP'03), expressed in the same Schedule form so the NIC
// collective protocol executes it unchanged: the root fires its children
// immediately, interior ranks forward upon arrival, leaves simply
// complete.
//
// Tree positions are assigned on ranks rotated so the root maps to
// position 0; children of position p are positions p*d+1 .. p*d+d.
// A rank's children depend on its position, so every rank reads its own
// table.
func NewBroadcastPlan(n, root, degree int) *Plan {
	checkSize(n)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("barrier: root %d outside group of %d", root, n))
	}
	if degree < 2 {
		panic(fmt.Sprintf("barrier: broadcast degree %d", degree))
	}
	p := &Plan{alg: broadcast, n: n, degree: degree, root: root}
	if n == 1 {
		p.shared = newTable(broadcast, n, 0, 0, 0).index()
	}
	return p
}

// BroadcastTree builds the broadcast schedule of one rank:
// NewBroadcastPlan(n, root, degree).Rank(rank).
func BroadcastTree(n, rank, root, degree int) Schedule {
	return NewBroadcastPlan(n, root, degree).Rank(rank)
}

func broadcastTable(n, rank, root, degree int) *table {
	pos := (rank - root + n) % n
	k := treeChildren(n, pos, degree)
	child := func(i int) int { return (pos*degree + 1 + i + root) % n } // unrotated position
	if pos == 0 {
		t := newTable(broadcast, n, 1, k, 0)
		for i := 0; i < k; i++ {
			t.send(rank, child(i))
		}
		t.endStep(false)
		return t.index()
	}
	parent := ((pos-1)/degree + root) % n
	if k == 0 {
		t := newTable(broadcast, n, 1, 0, 1)
		t.wait(rank, parent)
		t.endStep(false)
		return t.index()
	}
	// Forwarding must happen only after the parent's notification
	// arrives, so the wait and the send are separate steps (a step's
	// sends fire when the step starts).
	t := newTable(broadcast, n, 2, k, 1)
	t.wait(rank, parent)
	t.endStep(false)
	for i := 0; i < k; i++ {
		t.send(rank, child(i))
	}
	t.endStep(false)
	return t.index()
}

// AllBroadcast builds the broadcast schedules of every rank.
func AllBroadcast(n, root, degree int) []Schedule {
	return NewBroadcastPlan(n, root, degree).all()
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
