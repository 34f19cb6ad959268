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
// Forwarding must happen only after the parent's notification arrives,
// so an interior rank's wait and sends are separate steps (a step's
// sends fire when the step starts).
func NewBroadcastPlan(n, root, degree int) *Plan {
	checkSize(n)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("barrier: root %d outside group of %d", root, n))
	}
	if degree < 2 {
		panic(fmt.Sprintf("barrier: broadcast degree %d", degree))
	}
	return &Plan{alg: broadcast, n: n, degree: starDegree(degree, n), root: root}
}

// starDegree caps a tree degree at n−1: every degree from there on
// builds the same one-level star, and the cap keeps the position
// arithmetic (position·degree) from overflowing on huge degrees.
func starDegree(degree, n int) int { return min(degree, max(n-1, 2)) }
