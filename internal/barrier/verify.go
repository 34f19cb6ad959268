package barrier

import "fmt"

// verify executes the schedules of an n-rank group abstractly (no timing,
// FIFO message delivery) and checks the two properties that make a barrier
// a barrier:
//
//  1. Progress: every rank completes (no deadlock, no stranded step).
//  2. Synchronization: no rank completes before every other rank has
//     started, checked by propagating causal knowledge along messages —
//     at completion each rank must have (transitively) heard from all.
//
// It returns nil when both hold.
func verify(alg Algorithm, n int, opts Options) error {
	return verifySchedules(NewPlan(alg, n, opts).all(), alg.String())
}

// script is what the abstract executor reads of one rank's schedule; it
// lets tests check hand-built (broken) schedules too.
type script interface {
	Steps() int
	AppendSends(dst []int, i int) []int
	AppendWaits(dst []int, i int) []int
}

// verifySchedules runs the abstract execution over explicit schedules
// and checks the barrier property; name labels its errors.
func verifySchedules[S script](scheds []S, name string) error {
	return verifyKnowledge(scheds, name, func(rank int, knowledge []bool) error {
		for x, k := range knowledge {
			if !k {
				return fmt.Errorf("barrier: rank %d completed without hearing from %d (%s, n=%d)",
					rank, x, name, len(scheds))
			}
		}
		return nil
	})
}

// verifyKnowledge is the shared abstract executor: it runs the schedules
// to quiescence, checks progress, and applies the given causal-knowledge
// predicate to every completed rank (all-of for barriers, root-only for
// broadcasts).
func verifyKnowledge[S script](scheds []S, name string, check func(rank int, knowledge []bool) error) error {
	n := len(scheds)
	if n == 0 {
		return fmt.Errorf("barrier: no schedules")
	}

	type message struct {
		from, to  int
		knowledge []bool
	}
	var queue []message

	knowledge := make([][]bool, n) // knowledge[r][x]: r heard (transitively) from x
	arrived := make([][]bool, n)   // arrived[r][x]: notification from x delivered
	stepIdx := make([]int, n)
	sent := make([][]bool, n) // sent[r][s]: step s's sends performed
	for r := range knowledge {
		knowledge[r] = make([]bool, n)
		knowledge[r][r] = true
		arrived[r] = make([]bool, n)
		sent[r] = make([]bool, scheds[r].Steps())
	}

	complete := func(r int) bool { return stepIdx[r] >= scheds[r].Steps() }
	var peers []int // scratch for one step's peer list
	stepDone := func(r int) bool {
		peers = scheds[r].AppendWaits(peers[:0], stepIdx[r])
		for _, w := range peers {
			if !arrived[r][w] {
				return false
			}
		}
		return true
	}

	for progress := true; progress; {
		progress = false
		// Start steps (performing their sends) and complete satisfied ones.
		for r := 0; r < n; r++ {
			for !complete(r) {
				s := stepIdx[r]
				if !sent[r][s] {
					sent[r][s] = true
					progress = true
					peers = scheds[r].AppendSends(peers[:0], s)
					for _, p := range peers {
						snap := make([]bool, n)
						copy(snap, knowledge[r])
						queue = append(queue, message{from: r, to: p, knowledge: snap})
					}
				}
				if !stepDone(r) {
					break
				}
				stepIdx[r]++
				progress = true
			}
		}
		// Deliver all queued messages in FIFO order.
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			if arrived[m.to][m.from] {
				return fmt.Errorf("barrier: duplicate notification %d->%d", m.from, m.to)
			}
			arrived[m.to][m.from] = true
			for x, k := range m.knowledge {
				if k {
					knowledge[m.to][x] = true
				}
			}
			progress = true
		}
	}

	for r := 0; r < n; r++ {
		if !complete(r) {
			return fmt.Errorf("barrier: rank %d/%d deadlocked at step %d/%d (%s)",
				r, n, stepIdx[r], scheds[r].Steps(), name)
		}
		if err := check(r, knowledge[r]); err != nil {
			return err
		}
	}
	return nil
}
