package comm

import (
	"strings"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

func xpComm(n int) *Cluster {
	eng := sim.NewEngine()
	return OverMyrinet(myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), n, nil))
}

func elanComm(n int) *Cluster {
	eng := sim.NewEngine()
	return OverElan(elan.NewCluster(eng, hwprofile.Elan3Cluster(), n))
}

func barrierGroup(t *testing.T, c *Cluster, members ...int) *Group {
	t.Helper()
	g, err := c.NewGroup(GroupConfig{
		Members:       members,
		Kind:          OpBarrier,
		MyrinetScheme: myrinet.SchemeCollective,
		Algorithm:     barrier.Dissemination,
	})
	if err != nil {
		t.Fatalf("NewGroup(%v): %v", members, err)
	}
	return g
}

// Hardware-barrier groups claim no NIC slot, so admission never blocks
// them; the backend still refuses a second live one instead of letting
// it hijack the first's completions.
func TestSecondHWGroupRefused(t *testing.T) {
	c := elanComm(8)
	hw := GroupConfig{Kind: OpBarrier, ElanScheme: elan.SchemeHW}
	hw.Members = []int{0, 1, 2, 3}
	first, err := c.NewGroup(hw)
	if err != nil {
		t.Fatal(err)
	}
	hw.Members = []int{4, 5, 6, 7}
	if _, err := c.NewGroup(hw); err == nil {
		t.Fatal("second live HW group installed")
	}
	first.Run(2)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := c.NewGroup(hw)
	if err != nil {
		t.Fatalf("HW group after the first closed: %v", err)
	}
	second.Run(2)
}

// A single comm group must be indistinguishable from the one-shot
// measurement session it wraps: same group ID, same virtual completion
// times, bit for bit.
func TestSingleGroupMatchesSession(t *testing.T) {
	ids := []int{3, 1, 0, 2, 7, 5, 6, 4}

	eng := sim.NewEngine()
	cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
	want := myrinet.NewSession(cl, ids, myrinet.SchemeCollective,
		barrier.Dissemination, barrier.Options{}).Run(20)

	c := xpComm(8)
	g := barrierGroup(t, c, ids...)
	if g.ID != myrinet.SessionGroupID {
		t.Fatalf("first group ID = %d, want %d", g.ID, myrinet.SessionGroupID)
	}
	got := g.Run(20)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration %d: comm %v vs session %v", i, got[i], want[i])
		}
	}
}

// Overlapping groups that share nodes must complete independently: each
// group's own stream stays ordered and finishes, and allreduce results
// prove no cross-group state contamination on the shared NICs.
func TestOverlappingGroupsComplete(t *testing.T) {
	c := xpComm(8)
	a := barrierGroup(t, c, 0, 1, 2, 3)
	b := barrierGroup(t, c, 2, 3, 4, 5) // shares nodes 2 and 3 with a
	contrib := func(rank, iter int) int64 { return int64(rank + iter) }
	r, err := c.NewGroup(GroupConfig{
		Members: []int{3, 6, 7, 0}, // shares 3 with both, 0 with a
		Kind:    OpAllreduce,
		Reduce:  core.ReduceMax,
		Contrib: contrib,
	})
	if err != nil {
		t.Fatalf("allreduce group: %v", err)
	}
	const iters = 15
	a.Launch(iters)
	b.Launch(iters)
	r.Launch(iters)
	c.DriveAll()
	for name, g := range map[string]*Group{"a": a, "b": b, "r": r} {
		if !g.Done() {
			t.Fatalf("group %s incomplete", name)
		}
		done := g.DoneAt()
		for i := 1; i < len(done); i++ {
			if done[i] <= done[i-1] {
				t.Fatalf("group %s: iteration %d at %v not after %d at %v",
					name, i, done[i], i-1, done[i-1])
			}
		}
	}
	for iter, row := range r.Results() {
		want := int64(3 + iter) // max rank is 3
		for rank, got := range row {
			if got != want {
				t.Fatalf("allreduce iter %d rank %d: got %d want %d", iter, rank, got, want)
			}
		}
	}
}

// Concurrent groups on shared nodes must cost more than the same group
// running alone: co-resident groups contend for the one NIC firmware
// processor and shared links. This is the contention the per-group
// queues make survivable, not free.
func TestSharedNodeContention(t *testing.T) {
	alone := xpComm(8)
	g := barrierGroup(t, alone, 0, 1, 2, 3)
	aloneDone := g.Run(10)[9]

	shared := xpComm(8)
	a := barrierGroup(t, shared, 0, 1, 2, 3)
	b := barrierGroup(t, shared, 0, 1, 2, 3) // same nodes, second slot
	a.Launch(10)
	b.Launch(10)
	shared.DriveAll()
	if got := a.DoneAt()[9]; got <= aloneDone {
		t.Fatalf("contended group finished at %v, not later than solo %v", got, aloneDone)
	}
}

// Exhausting a NIC's group-queue slots must fail with a clean error —
// not a panic — and leave previously created groups fully functional.
func TestSlotExhaustionCleanError(t *testing.T) {
	c := xpComm(4)
	slots := hwprofile.LANaiXPCluster().NIC.GroupQueueSlots
	var groups []*Group
	for i := 0; i < slots; i++ {
		groups = append(groups, barrierGroup(t, c, 0, 1, 2, 3))
	}
	_, err := c.NewGroup(GroupConfig{
		Members:       []int{0, 1},
		Kind:          OpBarrier,
		MyrinetScheme: myrinet.SchemeCollective,
	})
	if err == nil {
		t.Fatal("slot exhaustion did not error")
	}
	if !strings.Contains(err.Error(), "slots exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(c.Groups()) != slots {
		t.Fatalf("failed creation left %d groups registered, want %d", len(c.Groups()), slots)
	}
	for _, g := range groups {
		g.Launch(3)
	}
	c.DriveAll()
}

// The same exhaustion path on Quadrics chain slots.
func TestElanSlotExhaustion(t *testing.T) {
	c := elanComm(4)
	slots := hwprofile.Elan3Cluster().NIC.ChainSlots
	for i := 0; i < slots; i++ {
		if _, err := c.NewGroup(GroupConfig{Members: []int{0, 1, 2, 3}, Kind: OpBarrier}); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}
	if _, err := c.NewGroup(GroupConfig{Members: []int{0, 1}, Kind: OpBarrier}); err == nil {
		t.Fatal("chain-slot exhaustion did not error")
	}
}

// Elan groups run the chained-RDMA barrier concurrently too.
func TestElanConcurrentGroups(t *testing.T) {
	c := elanComm(8)
	a, err := c.NewGroup(GroupConfig{Members: []int{0, 1, 2, 3}, Kind: OpBarrier})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewGroup(GroupConfig{Members: []int{2, 3, 4, 5}, Kind: OpBarrier})
	if err != nil {
		t.Fatal(err)
	}
	a.Launch(10)
	b.Launch(10)
	c.DriveAll()
	if !a.Done() || !b.Done() {
		t.Fatal("elan groups incomplete")
	}
}

// Broadcast and allreduce kinds are Myrinet-only; Quadrics must refuse.
func TestElanRefusesNonBarrier(t *testing.T) {
	c := elanComm(4)
	if _, err := c.NewGroup(GroupConfig{Members: []int{0, 1}, Kind: OpBroadcast}); err == nil {
		t.Fatal("elan broadcast group accepted")
	}
}

// A fault scoped to one tenant's group ID hits only that tenant's
// packets, even on nodes the tenants share — the group-aware predicates
// multi-tenant fault plans need. (The victim's recovery traffic still
// perturbs a co-resident tenant's *timing* through shared NICs and
// links; that contention is physical and intended.)
func TestGroupScopedFaultTargeting(t *testing.T) {
	run := func(plan *fault.Plan) (a, b []sim.Time, dropped uint64) {
		eng := sim.NewEngine()
		cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
		if plan != nil {
			cl.SetFaults(plan)
		}
		c := OverMyrinet(cl)
		ga := barrierGroup(t, c, 0, 1, 2, 3) // group ID 1
		gb := barrierGroup(t, c, 2, 3, 4, 5) // group ID 2, shares 2 and 3
		ga.Launch(12)
		gb.Launch(12)
		c.DriveAll()
		eng.Run()
		return ga.DoneAt(), gb.DoneAt(), cl.Net.Counters().Dropped
	}
	scoped := fault.DropEveryNth(5)
	scoped.Match.Groups = fault.Groups(1)
	a, b, dropped := run(fault.NewPlan(3, scoped))
	if dropped == 0 {
		t.Fatal("group-scoped fault dropped nothing")
	}
	if len(a) != 12 || len(b) != 12 {
		t.Fatal("tenants incomplete under group-scoped fault")
	}
	// The same rule scoped to a group that sends nothing drops nothing:
	// matching keys off the packet's group stamp, not the endpoints.
	ghost := fault.DropEveryNth(5)
	ghost.Match.Groups = fault.Groups(99)
	if _, _, dropped := run(fault.NewPlan(3, ghost)); dropped != 0 {
		t.Fatalf("ghost-group rule dropped %d packets", dropped)
	}
	// Unscoped, the rule hits both tenants' flows: strictly more drops
	// than the single-tenant scope.
	all, _, droppedAll := run(fault.NewPlan(3, fault.DropEveryNth(5)))
	if droppedAll <= dropped {
		t.Fatalf("unscoped drops %d not above scoped %d", droppedAll, dropped)
	}
	_ = all
}

// Group creation guards.
func TestGroupConfigGuards(t *testing.T) {
	c := xpComm(4)
	if _, err := c.NewGroup(GroupConfig{Members: nil, Kind: OpBarrier}); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := c.NewGroup(GroupConfig{
		Members: []int{0, 1}, Kind: OpAllreduce, Reduce: core.ReduceMax,
	}); err == nil {
		t.Fatal("allreduce without Contrib accepted")
	}
	if _, err := c.NewGroup(GroupConfig{
		Members: []int{0, 1}, Kind: OpBroadcast, Root: 5,
	}); err == nil {
		t.Fatal("broadcast root outside group accepted")
	}
}
