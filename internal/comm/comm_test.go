package comm

import (
	"fmt"
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

// barrierConfig is a NIC-collective dissemination barrier over members.
func barrierConfig(members ...int) GroupConfig {
	return GroupConfig{
		Members:       members,
		Kind:          OpBarrier,
		MyrinetScheme: myrinet.SchemeCollective,
		Algorithm:     barrier.Dissemination,
	}
}

func barrierGroup(t *testing.T, c *Cluster, members ...int) *Group {
	t.Helper()
	g, err := c.NewGroup(barrierConfig(members...))
	if err != nil {
		t.Fatalf("NewGroup(%v): %v", members, err)
	}
	return g
}

// drive runs one tenant per config through RunTenants, each running ops
// operations. All arrive at 0 and install in config order, so group IDs
// follow that order. A driver error fails the test.
func drive(t *testing.T, c *Cluster, ops int, gcs ...GroupConfig) []TenantRun {
	t.Helper()
	runs, err := RunTenants(c, tenants(ops, gcs...))
	if err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	return runs
}

// tenants is one Tenant per config, indexed in order, each running ops
// operations from an arrival at 0.
func tenants(ops int, gcs ...GroupConfig) []Tenant {
	ts := make([]Tenant, len(gcs))
	for i, gc := range gcs {
		ts[i] = Tenant{Index: i, Config: gc, Ops: ops}
	}
	return ts
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
	s, err := myrinet.NewGroupSession(cl, myrinet.SessionGroupID, ids, myrinet.SchemeCollective,
		barrier.NewPlan(barrier.Dissemination, len(ids), barrier.Options{}), core.Chained, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run(20)

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
	contrib := func(rank, iter int) int64 { return int64(rank + iter) }
	const iters = 15
	runs := drive(t, c, iters,
		barrierConfig(0, 1, 2, 3), // a
		barrierConfig(2, 3, 4, 5), // b: shares nodes 2 and 3 with a
		GroupConfig{ // r
			Members: []int{3, 6, 7, 0}, // shares 3 with both, 0 with a
			Kind:    OpAllreduce,
			Reduce:  core.ReduceMax,
			Contrib: contrib,
		})
	r := runs[2].Group
	for k, name := range []string{"a", "b", "r"} {
		g := runs[k].Group
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
	if err := r.CheckResults(); err != nil {
		t.Fatalf("CheckResults on exact results: %v", err)
	}
	r.Results()[4][2]++
	if err := r.CheckResults(); err == nil {
		t.Fatal("CheckResults accepted a corrupted result")
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
	// Same nodes twice: the second group takes a second slot.
	runs := drive(t, shared, 10, barrierConfig(0, 1, 2, 3), barrierConfig(0, 1, 2, 3))
	if got := runs[0].Group.Completions()[9]; got <= aloneDone {
		t.Fatalf("contended group finished at %v, not later than solo %v", got, aloneDone)
	}
}

// Exhausting a NIC's group-queue slots must fail with a clean error —
// not a panic — and leave previously created groups fully functional.
func TestSlotExhaustionCleanError(t *testing.T) {
	c := xpComm(4)
	slots := hwprofile.LANaiXPCluster().NIC.GroupQueueSlots
	var gcs []GroupConfig
	for i := 0; i < slots; i++ {
		gcs = append(gcs, barrierConfig(0, 1, 2, 3))
	}
	gcs = append(gcs, GroupConfig{
		Members:       []int{0, 1},
		Kind:          OpBarrier,
		MyrinetScheme: myrinet.SchemeCollective,
	})
	runs, err := RunTenants(c, tenants(3, gcs...))
	if err == nil {
		t.Fatal("slot exhaustion did not error")
	}
	if !strings.Contains(err.Error(), "slots exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(c.Groups()) != slots {
		t.Fatalf("failed creation left %d groups registered, want %d", len(c.Groups()), slots)
	}
	for i, r := range runs[:slots] {
		if r.Group.OpsCompleted() != 3 || !r.Group.Done() {
			t.Fatalf("tenant %d completed %d of 3 ops beside the refused install", i, r.Group.OpsCompleted())
		}
	}
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
	runs := drive(t, c, 10,
		GroupConfig{Members: []int{0, 1, 2, 3}, Kind: OpBarrier},
		GroupConfig{Members: []int{2, 3, 4, 5}, Kind: OpBarrier})
	if !runs[0].Group.Done() || !runs[1].Group.Done() {
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
		runs := drive(t, OverMyrinet(cl), 12,
			barrierConfig(0, 1, 2, 3), // group ID 1
			barrierConfig(2, 3, 4, 5)) // group ID 2, shares 2 and 3
		return runs[0].Group.Completions(), runs[1].Group.Completions(), cl.Net.Counters().Dropped
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

// TestInvalidConfigRejected pins that NewGroup rejects every invalid
// configuration with an error instead of a panic, under both the
// default and the queueing policy, on a fresh cluster and on one whose
// NICs have no free slot (where a queueing cluster used to defer the
// install): the four variants must agree on the error.
func TestInvalidConfigRejected(t *testing.T) {
	contrib := func(rank, iter int) int64 { return int64(rank) }
	members := []int{0, 1, 2, 3}
	for _, tc := range []struct {
		name  string
		elan  bool
		gc    GroupConfig
		match string
	}{
		{"broadcast degree 1", false, GroupConfig{Kind: OpBroadcast, Degree: 1}, "degree 1"},
		{"broadcast degree -3", false, GroupConfig{Kind: OpBroadcast, Degree: -3}, "degree -3"},
		{"barrier tree degree 1", false, GroupConfig{Kind: OpBarrier, Algorithm: barrier.GatherBroadcast,
			Options: barrier.Options{TreeDegree: 1}, MyrinetScheme: myrinet.SchemeCollective}, "degree 1"},
		{"allreduce tree degree 1", false, GroupConfig{Kind: OpAllreduce, Algorithm: barrier.GatherBroadcast,
			Options: barrier.Options{TreeDegree: 1}, Reduce: core.ReduceMax, Contrib: contrib}, "degree 1"},
		{"gsync tree degree 1", true, GroupConfig{Kind: OpBarrier, ElanScheme: elan.SchemeGsync,
			Options: barrier.Options{TreeDegree: 1}}, "degree 1"},
		{"unknown algorithm", false, GroupConfig{Kind: OpBarrier, Algorithm: barrier.Algorithm(9),
			MyrinetScheme: myrinet.SchemeCollective}, "algorithm 9"},
		{"unknown Myrinet scheme", false, GroupConfig{Kind: OpBarrier, MyrinetScheme: myrinet.Scheme(9)}, "scheme 9"},
		{"unknown Elan scheme", true, GroupConfig{Kind: OpBarrier, ElanScheme: elan.Scheme(9)}, "scheme 9"},
		{"member outside cluster", false, GroupConfig{Kind: OpBarrier, Members: []int{0, 1, 99},
			MyrinetScheme: myrinet.SchemeCollective}, "node 99 outside"},
		{"member repeated", false, GroupConfig{Kind: OpBarrier, Members: []int{0, 1, 0},
			MyrinetScheme: myrinet.SchemeCollective}, "node 0 repeated"},
		{"unknown reduce op", false, GroupConfig{Kind: OpAllreduce, Reduce: core.ReduceOp(9), Contrib: contrib}, "reduce op 9"},
		{"inexact sum", false, GroupConfig{Kind: OpAllreduce, Members: []int{0, 1, 2},
			Reduce: core.ReduceSum, Contrib: contrib}, "power-of-two"},
	} {
		if tc.gc.Members == nil {
			tc.gc.Members = members
		}
		var first string
		for _, policy := range []AdmitPolicy{AdmitError, AdmitQueue} {
			for _, full := range []bool{false, true} {
				c := xpComm(8)
				if tc.elan {
					c = elanComm(8)
				}
				if full {
					fill := GroupConfig{Members: []int{0, 1, 2, 3, 4, 5, 6, 7}, Kind: OpBarrier,
						MyrinetScheme: myrinet.SchemeCollective}
					for c.SlotsFree(0) > 0 {
						if _, err := c.NewGroup(fill); err != nil {
							t.Fatalf("%s: filling slots: %v", tc.name, err)
						}
					}
				}
				c.SetAdmission(AdmissionConfig{Policy: policy})
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s (%v, full %v): NewGroup panicked: %v", tc.name, policy, full, r)
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					_, err = c.NewGroup(tc.gc)
				}()
				if err == nil || !strings.Contains(err.Error(), tc.match) {
					t.Errorf("%s (%v, full %v): error %v, want one naming %q", tc.name, policy, full, err, tc.match)
					continue
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Errorf("%s (%v, full %v): error %q differs from %q", tc.name, policy, full, err, first)
				}
				if q := c.AdmissionStats().QueueLen; q != 0 {
					t.Errorf("%s (%v, full %v): %d installs queued", tc.name, policy, full, q)
				}
			}
		}
	}
}
