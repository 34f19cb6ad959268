package comm

import (
	"strings"
	"sync"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// xpCommSlots builds a Myrinet communicator cluster with a custom
// per-NIC group-queue slot count, for admission tests that want
// exhaustion without dozens of groups.
func xpCommSlots(n, slots int) *Cluster {
	prof := hwprofile.LANaiXPCluster()
	prof.NIC.GroupQueueSlots = slots
	return OverMyrinet(myrinet.NewCluster(sim.NewEngine(), prof, n, nil))
}

func allSlotsFree(t *testing.T, c *Cluster, wantCap int) {
	t.Helper()
	for node := 0; node < c.nodes(); node++ {
		if free := c.SlotsFree(node); free != wantCap {
			t.Fatalf("node %d: %d slots free after teardown, want %d", node, free, wantCap)
		}
	}
}

// The leak gate of the lifecycle: installing and closing far more groups
// than any NIC has slots must return every slot, on both backends. Each
// wave fills the NICs completely, runs a few operations, and closes —
// without Close this loop dies on the first wave after exhaustion.
func TestSlotReclamationMyrinet(t *testing.T) {
	cap := hwprofile.LANaiXPCluster().NIC.GroupQueueSlots
	c := xpComm(4)
	for wave := 0; wave < 3; wave++ {
		var gcs []GroupConfig
		for i := 0; i < cap; i++ {
			gcs = append(gcs, barrierConfig(0, 1, 2, 3))
		}
		runs := drive(t, c, 3, gcs...)
		allSlotsFree(t, c, 0)
		for _, r := range runs {
			g := r.Group
			if err := g.Close(); err != nil {
				t.Fatalf("wave %d close: %v", wave, err)
			}
			if !g.Closed() {
				t.Fatalf("wave %d: drained group did not close synchronously", wave)
			}
		}
		c.Eng.Run() // drain teardown charges
		allSlotsFree(t, c, cap)
	}
	st := c.AdmissionStats()
	if st.Installs != 3*cap || st.Uninstalls != 3*cap {
		t.Fatalf("installs/uninstalls = %d/%d, want %d/%d", st.Installs, st.Uninstalls, 3*cap, 3*cap)
	}
}

func TestSlotReclamationElan(t *testing.T) {
	cap := hwprofile.Elan3Cluster().NIC.ChainSlots
	c := elanComm(4)
	for wave := 0; wave < 3; wave++ {
		var gcs []GroupConfig
		for i := 0; i < cap; i++ {
			gcs = append(gcs, GroupConfig{Members: []int{0, 1, 2, 3}, Kind: OpBarrier})
		}
		runs := drive(t, c, 3, gcs...)
		allSlotsFree(t, c, 0)
		for _, r := range runs {
			r.Group.Close()
		}
		c.Eng.Run()
		allSlotsFree(t, c, cap)
	}
}

// Host-scheme groups hold no NIC slot; their Close only releases the
// host event binding, and the same node can host a fresh group after.
func TestHostSchemeCloseReleasesBinding(t *testing.T) {
	c := xpComm(4)
	g, err := c.NewGroup(GroupConfig{
		Members: []int{0, 1, 2, 3}, Kind: OpBarrier, MyrinetScheme: myrinet.SchemeHost,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(3)
	allSlotsFree(t, c, hwprofile.LANaiXPCluster().NIC.GroupQueueSlots)
	g.Close()
	g2, err := c.NewGroup(GroupConfig{
		Members: []int{0, 1, 2, 3}, Kind: OpBarrier, MyrinetScheme: myrinet.SchemeHost,
	})
	if err != nil {
		t.Fatalf("reinstall after host-scheme close: %v", err)
	}
	g2.Run(3)
}

// Close while a run is in flight defers the teardown until the launched
// iterations drain: the slot is still held mid-run and freed exactly at
// completion.
func TestCloseDefersUntilDrain(t *testing.T) {
	cap := hwprofile.LANaiXPCluster().NIC.GroupQueueSlots
	c := xpComm(4)
	// 1 ns into the run, all 10 operations are in flight.
	c.Eng.Schedule(1, func() {
		g := c.Groups()[0]
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if g.Closed() {
			t.Fatal("close finalized while the run was in flight")
		}
		if free := c.SlotsFree(0); free != cap-1 {
			t.Fatalf("slot freed before drain: %d free", free)
		}
	})
	g := drive(t, c, 10, barrierConfig(0, 1, 2, 3))[0].Group
	if !g.Closed() {
		t.Fatal("deferred close did not finalize at drain")
	}
	c.Eng.Run()
	allSlotsFree(t, c, cap)
	// Double close is a no-op.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// Under AdmitQueue, a cluster accepts more groups than its NICs have
// slots: the overflow installs wait, a launch issued while waiting
// replays at install time, and departures drain the queue strictly FIFO.
func TestQueuePolicyOversubscription(t *testing.T) {
	const slots = 2
	c := xpCommSlots(4, slots)
	c.SetAdmission(AdmissionConfig{Policy: AdmitQueue})

	var groups []*Group
	for i := 0; i < 3*slots; i++ {
		g := barrierGroup(t, c, 0, 1, 2, 3)
		groups = append(groups, g)
		g.launch(5)
	}
	for i, g := range groups {
		if i < slots && !g.Installed() {
			t.Fatalf("group %d should have installed immediately", i)
		}
		if i >= slots && g.Installed() {
			t.Fatalf("group %d should be queued", i)
		}
	}
	st := c.AdmissionStats()
	if st.Queued != 2*slots || st.QueueLen != 2*slots {
		t.Fatalf("queued = %d (len %d), want %d", st.Queued, st.QueueLen, 2*slots)
	}
	// Drive each installed wave to completion, then depart it: each
	// Close must admit the next waiter. (RunTenants would drain the
	// whole queue at once — valid, but here the waves are the point.)
	wave := func(ws []*Group) {
		t.Helper()
		if !c.Eng.RunCondition(func() bool {
			for _, g := range ws {
				if !g.done() {
					return false
				}
			}
			return true
		}) {
			t.Fatal("wave deadlocked")
		}
	}
	wave(groups[:slots])
	for _, g := range groups[:slots] {
		g.Close()
	}
	wave(groups[slots : 2*slots])
	for _, g := range groups[slots : 2*slots] {
		g.Close()
	}
	wave(groups[2*slots:])
	for _, g := range groups[2*slots:] {
		g.Close()
	}
	c.Eng.Run()
	allSlotsFree(t, c, slots)
	st = c.AdmissionStats()
	if len(st.WaitsUS) != 2*slots {
		t.Fatalf("%d queue waits recorded, want %d", len(st.WaitsUS), 2*slots)
	}
	for _, w := range st.WaitsUS {
		if w <= 0 {
			t.Fatal("queued group recorded a zero wait")
		}
	}
	// Closing a still-queued group withdraws it without an install.
	g := barrierGroup(t, c, 0, 1, 2, 3)
	_ = g
	for i := 0; i < slots-1; i++ {
		barrierGroup(t, c, 0, 1, 2, 3)
	}
	q := barrierGroup(t, c, 0, 1, 2, 3) // over capacity: queued
	if q.Installed() {
		t.Fatal("over-capacity group installed")
	}
	q.Close()
	if c.AdmissionStats().QueueLen != 0 {
		t.Fatal("withdrawn group still queued")
	}
}

// Withdrawing a queued head (Close before its install was served) must
// unblock eligible installs FIFO'd behind it — a regression test for a
// deadlock where the queue only drained on slot releases.
func TestWithdrawnHeadUnblocksQueue(t *testing.T) {
	c := xpCommSlots(4, 1)
	c.SetAdmission(AdmissionConfig{Policy: AdmitQueue})
	a := barrierGroup(t, c, 0, 1)    // fills nodes 0 and 1
	b := barrierGroup(t, c, 2, 3)    // fills nodes 2 and 3
	head := barrierGroup(t, c, 0, 2) // queued: 0 and 2 full
	// The tail tenant arrives at 0, queues behind head and records its
	// launch; 1 ns later b departs and head is withdrawn.
	c.Eng.Schedule(1, func() {
		tail := c.Groups()[3]
		// b departs: the release-drain stops at the head (node 0 still
		// full under a), leaving the tail FIFO-blocked with its slots free.
		b.Close()
		if head.Installed() || tail.Installed() {
			t.Fatal("queue shape not established")
		}
		// Closing the still-queued head withdraws it; the drain must then
		// serve the tail from the already-free slots on nodes 2 and 3.
		head.Close()
		if !tail.Installed() {
			t.Fatal("withdrawing the queued head did not unblock the tail")
		}
	})
	run := drive(t, c, 3, barrierConfig(2, 3))[0]
	tail := run.Group
	if !tail.done() || tail.OpsCompleted() != 3 {
		t.Fatal("tail's replayed launch never completed")
	}
	a.Close()
	tail.Close()
	c.Eng.Run()
	allSlotsFree(t, c, 1)
}

// A departure that does not free the queued head's slots leaves the
// head blocked without attempting its install: the refusal builds no
// error, copies no member list and claims no group ID.
func TestDrainBlockedHeadAllocsNothing(t *testing.T) {
	c := xpCommSlots(4, 1)
	c.SetAdmission(AdmissionConfig{Policy: AdmitQueue})
	a := barrierGroup(t, c, 0, 1)
	head := barrierGroup(t, c, 0, 2) // queued: node 0 full under a
	gid := c.nextGID
	if allocs := testing.AllocsPerRun(100, c.sched.drain); allocs != 0 {
		t.Fatalf("draining a blocked head allocates %.1f objects, want 0", allocs)
	}
	if head.Installed() || c.nextGID != gid || c.AdmissionStats().QueueLen != 1 {
		t.Fatal("blocked drain changed the queue or the group IDs")
	}
	a.Close()
	if !head.Installed() {
		t.Fatal("freeing node 0 did not serve the head")
	}
	head.Close()
	c.Eng.Run()
	allSlotsFree(t, c, 1)
}

// Launch guards apply to queued groups exactly as to installed ones, and
// the one launch they let through replays once the group installs.
func TestQueuedLaunchGuards(t *testing.T) {
	c := xpCommSlots(2, 1)
	c.SetAdmission(AdmissionConfig{Policy: AdmitQueue})
	first := barrierGroup(t, c, 0, 1)
	q := barrierGroup(t, c, 0, 1) // queued
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("launch(0) on queued group", func() { q.launch(0) })
	q.launch(3)
	mustPanic("double launch on queued group", func() { q.launch(3) })
	first.Close()
	c.Eng.Run()
	if !q.done() {
		t.Fatal("queued group's launch did not replay at install")
	}
}

// The spread and pack placement policies re-home a group whose requested
// members are full, deterministically: spread picks the emptiest NICs,
// pack the fullest that still fit.
func TestPlacementPolicies(t *testing.T) {
	const slots = 2
	// Fill nodes 0 and 1 completely, put one group on 2 and 3, leave
	// 4..7 empty.
	setup := func(policy AdmitPolicy) *Cluster {
		c := xpCommSlots(8, slots)
		for i := 0; i < slots; i++ {
			barrierGroup(t, c, 0, 1)
		}
		barrierGroup(t, c, 2, 3)
		c.SetAdmission(AdmissionConfig{Policy: policy})
		return c
	}

	spread := setup(AdmitSpread)
	g, err := spread.NewGroup(GroupConfig{
		Members: []int{0, 1}, Kind: OpBarrier, MyrinetScheme: myrinet.SchemeCollective,
	})
	if err != nil {
		t.Fatalf("spread placement: %v", err)
	}
	// Emptiest NICs are 4..7 (2 free each); ties break on node ID.
	if g.Members[0] != 4 || g.Members[1] != 5 {
		t.Fatalf("spread placed on %v, want [4 5]", g.Members)
	}

	pack := setup(AdmitPack)
	g, err = pack.NewGroup(GroupConfig{
		Members: []int{0, 1}, Kind: OpBarrier, MyrinetScheme: myrinet.SchemeCollective,
	})
	if err != nil {
		t.Fatalf("pack placement: %v", err)
	}
	// Fullest NICs with a free slot are 2 and 3 (1 free each).
	if g.Members[0] != 2 || g.Members[1] != 3 {
		t.Fatalf("pack placed on %v, want [2 3]", g.Members)
	}
	g.Run(3)

	// When not even placement can fit the group, the error names both
	// the exhaustion and the failed placement.
	c := xpCommSlots(2, 1)
	barrierGroup(t, c, 0, 1)
	c.SetAdmission(AdmissionConfig{Policy: AdmitSpread})
	_, err = c.NewGroup(GroupConfig{
		Members: []int{0, 1}, Kind: OpBarrier, MyrinetScheme: myrinet.SchemeCollective,
	})
	if err == nil || !strings.Contains(err.Error(), "placement") {
		t.Fatalf("exhausted placement error = %v", err)
	}
}

// Reconfigure is install-new/handoff-sequence/uninstall-old: the group
// keeps its operation count across the swap, frees the old members'
// slots, and the stream on the new membership completes in order.
func TestReconfigureHandoff(t *testing.T) {
	cap := hwprofile.LANaiXPCluster().NIC.GroupQueueSlots
	for _, backend := range []string{"myrinet", "elan"} {
		t.Run(backend, func(t *testing.T) {
			var c *Cluster
			if backend == "myrinet" {
				c = xpComm(8)
			} else {
				c = elanComm(8)
			}
			g, err := c.NewGroup(GroupConfig{
				Members: []int{0, 1, 2, 3}, Kind: OpBarrier,
				MyrinetScheme: myrinet.SchemeCollective, Algorithm: barrier.Dissemination,
			})
			if err != nil {
				t.Fatal(err)
			}
			oldID := g.ID
			first := g.Run(10)
			g.Reset()
			if err := g.Reconfigure([]int{4, 5, 6, 7}); err != nil {
				t.Fatalf("reconfigure: %v", err)
			}
			if g.ID == oldID {
				t.Fatal("reconfigured group kept its old NIC group ID")
			}
			if got := []int(g.Members); got[0] != 4 || got[3] != 7 {
				t.Fatalf("members after swap: %v", got)
			}
			second := g.Run(10)
			if g.OpsCompleted() != 20 {
				t.Fatalf("sequence handoff lost ops: %d completed, want 20", g.OpsCompleted())
			}
			if second[0] <= first[9] {
				t.Fatalf("post-swap op at %v not after pre-swap %v", second[0], first[9])
			}
			// Old members' slots are free again: fill node 0 to capacity.
			c.Eng.Run()
			var slots int
			if backend == "myrinet" {
				slots = cap
			} else {
				slots = hwprofile.Elan3Cluster().NIC.ChainSlots
			}
			if free := c.SlotsFree(0); free != slots {
				t.Fatalf("old member node 0 has %d slots free, want %d", free, slots)
			}
			g.Close()
		})
	}
}

// Reconfiguring an allreduce group stays exact on the new membership —
// the collective state reinstalls from scratch, so results verify — and
// the contribution stream runs on at the group-level op index.
func TestReconfigureAllreduceExact(t *testing.T) {
	c := xpComm(8)
	contrib := func(rank, iter int) int64 { return int64(rank*3 + iter) }
	g, err := c.NewGroup(GroupConfig{
		Members: []int{0, 1, 2, 3}, Kind: OpAllreduce,
		Reduce: core.ReduceMax, Contrib: contrib,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(5)
	g.Reset()
	if err := g.Reconfigure([]int{2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	g.Run(5)
	rows := g.Results()
	if len(rows) != 5 {
		t.Fatalf("new incarnation holds %d iterations of results", len(rows))
	}
	for iter, row := range rows {
		if len(row) != 5 {
			t.Fatalf("iter %d: %d ranks", iter, len(row))
		}
		want := int64(4*3 + 5 + iter) // max rank is 4 on the new membership, op 5+iter
		for rank, got := range row {
			if got != want {
				t.Fatalf("iter %d rank %d: got %d want %d", iter, rank, got, want)
			}
		}
	}
	if err := g.CheckResults(); err != nil {
		t.Fatalf("CheckResults across the swap: %v", err)
	}
	g.Close()
}

// Reconfigure guards: mid-run swaps are refused, and a swap whose new
// members cannot take the install leaves the group fully functional on
// its old membership.
func TestReconfigureGuards(t *testing.T) {
	const slots = 1
	c := xpCommSlots(8, slots)
	refused := false
	// 1 ns into the run, all 5 operations are in flight.
	c.Eng.Schedule(1, func() {
		refused = c.Groups()[0].Reconfigure([]int{4, 5, 6, 7}) != nil
	})
	g := drive(t, c, 5, barrierConfig(0, 1, 2, 3))[0].Group
	if !refused {
		t.Fatal("mid-run reconfigure accepted")
	}
	g.Reset()
	// Fill the target nodes so the install-new step must fail.
	blocker := barrierGroup(t, c, 4, 5, 6, 7)
	if err := g.Reconfigure([]int{4, 5, 6, 7}); err == nil {
		t.Fatal("reconfigure onto full NICs accepted")
	}
	// The old group is untouched and still runs.
	g.Run(3)
	if g.OpsCompleted() != 8 {
		t.Fatalf("ops completed = %d, want 8", g.OpsCompleted())
	}
	blocker.Close()
	g.Reset()
	if err := g.Reconfigure([]int{4, 5, 6, 7}); err != nil {
		t.Fatalf("reconfigure after blocker departed: %v", err)
	}
	g.Run(3)
	g.Close()
}

// The churn workload is the acceptance gate: far more groups installed
// and closed than any NIC has slots, under the queueing policy, with
// reconfigurations mid-run — and every slot accounted for at the end.
func TestChurnOversubscribedCompletes(t *testing.T) {
	for _, backend := range []string{"myrinet", "elan"} {
		t.Run(backend, func(t *testing.T) {
			var c *Cluster
			var cap int
			if backend == "myrinet" {
				c = xpCommSlots(6, 2)
				cap = 2
			} else {
				c = elanComm(6) // 8 chain slots
				cap = hwprofile.Elan3Cluster().NIC.ChainSlots
			}
			spec := ChurnSpec{
				Tenants:          30,
				OpsPerTenant:     6,
				GroupSizeMin:     2,
				GroupSizeMax:     4,
				MeanArrivalGapUS: 5,
				MeanThinkUS:      2,
				ReconfigureEvery: 5,
				Policy:           AdmitQueue,
				ChargeSetupCosts: true,
				Seed:             7,
			}
			res, err := RunChurn(c, spec)
			if err != nil {
				t.Fatalf("churn: %v", err)
			}
			if res.Completed != spec.Tenants {
				t.Fatalf("completed %d of %d tenants", res.Completed, spec.Tenants)
			}
			if res.TotalOps != spec.Tenants*spec.OpsPerTenant {
				t.Fatalf("total ops %d", res.TotalOps)
			}
			if res.Installs <= cap {
				t.Fatalf("churn installed only %d groups; the test wants far more than %d slots", res.Installs, cap)
			}
			if res.Installs != res.Uninstalls {
				t.Fatalf("leak: %d installs vs %d uninstalls", res.Installs, res.Uninstalls)
			}
			if res.Reconfigs+res.ReconfigsFailed == 0 {
				t.Fatal("no reconfigurations attempted")
			}
			if backend == "myrinet" && res.QueuedInstalls == 0 {
				t.Fatal("oversubscribed churn never queued an install")
			}
			allSlotsFree(t, c, cap)
		})
	}
}

// Churn is bit-deterministic per seed.
func TestChurnDeterministic(t *testing.T) {
	run := func() ChurnResult {
		c := xpCommSlots(6, 3)
		res, err := RunChurn(c, ChurnSpec{
			Tenants: 12, OpsPerTenant: 5, MeanArrivalGapUS: 10,
			ReconfigureEvery: 4, Policy: AdmitQueue, ChargeSetupCosts: true, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MakespanUS != b.MakespanUS || a.Sent != b.Sent || a.QueuedInstalls != b.QueuedInstalls {
		t.Fatalf("churn not deterministic: %+v vs %+v", a, b)
	}
}

// Under AdmitError the same oversubscription fails cleanly with the
// tenant named, not a panic or a deadlock, and leaves the cluster quiet:
// the tenants installed before the refusal ran out and departed.
func TestChurnErrorPolicyFailsCleanly(t *testing.T) {
	c := xpCommSlots(4, 1)
	_, err := RunChurn(c, ChurnSpec{
		Tenants: 10, OpsPerTenant: 4, GroupSizeMin: 3, GroupSizeMax: 4,
		Policy: AdmitError, Seed: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "tenant") {
		t.Fatalf("error-policy churn returned %v", err)
	}
	if n := c.Eng.Pending(); n != 0 {
		t.Fatalf("%d events still pending after the failed churn", n)
	}
	allSlotsFree(t, c, 1)
}

// Concurrent clusters churning groups (NewGroup/Close in a loop) from
// parallel goroutines must be race-free: each cluster is single-threaded
// by contract, and nothing in the lifecycle path may share mutable state
// across engines. Run with -race.
func TestConcurrentChurnRace(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Cluster
			if w%2 == 0 {
				c = xpCommSlots(4, 2)
			} else {
				c = elanComm(4)
			}
			if _, err := RunChurn(c, ChurnSpec{
				Tenants: 15, OpsPerTenant: 4, MeanArrivalGapUS: 3,
				ReconfigureEvery: 3, Policy: AdmitQueue, ChargeSetupCosts: true,
				Seed: uint64(w),
			}); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}()
	}
	wg.Wait()
}

// Per-tenant arrival overrides: a hot tenant (tiny gap) must complete
// its open-loop stream earlier than a cold tenant (huge gap) in the same
// run, and omitting the overrides reproduces the global-rate result bit
// for bit.
func TestPerTenantArrivalOverrides(t *testing.T) {
	spec := WorkloadSpec{
		Tenants: 2, OpsPerTenant: 10,
		Arrival: ArrivalSpec{Kind: OpenLoop, MeanGapUS: 50},
		Seed:    5,
	}
	base, err := RunWorkload(xpComm(8), spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunWorkload(xpComm(8), spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.MakespanUS != again.MakespanUS {
		t.Fatal("baseline workload not deterministic")
	}
	spec.PerTenantGapUS = []float64{5, 500} // hot tenant 0, cold tenant 1
	mixed, err := RunWorkload(xpComm(8), spec)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := mixed.Tenants[0], mixed.Tenants[1]
	if hot.OpsPerSec <= cold.OpsPerSec {
		t.Fatalf("hot tenant %.0f ops/s not above cold %.0f", hot.OpsPerSec, cold.OpsPerSec)
	}
	if mixed.MakespanUS == base.MakespanUS {
		t.Fatal("overrides had no effect on the run")
	}
	// Zero entries inherit the global gap.
	spec.PerTenantGapUS = []float64{0, 0}
	inherit, err := RunWorkload(xpComm(8), spec)
	if err != nil {
		t.Fatal(err)
	}
	if inherit.MakespanUS != base.MakespanUS {
		t.Fatalf("zero overrides changed the run: %v vs %v", inherit.MakespanUS, base.MakespanUS)
	}
	// Negative overrides are rejected.
	spec.PerTenantGapUS = []float64{-1}
	if _, err := RunWorkload(xpComm(8), spec); err == nil {
		t.Fatal("negative per-tenant gap accepted")
	}
}

// The scheduler's steady-state dispatch path — the per-operation
// completion multiplexer, the empty-queue drain that runs on every
// departure, and the slot release — must not allocate: a churn workload
// exercises it once per operation and once per tenant departure.
func TestSchedDispatchZeroAlloc(t *testing.T) {
	c := xpComm(4)
	g := barrierGroup(t, c, 0, 1, 2, 3)
	s := c.sched
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 16; k++ {
			g.onIterDone(k, sim.Time(k))
			s.drain()
			for _, id := range g.Members {
				s.used[id]++
			}
			s.release(g.gc, g.Members)
		}
	})
	if allocs != 0 {
		t.Fatalf("sched dispatch allocates %.1f objects per round, want 0", allocs)
	}
}

// BenchmarkSchedDispatch is the bench-smoke form of the invariant,
// gated at exactly 0 allocs/op in CI alongside the engine, netsim and
// pacer benchmarks.
func BenchmarkSchedDispatch(b *testing.B) {
	c := xpComm(4)
	g, err := c.NewGroup(GroupConfig{
		Members:       []int{0, 1, 2, 3},
		Kind:          OpBarrier,
		MyrinetScheme: myrinet.SchemeCollective,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := c.sched
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.onIterDone(i, sim.Time(i))
		s.drain()
		for _, id := range g.Members {
			s.used[id]++
		}
		s.release(g.gc, g.Members)
	}
}

// An allreduce tenant that swaps membership mid-stream is checked on
// every op: the ledger keeps the pre-swap rows, each is checked against
// the membership that produced it, and a corrupted pre-swap row is
// reported.
func TestSwappedAllreduceTenantChecksEveryRow(t *testing.T) {
	c := xpComm(8)
	runs, err := RunTenants(c, []Tenant{{Ops: 10, SwapAt: 5, SwapTo: []int{4, 5, 6, 7, 0},
		Config: GroupConfig{Members: []int{0, 1, 2, 3}, Kind: OpAllreduce, Reduce: core.ReduceMax,
			Contrib: func(rank, iter int) int64 { return int64(rank*10 + iter) }}}})
	if err != nil {
		t.Fatal(err)
	}
	g := runs[0].Group
	if runs[0].swapErr != nil || g.Size() != 5 {
		t.Fatalf("swap did not take: %v, %d members", runs[0].swapErr, g.Size())
	}
	if g.OpsCompleted() != 10 || len(g.led.fold.rows) != 5 || len(g.Results()) != 5 {
		t.Fatalf("%d ops, %d folded rows, %d current rows; want 10, 5, 5",
			g.OpsCompleted(), len(g.led.fold.rows), len(g.Results()))
	}
	if err := g.CheckResults(); err != nil {
		t.Fatalf("CheckResults on exact rows: %v", err)
	}
	g.led.fold.rows[2][1]++
	if err := g.CheckResults(); err == nil || !strings.Contains(err.Error(), "op 2 rank 1") {
		t.Fatalf("corrupted pre-swap row: CheckResults = %v", err)
	}
}
