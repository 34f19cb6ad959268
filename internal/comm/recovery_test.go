package comm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// quickRecovery is a config tight enough to keep tests fast but with
// the documented ordering: probes much denser than the deadline, the
// suspicion threshold several probe periods wide.
func quickRecovery() RecoveryConfig {
	return RecoveryConfig{
		OpDeadline:     sim.Micros(1000),
		HeartbeatEvery: sim.Micros(50),
		SuspectAfter:   sim.Micros(200),
		MaxRetries:     3,
		RetryBackoff:   sim.Micros(100),
	}
}

// runRecovering runs gc as one tenant with quickRecovery armed for ops
// operations. A driver error fails the test; the group's terminal
// recovery error is returned.
func runRecovering(t *testing.T, c *Cluster, gc GroupConfig, ops int) (TenantRun, error) {
	t.Helper()
	runs, err := RunTenants(c, []Tenant{{Config: gc, Ops: ops, Recovery: quickRecovery()}})
	if err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	return runs[0], runs[0].Group.Err()
}

func slotsInUse(c *Cluster) int {
	total := 0
	for node := 0; node < c.nodes(); node++ {
		free := c.SlotsFree(node)
		if c.My != nil {
			total += c.My.Prof.NIC.GroupQueueSlots - free
		} else {
			total += c.El.Prof.NIC.ChainSlots - free
		}
	}
	return total
}

// The tentpole acceptance case on Myrinet: a permanent (unbounded
// window) fail-stop crash no longer hangs the collective. With a
// deadline set, the run times out, the detector names exactly the
// victim, eviction rebuilds on the survivors, and every launched
// operation completes in bounded virtual time.
func TestPermanentCrashEvictedMyrinet(t *testing.T) {
	c := xpComm(8)
	const victim = 5
	c.My.SetFaults(fault.NewPlan(7, fault.Crash(victim, fault.Window{})))
	const iters = 10
	r, err := runRecovering(t, c, barrierConfig(0, 1, 2, 3, 4, 5, 6, 7), iters)
	if err != nil {
		t.Fatalf("recovering run: %v", err)
	}
	if n := r.Group.OpsCompleted(); n != iters {
		t.Fatalf("completed %d of %d operations", n, iters)
	}
	g := r.Group
	st := g.Recovery()
	if len(st.Evicted) != 1 || st.Evicted[0] != victim {
		t.Fatalf("evicted %v, want [%d]", st.Evicted, victim)
	}
	if st.Timeouts == 0 || st.Retries == 0 {
		t.Fatalf("no timeout/retry recorded: %+v", st)
	}
	if len(g.Members) != 7 {
		t.Fatalf("membership after eviction: %v", g.Members)
	}
	for _, node := range g.Members {
		if node == victim {
			t.Fatalf("victim still a member: %v", g.Members)
		}
	}
	// Timers and slots must be clean: close the group, drain, and the
	// engine must go fully quiet with every slot back.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if n := c.Eng.Pending(); n != 0 {
		t.Fatalf("%d leaked timers/events after close", n)
	}
	if n := slotsInUse(c); n != 0 {
		t.Fatalf("%d leaked NIC slots after close", n)
	}
}

// Same acceptance case on Quadrics: hardware reliability does not save
// a chained-RDMA barrier from a dead endpoint, but the deadline and
// detector do.
func TestPermanentCrashEvictedElan(t *testing.T) {
	c := elanComm(8)
	const victim = 2
	c.El.SetFaults(fault.NewPlan(7, fault.Crash(victim, fault.Window{})))
	r, err := runRecovering(t, c, GroupConfig{
		Members:    []int{0, 1, 2, 3, 4, 5, 6, 7},
		Kind:       OpBarrier,
		ElanScheme: elan.SchemeChained,
		Algorithm:  barrier.Dissemination,
	}, 8)
	if err != nil {
		t.Fatalf("recovering run: %v", err)
	}
	if n := r.Group.OpsCompleted(); n != 8 {
		t.Fatalf("completed %d of 8 operations", n)
	}
	g := r.Group
	st := g.Recovery()
	if len(st.Evicted) != 1 || st.Evicted[0] != victim {
		t.Fatalf("evicted %v, want [%d]", st.Evicted, victim)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if n := c.Eng.Pending(); n != 0 {
		t.Fatalf("%d leaked timers/events after close", n)
	}
	if n := slotsInUse(c); n != 0 {
		t.Fatalf("%d leaked NIC slots after close", n)
	}
}

// A windowed crash that heals before the deadline expires must NOT cost
// the victim its membership: by expiry its heartbeats have resumed, the
// detector holds no suspects, and the run retries on the full
// membership. Quadrics is the substrate that needs this — without
// retransmission, an RDMA dropped during the window wedges the
// operation even after the node heals.
func TestWindowedCrashRetriesWithoutEviction(t *testing.T) {
	c := elanComm(4)
	c.El.SetFaults(fault.NewPlan(7, fault.Crash(1, fault.Window{From: 0, To: sim.Time(0).Add(sim.Micros(200))})))
	r, err := runRecovering(t, c, GroupConfig{
		Members:    []int{0, 1, 2, 3},
		Kind:       OpBarrier,
		ElanScheme: elan.SchemeChained,
		Algorithm:  barrier.Dissemination,
	}, 6)
	if err != nil {
		t.Fatalf("recovering run: %v", err)
	}
	if n := r.Group.OpsCompleted(); n != 6 {
		t.Fatalf("completed %d of 6 operations", n)
	}
	g := r.Group
	st := g.Recovery()
	if len(st.Evicted) != 0 {
		t.Fatalf("healed node evicted: %v", st.Evicted)
	}
	if st.Retries == 0 {
		t.Fatal("windowed crash recovered without any retry (expected a timeout+retry)")
	}
	if len(g.Members) != 4 {
		t.Fatalf("membership shrank: %v", g.Members)
	}
}

// When eviction would leave fewer than 2 members, recovery fails
// terminally with *core.OpTimeoutError naming the suspects — a bounded
// error, never a hang. The driver ledgers the operations completed
// before the failure and does not report the failed tenant as stalled.
func TestRecoveryTerminalFailure(t *testing.T) {
	c := xpComm(4)
	c.My.SetFaults(fault.NewPlan(7, fault.Crash(1, fault.Window{})))
	runs, runErr := RunTenants(c, []Tenant{{Config: barrierConfig(0, 1), Ops: 5, Recovery: quickRecovery()}})
	if runErr != nil {
		t.Fatalf("driver error for a terminal failure (wraps ErrStalled: %v): %v",
			errors.Is(runErr, ErrStalled), runErr)
	}
	r := runs[0]
	g := r.Group
	done := g.Completions()
	if len(done) >= 5 {
		t.Fatalf("ledger %v: want only the ops completed before the failure", done)
	}
	err := g.Err()
	if err == nil {
		t.Fatal("2-member group with a dead member reported success")
	}
	if !errors.Is(err, core.ErrOpTimeout) {
		t.Fatalf("error %v does not unwrap to ErrOpTimeout", err)
	}
	var ote *core.OpTimeoutError
	if !errors.As(err, &ote) {
		t.Fatalf("error %T is not *core.OpTimeoutError", err)
	}
	if ote.Op != len(done) {
		t.Fatalf("failure at op %d after %d completions", ote.Op, len(done))
	}
	// With only 2 members, silence is symmetric: node 0 cannot be
	// heard either (its only listener is dead), so the detector cannot
	// discriminate — it must name the victim among the suspects and
	// fail rather than evict everyone.
	found := false
	for _, s := range ote.Suspects {
		if s == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("suspects %v do not include the crashed node 1", ote.Suspects)
	}
	if !g.Failed() || g.Err() == nil {
		t.Fatal("group does not report terminal failure")
	}
	// Terminal failure still tears down cleanly.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if n := c.Eng.Pending(); n != 0 {
		t.Fatalf("%d leaked timers/events after failed run", n)
	}
	if n := slotsInUse(c); n != 0 {
		t.Fatalf("%d leaked NIC slots after failed run", n)
	}
}

// Recovery is restricted to the NIC-resident collective schemes; the
// host- and p2p-based schemes would leak retransmission timers against
// dead peers.
func TestRecoverySchemeRestrictions(t *testing.T) {
	c := xpComm(4)
	for _, scheme := range []myrinet.Scheme{myrinet.SchemeHost, myrinet.SchemeDirect} {
		g, err := c.NewGroup(GroupConfig{
			Members:       []int{0, 1, 2, 3},
			Kind:          OpBarrier,
			MyrinetScheme: scheme,
			Algorithm:     barrier.Dissemination,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.setRecovery(quickRecovery()); err == nil {
			t.Fatalf("setRecovery accepted %v", scheme)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ec := elanComm(4)
	for _, scheme := range []elan.Scheme{elan.SchemeGsync, elan.SchemeHW} {
		g, err := ec.NewGroup(GroupConfig{
			Members:    []int{0, 1, 2, 3},
			Kind:       OpBarrier,
			ElanScheme: scheme,
			Algorithm:  barrier.Dissemination,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.setRecovery(quickRecovery()); err == nil {
			t.Fatalf("setRecovery accepted %v", scheme)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	zero := xpComm(4)
	g := barrierGroup(t, zero, 0, 1, 2, 3)
	if err := g.setRecovery(RecoveryConfig{}); err == nil {
		t.Fatal("setRecovery accepted a zero OpDeadline")
	}
}

// Allreduce results stay exact across an eviction: the rebuilt session
// numbers its operations from 0, but the group posts contributions at
// the group-level op index, so operation k always combines
// contributions for iteration k — before and after the membership
// shrinks. ReduceMax
// stays exact at any group size, so the 8->7 rebuild installs cleanly.
func TestAllreduceExactAcrossEviction(t *testing.T) {
	c := xpComm(8)
	const victim = 3
	c.My.SetFaults(fault.NewPlan(7, fault.Crash(victim, fault.Window{})))
	contrib := func(rank, iter int) int64 { return int64(rank*1000 + iter) }
	const iters = 10
	r, err := runRecovering(t, c, GroupConfig{
		Members:       []int{0, 1, 2, 3, 4, 5, 6, 7},
		Kind:          OpAllreduce,
		MyrinetScheme: myrinet.SchemeCollective,
		Algorithm:     barrier.Dissemination,
		Reduce:        core.ReduceMax,
		Contrib:       contrib,
	}, iters)
	if err != nil {
		t.Fatalf("recovering run: %v", err)
	}
	g := r.Group
	st := g.Recovery()
	if len(st.Evicted) != 1 || st.Evicted[0] != victim {
		t.Fatalf("evicted %v, want [%d]", st.Evicted, victim)
	}
	if g.OpsCompleted() != iters {
		t.Fatalf("%d ledgered operations, want %d", g.OpsCompleted(), iters)
	}
	if len(g.led.fold.epochs) < 2 {
		t.Fatalf("expected at least 2 membership epochs, got %+v", g.led.fold.epochs)
	}
	for op := range iters {
		row := g.row(op)
		// The membership that produced operation op.
		members := g.led.fold.epochs[0].members
		for _, e := range g.led.fold.epochs {
			if e.from <= op {
				members = e.members
			}
		}
		if len(row) != len(members) {
			t.Fatalf("op %d: row width %d, membership %d", op, len(row), len(members))
		}
		// Max over ranks 0..n-1 of rank*1000+op.
		want := int64((len(members)-1)*1000 + op)
		for r, v := range row {
			if v != want {
				t.Fatalf("op %d rank %d: result %d, want %d (membership %v)", op, r, v, want, members)
			}
		}
	}
	// CheckResults reads the same ledger epoch by epoch: it accepts the
	// exact rows and rejects a wrong value or a row of the wrong width.
	if err := g.CheckResults(); err != nil {
		t.Fatalf("CheckResults on exact ledger: %v", err)
	}
	g.Reset() // folds the last run's rows into the ledger
	last := g.led.fold.rows[iters-1]
	last[0]++
	if err := g.CheckResults(); err == nil {
		t.Fatal("CheckResults accepted a corrupted result")
	}
	last[0]--
	g.led.fold.rows[iters-1] = append(last, last[0])
	if err := g.CheckResults(); err == nil {
		t.Fatal("CheckResults accepted a row wider than its epoch's membership")
	}
}

// A crash racing a Reconfigure: the tenant's swap onto a membership
// containing an already-dead node succeeds (installs are local SRAM
// writes), the post-swap run times out and evicts the victim, the
// group-global operation sequence carries across both swaps, and no
// slot leaks.
func TestCrashDuringReconfigure(t *testing.T) {
	c := xpComm(8)
	const victim = 6
	// The node is dead from the start; the first membership never
	// touches it, and the swap moves onto it before anyone can know.
	c.My.SetFaults(fault.NewPlan(7, fault.Crash(victim, fault.Window{})))
	runs, err := RunTenants(c, []Tenant{{Config: barrierConfig(0, 1, 2, 3), Ops: 10,
		SwapAt: 5, SwapTo: []int{0, 1, 2, victim}, Recovery: quickRecovery()}})
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	g := r.Group
	if r.swapErr != nil {
		t.Fatalf("Reconfigure onto a crashed node must succeed (installs are local): %v", r.swapErr)
	}
	if err := g.Err(); err != nil {
		t.Fatalf("recovering run after reconfigure: %v", err)
	}
	st := g.Recovery()
	if n := len(g.Completions()); n != 10 {
		t.Fatalf("ledger holds %d of 10 operations", n)
	}
	if g.OpsCompleted() != 10 {
		t.Fatalf("sequence did not carry over: OpsCompleted = %d, want 10", g.OpsCompleted())
	}
	if len(st.Evicted) != 1 || st.Evicted[0] != victim {
		t.Fatalf("evicted %v, want [%d]", st.Evicted, victim)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if n := slotsInUse(c); n != 0 {
		t.Fatalf("%d leaked NIC slots", n)
	}
	if n := c.Eng.Pending(); n != 0 {
		t.Fatalf("%d leaked timers/events", n)
	}
}

// Explicit Evict is usable outside the detector: an idle group drops a
// member via the make-before-break swap, keeps its sequence, and the
// departed node's slot frees.
func TestExplicitEvict(t *testing.T) {
	c := xpComm(6)
	g := barrierGroup(t, c, 0, 1, 2, 3, 4, 5)
	g.Run(4)
	g.Reset()
	if err := g.evict(2, 4); err != nil {
		t.Fatal(err)
	}
	if len(g.Members) != 4 {
		t.Fatalf("membership %v after evicting 2 ranks", g.Members)
	}
	st := g.Recovery()
	if st != nil {
		t.Fatal("Recovery() non-nil without recovery")
	}
	g.Run(3)
	if g.OpsCompleted() != 7 {
		t.Fatalf("OpsCompleted = %d, want 7", g.OpsCompleted())
	}
	if err := g.evict(0, 1, 2); err == nil {
		t.Fatal("eviction below 2 members accepted")
	}
	g.Reset()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if n := slotsInUse(c); n != 0 {
		t.Fatalf("%d leaked NIC slots", n)
	}
}

// Recovery must not fire when nothing fails: a healthy group's deadline
// run completes every operation with zero timeouts, retries, or
// evictions. (The heartbeat probes legitimately share wire occupancy
// with the collective, so completion times may shift by nanoseconds —
// only the NO-recovery path is under the bit-identity contract, and
// that path sends no probes at all.)
func TestRecoveryNoopWhenHealthy(t *testing.T) {
	c := xpComm(8)
	r, err := runRecovering(t, c, barrierConfig(0, 1, 2, 3, 4, 5, 6, 7), 12)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Group.OpsCompleted(); n != 12 {
		t.Fatalf("completed %d of 12 operations", n)
	}
	g := r.Group
	st := g.Recovery()
	if st.Timeouts != 0 || st.Retries != 0 || len(st.Evicted) != 0 {
		t.Fatalf("healthy run triggered recovery: %+v", st)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	if n := c.Eng.Pending(); n != 0 {
		t.Fatalf("%d leaked timers/events", n)
	}
}

// A recovering allreduce tenant that swaps onto a dead node and then
// evicts it is checked over its whole stream, epoch by epoch: rows
// before the swap, between the swap and the eviction, and after it
// each combine their own membership's contributions, and a corrupted
// row in the first and the last epoch is reported.
func TestRecoveringAllreduceChecksEveryEpoch(t *testing.T) {
	c := xpComm(8)
	const victim = 6
	c.My.SetFaults(fault.NewPlan(7, fault.Crash(victim, fault.Window{})))
	runs, err := RunTenants(c, []Tenant{{Ops: 10, SwapAt: 4, SwapTo: []int{0, 1, 2, 3, 4, victim},
		Recovery: quickRecovery(),
		Config: GroupConfig{Members: []int{0, 1, 2, 3}, Kind: OpAllreduce,
			MyrinetScheme: myrinet.SchemeCollective, Reduce: core.ReduceMax,
			Contrib: func(rank, iter int) int64 { return int64(rank*1000 + iter) }}}})
	if err != nil {
		t.Fatal(err)
	}
	g := runs[0].Group
	if err := g.Err(); err != nil {
		t.Fatalf("recovering run: %v", err)
	}
	if st := g.Recovery(); len(st.Evicted) != 1 || st.Evicted[0] != victim {
		t.Fatalf("evicted %v, want [%d]", st.Evicted, victim)
	}
	if g.OpsCompleted() != 10 || len(g.led.fold.epochs) < 3 {
		t.Fatalf("%d ops over epochs %+v; want 10 over at least 3", g.OpsCompleted(), g.led.fold.epochs)
	}
	if err := g.CheckResults(); err != nil {
		t.Fatalf("CheckResults on exact rows: %v", err)
	}
	g.Reset() // folds the last run's rows into the ledger
	for _, op := range []int{1, 9} {
		g.led.fold.rows[op][0]--
		if err := g.CheckResults(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("op %d rank 0", op)) {
			t.Fatalf("corrupted op %d: CheckResults = %v", op, err)
		}
		g.led.fold.rows[op][0]++
	}
}
