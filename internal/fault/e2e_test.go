package fault_test

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

func identityIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// collectiveSession installs a collective dissemination barrier over
// nodes 0..n-1 as the cluster's first group.
func collectiveSession(t *testing.T, cl *myrinet.Cluster, n int) *myrinet.Session {
	t.Helper()
	s, err := myrinet.NewGroupSession(cl, myrinet.SessionGroupID, identityIDs(n), myrinet.SchemeCollective,
		barrier.NewPlan(barrier.Dissemination, n, barrier.Options{}), core.Chained, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The satellite acceptance test: a Myrinet barrier completes under 20%
// random loss because the MCP's receiver-driven NACK retransmission
// recovers every lost notification.
func TestMyrinetBarrierSurvives20PercentLoss(t *testing.T) {
	eng := sim.NewEngine()
	cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 16, nil)
	plan := fault.NewPlan(3, fault.Loss(0.20))
	cl.SetFaults(plan)
	s := collectiveSession(t, cl, 16)
	const iters = 30
	doneAt := s.Run(iters) // panics on deadlock: completion IS the assertion
	eng.Run()
	for i := 1; i < iters; i++ {
		if doneAt[i] <= doneAt[i-1] {
			t.Fatalf("iteration %d completed at %v, not after %v", i, doneAt[i], doneAt[i-1])
		}
	}
	net := cl.Net.Counters()
	if net.Dropped == 0 {
		t.Fatal("20% loss plan dropped nothing")
	}
	nic := cl.Stats()
	if nic.NacksSent == 0 || nic.CollResent == 0 {
		t.Fatalf("no receiver-driven recovery: %+v", nic)
	}
	st := plan.Stats()[0]
	if st.Dropped != net.Dropped {
		t.Fatalf("plan accounted %d drops, network %d", st.Dropped, net.Dropped)
	}
	frac := float64(net.Dropped) / float64(net.Sent)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("drop fraction %v, want ~0.20", frac)
	}
}

// A link-loss-only fault plan cannot touch Quadrics: the Elan substrate
// wraps impairments in netsim.DelayOnly, so the faulted run is
// bit-identical to the clean one. (Fail-stop crashes are NOT link loss
// and do pass through — see TestQuadricsCrashDropsRDMAs.)
func TestQuadricsImmuneToLossOnlyPlan(t *testing.T) {
	measure := func(plan *fault.Plan) []sim.Time {
		eng := sim.NewEngine()
		cl := elan.NewCluster(eng, hwprofile.Elan3Cluster(), 8)
		if plan != nil {
			cl.SetFaults(plan)
		}
		s := elan.NewSession(cl, identityIDs(8), elan.SchemeChained,
			barrier.Dissemination, barrier.Options{})
		doneAt := s.Run(20)
		eng.Run()
		if plan != nil && cl.Net.Counters().Dropped != 0 {
			t.Fatal("hardware-reliable network dropped packets")
		}
		return doneAt
	}
	clean := measure(nil)
	lossy := measure(fault.NewPlan(3, fault.Loss(0.5), fault.DropEveryNth(2)))
	for i := range clean {
		if clean[i] != lossy[i] {
			t.Fatalf("iteration %d: clean %v vs lossy-plan %v", i, clean[i], lossy[i])
		}
	}
}

// Fail-stop crashes pass through the DelayOnly wrapper: hardware
// reliability recovers lost packets, not dead endpoints. A permanent
// crash therefore silences a Quadrics barrier — RDMAs to and from the
// victim drop as fail-stop and the group stalls instead of completing
// (recovery from this state is the communicator layer's op-deadline
// machinery, not the substrate's).
func TestQuadricsCrashDropsRDMAs(t *testing.T) {
	eng := sim.NewEngine()
	cl := elan.NewCluster(eng, hwprofile.Elan3Cluster(), 8)
	cl.SetFaults(fault.NewPlan(3, fault.Crash(3, fault.Window{})))
	s := elan.NewSession(cl, identityIDs(8), elan.SchemeChained,
		barrier.Dissemination, barrier.Options{})
	s.Launch(5)
	if eng.RunCondition(s.Done) {
		t.Fatal("barrier completed despite a permanently crashed member")
	}
	net := cl.Net.Counters()
	if net.FailStopped == 0 {
		t.Fatalf("crash produced no fail-stop drops: %+v", net)
	}
	if net.Dropped != net.FailStopped {
		t.Fatalf("non-fail-stop drops on a hardware-reliable network: %+v", net)
	}
}

// Delay-type faults DO reach Quadrics: hardware reliability is about
// loss, not latency.
func TestQuadricsFeelsDelayFaults(t *testing.T) {
	measure := func(plan *fault.Plan) sim.Duration {
		eng := sim.NewEngine()
		cl := elan.NewCluster(eng, hwprofile.Elan3Cluster(), 8)
		if plan != nil {
			cl.SetFaults(plan)
		}
		s := elan.NewSession(cl, identityIDs(8), elan.SchemeChained,
			barrier.Dissemination, barrier.Options{})
		return core.MeanLatency(s.Run(2+20), 2)
	}
	clean := measure(nil)
	delayed := measure(fault.NewPlan(3, fault.Latency(sim.Micros(5), 0)))
	if delayed < clean+sim.Micros(5) {
		t.Fatalf("delay fault had no effect: clean %v, delayed %v", clean, delayed)
	}
}

// A time-windowed partition kills traffic between one node pair mid-run,
// then heals; NACK retransmission repairs the missed rounds and the
// barrier sequence completes.
func TestPartitionHealsAndBarrierRecovers(t *testing.T) {
	eng := sim.NewEngine()
	cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
	// Ranks = nodes (identity): rank 1 notifies rank 3 at dissemination
	// distance 2, so the pair really exchanges traffic every barrier.
	plan := fault.NewPlan(3, fault.Partition(1, 3, fault.Between(30, 150)))
	cl.SetFaults(plan)
	s := collectiveSession(t, cl, 8)
	s.Run(40)
	eng.Run()
	net := cl.Net.Counters()
	if net.HopDropped == 0 {
		t.Fatal("partition window dropped nothing mid-route")
	}
	if cl.Stats().CollResent == 0 {
		t.Fatal("no retransmissions after the partition healed")
	}
	// The partition is windowed: drops stop once it heals, so the vast
	// majority of traffic still flows.
	if net.Dropped*10 > net.Sent {
		t.Fatalf("windowed partition dropped %d of %d packets", net.Dropped, net.Sent)
	}
}

// A crashed node drops everything during its window; after recovery the
// whole session resynchronizes through retransmission.
func TestCrashRecovery(t *testing.T) {
	eng := sim.NewEngine()
	cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
	plan := fault.NewPlan(3, fault.Crash(5, fault.Between(0, 200)))
	cl.SetFaults(plan)
	s := collectiveSession(t, cl, 8)
	doneAt := s.Run(20)
	eng.Run()
	if cl.Net.Counters().Dropped == 0 {
		t.Fatal("crash window dropped nothing")
	}
	// The first barrier cannot complete before the crash heals at 200us
	// (node 5's notifications are black-holed until then).
	if doneAt[0] < sim.Time(sim.Micros(200)) {
		t.Fatalf("first barrier completed at %v, before the crash healed", doneAt[0])
	}
	last := doneAt[len(doneAt)-1]
	prev := doneAt[len(doneAt)-2]
	// Steady state after recovery: clean consecutive barriers again.
	if lat := last.Sub(prev); lat > sim.Micros(100) {
		t.Fatalf("post-recovery barrier latency %v, want clean steady state", lat)
	}
}

// Regression: deterministic every-2nd-packet loss used to livelock the
// collective protocol — the NACK/resend cycle advanced packet counters by
// an even stride, so the resent notification always landed on the dropped
// phase. Two things break the resonance now: every-Nth counts per flow,
// and repeat NACKs escalate to a duplicated resend (a one-in-N filter
// cannot discard two consecutive packets on one flow).
func TestDeterministicLossResonanceBroken(t *testing.T) {
	eng := sim.NewEngine()
	cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 4, nil)
	cl.SetFaults(fault.NewPlan(5, fault.DropEveryNth(2)))
	s := collectiveSession(t, cl, 4)
	s.Run(11) // panics on deadlock; pre-fix this livelocked instead
	eng.Run()
	net := cl.Net.Counters()
	if net.Dropped == 0 {
		t.Fatal("every-2nd plan dropped nothing")
	}
	// The run must terminate promptly, not after millions of futile
	// retransmission rounds.
	if eng.Executed() > 100_000 {
		t.Fatalf("recovery needed %d events for 11 barriers: resonance is back", eng.Executed())
	}
}

// SlowNIC adds per-packet processing delay on one node and slows every
// barrier by at least that much per dissemination round involving it.
func TestSlowNICSlowsBarrier(t *testing.T) {
	measure := func(plan *fault.Plan) sim.Duration {
		eng := sim.NewEngine()
		cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
		if plan != nil {
			cl.SetFaults(plan)
		}
		s := collectiveSession(t, cl, 8)
		return core.MeanLatency(s.Run(2+20), 2)
	}
	clean := measure(nil)
	slowed := measure(fault.NewPlan(3, fault.SlowNIC(0, sim.Micros(4))))
	if slowed <= clean+sim.Micros(3) {
		t.Fatalf("slow NIC had no effect: clean %v, slowed %v", clean, slowed)
	}
}
