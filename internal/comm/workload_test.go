package comm

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

func runSpec(t *testing.T, nodes int, spec WorkloadSpec) WorkloadResult {
	t.Helper()
	res, err := RunWorkload(xpComm(nodes), spec)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	return res
}

func TestWorkloadClosedLoopDeterministic(t *testing.T) {
	spec := WorkloadSpec{
		Tenants: 4, OpsPerTenant: 20, Seed: 7,
		Arrival: ArrivalSpec{Kind: ClosedLoop, MeanGapUS: 5},
	}
	a := runSpec(t, 16, spec)
	b := runSpec(t, 16, spec)
	if a.AggOpsPerSec != b.AggOpsPerSec || a.MakespanUS != b.MakespanUS || a.Fairness != b.Fairness {
		t.Fatalf("nondeterministic workload: %+v vs %+v", a, b)
	}
	for i := range a.Tenants {
		if a.Tenants[i] != b.Tenants[i] {
			t.Fatalf("tenant %d differs across identical runs", i)
		}
	}
	if a.TotalOps != 80 {
		t.Fatalf("TotalOps = %d, want 80", a.TotalOps)
	}
	if a.Fairness <= 0 || a.Fairness > 1+1e-12 {
		t.Fatalf("Jain fairness %v outside (0, 1]", a.Fairness)
	}
}

// More tenants sharing a fixed cluster must raise aggregate throughput
// (more independent streams) while the per-tenant streams still all
// finish — the scalability claim of per-group NIC queues.
func TestWorkloadThroughputScalesWithTenants(t *testing.T) {
	agg := func(tenants int) float64 {
		return runSpec(t, 32, WorkloadSpec{
			Tenants: tenants, OpsPerTenant: 15, Seed: 3,
		}).AggOpsPerSec
	}
	t1, t8 := agg(1), agg(8)
	if t8 <= t1 {
		t.Fatalf("8 tenants (%.0f ops/s) not faster in aggregate than 1 (%.0f ops/s)", t8, t1)
	}
}

func TestWorkloadOpenLoopQueueing(t *testing.T) {
	// Saturating open-loop arrivals (gap far below service time) must
	// show queueing: later ops wait, so p99 latency well above p50 of a
	// relaxed run, and eligibility-based latency exceeds the relaxed
	// mean.
	relaxed := runSpec(t, 8, WorkloadSpec{
		Tenants: 2, OpsPerTenant: 30, Seed: 5,
		Arrival: ArrivalSpec{Kind: OpenLoop, MeanGapUS: 500},
	})
	saturated := runSpec(t, 8, WorkloadSpec{
		Tenants: 2, OpsPerTenant: 30, Seed: 5,
		Arrival: ArrivalSpec{Kind: OpenLoop, MeanGapUS: 1},
	})
	if saturated.Tenants[0].P99US <= relaxed.Tenants[0].P99US {
		t.Fatalf("saturated p99 %.2fus not above relaxed p99 %.2fus",
			saturated.Tenants[0].P99US, relaxed.Tenants[0].P99US)
	}
	for _, tr := range relaxed.Tenants {
		if tr.P50US > tr.P95US || tr.P95US > tr.P99US || tr.P99US > tr.MaxUS {
			t.Fatalf("percentiles out of order: %+v", tr)
		}
	}
}

func TestWorkloadMixedOpsAndOverlap(t *testing.T) {
	res := runSpec(t, 16, WorkloadSpec{
		Tenants: 6, OpsPerTenant: 10, Seed: 11,
		GroupSizeMin: 2, GroupSizeMax: 5, Overlap: true,
		Mix:     OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
		Arrival: ArrivalSpec{Kind: ClosedLoop, MeanGapUS: 3},
	})
	kinds := map[OpKind]int{}
	for _, tr := range res.Tenants {
		kinds[tr.Kind]++
		if tr.Ops != 10 {
			t.Fatalf("tenant %d ran %d ops, want 10", tr.Tenant, tr.Ops)
		}
		if tr.Size < 2 || tr.Size > 5 {
			t.Fatalf("tenant %d size %d outside [2,5]", tr.Tenant, tr.Size)
		}
		if tr.MeanUS <= 0 || math.IsNaN(tr.MeanUS) {
			t.Fatalf("tenant %d mean latency %v", tr.Tenant, tr.MeanUS)
		}
	}
	if len(kinds) < 2 {
		t.Fatalf("mix produced only %v", kinds)
	}
}

func TestWorkloadOnElan(t *testing.T) {
	res, err := RunWorkload(elanComm(16), WorkloadSpec{
		Tenants: 4, OpsPerTenant: 10, Seed: 2,
		// Mix is ignored on Quadrics: groups run barriers only.
		Mix: OpMix{Barrier: 1, Broadcast: 1, Allreduce: 1},
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	for _, tr := range res.Tenants {
		if tr.Kind != OpBarrier {
			t.Fatalf("elan tenant %d kind %v", tr.Tenant, tr.Kind)
		}
	}
	if res.Dropped != 0 {
		t.Fatalf("hardware-reliable network dropped %d packets", res.Dropped)
	}
}

func TestWorkloadValidation(t *testing.T) {
	c := xpComm(8)
	for name, spec := range map[string]WorkloadSpec{
		"no tenants":        {Tenants: 0, OpsPerTenant: 1},
		"no ops":            {Tenants: 1, OpsPerTenant: 0},
		"tiny groups":       {Tenants: 1, OpsPerTenant: 1, GroupSizeMin: 1, GroupSizeMax: 1},
		"oversized groups":  {Tenants: 1, OpsPerTenant: 1, GroupSizeMin: 2, GroupSizeMax: 99},
		"open loop no rate": {Tenants: 1, OpsPerTenant: 1, Arrival: ArrivalSpec{Kind: OpenLoop}},
		"too many tenants":  {Tenants: 8, OpsPerTenant: 1},
	} {
		if _, err := RunWorkload(c, spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Disjoint placement that cannot fit must name the fix.
	_, err := RunWorkload(xpComm(8), WorkloadSpec{
		Tenants: 3, OpsPerTenant: 1, GroupSizeMin: 4, GroupSizeMax: 4,
	})
	if err == nil || !strings.Contains(err.Error(), "Overlap") {
		t.Fatalf("unfittable disjoint workload: %v", err)
	}
}

// A workload whose setup fails partway (here: disjoint placement
// overflow after two groups are already created) must not poison the
// cluster: a subsequent workload on the same cluster runs to completion
// instead of waiting forever on the never-launched leftovers.
func TestFailedWorkloadLeavesClusterUsable(t *testing.T) {
	c := xpComm(8)
	_, err := RunWorkload(c, WorkloadSpec{
		Tenants: 3, OpsPerTenant: 2, GroupSizeMin: 4, GroupSizeMax: 4,
	})
	if err == nil {
		t.Fatal("unfittable workload accepted")
	}
	res, err := RunWorkload(c, WorkloadSpec{Tenants: 2, OpsPerTenant: 5})
	if err != nil {
		t.Fatalf("retry after failed setup: %v", err)
	}
	if res.TotalOps != 10 {
		t.Fatalf("retry ran %d ops, want 10", res.TotalOps)
	}
}

// Independent clusters are independent engines: driving them from
// parallel goroutines must be race-free (this is the test the CI race
// job leans on for the communicator layer).
func TestParallelClustersRace(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c := xpComm(16)
			_, err := RunWorkload(c, WorkloadSpec{
				Tenants: 4, OpsPerTenant: 10, Seed: seed,
				Mix:     OpMix{Barrier: 2, Allreduce: 1},
				Arrival: ArrivalSpec{Kind: ClosedLoop, MeanGapUS: 2},
			})
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}(uint64(i))
	}
	wg.Wait()
}

// Workload streams under packet loss still complete (NACK recovery) and
// the drop accounting reaches the result.
func TestWorkloadUnderLoss(t *testing.T) {
	eng := sim.NewEngine()
	loss := &lossEveryNth{n: 50}
	cl := myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), 16, loss)
	res, err := RunWorkload(OverMyrinet(cl), WorkloadSpec{
		Tenants: 4, OpsPerTenant: 10, Seed: 9,
	})
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.Dropped == 0 {
		t.Fatal("impairment dropped nothing")
	}
}

// lossEveryNth drops every n-th packet network-wide at injection (a
// deliberately harsh deterministic impairment for recovery coverage;
// fault.DropEveryNth counts per flow instead).
type lossEveryNth struct{ n, seen int }

func (l *lossEveryNth) Inject(netsim.Packet, sim.Time) netsim.Outcome {
	l.seen++
	return netsim.Outcome{Drop: l.seen%l.n == 0}
}

func (*lossEveryNth) Hop(netsim.Packet, int, int, int, sim.Time) netsim.Outcome {
	return netsim.Outcome{}
}

// A workload whose tenant can never install (a foreign group holds
// every slot it needs, and nothing will free them) returns an error
// naming the stalled tenant and the queued install, on one cluster and
// sharded, where a panic on a shard goroutine would end the process.
func TestWorkloadStallReturnsError(t *testing.T) {
	blocked := func() *Cluster {
		c := xpCommSlots(4, 1)
		c.SetAdmission(AdmissionConfig{Policy: AdmitQueue})
		barrierGroup(t, c, 0, 1, 2, 3)
		return c
	}
	for _, cs := range [][]*Cluster{{blocked()}, {blocked(), blocked()}} {
		_, err := RunWorkloadSharded(cs, WorkloadSpec{Tenants: len(cs), OpsPerTenant: 3})
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("%d shard(s): err = %v, want ErrStalled", len(cs), err)
		}
		if msg := err.Error(); !strings.Contains(msg, "tenants [0]") || !strings.Contains(msg, "1 still queued") {
			t.Fatalf("%d shard(s): stall error %q does not name tenant 0 and its queued install", len(cs), msg)
		}
	}
}
