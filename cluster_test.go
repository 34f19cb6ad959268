package nicbarrier

import (
	"strings"
	"testing"
)

func xpConfig(nodes int) Config {
	return Config{
		Interconnect: MyrinetLANaiXP,
		Nodes:        nodes,
		Scheme:       NICCollective,
		Algorithm:    Dissemination,
		Seed:         1,
	}
}

// Several groups share one cluster; each runs its own barriers, and the
// one-shot wrapper must agree exactly with a fresh single-group cluster.
func TestClusterMultiGroup(t *testing.T) {
	one, err := MeasureBarrier(xpConfig(8), 5, 50)
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(xpConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g1, err := c.NewGroup([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.NewGroup([]int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := g1.Barrier(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Barrier(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Result{"g1": r1, "g2": r2} {
		if r.MeanMicros <= 0 || r.Iterations != 50 {
			t.Fatalf("%s: bad result %+v", name, r)
		}
	}
	// A 4-rank barrier is cheaper than the 8-rank one-shot barrier.
	if r1.MeanMicros >= one.MeanMicros {
		t.Fatalf("4-rank group (%v us) not cheaper than 8-rank (%v us)", r1.MeanMicros, one.MeanMicros)
	}
}

// Repeated runs on one group reuse its NIC slot: the sequence space
// continues and warm steady-state latency is stable.
func TestGroupBarrierRepeatable(t *testing.T) {
	c, err := NewCluster(xpConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.NewGroup([]int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Barrier(3, 20); err != nil {
		t.Fatal(err)
	}
	warm1, err := g.Barrier(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := g.Barrier(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if warm1.MeanMicros != warm2.MeanMicros {
		t.Fatalf("warm repeat runs differ: %v vs %v us", warm1.MeanMicros, warm2.MeanMicros)
	}
	// Mixing shapes on one group claims one extra slot per shape.
	if _, err := g.Broadcast(0, 4, 2, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Allreduce(Max, 2, 10); err != nil {
		t.Fatal(err)
	}
}

// Exhausting a member NIC's group-queue slots surfaces as a clean error
// from the public API.
func TestClusterSlotExhaustion(t *testing.T) {
	c, err := NewCluster(xpConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		g, err := c.NewGroup([]int{0, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Barrier(1, 3); err != nil {
			if !strings.Contains(err.Error(), "slots exhausted") {
				t.Fatalf("unexpected error: %v", err)
			}
			if i == 0 {
				t.Fatal("first group already exhausted")
			}
			return
		}
		if i > 32 {
			t.Fatal("slot limit never hit")
		}
	}
}

func TestMeasureWorkload(t *testing.T) {
	cfg := xpConfig(32)
	spec := WorkloadSpec{
		Tenants: 8, OpsPerTenant: 12,
		BarrierWeight: 2, AllreduceWeight: 1,
		Arrival: ClosedLoop, MeanGapMicros: 3,
	}
	a, err := MeasureWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.AggregateOpsPerSec != b.AggregateOpsPerSec || a.MakespanMicros != b.MakespanMicros {
		t.Fatalf("nondeterministic workload: %+v vs %+v", a, b)
	}
	if a.TotalOps != 96 || len(a.Tenants) != 8 {
		t.Fatalf("bad totals: %+v", a)
	}
	if a.Fairness <= 0 || a.Fairness > 1.0000001 {
		t.Fatalf("fairness %v", a.Fairness)
	}
	for _, ts := range a.Tenants {
		if ts.P50Micros > ts.P99Micros || ts.MeanMicros <= 0 {
			t.Fatalf("tenant stats inconsistent: %+v", ts)
		}
		if ts.Operation != "barrier" && ts.Operation != "allreduce" {
			t.Fatalf("unexpected op %q", ts.Operation)
		}
	}
	// Quadrics workloads run (barriers only).
	q, err := MeasureWorkload(Config{
		Interconnect: QuadricsElan3, Nodes: 16, Scheme: NICCollective, Seed: 1,
	}, WorkloadSpec{Tenants: 4, OpsPerTenant: 8})
	if err != nil {
		t.Fatal(err)
	}
	if q.DroppedPackets != 0 {
		t.Fatalf("Quadrics dropped %d packets", q.DroppedPackets)
	}
}

func TestWorkloadSpecValidationPublic(t *testing.T) {
	if _, err := MeasureWorkload(xpConfig(8), WorkloadSpec{Tenants: 0, OpsPerTenant: 1}); err == nil {
		t.Fatal("zero tenants accepted")
	}
	if _, err := MeasureWorkload(xpConfig(8), WorkloadSpec{
		Tenants: 1, OpsPerTenant: 1, Arrival: OpenLoop,
	}); err == nil {
		t.Fatal("open loop without rate accepted")
	}
}

// Invalid collective shapes fail with an error, never a panic: a
// broadcast tree of degree 1 or below, a gather-broadcast tree of
// degree 1, and an unknown allreduce operator. The group stays usable.
func TestInvalidShapesError(t *testing.T) {
	c, err := NewCluster(xpConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.NewGroup([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, degree := range []int{1, -3} {
		if _, err := g.Broadcast(0, degree, 0, 2); err == nil {
			t.Errorf("broadcast of degree %d accepted", degree)
		}
	}
	if _, err := g.Allreduce(ReduceOperator(9), 0, 2); err == nil {
		t.Error("allreduce with operator 9 accepted")
	}
	for _, degree := range []int{1, -2} {
		cfg := xpConfig(8)
		cfg.Algorithm, cfg.TreeDegree = GatherBroadcast, degree
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("gather-broadcast tree degree %d accepted", degree)
		}
	}
	if _, err := g.Barrier(0, 2); err != nil {
		t.Fatalf("barrier after rejected shapes: %v", err)
	}
}
