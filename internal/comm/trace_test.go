package comm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// tracedXpComm builds a Myrinet communicator cluster with sc attached at
// every layer: engine observer, wire tracer, per-NIC tracers, comm spans.
func tracedXpComm(n int, sc *obs.Scope) *Cluster {
	eng := sim.NewEngine()
	c := OverMyrinet(myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), n, nil))
	eng.SetObserver(sc)
	c.SetTracer(sc)
	return c
}

// Tracing is observational only: the same workload must produce
// bit-identical virtual-time results with and without a tracer attached,
// and only the traced run carries a decomposition.
func TestTracedWorkloadNeutralAndDecomposed(t *testing.T) {
	spec := WorkloadSpec{Tenants: 4, OpsPerTenant: 10, Seed: 3}
	plain, err := RunWorkload(xpComm(16), spec)
	if err != nil {
		t.Fatalf("plain RunWorkload: %v", err)
	}
	if plain.Decomp != nil {
		t.Fatalf("untraced run has a decomposition: %+v", plain.Decomp)
	}

	tr := obs.NewTracer()
	traced, err := RunWorkload(tracedXpComm(16, tr.NewScope("traced")), spec)
	if err != nil {
		t.Fatalf("traced RunWorkload: %v", err)
	}
	if traced.MakespanUS != plain.MakespanUS {
		t.Fatalf("tracing changed virtual time: %.3fus traced vs %.3fus plain",
			traced.MakespanUS, plain.MakespanUS)
	}
	if len(traced.Decomp) != 1 {
		t.Fatalf("decomposition rows = %d, want 1 (all-barrier workload): %+v",
			len(traced.Decomp), traced.Decomp)
	}
	d := traced.Decomp[0]
	if d.Kind != "barrier" {
		t.Fatalf("decomposition kind %q, want barrier", d.Kind)
	}
	if want := uint64(spec.Tenants * spec.OpsPerTenant); d.Ops != want {
		t.Fatalf("decomposition ops = %d, want %d", d.Ops, want)
	}
	if d.WireUS <= 0 || d.NICUS <= 0 {
		t.Fatalf("decomposition missing phase attribution: wire %.2fus nic %.2fus", d.WireUS, d.NICUS)
	}
}

// A churn run with reconfiguring tenants reports per-op latency
// percentiles split at the membership swap, over the swapping tenants
// only; a run where nobody swaps reports none.
func TestChurnSwapPercentiles(t *testing.T) {
	spec := ChurnSpec{
		Tenants: 12, OpsPerTenant: 8,
		ReconfigureEvery: 2,
		Policy:           AdmitQueue,
		Seed:             5,
	}
	res, err := RunChurn(xpComm(16), spec)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.Reconfigs == 0 {
		t.Fatal("no tenant reconfigured; the split has nothing to measure")
	}
	if res.PreSwapOps == 0 || res.PostSwapOps == 0 {
		t.Fatalf("swap split ops = %d pre / %d post, want both > 0", res.PreSwapOps, res.PostSwapOps)
	}
	for phase, p := range map[string][3]float64{
		"pre":  {res.PreSwapP50US, res.PreSwapP95US, res.PreSwapP99US},
		"post": {res.PostSwapP50US, res.PostSwapP95US, res.PostSwapP99US},
	} {
		if p[0] <= 0 || p[1] < p[0] || p[2] < p[1] {
			t.Fatalf("%s-swap percentiles not positive and monotone: p50 %.2f p95 %.2f p99 %.2f",
				phase, p[0], p[1], p[2])
		}
	}

	spec.ReconfigureEvery = 0
	still, err := RunChurn(xpComm(16), spec)
	if err != nil {
		t.Fatalf("RunChurn without swaps: %v", err)
	}
	if still.PreSwapOps != 0 || still.PostSwapOps != 0 {
		t.Fatalf("swap-free run reports split ops: %d pre / %d post", still.PreSwapOps, still.PostSwapOps)
	}
}

// One Tracer may serve clusters running on parallel goroutines (the
// harness sweep shape): scope creation is the synchronized boundary,
// everything else is per-scope. Run under -race in CI.
func TestConcurrentTracedClusters(t *testing.T) {
	tr := obs.NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := tr.NewScope(fmt.Sprintf("cluster %d", i))
			spec := WorkloadSpec{Tenants: 2, OpsPerTenant: 8, Seed: uint64(i + 1)}
			if _, err := RunWorkload(tracedXpComm(8, sc), spec); err != nil {
				t.Errorf("cluster %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	n, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("trace is empty")
	}
	if got := len(tr.Snapshot().Scopes); got != 4 {
		t.Fatalf("snapshot has %d scopes, want 4", got)
	}
}

// A traced churn run emits one span per completed op, across
// reconfigurations: the barrier decomposition counts every op, and the
// tenant-merged view gives every tenant its full latency histogram
// even when a membership swap moved it to a new group ID.
func TestChurnOpSpans(t *testing.T) {
	spec := ChurnSpec{
		Tenants: 12, OpsPerTenant: 8,
		MeanArrivalGapUS: 2, MeanThinkUS: 3,
		ReconfigureEvery: 2,
		Policy:           AdmitQueue,
		Seed:             5,
	}
	sc := obs.NewTracer().NewScope("churn")
	res, err := RunChurn(tracedXpComm(16, sc), spec)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.Reconfigs == 0 {
		t.Fatal("no tenant reconfigured; the rebinding has nothing to show")
	}
	var ops uint64
	for _, d := range sc.Decomp() {
		if d.Kind == "barrier" {
			ops = d.Ops
		}
	}
	if ops != uint64(res.TotalOps) {
		t.Fatalf("barrier decomposition ops = %d, want TotalOps %d", ops, res.TotalOps)
	}
	rows := sc.Snapshot().MergeTenants()
	if len(rows) != spec.Tenants {
		t.Fatalf("tenant-merged rows = %d, want %d", len(rows), spec.Tenants)
	}
	for _, r := range rows {
		if r.Latency.Count != uint64(spec.OpsPerTenant) {
			t.Fatalf("tenant %d latency count = %d, want %d", r.Tenant, r.Latency.Count, spec.OpsPerTenant)
		}
	}
}

// Churn tenants whose installs queue for slots, and tenants that swap
// membership, keep their tenant label on every group ID they install
// under: the tenant-merged view has one full row per tenant, and no
// completed op sits under an unbound group.
func TestChurnQueuedInstallsBindTenants(t *testing.T) {
	spec := ChurnSpec{Tenants: 32, OpsPerTenant: 8, ReconfigureEvery: 2, Policy: AdmitQueue, Seed: 1}
	sc := obs.NewTracer().NewScope("churn")
	res, err := RunChurn(tracedXpComm(16, sc), spec)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if res.QueuedInstalls == 0 || res.Reconfigs == 0 {
		t.Fatalf("queued installs = %d, reconfigs = %d; the test needs both", res.QueuedInstalls, res.Reconfigs)
	}
	snap := sc.Snapshot()
	for _, g := range snap.Groups {
		if g.Tenant < 0 && g.Ops > 0 {
			t.Errorf("group %d completed %d ops unbound", g.Group, g.Ops)
		}
	}
	rows := snap.MergeTenants()
	if len(rows) != spec.Tenants {
		t.Fatalf("tenant-merged rows = %d, want %d", len(rows), spec.Tenants)
	}
	for _, r := range rows {
		if r.Ops != uint64(spec.OpsPerTenant) || r.Latency.Count != uint64(spec.OpsPerTenant) {
			t.Errorf("tenant %d: ops = %d, latency count = %d, want %d", r.Tenant, r.Ops, r.Latency.Count, spec.OpsPerTenant)
		}
	}
}

// An exclusive run spans every op as a driven tenant does: a traced
// Group.Run of 20 barriers records 20 spans, and since each op becomes
// eligible at the previous completion and a run's first op at its
// launch, the spans' latencies sum to the run's makespan. A second run
// launched after an idle gap adds its own makespan, not the gap.
func TestExclusiveRunEmitsSpans(t *testing.T) {
	sc := obs.NewTracer().NewScope("run")
	c := tracedXpComm(8, sc)
	g := barrierGroup(t, c, 0, 1, 2, 3, 4, 5, 6, 7)
	span := func() obs.GroupSnapshot {
		t.Helper()
		for _, row := range sc.Snapshot().Groups {
			if row.Group == int(g.ID) {
				return row
			}
		}
		t.Fatalf("group %d has no snapshot row", g.ID)
		return obs.GroupSnapshot{}
	}
	first := g.Run(20)[19]
	if row := span(); row.Ops != 20 || row.Latency.Count != 20 || row.Kind != "barrier" ||
		row.Latency.SumNS != int64(first) {
		t.Fatalf("after one run: %+v, want 20 barrier spans summing to %v", row, first)
	}
	g.Reset()
	c.Eng.Schedule(first.Add(sim.Micros(100)), func() {})
	c.Eng.Run()
	launch := c.Eng.Now()
	second := g.Run(20)[19]
	if row := span(); row.Ops != 40 || row.Latency.SumNS != int64(first)+int64(second.Sub(launch)) {
		t.Fatalf("after two runs: %+v, want 40 spans summing to %v + %v", row, first, second.Sub(launch))
	}
	if done := g.Completions(); len(done) != 40 || done[19] != first || done[39] != second {
		t.Fatalf("ledger %v, want both runs' 40 completions", done)
	}
}
