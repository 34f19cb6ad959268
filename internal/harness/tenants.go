package harness

import (
	"fmt"

	"nicbarrier/internal/comm"
	"nicbarrier/internal/fault"
)

// The multi-tenant experiment family measures the property the paper's
// per-group NIC queues exist for but its evaluation never exercises:
// many process groups running collectives *simultaneously* on one
// cluster. Each data point builds a 64-node Myrinet cluster, carves it
// into T tenant groups via internal/comm, runs every tenant's operation
// stream concurrently, and reports aggregate throughput (operations per
// simulated second), per-tenant latency percentiles, and Jain fairness.

// tenantClusterNodes is the fixed cluster the tenant sweeps carve up.
const tenantClusterNodes = 64

// tenantCounts is the sweep: 1 tenant (the classic single-communicator
// loop) up to 32 tenants of 2 nodes each.
var tenantCounts = []int{1, 2, 4, 8, 16, 32}

// tenantOps maps the harness config to a per-tenant operation count,
// reusing the big-cluster iteration cap so paper-fidelity sweeps stay
// tractable (32 tenants x 10,000 ops would dominate the suite).
func tenantOps(cfg Config) int {
	_, iters := cfg.itersFor(2 * tenantClusterNodes)
	return iters
}

// measureTenants runs one multi-tenant data point: T tenants partitioning
// a 64-node LANai-XP cluster into even disjoint groups, every tenant
// issuing back-to-back barriers over the NIC-collective protocol.
func measureTenants(cfg Config, tenants int, spec comm.WorkloadSpec) comm.WorkloadResult {
	spec.Tenants = tenants
	spec.Seed = cfg.Seed ^ 0x7e0a<<16 ^ uint64(tenants)
	return runWorkload(cfg, false, tenantClusterNodes, spec, nil)
}

// runWorkload runs one workload data point on a fresh nodes-node cluster
// of the named backend under plan (nil: fault-free). A spec without an
// operation count gets tenantOps(cfg).
func runWorkload(cfg Config, quadrics bool, nodes int, spec comm.WorkloadSpec, plan *fault.Plan) comm.WorkloadResult {
	if spec.OpsPerTenant == 0 {
		spec.OpsPerTenant = tenantOps(cfg)
	}
	c, p := cfg.commCluster(xpUnless(quadrics), nodes, fmt.Sprintf("workload %dn T=%d", nodes, spec.Tenants), plan)
	defer p.drained()
	res, err := comm.RunWorkload(c, spec)
	if err != nil {
		panic(fmt.Sprintf("harness: workload point (quadrics=%v, %d nodes, T=%d): %v", quadrics, nodes, spec.Tenants, err))
	}
	return res
}

// Per-point summaries of a workload result, shared by the figures of
// the tenant families.
func workloadKops(r comm.WorkloadResult) float64     { return r.AggOpsPerSec / 1e3 }
func workloadFairness(r comm.WorkloadResult) float64 { return r.Fairness }

// workloadP50Mean is the mean of the per-tenant p50 latencies.
func workloadP50Mean(r comm.WorkloadResult) float64 {
	var sum float64
	for _, tr := range r.Tenants {
		sum += tr.P50US
	}
	return sum / float64(len(r.Tenants))
}

// workloadP99Worst is the worst tenant's p99 latency.
func workloadP99Worst(r comm.WorkloadResult) float64 {
	var p99 float64
	for _, tr := range r.Tenants {
		if tr.P99US > p99 {
			p99 = tr.P99US
		}
	}
	return p99
}

// tenantFigure builds one multi-tenant sweep figure: the four series
// (throughput, p50, worst p99, fairness) are shared by every scenario
// in the family, so their names and units — which the committed
// baseline's metric names embed — live in exactly one place.
func tenantFigure(cfg Config, id, title string, spec comm.WorkloadSpec, notes []string) Figure {
	pts := measureAll(cfg, tenantCounts, func(t int) comm.WorkloadResult { return measureTenants(cfg, t, spec) })
	return Figure{
		ID:     id,
		Title:  title,
		XLabel: "Tenant groups",
		YLabel: "Throughput / latency / fairness",
		Series: []Series{
			seriesOf("Agg-kops-per-sec", "kops/s", tenantCounts, pts, workloadKops),
			seriesOf("Tenant-p50", "sim_us", tenantCounts, pts, workloadP50Mean),
			seriesOf("Tenant-p99-worst", "sim_us", tenantCounts, pts, workloadP99Worst),
			seriesOf("Fairness-Jain", "jain", tenantCounts, pts, workloadFairness),
		},
		Notes: notes,
	}
}

// multiTenant reproduces the throughput story: as the 64-node cluster is
// carved into more concurrent groups, aggregate operations per second
// climb (smaller groups, more independent streams, per-group NIC queues
// keeping them from serializing behind each other), per-tenant latency
// falls, and service stays fair.
func multiTenant(cfg Config) Figure {
	return tenantFigure(cfg, "multi-tenant",
		"Concurrent tenant groups over a 64-node Myrinet LANai-XP cluster (barriers, back-to-back)",
		comm.WorkloadSpec{Mix: comm.OpMix{Barrier: 1}},
		[]string{
			"each tenant is one process group with its own NIC group-queue slot, bit vector and sequence space",
			"groups partition the cluster evenly and disjointly; every tenant issues back-to-back barriers",
			"aggregate ops/sec rises with tenant count: per-group queues let small groups run concurrently",
		})
}

// multiTenantMixed runs the same sweep with an operation mix (barriers,
// broadcasts, allreduces) under a closed loop with think time — the
// heavy-concurrent-traffic shape of the ROADMAP's north star rather
// than a synchronized benchmark loop.
func multiTenantMixed(cfg Config) Figure {
	return tenantFigure(cfg, "multi-tenant-mixed",
		"Mixed collective workload (2:1:1 barrier:broadcast:allreduce), closed loop, 5us mean think",
		comm.WorkloadSpec{
			Mix:     comm.OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
			Arrival: comm.ArrivalSpec{Kind: comm.ClosedLoop, MeanGapUS: 5},
		},
		[]string{
			"tenants are assigned an operation kind by mix weight; allreduce results are verified per run",
			"think time models compute phases between collectives; latency is eligibility-to-completion",
		})
}

// registerTenantScenarios adds the multi-tenant family to the registry.
func registerTenantScenarios() {
	registerScenario(Scenario{ID: "multi-tenant",
		Title: "Multi-tenant throughput: 1-32 concurrent groups over 64 nodes", Figure: multiTenant})
	registerScenario(Scenario{ID: "multi-tenant-mixed",
		Title: "Multi-tenant mixed op workload under closed-loop think time", Figure: multiTenantMixed})
}

// tenantShapes sweeps tenant count over three workload shapes the
// even-partition sweeps above do not cover: open-loop Poisson arrivals
// faster than service on 32 Myrinet nodes (ops queue behind a busy
// group, which shows in the worst p99), random overlapping groups of
// 4-8 ranks contending for 16 Myrinet nodes, and concurrent
// chained-RDMA barrier groups on 32 Quadrics nodes.
func tenantShapes(cfg Config) Figure {
	tenants := []int{2, 4, 8}
	shape := func(quadrics bool, nodes int, salt uint64, spec comm.WorkloadSpec) []comm.WorkloadResult {
		return measureAll(cfg, tenants, func(t int) comm.WorkloadResult {
			s := spec
			s.Tenants = t
			s.Seed = cfg.Seed ^ 0x5a9e<<16 ^ salt<<8 ^ uint64(t)
			return runWorkload(cfg, quadrics, nodes, s, nil)
		})
	}
	openLoop := shape(false, 32, 1, comm.WorkloadSpec{
		Mix:     comm.OpMix{Barrier: 1},
		Arrival: comm.ArrivalSpec{Kind: comm.OpenLoop, MeanGapUS: 4},
	})
	overlap := shape(false, 16, 2, comm.WorkloadSpec{
		Mix:          comm.OpMix{Barrier: 1},
		GroupSizeMin: 4, GroupSizeMax: 8, Overlap: true,
	})
	quad := shape(true, 32, 3, comm.WorkloadSpec{Mix: comm.OpMix{Barrier: 1}})
	return Figure{
		ID:     "tenant-shapes",
		Title:  "Open-loop bursts, overlapping groups and Quadrics tenants: throughput, tail latency, fairness",
		XLabel: "Tenant groups",
		YLabel: "Throughput / latency / fairness",
		Series: []Series{
			seriesOf("Open-loop-kops", "kops/s", tenants, openLoop, workloadKops),
			seriesOf("Open-loop-p99-worst", "sim_us", tenants, openLoop, workloadP99Worst),
			seriesOf("Overlap-kops", "kops/s", tenants, overlap, workloadKops),
			seriesOf("Overlap-fairness", "jain", tenants, overlap, workloadFairness),
			seriesOf("Quadrics-kops", "kops/s", tenants, quad, workloadKops),
			seriesOf("Quadrics-p99-worst", "sim_us", tenants, quad, workloadP99Worst),
		},
		Notes: []string{
			"open loop: latency is arrival-to-completion, so ops queued behind a busy group pay the backlog",
			"overlap: co-resident groups serialize on one NIC processor; fairness below 1 is contention",
			"quadrics: each tenant's descriptor chain holds its own Elan slot; hardware reliability, no drops",
		},
	}
}
