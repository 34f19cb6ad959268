package comm

import (
	"fmt"
	"sort"
	"sync"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Sharded workload execution.
//
// Multi-tenant workloads are embarrassingly partitionable: tenants only
// couple through the nodes and links they share, and the scheduling
// contract (precomputed plans, see planTenants) fixes every tenant's
// membership, kind and pacing before anything runs. The sharded runner
// exploits that: tenants are dealt round-robin
// (tenant % partitions) onto replica clusters — one per shard, each
// with its own engine, topology, NIC state and packet pools — and the
// shards run to completion in parallel on their own goroutines with no
// synchronization at all until the deterministic merge at the end.
//
// What is preserved across partition counts, exactly: each tenant's
// membership, operation kind, operation count, pacing draws, and
// self-checked allreduce results. What is not: virtual-time latencies —
// a shard simulates contention only among its own tenants, so a tenant
// sees less cross-tenant queueing at higher partition counts. That is
// the standard fidelity trade of replicated-cluster sharding, and it is
// why results remain bit-deterministic per (seed, partitions) pair but
// are comparable across partition counts only on the invariant fields.

// RunWorkloadSharded partitions spec's tenants round-robin across the
// given replica clusters (one shard each, same node count, distinct
// engines) and runs the shards in parallel. A single cluster is
// RunWorkload exactly: the same runner on the caller's goroutine. The
// merged result reports every tenant under its workload-wide index;
// TenantResult.GroupID is only unique within a shard. Decomp rows sum
// every traced shard's scope by op kind.
func RunWorkloadSharded(cs []*Cluster, spec WorkloadSpec) (WorkloadResult, error) {
	if len(cs) == 0 {
		return WorkloadResult{}, fmt.Errorf("comm: sharded workload with no clusters")
	}
	nodes := cs[0].nodes()
	for s, c := range cs {
		if c.nodes() != nodes {
			return WorkloadResult{}, fmt.Errorf("comm: shard %d has %d nodes, shard 0 has %d (replicas must match)",
				s, c.nodes(), nodes)
		}
	}
	if err := spec.validate(nodes); err != nil {
		return WorkloadResult{}, err
	}
	ts, err := planTenants(nodes, spec, cs[0].be)
	if err != nil {
		return WorkloadResult{}, err
	}

	shards := make([]workloadShard, len(cs))
	errs := make([]error, len(cs))
	run := func(s int) {
		var mine []Tenant
		for t := s; t < len(ts); t += len(cs) {
			mine = append(mine, ts[t])
		}
		shards[s], errs[s] = runWorkloadShard(cs[s], mine)
	}
	if len(cs) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for s := range cs {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				run(s)
			}(s)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return WorkloadResult{}, err
		}
	}
	return finishWorkload(shards), nil
}

// workloadShard is one shard's raw share of a workload run.
type workloadShard struct {
	tenants  []TenantResult
	makespan sim.Time // the shard's last completion
	counters Counters
	tr       *obs.Scope
}

// runWorkloadShard drives the given tenants on one cluster and collects
// them. Under a sharded run it runs on the shard's goroutine and touches
// only shard-local state.
func runWorkloadShard(c *Cluster, ts []Tenant) (workloadShard, error) {
	runs, err := RunTenants(c, ts)
	if err != nil {
		return workloadShard{}, err
	}
	out := workloadShard{counters: c.Counters(), tr: c.tr}
	out.tenants, out.makespan, err = collectTenants(runs)
	return out, err
}

// finishWorkload merges the shards into one report: tenants in
// workload-wide order, counters summed, makespan, throughput and
// fairness over the union, and the decomposition over every traced
// shard's scope.
func finishWorkload(shards []workloadShard) WorkloadResult {
	var res WorkloadResult
	var makespan sim.Time
	var scopes []obs.ScopeSnapshot
	for _, sh := range shards {
		res.Tenants = append(res.Tenants, sh.tenants...)
		makespan = max(makespan, sh.makespan)
		res.Sent += sh.counters.Sent
		res.Dropped += sh.counters.Dropped
		if sh.tr != nil {
			scopes = append(scopes, sh.tr.Snapshot())
		}
	}
	sort.Slice(res.Tenants, func(i, j int) bool { return res.Tenants[i].Tenant < res.Tenants[j].Tenant })
	var sumTput, sumTputSq float64
	for _, t := range res.Tenants {
		res.TotalOps += t.Ops
		if t.Failed {
			res.FailedTenants++
		}
		res.Evictions += t.Evicted
		sumTput += t.OpsPerSec
		sumTputSq += t.OpsPerSec * t.OpsPerSec
	}
	res.MakespanUS = makespan.Micros()
	if res.MakespanUS > 0 {
		res.AggOpsPerSec = float64(res.TotalOps) / (res.MakespanUS / 1e6)
	}
	if sumTputSq > 0 {
		res.Fairness = sumTput * sumTput / (float64(len(res.Tenants)) * sumTputSq)
	}
	if scopes != nil {
		res.Decomp = obs.DecompByKind(obs.Snapshot{Scopes: scopes})
	}
	return res
}
