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
// contract (precomputed plans, see planTenants/planChurn) fixes every
// tenant's membership, kind and pacing before anything runs. The
// sharded runners exploit that: tenants are dealt round-robin
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

// shardIndices returns the round-robin slice of tenant indices owned by
// shard s of parts.
func shardIndices(tenants, s, parts int) []int {
	var idx []int
	for t := s; t < tenants; t += parts {
		idx = append(idx, t)
	}
	return idx
}

// RunWorkloadSharded partitions spec's tenants round-robin across the
// given replica clusters (one shard each, same node count, distinct
// engines) and runs the shards in parallel. A single cluster degrades
// to RunWorkload exactly. The merged result reports every tenant under
// its workload-wide index; TenantResult.GroupID is only unique within
// a shard. Decomp rows are merged by op kind across shards.
func RunWorkloadSharded(cs []*Cluster, spec WorkloadSpec) (WorkloadResult, error) {
	if len(cs) == 0 {
		return WorkloadResult{}, fmt.Errorf("comm: sharded workload with no clusters")
	}
	if len(cs) == 1 {
		return RunWorkload(cs[0], spec)
	}
	nodes := cs[0].Nodes()
	for s, c := range cs {
		if c.Nodes() != nodes {
			return WorkloadResult{}, fmt.Errorf("comm: shard %d has %d nodes, shard 0 has %d (replicas must match)",
				s, c.Nodes(), nodes)
		}
	}
	if err := spec.validate(nodes); err != nil {
		return WorkloadResult{}, err
	}
	plans, err := planTenants(nodes, spec, cs[0].be)
	if err != nil {
		return WorkloadResult{}, err
	}

	results := make([]WorkloadResult, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for s := range cs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = runWorkloadShard(cs[s], spec, plans, s, len(cs))
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return WorkloadResult{}, err
		}
	}
	return mergeWorkload(spec, results), nil
}

// runWorkloadShard executes shard s's round-robin slice of the plans on
// its replica cluster. Runs on the shard's goroutine; touches only
// shard-local state.
func runWorkloadShard(c *Cluster, spec WorkloadSpec, plans []tenantPlan, s, parts int) (WorkloadResult, error) {
	idx := shardIndices(len(plans), s, parts)
	mine := make([]tenantPlan, len(idx))
	for i, t := range idx {
		mine[i] = plans[t]
	}
	groups := make([]*Group, len(mine))
	eligible := make([][]sim.Time, len(mine))
	for i, p := range mine {
		g, elig, err := installTenant(c, spec, p)
		if err != nil {
			return WorkloadResult{}, err
		}
		groups[i], eligible[i] = g, elig
	}
	for _, g := range groups {
		g.Launch(spec.OpsPerTenant)
	}
	c.DriveAll()
	c.Eng.Run()
	deriveClosedLoopEligibility(spec, groups, eligible)
	res, err := collectWorkload(c, spec, mine, groups, eligible)
	if c.tr != nil {
		// Published from the shard goroutine — the scope's single
		// writer — after collection emitted the spans.
		c.tr.PublishFinal(c.Eng.Now())
	}
	return res, err
}

// mergeWorkload combines per-shard results deterministically: tenants
// re-sorted by workload-wide index, counters summed, the makespan and
// fairness recomputed over the union.
func mergeWorkload(spec WorkloadSpec, results []WorkloadResult) WorkloadResult {
	res := WorkloadResult{}
	var makespanUS float64
	var sumTput, sumTputSq float64
	decomp := map[string]*obs.OpDecomp{}
	var kinds []string
	for _, r := range results {
		res.TotalOps += r.TotalOps
		res.FailedTenants += r.FailedTenants
		res.Evictions += r.Evictions
		res.Tenants = append(res.Tenants, r.Tenants...)
		if r.MakespanUS > makespanUS {
			makespanUS = r.MakespanUS
		}
		res.Sent += r.Sent
		res.Dropped += r.Dropped
		for _, d := range r.Decomp {
			acc := decomp[d.Kind]
			if acc == nil {
				acc = &obs.OpDecomp{Kind: d.Kind}
				decomp[d.Kind] = acc
				kinds = append(kinds, d.Kind)
			}
			acc.Ops += d.Ops
			acc.QueueUS += d.QueueUS
			acc.WireUS += d.WireUS
			acc.NICUS += d.NICUS
		}
	}
	sort.Slice(res.Tenants, func(i, j int) bool { return res.Tenants[i].Tenant < res.Tenants[j].Tenant })
	for _, t := range res.Tenants {
		sumTput += t.OpsPerSec
		sumTputSq += t.OpsPerSec * t.OpsPerSec
	}
	res.MakespanUS = makespanUS
	if res.MakespanUS > 0 {
		res.AggOpsPerSec = float64(res.TotalOps) / (res.MakespanUS / 1e6)
	}
	if sumTputSq > 0 {
		res.Fairness = sumTput * sumTput / (float64(len(res.Tenants)) * sumTputSq)
	}
	if len(kinds) > 0 {
		sort.Strings(kinds)
		for _, k := range kinds {
			d := decomp[k]
			if total := d.QueueUS + d.WireUS + d.NICUS; total > 0 {
				d.QueueShare = d.QueueUS / total
				d.WireShare = d.WireUS / total
				d.NICShare = d.NICUS / total
			}
			res.Decomp = append(res.Decomp, *d)
		}
	}
	return res
}

// RunChurnSharded partitions spec's churn tenants round-robin across
// the replica clusters and runs the shards in parallel, merging raw
// outcomes so pooled percentiles are exact. A single cluster degrades
// to RunChurn exactly. Lifecycles are drawn once, so a tenant arrives
// at the same virtual instant with the same membership at every
// partition count.
func RunChurnSharded(cs []*Cluster, spec ChurnSpec) (ChurnResult, error) {
	if len(cs) == 0 {
		return ChurnResult{}, fmt.Errorf("comm: sharded churn with no clusters")
	}
	if len(cs) == 1 {
		return RunChurn(cs[0], spec)
	}
	nodes := cs[0].Nodes()
	for s, c := range cs {
		if c.Nodes() != nodes {
			return ChurnResult{}, fmt.Errorf("comm: shard %d has %d nodes, shard 0 has %d (replicas must match)",
				s, c.Nodes(), nodes)
		}
	}
	if err := spec.validate(nodes); err != nil {
		return ChurnResult{}, err
	}
	tenants := planChurn(nodes, spec)

	outs := make([]churnOutcome, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for s := range cs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			idx := shardIndices(len(tenants), s, len(cs))
			mine := make([]*churnTenant, len(idx))
			for i, t := range idx {
				mine[i] = tenants[t]
			}
			outs[s], errs[s] = runChurnPlans(cs[s], spec, mine)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ChurnResult{}, err
		}
	}
	return finalizeChurn(spec, outs), nil
}
