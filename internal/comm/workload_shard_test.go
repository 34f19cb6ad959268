package comm

import (
	"fmt"
	"reflect"
	"testing"
)

// partitionSpec is the shared-node multi-tenant shape the cross-shard
// tests run: overlapping memberships, a mixed op stream (the allreduce
// tenants self-check every iteration's result), and closed-loop pacing
// with think time so the RNG draw order is exercised end to end.
func partitionSpec() WorkloadSpec {
	return WorkloadSpec{
		Tenants: 12, OpsPerTenant: 10,
		GroupSizeMin: 3, GroupSizeMax: 6,
		Overlap: true,
		Mix:     OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
		Arrival: ArrivalSpec{Kind: ClosedLoop, MeanGapUS: 5},
		Seed:    42,
	}
}

// runPartitioned runs partitionSpec on parts fresh 32-node replicas.
func runPartitioned(t *testing.T, parts int) WorkloadResult {
	t.Helper()
	cs := make([]*Cluster, parts)
	for s := range cs {
		cs[s] = xpComm(32)
	}
	res, err := RunWorkloadSharded(cs, partitionSpec())
	if err != nil {
		t.Fatalf("partitions=%d: %v", parts, err)
	}
	return res
}

// TestWorkloadPartitionInvariants runs the same seeded workload at 1,
// 2 and 4 partitions and requires the partition-invariant fields to
// match exactly: every tenant keeps its membership size, operation
// kind and op count whatever the shard layout, total ops are
// conserved, and the allreduce self-checks (inside the runner) pass at
// every partition count.
func TestWorkloadPartitionInvariants(t *testing.T) {
	type tenantKey struct {
		size int
		kind OpKind
		ops  int
	}
	spec := partitionSpec()
	var base []tenantKey
	for _, parts := range []int{1, 2, 4} {
		res := runPartitioned(t, parts)
		if len(res.Tenants) != spec.Tenants {
			t.Fatalf("partitions=%d: %d tenant rows, want %d", parts, len(res.Tenants), spec.Tenants)
		}
		if want := spec.Tenants * spec.OpsPerTenant; res.TotalOps != want {
			t.Fatalf("partitions=%d: TotalOps %d, want %d", parts, res.TotalOps, want)
		}
		keys := make([]tenantKey, len(res.Tenants))
		for i, tr := range res.Tenants {
			if tr.Tenant != i {
				t.Fatalf("partitions=%d: tenant row %d reports index %d (merge order broken)",
					parts, i, tr.Tenant)
			}
			keys[i] = tenantKey{size: tr.Size, kind: tr.Kind, ops: tr.Ops}
		}
		if base == nil {
			base = keys
			continue
		}
		if !reflect.DeepEqual(keys, base) {
			t.Fatalf("partitions=%d: tenants %+v, were %+v at 1 partition", parts, keys, base)
		}
	}
}

// TestWorkloadPartitionedBitDeterminism runs the workload twice at
// each partition count and requires bit-identical results: the
// parallel shards and the merge must hide goroutine scheduling
// entirely.
func TestWorkloadPartitionedBitDeterminism(t *testing.T) {
	for _, parts := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P=%d", parts), func(t *testing.T) {
			if a, b := runPartitioned(t, parts), runPartitioned(t, parts); !reflect.DeepEqual(a, b) {
				t.Fatalf("results differ across runs:\n%+v\n%+v", a, b)
			}
		})
	}
}
