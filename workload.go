package nicbarrier

import (
	"fmt"

	"nicbarrier/internal/comm"
)

// ArrivalKind selects how each tenant's operation stream is paced in a
// workload measurement.
type ArrivalKind int

// Arrival processes.
const (
	// ClosedLoop issues a tenant's next operation when its previous one
	// completes, after an exponential think time (MeanGapMicros 0 means
	// back-to-back, the paper's measurement loop).
	ClosedLoop ArrivalKind = iota
	// OpenLoop issues operations on a Poisson process independent of
	// completions; overload shows up as queueing delay in the latency
	// percentiles.
	OpenLoop
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case ClosedLoop:
		return "closed-loop"
	case OpenLoop:
		return "open-loop"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// WorkloadSpec describes a multi-tenant collective workload: N tenants,
// each owning one process group with its own NIC group-queue slot, all
// issuing collective operations concurrently on one cluster.
type WorkloadSpec struct {
	// Tenants is the number of concurrent groups; OpsPerTenant the
	// operations each issues.
	Tenants, OpsPerTenant int
	// GroupSizeMin/Max bound each tenant's group size (drawn uniformly
	// per tenant). Both zero partitions the cluster evenly.
	GroupSizeMin, GroupSizeMax int
	// Overlap places tenants on random, possibly shared nodes; the
	// default packs tenants into disjoint blocks.
	Overlap bool
	// BarrierWeight/BroadcastWeight/AllreduceWeight assign operation
	// kinds across tenants (all zero: every tenant runs barriers).
	// Broadcast and allreduce tenants require a Myrinet interconnect;
	// on Quadrics every tenant runs barriers.
	BarrierWeight, BroadcastWeight, AllreduceWeight int
	// Arrival and MeanGapMicros pace every tenant's stream.
	Arrival       ArrivalKind
	MeanGapMicros float64
	// TenantMeanGapMicros overrides MeanGapMicros per tenant (index =
	// tenant; 0 or out of range inherits the global gap), so one
	// workload can mix hot and cold tenants.
	TenantMeanGapMicros []float64
	// Algorithm picks the collective schedule (default Dissemination).
	Algorithm Algorithm
}

// TenantStats summarizes one tenant's stream in a workload result.
type TenantStats struct {
	Tenant    int
	GroupSize int
	Operation string // "barrier", "broadcast", "allreduce"
	Ops       int
	// Per-operation latency statistics, simulated microseconds, measured
	// from eligibility (arrival, or previous completion plus think time)
	// to global completion.
	MeanMicros, P50Micros, P95Micros, P99Micros, MaxMicros float64
	// OpsPerSec is the tenant's throughput over virtual time.
	OpsPerSec float64
}

// WorkloadResult aggregates one multi-tenant run.
type WorkloadResult struct {
	Tenants  []TenantStats
	TotalOps int
	// MakespanMicros is the virtual time at which the last tenant
	// finished.
	MakespanMicros float64
	// AggregateOpsPerSec is total operations over the makespan, in
	// operations per simulated second — the throughput the paper's
	// per-group queues buy.
	AggregateOpsPerSec float64
	// Fairness is Jain's index over per-tenant throughputs (1.0 =
	// perfectly even service).
	Fairness float64
	// Wire accounting over the whole run.
	Packets, DroppedPackets uint64
	// Decomp is the per-op-type latency decomposition (queue-wait vs
	// wire vs NIC-processing attribution). Populated only when the
	// cluster Config carries a Trace — the trace records the underlying
	// phase sums.
	Decomp []OpDecomposition
}

// OpDecomposition is one row of the latency-decomposition table: where
// one op type's attributed time went. Shares are fractions of the
// attributed total (queue + wire + NIC); buckets sum concurrent
// activity across tenants and NICs, so they describe where effort
// goes, not wall-clock.
type OpDecomposition struct {
	Operation string
	Ops       uint64
	// Attributed time per phase, simulated microseconds.
	QueueMicros, WireMicros, NICMicros float64
	// Shares of the attributed total, in [0, 1].
	QueueShare, WireShare, NICShare float64
}

func (s WorkloadSpec) internal(seed uint64) comm.WorkloadSpec {
	return comm.WorkloadSpec{
		Tenants:      s.Tenants,
		OpsPerTenant: s.OpsPerTenant,
		GroupSizeMin: s.GroupSizeMin,
		GroupSizeMax: s.GroupSizeMax,
		Overlap:      s.Overlap,
		Mix: comm.OpMix{
			Barrier:   s.BarrierWeight,
			Broadcast: s.BroadcastWeight,
			Allreduce: s.AllreduceWeight,
		},
		Arrival: comm.ArrivalSpec{
			Kind:      comm.ArrivalKind(s.Arrival),
			MeanGapUS: s.MeanGapMicros,
		},
		PerTenantGapUS: s.TenantMeanGapMicros,
		Algorithm:      s.Algorithm.internal(),
		Seed:           seed,
	}
}

// RunWorkload generates and runs spec's tenants concurrently on this
// cluster. Randomness (membership, mix assignment, arrival draws)
// derives from the cluster Config's Seed; runs are bit-deterministic.
func (c *Cluster) RunWorkload(spec WorkloadSpec) (WorkloadResult, error) {
	res, err := comm.RunWorkload(c.c, spec.internal(c.cfg.Seed))
	if err != nil {
		return WorkloadResult{}, err
	}
	out := WorkloadResult{
		TotalOps:           res.TotalOps,
		MakespanMicros:     res.MakespanUS,
		AggregateOpsPerSec: res.AggOpsPerSec,
		Fairness:           res.Fairness,
		Packets:            res.Sent,
		DroppedPackets:     res.Dropped,
	}
	for _, d := range res.Decomp {
		out.Decomp = append(out.Decomp, OpDecomposition{
			Operation:   d.Kind,
			Ops:         d.Ops,
			QueueMicros: d.QueueUS, WireMicros: d.WireUS, NICMicros: d.NICUS,
			QueueShare: d.QueueShare, WireShare: d.WireShare, NICShare: d.NICShare,
		})
	}
	for _, tr := range res.Tenants {
		out.Tenants = append(out.Tenants, TenantStats{
			Tenant:     tr.Tenant,
			GroupSize:  tr.Size,
			Operation:  tr.Kind.String(),
			Ops:        tr.Ops,
			MeanMicros: tr.MeanUS,
			P50Micros:  tr.P50US,
			P95Micros:  tr.P95US,
			P99Micros:  tr.P99US,
			MaxMicros:  tr.MaxUS,
			OpsPerSec:  tr.OpsPerSec,
		})
	}
	return out, nil
}

// MeasureWorkload builds a fresh cluster from cfg and runs one
// multi-tenant workload on it — the one-shot form of
// NewCluster + RunWorkload. cfg's Scheme is ignored: workload tenants
// run the paper's NIC-collective protocol (chained RDMA on Quadrics).
func MeasureWorkload(cfg Config, spec WorkloadSpec) (WorkloadResult, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return WorkloadResult{}, err
	}
	return c.RunWorkload(spec)
}

// ChurnSpec describes a tenant-churn workload: tenants arrive over
// virtual time, each installs a process group through the admission
// controller, runs a stream of barriers, optionally reconfigures its
// membership halfway, and departs — closing the group and returning its
// NIC slots for the next arrival.
type ChurnSpec struct {
	// Tenants over the whole run; OpsPerTenant barriers each.
	Tenants, OpsPerTenant int
	// GroupSizeMin/Max bound tenant group sizes (both zero: [2, 4]).
	// Members are drawn randomly, so tenants overlap and individual NICs
	// run out of slots.
	GroupSizeMin, GroupSizeMax int
	// MeanArrivalGapMicros is the mean gap between tenant arrivals
	// (exponential; 0 = all arrive at once); MeanThinkMicros the think
	// time between a tenant's operations.
	MeanArrivalGapMicros, MeanThinkMicros float64
	// ReconfigureEvery makes every k-th tenant swap to a fresh random
	// membership after half its operations (0: never).
	ReconfigureEvery int
	// Policy decides what over-capacity installs do; churn runs usually
	// want AdmitQueue. ChargeInstallCosts charges install costs on the
	// simulated timeline (teardown is always charged).
	Policy             AdmissionPolicy
	ChargeInstallCosts bool
	// Algorithm picks the barrier schedule (default Dissemination).
	Algorithm Algorithm
}

// ChurnResult aggregates one churn run.
type ChurnResult struct {
	Tenants, Completed int
	TotalOps           int
	// MakespanMicros is the virtual time of the last departure;
	// AggregateOpsPerSec is TotalOps over it.
	MakespanMicros     float64
	AggregateOpsPerSec float64
	// Installs/Uninstalls count slot claims and releases (reconfigures
	// contribute one each); QueuedInstalls the installs that waited for
	// a departure, with MaxQueueLen and wait statistics describing the
	// backlog; SlotHighWater is the busiest single NIC's peak slot use.
	Installs, Uninstalls, QueuedInstalls, MaxQueueLen, SlotHighWater int
	QueueWaitMeanMicros, QueueWaitP95Micros                          float64
	// Reconfigs counts successful membership swaps, ReconfigsFailed the
	// swaps refused for lack of slots on the new members.
	Reconfigs, ReconfigsFailed int
	// Pre/post-swap per-op latency percentiles over the tenants that
	// reconfigure: operation completion gaps before the membership swap
	// vs after it, simulated microseconds. Zero when no tenant swaps.
	PreSwapOps, PostSwapOps                                 int
	PreSwapP50Micros, PreSwapP95Micros, PreSwapP99Micros    float64
	PostSwapP50Micros, PostSwapP95Micros, PostSwapP99Micros float64
	// Wire accounting over the whole run.
	Packets, DroppedPackets uint64
}

// RunChurn executes spec's tenant churn on this cluster. Randomness
// derives from the cluster Config's Seed; runs are bit-deterministic.
// Note: RunChurn reconfigures the cluster's admission controller to
// spec.Policy for the run.
func (c *Cluster) RunChurn(spec ChurnSpec) (ChurnResult, error) {
	res, err := comm.RunChurn(c.c, comm.ChurnSpec{
		Tenants:          spec.Tenants,
		OpsPerTenant:     spec.OpsPerTenant,
		GroupSizeMin:     spec.GroupSizeMin,
		GroupSizeMax:     spec.GroupSizeMax,
		MeanArrivalGapUS: spec.MeanArrivalGapMicros,
		MeanThinkUS:      spec.MeanThinkMicros,
		ReconfigureEvery: spec.ReconfigureEvery,
		Policy:           comm.AdmitPolicy(spec.Policy),
		ChargeSetupCosts: spec.ChargeInstallCosts,
		Algorithm:        spec.Algorithm.internal(),
		Seed:             c.cfg.Seed,
	})
	if err != nil {
		return ChurnResult{}, err
	}
	return ChurnResult{
		Tenants:             res.Tenants,
		Completed:           res.Completed,
		TotalOps:            res.TotalOps,
		MakespanMicros:      res.MakespanUS,
		AggregateOpsPerSec:  res.AggOpsPerSec,
		Installs:            res.Installs,
		Uninstalls:          res.Uninstalls,
		QueuedInstalls:      res.QueuedInstalls,
		MaxQueueLen:         res.MaxQueueLen,
		SlotHighWater:       res.SlotHighWater,
		QueueWaitMeanMicros: res.QueueWaitMeanUS,
		QueueWaitP95Micros:  res.QueueWaitP95US,
		Reconfigs:           res.Reconfigs,
		ReconfigsFailed:     res.ReconfigsFailed,
		PreSwapOps:          res.PreSwapOps,
		PostSwapOps:         res.PostSwapOps,
		PreSwapP50Micros:    res.PreSwapP50US,
		PreSwapP95Micros:    res.PreSwapP95US,
		PreSwapP99Micros:    res.PreSwapP99US,
		PostSwapP50Micros:   res.PostSwapP50US,
		PostSwapP95Micros:   res.PostSwapP95US,
		PostSwapP99Micros:   res.PostSwapP99US,
		Packets:             res.Sent,
		DroppedPackets:      res.Dropped,
	}, nil
}

// MeasureChurn builds a fresh cluster from cfg and runs one tenant-churn
// workload on it — the one-shot form of NewCluster + RunChurn.
func MeasureChurn(cfg Config, spec ChurnSpec) (ChurnResult, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return ChurnResult{}, err
	}
	return c.RunChurn(spec)
}
