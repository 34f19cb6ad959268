package comm

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// ArrivalKind selects how a tenant's operation stream is paced.
type ArrivalKind int

// Arrival processes.
const (
	// ClosedLoop issues the next operation when the previous one
	// completes, after an exponential think time of mean MeanGapUS
	// (0: back-to-back, the paper's measurement loop).
	ClosedLoop ArrivalKind = iota
	// OpenLoop issues operations on a Poisson process of mean
	// interarrival MeanGapUS, independent of completions; when the
	// system falls behind, queueing delay shows up in the latency.
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

// ArrivalSpec parameterizes one tenant's arrival process.
type ArrivalSpec struct {
	Kind ArrivalKind
	// MeanGapUS is the mean think time (closed loop) or mean
	// interarrival gap (open loop), simulated microseconds.
	MeanGapUS float64
}

// OpMix weights how tenants are assigned operation kinds. Zero value
// means all-barrier.
type OpMix struct {
	Barrier, Broadcast, Allreduce int
}

// WorkloadSpec describes a multi-tenant collective workload.
type WorkloadSpec struct {
	// Tenants is the number of concurrent groups; OpsPerTenant the
	// operations each issues.
	Tenants, OpsPerTenant int
	// GroupSizeMin/Max bound each tenant's group size, drawn uniformly.
	// Both zero partitions the cluster evenly (size = nodes/tenants).
	GroupSizeMin, GroupSizeMax int
	// Overlap places tenants on random (possibly shared) nodes; the
	// default packs tenants into disjoint blocks of a shuffled node list
	// and fails when the cluster cannot fit them.
	Overlap bool
	// Mix assigns operation kinds across tenants by weight.
	Mix OpMix
	// Arrival paces every tenant's stream.
	Arrival ArrivalSpec
	// PerTenantGapUS overrides Arrival.MeanGapUS for individual tenants
	// (index = tenant; 0 or out of range inherits the global gap), so
	// one workload can mix hot tenants hammering the cluster with cold
	// ones trickling — the shape churn and SLO experiments need. The
	// arrival kind stays global.
	PerTenantGapUS []float64
	// Algorithm picks the schedule for barrier/allreduce tenants
	// (zero value: dissemination, as in the paper).
	Algorithm barrier.Algorithm
	// Seed drives membership, mix assignment and arrival draws.
	Seed uint64
	// Recovery, when its OpDeadline is nonzero, arms fail-stop
	// survival on every tenant group (see RecoveryConfig): op
	// deadlines, heartbeat failure detection, eviction and
	// retry-with-backoff. Tenants whose recovery fails terminally end
	// their stream early and report Failed instead of hanging the
	// workload. The zero value disables all of it — the bit-identical
	// baseline path.
	Recovery RecoveryConfig
}

// gapFor resolves tenant t's mean arrival/think gap.
func (s WorkloadSpec) gapFor(t int) float64 {
	if t < len(s.PerTenantGapUS) && s.PerTenantGapUS[t] > 0 {
		return s.PerTenantGapUS[t]
	}
	return s.Arrival.MeanGapUS
}

func (s WorkloadSpec) validate(nodes int) error {
	if s.Tenants < 1 {
		return fmt.Errorf("comm: Tenants = %d", s.Tenants)
	}
	if s.OpsPerTenant < 1 {
		return fmt.Errorf("comm: OpsPerTenant = %d", s.OpsPerTenant)
	}
	if s.GroupSizeMin < 0 || s.GroupSizeMax < s.GroupSizeMin {
		return fmt.Errorf("comm: group size bounds [%d, %d]", s.GroupSizeMin, s.GroupSizeMax)
	}
	if s.GroupSizeMin == 0 && s.GroupSizeMax == 0 {
		if nodes/s.Tenants < 2 {
			return fmt.Errorf("comm: %d tenants cannot partition %d nodes into groups of >= 2", s.Tenants, nodes)
		}
	} else if s.GroupSizeMin < 2 {
		return fmt.Errorf("comm: group size minimum %d < 2", s.GroupSizeMin)
	} else if s.GroupSizeMax > nodes {
		return fmt.Errorf("comm: group size maximum %d > %d nodes", s.GroupSizeMax, nodes)
	}
	for _, op := range collectives {
		if op.weight(s.Mix) < 0 {
			return fmt.Errorf("comm: negative op-mix weight for %s", op.name)
		}
	}
	if s.Arrival.MeanGapUS < 0 {
		return fmt.Errorf("comm: MeanGapUS = %v", s.Arrival.MeanGapUS)
	}
	for t, gap := range s.PerTenantGapUS {
		if gap < 0 {
			return fmt.Errorf("comm: PerTenantGapUS[%d] = %v", t, gap)
		}
	}
	if s.Arrival.Kind == OpenLoop {
		for t := 0; t < s.Tenants; t++ {
			if s.gapFor(t) <= 0 {
				return fmt.Errorf("comm: open-loop arrivals need a positive mean gap (tenant %d has none)", t)
			}
		}
	}
	return nil
}

// pacer shapes one tenant's operation stream through the session NextAt
// hook. Its state is precomputed at workload setup so that the per-op
// dispatch — one nextAt call per issued operation — performs no
// allocation and no RNG work in steady state.
type pacer struct {
	eng *sim.Engine
	// arrivals holds the open-loop arrival instants; nil for closed loop.
	arrivals []sim.Time
	// think holds the closed-loop per-op think times; nil when both this
	// and arrivals are unset (back-to-back chaining).
	think []sim.Duration
	// off shifts the session-local iteration index to the tenant-global
	// op index: every launch sets it to the ops already completed, so a
	// run relaunched after a swap or a recovery rebuild, whose session
	// restarts numbering at 0, continues the tenant's schedule.
	off int
}

// active reports whether the pacer shapes anything (an inactive pacer
// means back-to-back chaining, the session default).
func (p *pacer) active() bool { return p.arrivals != nil || p.think != nil }

// nextAt is the session gate: the earliest virtual time iteration next
// may post on this rank. Allocation-free.
func (p *pacer) nextAt(rank, next int) sim.Time {
	k := next + p.off
	if p.arrivals != nil {
		if k >= len(p.arrivals) {
			k = len(p.arrivals) - 1
		}
		return p.arrivals[k]
	}
	if p.think == nil {
		return 0
	}
	if k >= len(p.think) {
		k = len(p.think) - 1
	}
	return p.eng.Now().Add(p.think[k])
}

// expGap draws an exponential gap with the given mean (microseconds).
func expGap(rng *sim.RNG, meanUS float64) sim.Duration {
	return sim.Micros(-meanUS * math.Log1p(-rng.Float64()))
}

// TenantResult summarizes one tenant's stream.
type TenantResult struct {
	Tenant  int
	GroupID core.GroupID
	Size    int
	Kind    OpKind
	Ops     int
	// Latency statistics over per-op latencies (eligibility to global
	// completion), simulated microseconds.
	MeanUS, P50US, P95US, P99US, MaxUS float64
	// OpsPerSec is the tenant's throughput over virtual time.
	OpsPerSec float64
	// Fail-stop survival accounting (zero unless WorkloadSpec.Recovery
	// is armed): Failed marks a terminal op-timeout (the stream ended
	// after Ops of the requested operations), Evicted counts members
	// removed from the group, Retries counts survived abort/relaunch
	// cycles.
	Failed  bool
	Evicted int
	Retries int
}

// WorkloadResult aggregates a full multi-tenant run.
type WorkloadResult struct {
	Tenants  []TenantResult
	TotalOps int
	// MakespanUS is the virtual time of the last completion.
	MakespanUS float64
	// AggOpsPerSec is TotalOps over the makespan, in operations per
	// simulated second.
	AggOpsPerSec float64
	// Fairness is Jain's index over per-tenant throughputs: 1.0 means
	// perfectly even service, 1/N means one tenant got everything.
	Fairness float64
	// FailedTenants counts tenants whose recovery failed terminally;
	// Evictions sums members evicted across all tenants (both zero
	// without WorkloadSpec.Recovery).
	FailedTenants int
	Evictions     int
	// Wire accounting over the whole run.
	Sent, Dropped uint64
	// Decomp is the latency decomposition per op type (queue-wait vs
	// wire vs NIC-processing attribution); non-nil only when the cluster
	// has a tracer attached (SetTracer), which is what records the
	// underlying phase sums.
	Decomp []obs.OpDecomp
}

// planTenants draws every tenant's record from spec.Seed: membership,
// operation kind and every arrival/think draw, so that execution —
// single-cluster or sharded — performs no RNG work: the same seed yields
// the same records no matter how many partitions later run them. The
// draw order (placement shuffle, then per tenant: size, members, kind,
// pacing) is a compatibility contract: it keeps single-partition runs
// bit-identical to the gated baseline, and it makes multi-partition runs
// agree with them on memberships, kinds and operation counts, because
// every partitioning executes the same records. The kind is one draw
// walked through the table's weights. A kind that needs the NIC
// collective protocol falls back to OpBarrier after the draw on a
// backend without it, spending the same draws so the seed stream stays
// aligned across backends. Every tenant arrives at t=0.
func planTenants(nodes int, spec WorkloadSpec, be backend) ([]Tenant, error) {
	rng := sim.NewRNG(spec.Seed ^ 0x7e4a47)

	// Disjoint placement slices one shuffled node list; overlapping
	// placement draws a fresh permutation per tenant.
	shuffled := rng.Perm(nodes)
	cursor := 0
	mixTotal := 0
	for _, op := range collectives {
		mixTotal += op.weight(spec.Mix)
	}

	ts := make([]Tenant, spec.Tenants)
	for t := range ts {
		size := nodes / spec.Tenants
		if spec.GroupSizeMax > 0 {
			size = spec.GroupSizeMin + rng.Intn(spec.GroupSizeMax-spec.GroupSizeMin+1)
		}
		var members []int
		if spec.Overlap {
			members = rng.Perm(nodes)[:size]
		} else {
			if cursor+size > nodes {
				return nil, fmt.Errorf(
					"comm: tenant %d needs %d nodes but only %d of %d remain (use Overlap or shrink groups)",
					t, size, nodes-cursor, nodes)
			}
			members = shuffled[cursor : cursor+size]
			cursor += size
		}
		kind := OpBarrier
		if mixTotal > 0 {
			// Spend weights in kind order until the draw is used up.
			for k, r := 0, rng.Intn(mixTotal); r >= 0; k++ {
				kind, r = OpKind(k), r-collectives[k].weight(spec.Mix)
			}
		}
		if !kind.collective().schemed && !be.collectiveProtocol() {
			kind = OpBarrier
		}
		tn := Tenant{
			Index: t,
			Config: GroupConfig{
				Members:       members,
				Kind:          kind,
				Algorithm:     spec.Algorithm,
				MyrinetScheme: myrinet.SchemeCollective,
			},
			Ops:      spec.OpsPerTenant,
			Recovery: spec.Recovery,
		}
		if kind.collective().fold {
			// Max is exact for every group size and algorithm, so mixed
			// workloads never trip the sum/dissemination exactness rule.
			tn.Config.Reduce = core.ReduceMax
			tn.Config.Contrib = allreduceContrib
		}

		// Precompute the arrival process so steady-state dispatch is
		// allocation- and RNG-free.
		gap := spec.gapFor(t)
		switch spec.Arrival.Kind {
		case OpenLoop:
			arr := make([]sim.Time, spec.OpsPerTenant)
			var at sim.Time
			for k := range arr {
				at = at.Add(expGap(rng, gap))
				arr[k] = at
			}
			tn.Arrivals = arr
		case ClosedLoop:
			if gap > 0 {
				think := make([]sim.Duration, spec.OpsPerTenant)
				for k := range think {
					think[k] = expGap(rng, gap)
				}
				tn.Think = think
			}
		}
		ts[t] = tn
	}
	return ts, nil
}

// collectTenants verifies a finished shard's groups and summarizes each
// tenant's stream under its workload-wide index. It also returns the
// shard's last completion instant.
func collectTenants(runs []TenantRun) ([]TenantResult, sim.Time, error) {
	out := make([]TenantResult, 0, len(runs))
	var makespan sim.Time
	var lat []float64
	for i := range runs {
		r, g := &runs[i], runs[i].Group
		if err := g.CheckResults(); err != nil {
			return nil, 0, err
		}
		n := g.OpsCompleted()
		tr := TenantResult{
			Tenant:  r.Index,
			GroupID: g.ID,
			Size:    g.Size(),
			Kind:    g.Kind,
			Ops:     n,
		}
		if st := g.Recovery(); st != nil {
			tr.Failed = st.Err != nil
			tr.Evicted = len(st.Evicted)
			tr.Retries = st.Retries
		}
		if n == 0 {
			// Terminal failure before the first completion: the zeroed,
			// Failed-flagged row keeps the tenant visible in the report.
			out = append(out, tr)
			continue
		}
		last := g.doneAt(n - 1)
		makespan = max(makespan, last)
		lat = lat[:0]
		var sum, maxL float64
		for k := range n {
			l := g.doneAt(k).Sub(g.eligible(k)).Micros()
			lat = append(lat, l)
			sum += l
			maxL = max(maxL, l)
		}
		sort.Float64s(lat)
		tr.MeanUS = sum / float64(len(lat))
		tr.P50US = percentile(lat, 0.50)
		tr.P95US = percentile(lat, 0.95)
		tr.P99US = percentile(lat, 0.99)
		tr.MaxUS = maxL
		tr.OpsPerSec = float64(len(lat)) / (last.Micros() / 1e6)
		out = append(out, tr)
	}
	return out, makespan, nil
}

// RunWorkload generates spec's tenants over the cluster, runs every
// stream to completion concurrently, and reports throughput, latency and
// fairness. All randomness derives from spec.Seed; runs are
// bit-deterministic. Allreduce tenants' results are verified against the
// reference reduction, so cross-tenant contamination of NIC state cannot
// pass silently. It is the one-shard case of RunWorkloadSharded and runs
// on the caller's goroutine.
func RunWorkload(c *Cluster, spec WorkloadSpec) (WorkloadResult, error) {
	return RunWorkloadSharded([]*Cluster{c}, spec)
}

// allreduceContrib is the deterministic per-rank contribution workload
// allreduce tenants feed in; Group.CheckResults recomputes it.
func allreduceContrib(rank, iter int) int64 { return int64(rank*31 + iter*7 - 11) }

// ChurnSpec describes a tenant-churn workload: tenants arrive over
// virtual time on a Poisson process, each installs a group (through the
// admission controller), runs a stream of barriers, optionally
// reconfigures its membership halfway, and departs — closing the group
// and returning its NIC slots. Cumulative installs deliberately exceed
// any NIC's slot count, so the run only completes if teardown really
// reclaims slots (and, under AdmitQueue, if deferred installs really get
// served).
type ChurnSpec struct {
	// Tenants is the total number of tenants over the run; OpsPerTenant
	// the barrier operations each runs before departing.
	Tenants, OpsPerTenant int
	// GroupSizeMin/Max bound each tenant's group size, drawn uniformly.
	// Both zero defaults to [2, min(4, nodes)]. Members are drawn
	// randomly (tenants overlap), which is what makes individual NICs
	// run out of slots.
	GroupSizeMin, GroupSizeMax int
	// MeanArrivalGapUS is the mean gap between tenant arrivals
	// (exponential); 0 makes every tenant arrive at t=0.
	MeanArrivalGapUS float64
	// MeanThinkUS adds an exponential think time between a tenant's
	// operations (0: back-to-back).
	MeanThinkUS float64
	// ReconfigureEvery makes every k-th tenant swap to a fresh random
	// membership after half its operations (0: never). A failed swap
	// (no slots on the new members) keeps the old membership and is
	// counted, not fatal.
	ReconfigureEvery int
	// Policy and ChargeSetupCosts configure the admission controller for
	// the run; churn workloads usually want AdmitQueue and charged
	// install costs (lifecycle on a live cluster).
	Policy           AdmitPolicy
	ChargeSetupCosts bool
	// Algorithm picks the barrier schedule (zero: dissemination).
	Algorithm barrier.Algorithm
	// Seed drives arrivals, sizes, memberships and think times.
	Seed uint64
}

func (s ChurnSpec) validate(nodes int) error {
	if s.Tenants < 1 {
		return fmt.Errorf("comm: churn Tenants = %d", s.Tenants)
	}
	if s.OpsPerTenant < 1 {
		return fmt.Errorf("comm: churn OpsPerTenant = %d", s.OpsPerTenant)
	}
	min, max := s.sizeBounds(nodes)
	if min < 2 || max < min || max > nodes {
		return fmt.Errorf("comm: churn group size bounds [%d, %d] on %d nodes", min, max, nodes)
	}
	if s.MeanArrivalGapUS < 0 || s.MeanThinkUS < 0 {
		return fmt.Errorf("comm: negative churn gap")
	}
	if s.ReconfigureEvery < 0 {
		return fmt.Errorf("comm: ReconfigureEvery = %d", s.ReconfigureEvery)
	}
	return nil
}

func (s ChurnSpec) sizeBounds(nodes int) (min, max int) {
	min, max = s.GroupSizeMin, s.GroupSizeMax
	if min == 0 && max == 0 {
		min = 2
		max = 4
		if max > nodes {
			max = nodes
		}
	}
	return min, max
}

// ChurnResult aggregates one churn run.
type ChurnResult struct {
	// Tenants were offered; Completed ran all their operations and
	// departed (they are equal unless the run errored).
	Tenants, Completed int
	TotalOps           int
	// MakespanUS is the virtual time of the last departure.
	MakespanUS float64
	// AggOpsPerSec is TotalOps over the makespan.
	AggOpsPerSec float64
	// Admission accounting (see AdmissionStats): installs include
	// reconfiguration reinstalls, QueuedInstalls counts installs that
	// had to wait for a departure, SlotHighWater the busiest NIC moment.
	Installs, Uninstalls, QueuedInstalls, MaxQueueLen, SlotHighWater int
	// QueueWaitMeanUS/P95US summarize how long queued installs waited.
	QueueWaitMeanUS, QueueWaitP95US float64
	// Reconfigs counts successful membership swaps; ReconfigsFailed the
	// swaps refused for lack of slots on the new members.
	Reconfigs, ReconfigsFailed int
	// Pre/post-swap op latencies over the tenants that reconfigure:
	// completion-to-completion gaps before the membership swap vs after
	// it (counts and percentiles, simulated microseconds). Zero when no
	// tenant swaps.
	PreSwapOps, PostSwapOps                     int
	PreSwapP50US, PreSwapP95US, PreSwapP99US    float64
	PostSwapP50US, PostSwapP95US, PostSwapP99US float64
	// Wire accounting over the whole run.
	Sent, Dropped uint64
}

// planChurn draws every churn tenant's record (arrival instant, size,
// membership, optional reconfiguration target, think times) from
// spec.Seed. A reconfiguring tenant swaps after half its operations.
func planChurn(nodes int, spec ChurnSpec) []Tenant {
	rng := sim.NewRNG(spec.Seed ^ 0xc42917)
	minSize, maxSize := spec.sizeBounds(nodes)

	ts := make([]Tenant, spec.Tenants)
	var at sim.Time
	for t := range ts {
		if spec.MeanArrivalGapUS > 0 {
			at = at.Add(expGap(rng, spec.MeanArrivalGapUS))
		}
		size := minSize + rng.Intn(maxSize-minSize+1)
		tn := Tenant{
			Index: t,
			At:    at,
			Config: GroupConfig{
				Members:       rng.Perm(nodes)[:size],
				Kind:          OpBarrier,
				Algorithm:     spec.Algorithm,
				MyrinetScheme: myrinet.SchemeCollective,
			},
			Ops:     spec.OpsPerTenant,
			Departs: true,
		}
		if spec.ReconfigureEvery > 0 && (t+1)%spec.ReconfigureEvery == 0 && spec.OpsPerTenant >= 2 {
			tn.SwapAt, tn.SwapTo = spec.OpsPerTenant/2, rng.Perm(nodes)[:size]
		}
		if spec.MeanThinkUS > 0 {
			tn.Think = make([]sim.Duration, spec.OpsPerTenant)
			for k := range tn.Think {
				tn.Think[k] = expGap(rng, spec.MeanThinkUS)
			}
		}
		ts[t] = tn
	}
	return ts
}

// RunChurn executes spec's tenant churn on the cluster and reports
// throughput, admission and lifecycle statistics. All randomness derives
// from spec.Seed; runs are bit-deterministic. It returns an error when a
// tenant's install fails under the configured policy (AdmitError on a
// full NIC, a queued install that can never be served) — under
// AdmitQueue with departing tenants the run completes by construction.
// On a traced cluster every completed op emits a span (see RunTenants).
func RunChurn(c *Cluster, spec ChurnSpec) (ChurnResult, error) {
	nodes := c.nodes()
	if err := spec.validate(nodes); err != nil {
		return ChurnResult{}, err
	}
	c.SetAdmission(AdmissionConfig{Policy: spec.Policy, ChargeSetupCosts: spec.ChargeSetupCosts})
	runs, err := RunTenants(c, planChurn(nodes, spec))
	if err != nil {
		return ChurnResult{}, err
	}

	res := ChurnResult{Tenants: spec.Tenants, Completed: len(runs)}
	var lastDepart sim.Time
	// Per-op latency (completion gap) of reconfiguring tenants, split at
	// their membership swap — the apples-to-apples SLO comparison.
	var preLat, postLat obs.Histogram
	for i := range runs {
		r, g := &runs[i], runs[i].Group
		n := g.OpsCompleted()
		lastDepart = max(lastDepart, g.doneAt(n-1))
		if r.SwapAt == 0 {
			continue
		}
		if r.swapErr != nil {
			res.ReconfigsFailed++ // kept the old membership
		} else {
			res.Reconfigs++
		}
		prev := g.led.launches[0].at
		for k := range n {
			at := g.doneAt(k)
			h := &preLat
			if k >= r.SwapAt {
				h = &postLat
			}
			h.Observe(at.Sub(prev))
			prev = at
		}
	}

	st := c.AdmissionStats()
	res.Installs, res.Uninstalls, res.QueuedInstalls = st.Installs, st.Uninstalls, st.Queued
	res.MaxQueueLen, res.SlotHighWater = st.MaxQueueLen, st.SlotHighWater
	net := c.Counters()
	res.Sent, res.Dropped = net.Sent, net.Dropped
	res.TotalOps = res.Completed * spec.OpsPerTenant
	res.MakespanUS = lastDepart.Micros()
	if res.MakespanUS > 0 {
		res.AggOpsPerSec = float64(res.TotalOps) / (res.MakespanUS / 1e6)
	}
	if len(st.WaitsUS) > 0 {
		waits := slices.Clone(st.WaitsUS)
		sort.Float64s(waits)
		var sum float64
		for _, w := range waits {
			sum += w
		}
		res.QueueWaitMeanUS = sum / float64(len(waits))
		res.QueueWaitP95US = percentile(waits, 0.95)
	}
	if preLat.Count() > 0 {
		s := obs.SnapshotHistogram(&preLat)
		res.PreSwapOps = int(s.Count)
		res.PreSwapP50US, res.PreSwapP95US, res.PreSwapP99US = s.P50US, s.P95US, s.P99US
	}
	if postLat.Count() > 0 {
		s := obs.SnapshotHistogram(&postLat)
		res.PostSwapOps = int(s.Count)
		res.PostSwapP50US, res.PostSwapP95US, res.PostSwapP99US = s.P50US, s.P95US, s.P99US
	}
	return res, nil
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
