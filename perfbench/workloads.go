package main

import (
	"fmt"
	"math"
	"slices"

	"nicbarrier"
	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/shard"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// workload is one benchmark input family. rep runs one repetition —
// build, run, check — from the seed alone; every simulated quantity it
// reports must be identical across repetitions of one seed.
type workload struct {
	name, why string
	rep       func(p params, tr *tracing) *repOut
}

// params sizes one repetition. toy shrinks every workload to a smoke
// size that finishes in well under a second.
type params struct {
	seed uint64
	toy  bool
}

func (p params) pick(full, toy int) int {
	if p.toy {
		return toy
	}
	return full
}

var workloads = []workload{
	{"paper-barrier", "the paper's closed measurement loop: NIC-collective vs host barriers on Myrinet LANai-XP and Quadrics Elan3 at 8 nodes, NIC barriers at 1024", paperBarrier},
	{"tenant-mix", "steady fast path: 256 overlapping tenants in groups of 2-32 on 1024 Myrinet nodes, 2:1:1 barrier/broadcast/allreduce, open-loop Poisson arrivals", tenantMix},
	{"churn-lossy", "slow path: Poisson tenant churn on 64 Myrinet nodes with queued admission, reconfiguration and 2% random loss", churnLossy},
	{"hier-64k", "scale: the hierarchical cross-shard barrier at 65,536 endpoints over 2 shards", hier64k},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- paper-barrier ---

// paperPoint is one configuration of the paper's measurement loop.
type paperPoint struct {
	label    string
	quadrics bool
	nodes    int
	scheme   int // myrinet.Scheme or elan.Scheme
	alg      barrier.Algorithm
}

var paperPoints = []paperPoint{
	{"myrinet-xp/nic/8", false, 8, int(myrinet.SchemeCollective), barrier.Dissemination},
	{"myrinet-xp/host/8", false, 8, int(myrinet.SchemeHost), barrier.Dissemination},
	{"elan3/nic/8", true, 8, int(elan.SchemeChained), barrier.Dissemination},
	{"elan3/gsync/8", true, 8, int(elan.SchemeGsync), barrier.GatherBroadcast},
	{"myrinet-xp/nic/1024", false, 1024, int(myrinet.SchemeCollective), barrier.Dissemination},
	{"elan3/nic/1024", true, 1024, int(elan.SchemeChained), barrier.Dissemination},
}

// paperBarrier runs back-to-back barriers on every paperPoint through
// the layer APIs (backend cluster, communicator group, exclusive Run),
// so the run can be observed per layer. Large groups use a seeded random
// placement, as the paper's methodology does.
func paperBarrier(p params, tr *tracing) *repOut {
	type built struct {
		pt     paperPoint
		cl     *comm.Cluster
		g      *comm.Group
		tp     topo.Topology
		warmup int
		iters  int
	}
	out := newRepOut()
	var runs []built
	out.setup = timeIt(func() {
		for _, pt := range paperPoints {
			eng := sim.NewEngine()
			tr.observe(eng)
			var cl *comm.Cluster
			var tp topo.Topology
			if pt.quadrics {
				tp = tr.buildTopo(pt.nodes, hwprofile.Elan3Cluster().FatTreeArity)
				var ecl *elan.Cluster
				tr.span("elan.NewCluster", func() { ecl = elan.NewCluster(eng, hwprofile.Elan3Cluster(), pt.nodes) })
				cl = comm.OverElan(ecl)
			} else {
				tp = tr.buildTopo(pt.nodes, 8)
				var mcl *myrinet.Cluster
				tr.span("myrinet.NewCluster", func() { mcl = myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), pt.nodes, nil) })
				cl = comm.OverMyrinet(mcl)
			}
			tr.attach(cl, pt.label)
			members := identity(pt.nodes)
			warmup, iters := 100, p.pick(2000, 50)
			if pt.nodes > 16 {
				members = sim.NewRNG(p.seed ^ 0x9e3779b9).Perm(pt.nodes)
				warmup, iters = 1, p.pick(10, 1)
			}
			gc := comm.GroupConfig{Members: members, Kind: comm.OpBarrier, Algorithm: pt.alg}
			if pt.quadrics {
				gc.ElanScheme = elan.Scheme(pt.scheme)
			} else {
				gc.MyrinetScheme = myrinet.Scheme(pt.scheme)
			}
			var g *comm.Group
			var err error
			tr.span("comm.NewGroup", func() { g, err = cl.NewGroup(gc) })
			if err != nil {
				out.fail(fmt.Errorf("%s: %w", pt.label, err), warmup+iters)
				continue
			}
			runs = append(runs, built{pt, cl, g, tp, warmup, iters})
		}
	})
	for _, r := range runs {
		tr.routePairs(r.tp, r.g.Members)
	}

	out.measure(func() {
		for _, r := range runs {
			tr.span("comm.Group.Run "+r.pt.label, func() { r.g.Run(r.warmup + r.iters) })
		}
	})

	for _, r := range runs {
		done := r.g.DoneAt()
		out.ops += r.warmup + r.iters
		out.endpoints += r.pt.nodes
		if len(done) != r.warmup+r.iters {
			out.fail(fmt.Errorf("%s: %d of %d iterations completed", r.pt.label, len(done), r.warmup+r.iters), r.warmup+r.iters-len(done))
			continue
		}
		if err := increasing(done); err != nil {
			out.fail(fmt.Errorf("%s: %w", r.pt.label, err), 0)
		}
		for k := r.warmup; k < len(done); k++ {
			out.lat = append(out.lat, done[k].Sub(done[k-1]).Micros())
		}
		out.simSpan += done[len(done)-1].Sub(done[r.warmup-1]).Micros() / 1e6
		out.simOps += r.iters
		out.hash(done)
		tr.countCluster(r.cl)
	}
	tr.add("ops", float64(out.ops))
	tr.span("teardown", func() {
		for _, r := range runs {
			if err := r.g.Close(); err != nil {
				out.fail(fmt.Errorf("%s: close: %w", r.pt.label, err), 0)
			}
		}
	})
	out.keep(runs)
	return out
}

// --- tenant-mix ---

func tenantMixSpec(p params) comm.WorkloadSpec {
	return comm.WorkloadSpec{
		Tenants:      p.pick(256, 16),
		OpsPerTenant: p.pick(50, 10),
		GroupSizeMin: 2,
		GroupSizeMax: 32,
		Overlap:      true,
		Mix:          comm.OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
		Arrival:      comm.ArrivalSpec{Kind: comm.OpenLoop, MeanGapUS: 400},
		Seed:         p.seed,
	}
}

// tenantMix runs the steady multi-tenant workload. Groups are installed
// once (AdmitSpread re-places the rare group that lands on a full NIC)
// and no faults are injected.
func tenantMix(p params, tr *tracing) *repOut {
	nodes := p.pick(1024, 128)
	spec := tenantMixSpec(p)
	out := newRepOut()
	var cl *comm.Cluster
	var tp topo.Topology
	out.setup = timeIt(func() {
		eng := sim.NewEngine()
		tr.observe(eng)
		tp = tr.buildTopo(nodes, 8)
		var mcl *myrinet.Cluster
		tr.span("myrinet.NewCluster", func() { mcl = myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), nodes, nil) })
		cl = comm.OverMyrinet(mcl)
		cl.SetAdmission(comm.AdmissionConfig{Policy: comm.AdmitSpread})
		tr.attach(cl, fmt.Sprintf("myrinet-%d", nodes))
	})
	plan := planArrivals(nodes, spec)
	for _, m := range plan.members {
		tr.routePairs(tp, m)
	}

	var res comm.WorkloadResult
	var err error
	out.measure(func() {
		tr.span("comm.RunWorkload", func() { res, err = comm.RunWorkload(cl, spec) })
	})
	want := spec.Tenants * spec.OpsPerTenant
	out.ops, out.endpoints = want, nodes
	if err != nil {
		out.fail(err, want)
		return out
	}
	if res.TotalOps != want || res.FailedTenants != 0 {
		out.fail(fmt.Errorf("tenant-mix: %d of %d ops, %d failed tenants", res.TotalOps, want, res.FailedTenants), want-res.TotalOps)
	}
	groups := cl.Groups()
	if len(groups) != spec.Tenants {
		out.fail(fmt.Errorf("tenant-mix: %d groups for %d tenants", len(groups), spec.Tenants), 0)
		return out
	}
	moved := 0
	for t, g := range groups {
		if g.Kind != plan.kinds[t] || g.Size() != len(plan.members[t]) {
			out.fail(fmt.Errorf("tenant-mix: tenant %d is %v/%d, planned %v/%d", t, g.Kind, g.Size(), plan.kinds[t], len(plan.members[t])), 0)
			continue
		}
		if !slices.Equal(g.Members, plan.members[t]) {
			moved++
		}
		done := g.DoneAt()
		if len(done) != spec.OpsPerTenant {
			out.fail(fmt.Errorf("tenant-mix: tenant %d completed %d of %d ops", t, len(done), spec.OpsPerTenant), spec.OpsPerTenant-len(done))
			continue
		}
		for k, at := range done {
			if at < plan.arrivals[t][k] {
				out.fail(fmt.Errorf("tenant-mix: tenant %d op %d done at %v before its arrival %v", t, k, at, plan.arrivals[t][k]), 1)
				continue
			}
			out.lat = append(out.lat, at.Sub(plan.arrivals[t][k]).Micros())
		}
		if g.Kind == comm.OpAllreduce {
			if err := checkAllreduceMax(g.Results(), g.Size()); err != nil {
				out.fail(fmt.Errorf("tenant-mix: tenant %d: %w", t, err), 1)
			}
		}
		out.hash(done)
	}
	if st := cl.AdmissionStats(); moved > st.Placed {
		out.fail(fmt.Errorf("tenant-mix: %d groups off their planned members, admission placed %d", moved, st.Placed), 0)
	}
	out.simSpan = res.MakespanUS / 1e6
	out.simOps = res.TotalOps
	tr.countCluster(cl)
	tr.add("ops", float64(out.ops))
	tr.span("teardown", func() {
		for _, g := range groups {
			if err := g.Close(); err != nil {
				out.fail(fmt.Errorf("tenant-mix: close group %d: %w", g.ID, err), 0)
			}
		}
	})
	out.keep(cl)
	return out
}

// tenantPlan mirrors the per-tenant draws comm.RunWorkload makes from
// its seed. Its draw order is the documented compatibility contract of
// comm's planTenants (placement shuffle, then per tenant: size, members,
// kind, pacing); tenantMix checks members and kinds against the groups
// the run built, so a divergence fails the run instead of skewing the
// latencies taken from these arrival instants.
type tenantPlan struct {
	members  [][]int
	kinds    []comm.OpKind
	arrivals [][]sim.Time
}

func planArrivals(nodes int, spec comm.WorkloadSpec) tenantPlan {
	rng := sim.NewRNG(spec.Seed ^ 0x7e4a47)
	rng.Perm(nodes) // disjoint-placement shuffle, drawn even under Overlap
	mixTotal := spec.Mix.Barrier + spec.Mix.Broadcast + spec.Mix.Allreduce
	var pl tenantPlan
	for t := 0; t < spec.Tenants; t++ {
		size := spec.GroupSizeMin + rng.Intn(spec.GroupSizeMax-spec.GroupSizeMin+1)
		pl.members = append(pl.members, rng.Perm(nodes)[:size])
		kind := comm.OpAllreduce
		switch r := rng.Intn(mixTotal); {
		case r < spec.Mix.Barrier:
			kind = comm.OpBarrier
		case r < spec.Mix.Barrier+spec.Mix.Broadcast:
			kind = comm.OpBroadcast
		}
		pl.kinds = append(pl.kinds, kind)
		arr := make([]sim.Time, spec.OpsPerTenant)
		var at sim.Time
		for k := range arr {
			at = at.Add(sim.Micros(-spec.Arrival.MeanGapUS * math.Log1p(-rng.Float64())))
			arr[k] = at
		}
		pl.arrivals = append(pl.arrivals, arr)
	}
	return pl
}

// checkAllreduceMax verifies every iteration's allreduce result on every
// rank against the reference max-reduction of the contributions
// comm.RunWorkload feeds allreduce tenants (rank*31 + iter*7 - 11).
func checkAllreduceMax(rows [][]int64, size int) error {
	if rows == nil {
		return fmt.Errorf("allreduce group reported no results")
	}
	for iter, row := range rows {
		want := int64((size-1)*31 + iter*7 - 11)
		if len(row) != size {
			return fmt.Errorf("allreduce op %d: %d results for %d ranks", iter, len(row), size)
		}
		for rank, got := range row {
			if got != want {
				return fmt.Errorf("allreduce op %d rank %d: got %d, want %d", iter, rank, got, want)
			}
		}
	}
	return nil
}

// --- churn-lossy ---

func churnSpec(p params) comm.ChurnSpec {
	return comm.ChurnSpec{
		Tenants:          p.pick(2000, 40),
		OpsPerTenant:     20,
		MeanArrivalGapUS: 8,
		ReconfigureEvery: 4,
		Policy:           comm.AdmitQueue,
		ChargeSetupCosts: true,
		Seed:             p.seed,
	}
}

// churnLossy runs tenant churn through queued admission on a lossy
// network: every 4th tenant reconfigures halfway, and a fault plan drops
// 2% of packets at injection, so NACK retransmission, timer churn and
// install/uninstall all run.
func churnLossy(p params, tr *tracing) *repOut {
	const nodes = 64
	spec := churnSpec(p)
	out := newRepOut()
	var cl *comm.Cluster
	var plan *fault.Plan
	var tp topo.Topology
	out.setup = timeIt(func() {
		eng := sim.NewEngine()
		tr.observe(eng)
		tp = tr.buildTopo(nodes, 8)
		var mcl *myrinet.Cluster
		tr.span("myrinet.NewCluster", func() { mcl = myrinet.NewCluster(eng, hwprofile.LANaiXPCluster(), nodes, nil) })
		plan = fault.NewPlan(p.seed^0x10551, fault.Rule{Name: "loss2pct", Effect: fault.RandomLoss{Rate: 0.02}})
		mcl.SetFaults(plan)
		cl = comm.OverMyrinet(mcl)
		tr.attach(cl, fmt.Sprintf("myrinet-%d", nodes))
	})
	tr.routePairs(tp, identity(nodes))

	var res comm.ChurnResult
	var err error
	out.measure(func() {
		tr.span("comm.RunChurn", func() { res, err = comm.RunChurn(cl, spec) })
	})
	want := spec.Tenants * spec.OpsPerTenant
	out.ops, out.endpoints = want, nodes
	if err != nil {
		out.fail(err, want)
		return out
	}
	if res.Completed != spec.Tenants || res.TotalOps != want {
		out.fail(fmt.Errorf("churn-lossy: %d of %d tenants completed, %d of %d ops", res.Completed, spec.Tenants, res.TotalOps, want), want-res.TotalOps)
	}
	ops := 0
	for t, g := range cl.Groups() {
		if !g.Closed() {
			out.fail(fmt.Errorf("churn-lossy: tenant %d never departed", t), 0)
		}
		ops += g.OpsCompleted()
		// Completion gaps inside the tenant's last run: each op became
		// eligible when its predecessor completed (back-to-back loop).
		done := g.DoneAt()
		for k := 1; k < len(done); k++ {
			out.lat = append(out.lat, done[k].Sub(done[k-1]).Micros())
		}
		out.hash(done)
	}
	if ops != want {
		out.fail(fmt.Errorf("churn-lossy: groups completed %d of %d ops", ops, want), want-ops)
	}
	out.simSpan = res.MakespanUS / 1e6
	out.simOps = res.TotalOps
	out.hashFloats(res.QueueWaitP95US, float64(res.Reconfigs), float64(res.Sent), float64(res.Dropped))
	if tr != nil {
		st := cl.AdmissionStats()
		tr.add("comm.installs", float64(st.Installs))
		tr.add("comm.queued", float64(st.Queued))
		tr.add("comm.queue_wait_p95_us", res.QueueWaitP95US)
		tr.add("comm.reconfigs", float64(res.Reconfigs))
		tr.add("comm.reconfigs_failed", float64(res.ReconfigsFailed))
		for _, rs := range plan.Stats() {
			tr.add("fault.matched", float64(rs.Matched))
			tr.add("fault.dropped", float64(rs.Dropped+rs.Rejected))
		}
	}
	tr.countCluster(cl)
	tr.add("ops", float64(out.ops))
	out.keep(cl)
	return out
}

// --- hier-64k ---

// hier64k runs shard.MeasureHierBarrier, which builds its shards, runs
// them in parallel and reports its own runner time and GC-settled heap
// growth. Build time is what the call spends outside its runner.
func hier64k(p params, tr *tracing) *repOut {
	spec := shard.HierSpec{
		Nodes:  p.pick(65536, 1024),
		Parts:  2,
		Warmup: 0,
		Iters:  1,
		Prof:   hwprofile.LANaiXPCluster(),
	}
	out := newRepOut()
	tr.routePairs(tr.buildTopo(spec.Nodes, 8), identity(spec.Nodes))
	var res shard.HierResult
	out.measure(func() {
		tr.span("shard.MeasureHierBarrier", func() { res = shard.MeasureHierBarrier(spec) })
	})
	call := out.wall
	out.wall = res.WallTime
	out.setup = call - res.WallTime
	out.liveBytes = res.MemBytes
	total := spec.Warmup + spec.Iters
	out.ops, out.endpoints = total, spec.Nodes
	if len(res.DoneAt) != total {
		out.fail(fmt.Errorf("hier-64k: %d of %d iterations completed", len(res.DoneAt), total), total-len(res.DoneAt))
		return out
	}
	if err := increasing(res.DoneAt); err != nil || res.DoneAt[0] <= 0 {
		out.fail(fmt.Errorf("hier-64k: completion times %v not increasing from 0", res.DoneAt), total)
	}
	var prev sim.Time
	for _, at := range res.DoneAt {
		out.lat = append(out.lat, at.Sub(prev).Micros())
		prev = at
	}
	out.simSpan = res.DoneAt[total-1].Micros() / 1e6
	out.simOps = total
	out.hash(res.DoneAt)
	out.hashFloats(float64(res.Windows), float64(res.Tokens), float64(res.Lookahead))
	if tr != nil {
		tr.add("shard.windows", float64(res.Windows))
		tr.add("shard.run_s", res.WallTime.Seconds())
		tr.add("shard.call_s", call.Seconds())
	}
	tr.add("ops", float64(out.ops))
	return out
}

// --- fidelity probe ---

// The paper's published figures (Section 8): 8-node NIC-based barrier
// latencies, the improvement factors over the host-driven barriers, and
// the analytical model's 1024-node predictions.
const (
	paperQuadricsUS     = 5.60
	paperMyrinetUS      = 14.20
	paperQuadricsFactor = 2.48
	paperMyrinetFactor  = 2.64
	modelQuadricsUS     = 22.13
	modelMyrinetUS      = 38.94
)

// fidelity is the probe every workload reports: the paper's measurement
// loop through the public facade, compared against the paper's figures.
type fidelity struct {
	paperErrPct, modelErrPct float64
}

func probeFidelity(p params) (fidelity, error) {
	bar := func(ic nicbarrier.Interconnect, nodes int, s nicbarrier.Scheme, a nicbarrier.Algorithm, warmup, iters int) (float64, error) {
		r, err := nicbarrier.MeasureBarrier(nicbarrier.Config{
			Interconnect: ic, Nodes: nodes, Scheme: s, Algorithm: a,
			Permute: nodes > 16, Seed: p.seed,
		}, warmup, iters)
		if err != nil {
			return 0, fmt.Errorf("fidelity probe %v %v %d nodes: %w", ic, s, nodes, err)
		}
		return r.MeanMicros, nil
	}
	iters := p.pick(1000, 50)
	var vals [6]float64
	var err error
	for i, c := range []struct {
		ic            nicbarrier.Interconnect
		nodes         int
		s             nicbarrier.Scheme
		a             nicbarrier.Algorithm
		warmup, iters int
	}{
		{nicbarrier.QuadricsElan3, 8, nicbarrier.NICCollective, nicbarrier.Dissemination, 100, iters},
		{nicbarrier.QuadricsElan3, 8, nicbarrier.HostBased, nicbarrier.GatherBroadcast, 100, iters},
		{nicbarrier.MyrinetLANaiXP, 8, nicbarrier.NICCollective, nicbarrier.Dissemination, 100, iters},
		{nicbarrier.MyrinetLANaiXP, 8, nicbarrier.HostBased, nicbarrier.Dissemination, 100, iters},
		{nicbarrier.QuadricsElan3, 1024, nicbarrier.NICCollective, nicbarrier.Dissemination, 1, 2},
		{nicbarrier.MyrinetLANaiXP, 1024, nicbarrier.NICCollective, nicbarrier.Dissemination, 1, 2},
	} {
		if vals[i], err = bar(c.ic, c.nodes, c.s, c.a, c.warmup, c.iters); err != nil {
			return fidelity{}, err
		}
	}
	relErr := func(got, want float64) float64 { return 100 * math.Abs(got-want) / want }
	return fidelity{
		paperErrPct: max(
			relErr(vals[0], paperQuadricsUS),
			relErr(vals[1]/vals[0], paperQuadricsFactor),
			relErr(vals[2], paperMyrinetUS),
			relErr(vals[3]/vals[2], paperMyrinetFactor)),
		modelErrPct: max(
			relErr(vals[4], modelQuadricsUS),
			relErr(vals[5], modelMyrinetUS)),
	}, nil
}

// --- helpers ---

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// disseminationPairs lists the (src, dst) node pairs of one dissemination
// barrier over members: rank i sends to rank i+2^r in round r.
func disseminationPairs(members []int) [][2]int {
	n := len(members)
	var pairs [][2]int
	for d := 1; d < n; d *= 2 {
		for i, m := range members {
			pairs = append(pairs, [2]int{m, members[(i+d)%n]})
		}
	}
	return pairs
}

func increasing(ts []sim.Time) error {
	for k := 1; k < len(ts); k++ {
		if ts[k] <= ts[k-1] {
			return fmt.Errorf("completion %d at %v not after %v", k, ts[k], ts[k-1])
		}
	}
	return nil
}
