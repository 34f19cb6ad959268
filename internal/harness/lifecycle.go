package harness

import (
	"fmt"
	"sort"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// The group-lifecycle experiment family measures what the admission
// controller and teardown path cost: tenants churning through
// arrive/run/depart cycles on a slot-limited cluster (group-churn),
// the price of swapping a live group's membership (reconfigure-cost),
// and what one tenant's loss recovery does to clean neighbors on shared
// nodes (faults-victim-tenant).

// registerLifecycleScenarios adds the family to the scenario registry.
func registerLifecycleScenarios() {
	registerScenario(Scenario{ID: "group-churn",
		Title: "Tenant churn under the queueing admission policy, both interconnects", Figure: groupChurn})
	registerScenario(Scenario{ID: "reconfigure-cost",
		Title: "Cost of reconfiguring a group's membership (install-new/uninstall-old)", Figure: reconfigureCost})
	registerScenario(Scenario{ID: "faults-victim-tenant",
		Title: "One tenant under every-Nth loss: victim recovery vs bystander interference", Figure: faultVictimTenant})
}

// churnClusterNodes is the cluster the churn sweep oversubscribes; small
// on purpose, so random tenant placement stacks groups deep enough on
// individual NICs to exhaust their slots.
const churnClusterNodes = 16

// churnSpecFor builds the sweep's churn shape for one tenant count.
func churnSpecFor(cfg Config, tenants int) comm.ChurnSpec {
	return comm.ChurnSpec{
		Tenants:          tenants,
		OpsPerTenant:     8,
		GroupSizeMin:     2,
		GroupSizeMax:     5,
		MeanArrivalGapUS: 2,
		ReconfigureEvery: 4,
		Policy:           comm.AdmitQueue,
		ChargeSetupCosts: true,
		Seed:             cfg.Seed ^ 0xc52a<<16 ^ uint64(tenants),
	}
}

// measureChurnPoint runs one churn data point on the named backend.
func measureChurnPoint(cfg Config, tb hwprofile.Testbed, tenants int) comm.ChurnResult {
	return runChurn(cfg, tb, churnClusterNodes, churnSpecFor(cfg, tenants))
}

// runChurn runs one churn data point on a fresh nodes-node cluster of
// the named backend.
func runChurn(cfg Config, tb hwprofile.Testbed, nodes int, spec comm.ChurnSpec) comm.ChurnResult {
	c, p := cfg.commCluster(tb, nodes, fmt.Sprintf("churn %dn T=%d %v", nodes, spec.Tenants, spec.Policy), nil)
	defer p.drained()
	res, err := comm.RunChurn(c, spec)
	if err != nil {
		panic(fmt.Sprintf("harness: churn point (%v, %d nodes, T=%d): %v", tb, nodes, spec.Tenants, err))
	}
	return res
}

func churnKops(r comm.ChurnResult) float64    { return r.AggOpsPerSec / 1e3 }
func churnWaitP95(r comm.ChurnResult) float64 { return r.QueueWaitP95US }

// groupChurn sweeps tenant count on a 16-node cluster under the
// queueing admission policy: cumulative installs far exceed the per-NIC
// slot count, so the curve only exists because teardown reclaims slots
// and the queue serves deferred installs. Reported per backend:
// aggregate throughput and the p95 wait of queued installs.
func groupChurn(cfg Config) Figure {
	tenants := []int{8, 16, 32}
	measure := func(tb hwprofile.Testbed) []comm.ChurnResult {
		return measureAll(cfg, tenants, func(t int) comm.ChurnResult { return measureChurnPoint(cfg, tb, t) })
	}
	myri := measure(hwprofile.LANaiXP)
	quad := measure(hwprofile.Elan3)
	return Figure{
		ID:     "group-churn",
		Title:  fmt.Sprintf("Tenant churn over %d nodes, queueing admission, install/uninstall costs charged", churnClusterNodes),
		XLabel: "Tenants over the run",
		YLabel: "Throughput / queue wait",
		Series: []Series{
			seriesOf("Myrinet-kops", "kops/s", tenants, myri, churnKops),
			seriesOf("Quadrics-kops", "kops/s", tenants, quad, churnKops),
			seriesOf("Myrinet-wait-p95", "sim_us", tenants, myri, churnWaitP95),
			seriesOf("Quadrics-wait-p95", "sim_us", tenants, quad, churnWaitP95),
		},
		Notes: []string{
			"tenants arrive on a Poisson process, run 8 barriers, depart (every 4th reconfigures halfway);",
			"installs beyond a NIC's slots queue FIFO and are served as departures free slots",
			"wait-p95 is how long the 95th-percentile deferred install waited for capacity",
		},
	}
}

// measureReconfigure measures one reconfiguration data point: a group of
// n ranks runs to steady state, then swaps to a disjoint membership; the
// swap cost is the gap from the last pre-swap completion to the first
// post-swap completion (uninstall + install charges + the first barrier
// on cold NICs), reported next to the steady per-barrier latency.
func measureReconfigure(cfg Config, tb hwprofile.Testbed, n int) (swapUS, steadyUS float64) {
	c, p := cfg.commCluster(tb, 2*n, fmt.Sprintf("reconfigure %dn/%d", 2*n, n), nil)
	defer p.drained()
	c.SetAdmission(comm.AdmissionConfig{ChargeSetupCosts: true})
	perm := permutedIDs(cfg, 2*n, 2*n, 0x9ec0|uint64(n))
	g, err := c.NewGroup(comm.GroupConfig{
		Members:       perm[:n],
		Kind:          comm.OpBarrier,
		Algorithm:     barrier.Dissemination,
		MyrinetScheme: myrinet.SchemeCollective,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: reconfigure point (n=%d): %v", n, err))
	}
	warmup, iters := cfg.itersFor(n)
	if warmup < 1 {
		warmup = 1
	}
	done := g.Run(warmup + iters)
	steadyUS = done[warmup+iters-1].Sub(done[warmup-1]).Micros() / float64(iters)
	last := done[warmup+iters-1]
	g.Reset()
	if err := g.Reconfigure(perm[n : 2*n]); err != nil {
		panic(fmt.Sprintf("harness: reconfigure swap (n=%d): %v", n, err))
	}
	first := g.Run(1)[0]
	swapUS = first.Sub(last).Micros()
	return swapUS, steadyUS
}

// reconfigureCost sweeps group size for the membership swap on both
// backends: the swap pays the modeled uninstall cost on the old members,
// the install cost on the new ones, and a first barrier whose NIC state
// is cold — against the steady-state barrier as the reference line.
func reconfigureCost(cfg Config) Figure {
	sizes := []int{4, 8, 16}
	type cost struct{ swap, steady float64 }
	measure := func(tb hwprofile.Testbed) []cost {
		return measureAll(cfg, sizes, func(n int) cost {
			sw, steady := measureReconfigure(cfg, tb, n)
			return cost{sw, steady}
		})
	}
	myri := measure(hwprofile.LANaiXP)
	quad := measure(hwprofile.Elan3)
	swapUS := func(c cost) float64 { return c.swap }
	steadyUS := func(c cost) float64 { return c.steady }
	return Figure{
		ID:     "reconfigure-cost",
		Title:  "Membership swap (install-new/handoff/uninstall-old) vs steady barrier",
		XLabel: "Group size (ranks)",
		YLabel: "Latency",
		Series: []Series{
			seriesOf("Myrinet-swap", "", sizes, myri, swapUS),
			seriesOf("Myrinet-steady", "", sizes, myri, steadyUS),
			seriesOf("Quadrics-swap", "", sizes, quad, swapUS),
			seriesOf("Quadrics-steady", "", sizes, quad, steadyUS),
		},
		Notes: []string{
			"swap = last pre-swap completion to first post-swap completion: teardown charge on the",
			"old members, install charge on the new, plus the first barrier on cold NIC state",
			"the bit-vector records assume fixed membership, so the honest swap is a reinstall",
		},
	}
}

// victimOps is the per-tenant operation count of the victim experiment.
const victimOps = 40

// victimStats is one tenant's per-op latency summary in the victim
// experiment.
type victimStats struct {
	meanUS, p95US float64
}

// measureVictimTenant runs the shared-node victim layout under an
// every-Nth drop scoped to the victim group (dropNth 0 = clean run) and
// returns the victim's and the worst bystander's per-op latency stats.
func measureVictimTenant(cfg Config, dropNth int) (victim, bystander victimStats) {
	var plan *fault.Plan
	if dropNth > 0 {
		rule := fault.DropEveryNth(dropNth)
		rule.Match.Groups = fault.Groups(1) // the victim is the first group installed
		rule.Match.Kinds = fault.Kinds("barrier-coll")
		plan = fault.NewPlan(faultSeed(cfg, 0x71c<<8|uint64(dropNth)), rule)
	}
	c, p := cfg.commCluster(hwprofile.LANaiXP, 8, fmt.Sprintf("victim 8n drop-every-%d", dropNth), plan)
	defer p.drained()
	// All three arrive at 0 and install in this order, so the victim is
	// group 1, the fault's target.
	layout := [][]int{
		{0, 1, 2, 3}, // the victim
		{0, 1, 4, 5}, // shares nodes 0,1 with the victim
		{2, 3, 6, 7}, // shares nodes 2,3
	}
	ts := make([]comm.Tenant, len(layout))
	for i, members := range layout {
		ts[i] = comm.Tenant{Index: i, Ops: victimOps, Config: comm.GroupConfig{
			Members:       members,
			Kind:          comm.OpBarrier,
			Algorithm:     barrier.Dissemination,
			MyrinetScheme: myrinet.SchemeCollective,
		}}
	}
	runs, err := comm.RunTenants(c, ts)
	if err != nil {
		panic(fmt.Sprintf("harness: victim layout: %v", err))
	}
	stats := func(done []sim.Time) victimStats {
		lats := make([]float64, len(done))
		var sum float64
		prev := sim.Time(0)
		for i, at := range done {
			lats[i] = at.Sub(prev).Micros()
			sum += lats[i]
			prev = at
		}
		sort.Float64s(lats)
		return victimStats{
			meanUS: sum / float64(len(lats)),
			p95US:  lats[(len(lats)*95+99)/100-1],
		}
	}
	victim = stats(runs[0].Group.Completions())
	bystander = stats(runs[1].Group.Completions())
	if b := stats(runs[2].Group.Completions()); b.meanUS > bystander.meanUS {
		bystander = b
	}
	return victim, bystander
}

// faultVictimTenant puts one tenant under deterministic every-Nth loss
// while its neighbors — clean tenants sharing its nodes — run the same
// stream: the victim pays NACK-timeout recovery, the bystanders pay only
// the firmware-level interference of the victim's recovery traffic on
// the shared NICs. X is the drop period (every Nth victim packet lost;
// 0 = clean reference).
func faultVictimTenant(cfg Config) Figure {
	periods := []int{0, 32, 16, 8, 4}
	type layout struct{ victim, bystander victimStats }
	pts := measureAll(cfg, periods, func(n int) layout {
		v, b := measureVictimTenant(cfg, n)
		return layout{v, b}
	})
	series := func(name string, val func(layout) float64) Series {
		return seriesOf(name, "", periods, pts, val)
	}
	return Figure{
		ID:     "faults-victim-tenant",
		Title:  "Victim tenant under every-Nth loss vs clean bystanders on shared nodes, 8-node Myrinet",
		XLabel: "Drop period N (0 = clean)",
		YLabel: "Per-op latency",
		Series: []Series{
			series("Victim-mean", func(l layout) float64 { return l.victim.meanUS }),
			series("Victim-p95", func(l layout) float64 { return l.victim.p95US }),
			series("Bystander-mean", func(l layout) float64 { return l.bystander.meanUS }),
			series("Bystander-p95", func(l layout) float64 { return l.bystander.p95US }),
		},
		Notes: []string{
			"three size-4 groups on 8 nodes: the victim {0,1,2,3}, bystanders {0,1,4,5} and {2,3,6,7};",
			"the drop rule matches only the victim's group ID on barrier-coll packets",
			"victim recovery rides the NACK timeout (mean climbs with drop frequency); bystanders",
			"move only by the shared-NIC firmware interference of the victim's recovery traffic",
			"per-flow every-Nth counters advance in lockstep, so drops bunch into whole rounds —",
			"p95 knees once more than 5% of operations catch a recovery round",
		},
	}
}

// churnPolicies sweeps tenant count over four churn shapes group-churn
// does not cover, all on Myrinet LANai-XP under charged install costs
// unless noted: every 2nd tenant reconfiguring mid-run (16 nodes), the
// spreading admission policy that re-places over-capacity tenants
// instead of queueing them (16 nodes), slow tenants whose think time
// holds slots longer (8 nodes), and the long-lived live-service shape —
// sparse arrivals, short think time, every 3rd tenant reconfiguring,
// setup costs uncharged (16 nodes).
func churnPolicies(cfg Config) Figure {
	tenants := []int{8, 16, 32}
	shape := func(nodes int, salt uint64, spec comm.ChurnSpec) []comm.ChurnResult {
		return measureAll(cfg, tenants, func(t int) comm.ChurnResult {
			s := spec
			s.Tenants = t
			s.Seed = cfg.Seed ^ 0xc40c<<16 ^ salt<<8 ^ uint64(t)
			return runChurn(cfg, hwprofile.LANaiXP, nodes, s)
		})
	}
	reconfig := shape(16, 1, comm.ChurnSpec{
		OpsPerTenant: 10, GroupSizeMin: 2, GroupSizeMax: 4,
		MeanArrivalGapUS: 4, ReconfigureEvery: 2,
		Policy: comm.AdmitQueue, ChargeSetupCosts: true,
	})
	spread := shape(16, 2, comm.ChurnSpec{
		OpsPerTenant: 8, GroupSizeMin: 2, GroupSizeMax: 4,
		MeanArrivalGapUS: 3,
		Policy:           comm.AdmitSpread, ChargeSetupCosts: true,
	})
	think := shape(8, 3, comm.ChurnSpec{
		OpsPerTenant: 6, GroupSizeMin: 2, GroupSizeMax: 4,
		MeanArrivalGapUS: 2, MeanThinkUS: 15,
		Policy: comm.AdmitQueue, ChargeSetupCosts: true,
	})
	live := shape(16, 4, comm.ChurnSpec{
		OpsPerTenant: 12, MeanArrivalGapUS: 30, MeanThinkUS: 5,
		ReconfigureEvery: 3, Policy: comm.AdmitQueue,
	})
	return Figure{
		ID:     "churn-policies",
		Title:  "Reconfiguration, spreading admission, think time and live-service churn on Myrinet",
		XLabel: "Tenants over the run",
		YLabel: "Throughput / latency / queue wait",
		Series: []Series{
			seriesOf("Reconfig-kops", "kops/s", tenants, reconfig, churnKops),
			seriesOf("Reconfig-post-swap-p95", "sim_us", tenants, reconfig,
				func(r comm.ChurnResult) float64 { return r.PostSwapP95US }),
			seriesOf("Spread-kops", "kops/s", tenants, spread, churnKops),
			seriesOf("Spread-wait-p95", "sim_us", tenants, spread, churnWaitP95),
			seriesOf("Think-kops", "kops/s", tenants, think, churnKops),
			seriesOf("Think-wait-p95", "sim_us", tenants, think, churnWaitP95),
			seriesOf("Live-kops", "kops/s", tenants, live, churnKops),
		},
		Notes: []string{
			"reconfigure: a swap that cannot get slots on its new members keeps the old membership",
			"spread: over-capacity tenants move to the emptiest NICs, so installs never wait",
			"think time: slot holding time is ops x (barrier + think), so slots, not wires, bind",
			"live: the long-running shape a live metrics endpoint serves while tenants come and go",
		},
	}
}
