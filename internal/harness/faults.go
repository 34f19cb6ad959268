package harness

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// The fault-sweep experiment family measures barrier latency under
// injected network impairments — the reliability story the paper argues
// qualitatively (Myrinet's MCP must recover from loss in firmware,
// Quadrics never sees it) turned into curves.
//
// Every data point builds a fresh cluster and a fresh fault.Plan (plans
// are stateful), so sweeps stay independent, deterministic per seed, and
// safe to fan out over the worker pool.

// registerFaultScenarios adds the fault-sweep family to the scenario
// registry; called from the experiments init so registration order
// matches the evaluation's presentation order.
func registerFaultScenarios() {
	registerScenario(Scenario{ID: "faults",
		Title: "Barrier latency vs random loss rate (Myrinet recovers, Quadrics flat)", Figure: faultLossSweep})
	registerScenario(Scenario{ID: "faults-burst",
		Title: "Barrier latency vs Gilbert–Elliott burst length at fixed loss", Figure: faultBurstSweep})
	registerScenario(Scenario{ID: "faults-jitter",
		Title: "Barrier latency vs per-packet jitter (reaches both interconnects)", Figure: faultJitterSweep})
}

// faultSeed derives the plan seed for one data point so that points are
// independent but reproducible.
func faultSeed(cfg Config, salt uint64) uint64 {
	return cfg.Seed ^ 0xfa17<<32 ^ salt
}

// faultLossSweep sweeps random loss rate (percent) at a fixed cluster
// size: the Myrinet collective barrier absorbs loss through
// receiver-driven NACK retransmission (latency climbs with the NACK
// timeout), while Quadrics' hardware reliability makes its curve exactly
// flat under a loss-only plan.
func faultLossSweep(cfg Config) Figure {
	const size = 16
	rates := []int{0, 1, 2, 5, 10, 20}
	rulesFor := func(pct int) []fault.Rule {
		if pct == 0 {
			return nil
		}
		return []fault.Rule{fault.Loss(float64(pct) / 100)}
	}
	myri := func(alg barrier.Algorithm) measure {
		return func(pct int) float64 {
			return measureBarrier(cfg, hwprofile.LANaiXP, size, size, comm.GroupConfig{MyrinetScheme: myrinet.SchemeCollective, Algorithm: alg},
				&faulted{rulesFor(pct), uint64(pct)})
		}
	}
	quad := func(pct int) float64 {
		return measureBarrier(cfg, hwprofile.Elan3, size, size, chainedDS, &faulted{rulesFor(pct), uint64(pct)})
	}
	return Figure{
		ID:     "faults",
		Title:  fmt.Sprintf("Barrier latency vs random loss rate, %d nodes", size),
		XLabel: "Loss rate (%)",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Myrinet-DS", rates, myri(barrier.Dissemination)),
			sweep(cfg, "Myrinet-PE", rates, myri(barrier.PairwiseExchange)),
			sweep(cfg, "Quadrics-DS", rates, quad),
		},
		Notes: []string{
			"Myrinet recovers lost notifications via receiver-driven NACK retransmission;",
			"the mean is dominated by the NACK timeout once most barriers see a loss.",
			"Quadrics provides hardware reliability: a loss-only plan cannot touch it (flat curve).",
		},
	}
}

// faultBurstSweep sweeps the mean burst length of a Gilbert–Elliott
// channel at a fixed overall loss rate: bursty loss concentrates drops in
// fewer barriers, so each recovery round re-requests more messages at
// once.
func faultBurstSweep(cfg Config) Figure {
	const size = 16
	const lossRate = 0.05
	bursts := []int{1, 2, 4, 8, 16}
	rulesFor := func(b int) []fault.Rule {
		return []fault.Rule{fault.BurstLoss(lossRate, float64(b))}
	}
	return Figure{
		ID:     "faults-burst",
		Title:  fmt.Sprintf("Barrier latency vs mean burst length (Gilbert–Elliott, %.0f%% loss), %d nodes", lossRate*100, size),
		XLabel: "Mean burst length (packets)",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Myrinet-DS", bursts, func(b int) float64 {
				return measureBarrier(cfg, hwprofile.LANaiXP, size, size, nicDS, &faulted{rulesFor(b), uint64(b)})
			}),
			sweep(cfg, "Quadrics-DS", bursts, func(b int) float64 {
				return measureBarrier(cfg, hwprofile.Elan3, size, size, chainedDS, &faulted{rulesFor(b), uint64(b)})
			}),
		},
		Notes: []string{
			"same overall loss rate at every point; only the burstiness changes",
			"Quadrics stays flat: burst loss is still loss, which hardware reliability strips",
		},
	}
}

// faultJitterSweep sweeps uniform per-packet jitter on every packet: a
// latency-type impairment, so it reaches both interconnects (hardware
// reliability does not protect Quadrics from a slow network, only from a
// lossy one).
func faultJitterSweep(cfg Config) Figure {
	const size = 16
	jitters := []int{0, 2, 5, 10, 20}
	rulesFor := func(us int) []fault.Rule {
		if us == 0 {
			return nil
		}
		return []fault.Rule{fault.Latency(0, sim.Micros(float64(us)))}
	}
	return Figure{
		ID:     "faults-jitter",
		Title:  fmt.Sprintf("Barrier latency vs per-packet jitter, %d nodes", size),
		XLabel: "Jitter span (us)",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Myrinet-DS", jitters, func(us int) float64 {
				return measureBarrier(cfg, hwprofile.LANaiXP, size, size, nicDS, &faulted{rulesFor(us), uint64(us)})
			}),
			sweep(cfg, "Quadrics-DS", jitters, func(us int) float64 {
				return measureBarrier(cfg, hwprofile.Elan3, size, size, chainedDS, &faulted{rulesFor(us), uint64(us)})
			}),
		},
		Notes: []string{
			"jitter delays packets on both interconnects: delay-type faults pass through",
			"the Quadrics DelayOnly filter, loss-type faults do not",
		},
	}
}

// faultImpairments runs the NIC-collective dissemination barrier under
// one impairment per series, one point per cluster size: the fault
// shapes the sweeps above do not cover, each against the clean line.
// Partition and crash name physical nodes, so those series place rank r
// on node r (in dissemination, rank 3 notifies rank 7 at distance 4).
// The Chaos series is a multi-tenant workload, one tenant per 4 nodes,
// under burst loss, a healing partition and a slow NIC at once.
func faultImpairments(cfg Config) Figure {
	ns := []int{8, 16, 32}
	barrierUnder := func(salt uint64, permute bool, rules ...fault.Rule) measure {
		c := cfg
		c.Permute = permute
		return func(n int) float64 {
			return measureBarrier(c, hwprofile.LANaiXP, n, n, nicDS, &faulted{rules, 0x1a<<16 | salt<<8 | uint64(n)})
		}
	}
	everyNth := fault.DropEveryNth(50)
	everyNth.Match.Kinds = fault.Kinds("barrier-coll")
	chaos := func(n int) comm.WorkloadResult {
		plan := fault.NewPlan(faultSeed(cfg, 0xc4a05<<8|uint64(n)),
			fault.BurstLoss(0.03, 3),
			fault.Partition(3, 7, fault.Between(100, 400)),
			fault.SlowNIC(5, sim.Micros(0.5)))
		return runWorkload(cfg, hwprofile.LANaiXP, n, comm.WorkloadSpec{
			Tenants: n / 4,
			Mix:     comm.OpMix{Barrier: 1},
			Seed:    cfg.Seed ^ 0xc4a05<<16 ^ uint64(n),
		}, plan)
	}
	return Figure{
		ID:     "faults-impair",
		Title:  "Barrier latency under deterministic, node-scoped and bandwidth impairments, Myrinet LANai-XP",
		XLabel: "Number of Nodes",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Clean", ns, barrierUnder(0, true)),
			sweep(cfg, "Every-50th", ns, barrierUnder(1, true, everyNth)),
			sweep(cfg, "Partition-heal", ns, barrierUnder(2, false, fault.Partition(3, 7, fault.Between(100, 250)))),
			sweep(cfg, "Crash-recover", ns, barrierUnder(3, false, fault.Crash(5, fault.Between(100, 400)))),
			sweep(cfg, "Slow-NIC", ns, barrierUnder(4, true, fault.SlowNIC(0, sim.Micros(5)))),
			sweep(cfg, "Throttled-25MBps", ns, barrierUnder(5, true, fault.Bandwidth(25, hwprofile.LANaiXP.LineRateMBps()))),
			seriesOf("Chaos-p99-worst", "", ns, measureAll(cfg, ns, chaos), workloadP99Worst),
		},
		Notes: []string{
			"every-50th drops every 50th collective packet: reproducible single-loss recovery, no RNG",
			"partition 3<->7 (100-250us) and crash of node 5 (100-400us) stall barriers until the window",
			"closes; NACK retransmission then resynchronizes the run",
			"slow NIC: node 0 injects 5us later per packet, and dissemination makes every rank wait on it",
			"throttling to 25 MB/s costs little: barrier packets are tiny (Section 6.3's static packet)",
			"chaos: n/4 tenants under 3% burst loss (mean burst 3), partition 3<->7 (100-400us), node 5 +0.5us",
		},
	}
}
