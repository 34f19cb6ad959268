package nicbarrier

// One benchmark per paper artifact (see DESIGN.md's per-experiment
// index): running `go test -bench=.` regenerates every figure and table
// of the evaluation under a reduced measurement loop and reports the
// headline simulated latencies as custom metrics (sim_us). ns/op measures
// how fast the simulator itself reproduces each artifact.
//
// These numbers are transient; the durable, gateable form of the same
// measurements is `benchgate run` (internal/benchreg), which snapshots
// every registered scenario into BENCH_<rev>.json and compares it
// against the committed bench/baseline.json in CI.

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/harness"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

func benchCfg() harness.Config {
	return harness.Config{Warmup: 3, Iters: 30, Seed: 1, Permute: true, Parallel: true}
}

// --- F5: Fig. 5, Myrinet LANai 9.1 / 16-node 700 MHz cluster ---

func BenchmarkFig5(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "fig5").Figure(benchCfg())
	}
	reportPoint(b, fig, "NIC-DS", 16, "nic_ds_16_sim_us")
	reportPoint(b, fig, "Host-DS", 16, "host_ds_16_sim_us")
}

// --- F6: Fig. 6, Myrinet LANai-XP / 8-node 2.4 GHz cluster ---

func BenchmarkFig6(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "fig6").Figure(benchCfg())
	}
	reportPoint(b, fig, "NIC-DS", 8, "nic_ds_8_sim_us")
	reportPoint(b, fig, "Host-DS", 8, "host_ds_8_sim_us")
}

// --- F7: Fig. 7, Quadrics Elan3 / 8-node cluster ---

func BenchmarkFig7(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "fig7").Figure(benchCfg())
	}
	reportPoint(b, fig, "NIC-Barrier-DS", 8, "nic_ds_8_sim_us")
	reportPoint(b, fig, "Elan-Barrier", 8, "gsync_8_sim_us")
	reportPoint(b, fig, "Elan-HW-Barrier", 8, "hw_8_sim_us")
}

// --- F8a: Fig. 8(a), Quadrics scalability model to 1024 nodes ---

func BenchmarkFig8a(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "fig8a").Figure(benchCfg())
	}
	reportPoint(b, fig, "Measured", 1024, "measured_1024_sim_us")
	reportPoint(b, fig, "Paper-Model", 1024, "paper_1024_us")
}

// --- F8b: Fig. 8(b), Myrinet scalability model to 1024 nodes ---

func BenchmarkFig8b(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "fig8b").Figure(benchCfg())
	}
	reportPoint(b, fig, "Measured", 1024, "measured_1024_sim_us")
	reportPoint(b, fig, "Paper-Model", 1024, "paper_1024_us")
}

// --- T1: the Section 8 headline summary table ---

func BenchmarkSummary(b *testing.B) {
	var table harness.Table
	for i := 0; i < b.N; i++ {
		table = scenario(b, "summary").Table(benchCfg())
	}
	for _, row := range table.Rows {
		if row.Metric == "Quadrics NIC-based barrier, 8 nodes" {
			b.ReportMetric(row.Measured, "quadrics_8_sim_us")
		}
		if row.Metric == "Myrinet LANai-XP NIC-based barrier, 8 nodes" {
			b.ReportMetric(row.Measured, "xp_8_sim_us")
		}
	}
}

// --- A1: ablation, collective protocol vs direct scheme vs host ---

func BenchmarkAblation(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "ablation").Figure(benchCfg())
	}
	reportPoint(b, fig, "XP-Collective", 8, "xp_coll_8_sim_us")
	reportPoint(b, fig, "XP-Direct", 8, "xp_direct_8_sim_us")
	reportPoint(b, fig, "XP-Host", 8, "xp_host_8_sim_us")
}

// --- A2: ablation, packet halving via receiver-driven retransmission ---

func BenchmarkPackets(b *testing.B) {
	var fig harness.Figure
	for i := 0; i < b.N; i++ {
		fig = scenario(b, "packets").Figure(benchCfg())
	}
	reportPoint(b, fig, "Collective", 16, "coll_pkts_per_barrier")
	reportPoint(b, fig, "Direct(ACKed)", 16, "direct_pkts_per_barrier")
}

// scenario looks a paper figure or table up in the registry, the path
// every front end takes to it.
func scenario(b *testing.B, id string) harness.Scenario {
	s, ok := harness.ScenarioByID(id)
	if !ok {
		b.Fatalf("scenario %q not registered", id)
	}
	return s
}

func reportPoint(b *testing.B, fig harness.Figure, series string, n int, metric string) {
	b.Helper()
	v, ok := fig.Point(series, n)
	if !ok {
		b.Fatalf("series %q point n=%d not found in %s", series, n, fig.ID)
	}
	b.ReportMetric(v, metric)
}

// --- headline single-point benchmarks (fast, per-barrier granularity) ---

func benchBarrier(b *testing.B, cfg Config) {
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = MeasureBarrier(cfg, 3, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanMicros, "sim_us/barrier")
}

func BenchmarkBarrierXP8Collective(b *testing.B) {
	benchBarrier(b, Config{Interconnect: MyrinetLANaiXP, Nodes: 8,
		Scheme: NICCollective, Algorithm: Dissemination})
}

func BenchmarkBarrierXP8Direct(b *testing.B) {
	benchBarrier(b, Config{Interconnect: MyrinetLANaiXP, Nodes: 8,
		Scheme: NICDirect, Algorithm: Dissemination})
}

func BenchmarkBarrierXP8Host(b *testing.B) {
	benchBarrier(b, Config{Interconnect: MyrinetLANaiXP, Nodes: 8,
		Scheme: HostBased, Algorithm: Dissemination})
}

func BenchmarkBarrierLANai91x16Collective(b *testing.B) {
	benchBarrier(b, Config{Interconnect: MyrinetLANai91, Nodes: 16,
		Scheme: NICCollective, Algorithm: Dissemination})
}

func BenchmarkBarrierQuadrics8Chained(b *testing.B) {
	benchBarrier(b, Config{Interconnect: QuadricsElan3, Nodes: 8,
		Scheme: NICCollective, Algorithm: Dissemination})
}

func BenchmarkBarrierQuadrics8HW(b *testing.B) {
	benchBarrier(b, Config{Interconnect: QuadricsElan3, Nodes: 8,
		Scheme: HardwareBroadcast, Algorithm: Dissemination})
}

func BenchmarkBarrierQuadrics1024Chained(b *testing.B) {
	benchBarrier(b, Config{Interconnect: QuadricsElan3, Nodes: 1024,
		Scheme: NICCollective, Algorithm: Dissemination})
}

func BenchmarkBroadcastXP16(b *testing.B) {
	var res Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = MeasureBroadcast(Config{Interconnect: MyrinetLANaiXP, Nodes: 16}, 0, 4, 3, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanMicros, "sim_us/broadcast")
}

// --- simulator micro-benchmarks (engine and protocol hot paths) ---

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

func BenchmarkOpStateBarrierRound(b *testing.B) {
	// One full 8-rank dissemination round through the pure state
	// machines, the per-message hot path of the collective protocol.
	states := make([]*core.OpState, 8)
	for r := range states {
		states[r] = core.NewOpState(barrier.NewPlan(barrier.Dissemination, 8, barrier.Options{}).Rank(r))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		type msg struct{ from, to int }
		var q []msg
		for r, st := range states {
			sends, _, err := st.Start(i)
			if err != nil {
				b.Fatal(err)
			}
			for _, to := range sends {
				q = append(q, msg{r, to})
			}
		}
		for len(q) > 0 {
			m := q[0]
			q = q[1:]
			sends, _, err := states[m.to].Arrive(i, m.from)
			if err != nil {
				b.Fatal(err)
			}
			for _, to := range sends {
				q = append(q, msg{m.to, to})
			}
		}
	}
}

func BenchmarkFatTreeRoute1024(b *testing.B) {
	ft := topo.MinFatTree(4, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ft.Route(i%1024, (i*37+11)%1024)
	}
}
