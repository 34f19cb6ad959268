package harness

import (
	"fmt"
	"math"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// measureBarrier runs the paper's loop through the communicator layer.
// It must equal the backend's own barrier session (NewGroupSession: group ID
// SessionGroupID, no install charge, the algorithm's plan) on the same
// node IDs of a bare cluster, reduced by core.MeanLatency. There is no
// warmup, so the mean runs from time 0 and an install charged on the
// timeline would show; the faulted point drops packets of group
// SessionGroupID only, so a group installed under another ID would run
// clean; sizes of 6 ranks make dissemination and pairwise exchange
// different plans.
func TestMeasureBarrierMatchesBackendSession(t *testing.T) {
	cfg := Config{Iters: 12, Seed: 1} // no warmup, identity placement
	const size, n = 8, 6
	ids := permutedIDs(cfg, size, n, 0)
	algs := []barrier.Algorithm{barrier.Dissemination, barrier.PairwiseExchange}

	type point struct {
		name string
		got  func() float64
		want func() float64
	}
	var points []point
	for _, tc := range []struct {
		tb   hwprofile.Testbed
		prof hwprofile.MyrinetProfile
	}{{hwprofile.LANaiXP, hwprofile.LANaiXPCluster()}, {hwprofile.LANai91, hwprofile.LANai91Cluster()}} {
		for _, scheme := range []myrinet.Scheme{myrinet.SchemeHost, myrinet.SchemeDirect, myrinet.SchemeCollective} {
			for _, alg := range algs {
				points = append(points, point{
					name: fmt.Sprintf("%v %v %v", tc.tb, scheme, alg),
					got: func() float64 {
						return measureBarrier(cfg, tc.tb, size, n, comm.GroupConfig{MyrinetScheme: scheme, Algorithm: alg}, nil)
					},
					want: func() float64 {
						cl := myrinet.NewCluster(sim.NewEngine(), tc.prof, size, nil)
						s, err := myrinet.NewGroupSession(cl, myrinet.SessionGroupID, ids, scheme,
							barrier.NewPlan(alg, len(ids), barrier.Options{}), core.Chained, 0, nil)
						if err != nil {
							t.Fatal(err)
						}
						return core.MeanLatency(s.Run(cfg.Iters), 0).Micros()
					},
				})
			}
		}
	}
	for _, gc := range []comm.GroupConfig{
		chainedDS,
		comm.GroupConfig{ElanScheme: elan.SchemeGsync, Algorithm: barrier.GatherBroadcast},
		comm.GroupConfig{ElanScheme: elan.SchemeHW, Algorithm: barrier.Dissemination},
	} {
		points = append(points, point{
			name: fmt.Sprintf("elan3 %v", gc.ElanScheme),
			got:  func() float64 { return measureBarrier(cfg, hwprofile.Elan3, size, n, gc, nil) },
			want: func() float64 {
				cl := elan.NewCluster(sim.NewEngine(), hwprofile.Elan3Cluster(), size)
				s := elan.NewSession(cl, ids, gc.ElanScheme, gc.Algorithm, barrier.Options{})
				return core.MeanLatency(s.Run(cfg.Iters), 0).Micros()
			},
		})
	}
	drop := fault.DropEveryNth(7)
	drop.Match.Groups = fault.Groups(myrinet.SessionGroupID)
	drop.Match.Kinds = fault.Kinds("barrier-coll")
	f := &faulted{[]fault.Rule{drop}, 5}
	points = append(points, point{
		name: "lanai-xp collective DS, every 7th packet of group 1 dropped",
		got:  func() float64 { return measureBarrier(cfg, hwprofile.LANaiXP, size, n, nicDS, f) },
		want: func() float64 {
			cl := myrinet.NewCluster(sim.NewEngine(), hwprofile.LANaiXPCluster(), size, nil)
			cl.SetFaults(fault.NewPlan(faultSeed(cfg, f.salt), f.rules...))
			s, err := myrinet.NewGroupSession(cl, myrinet.SessionGroupID, ids, myrinet.SchemeCollective,
				barrier.NewPlan(barrier.Dissemination, len(ids), barrier.Options{}), core.Chained, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			return core.MeanLatency(s.Run(cfg.Iters), 0).Micros()
		},
	})

	for _, p := range points {
		if got, want := p.got(), p.want(); got != want {
			t.Errorf("%s: comm path %v us, backend session %v us", p.name, got, want)
		}
	}
	// The faulted point must really lose packets, or it could not tell
	// group IDs apart.
	if clean, lossy := measureBarrier(cfg, hwprofile.LANaiXP, size, n, nicDS, nil), points[len(points)-1].got(); lossy <= clean {
		t.Errorf("drop rule left the faulted point clean: %v us vs %v us", lossy, clean)
	}
}

// The one Section 8.3 fit, at quick fidelity, checked against the
// paper's published numbers for Elan3 and LANai-XP.
func TestFitScalabilityAgainstPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node sweeps in -short mode")
	}
	for _, tc := range []struct {
		name      string
		tb        hwprofile.Testbed
		paper1024 float64 // the paper's model at 1024 nodes (Section 8.3)
		maxFitErr float64 // bound on the fit's relative error, n >= 8
		tol1024   float64 // bound on measured-vs-paper at 1024 nodes
	}{
		// The model's claim is a constant cost per dissemination step; the
		// measured curve departs from that line only by secondary effects
		// (each fat-tree level adds switch hops), 5.25% today. 6.5% keeps
		// that with headroom and fails a substrate change that makes the
		// per-step cost grow or shrink with N. The 1024-node barrier
		// measures 21.18us, -4.3% off the paper's extrapolation from its
		// 8-node testbed; 6% holds that and fails a drift of one trigger
		// step (2.32us) either way: 23.50us is +6.2%, 18.86us -14.8%.
		{"Elan3", hwprofile.Elan3, 22.13, 0.065, 0.06},
		// Fit error 3.85% today, bounded at 5% on the same argument. The
		// 1024-node barrier measures 42.49us, +9.1% off the paper's
		// extrapolation; 12% holds that and fails a drift of one trigger
		// step (3.50us) further from the paper (45.99us, +18.1%). A drift
		// toward the paper moves the reproduction closer, not away.
		{"LANai-XP", hwprofile.LANaiXP, 38.94, 0.05, 0.12},
	} {
		fit, err := FitScalability(Quick(), tc.tb, 1024)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e := fit.maxRelativeError(8); e > tc.maxFitErr {
			t.Errorf("%s: fit max relative error %.1f%% > %.1f%%", tc.name, e*100, tc.maxFitErr*100)
		}
		got, ok := fit.Measured.value(1024)
		if !ok {
			t.Fatalf("%s: no 1024-node point", tc.name)
		}
		if d := (got - tc.paper1024) / tc.paper1024; math.Abs(d) > tc.tol1024 {
			t.Errorf("%s: NIC-DS at 1024 nodes %.2fus, %+.1f%% off the paper's %.2fus (tolerance %.0f%%)",
				tc.name, got, d*100, tc.paper1024, tc.tol1024*100)
		}
		t.Logf("%s: fit error %.2f%%, 1024 nodes %.2fus (%+.2f%%)", tc.name,
			fit.maxRelativeError(8)*100, got, (got-tc.paper1024)/tc.paper1024*100)
	}
}
