package harness

import (
	"testing"

	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
)

func faultCfg() Config {
	return Config{Warmup: 2, Iters: 15, Seed: 1, Permute: true, Parallel: true}
}

func TestFaultLossSweepShape(t *testing.T) {
	fig := faultLossSweep(faultCfg())
	if len(fig.Series) != 3 {
		t.Fatalf("%d series", len(fig.Series))
	}
	var myri, quad Series
	for _, s := range fig.Series {
		switch s.Name {
		case "Myrinet-DS":
			myri = s
		case "Quadrics-DS":
			quad = s
		}
	}
	// Myrinet latency must climb with loss (NACK-timeout recovery); the
	// clean point sits far below the 20% point.
	clean, _ := myri.value(0)
	lossy, _ := myri.value(20)
	if lossy < 2*clean {
		t.Fatalf("Myrinet latency flat under loss: %v vs %v", clean, lossy)
	}
	// Quadrics is hardware-reliable: the loss-only plan leaves every
	// point identical.
	q0, _ := quad.value(0)
	for _, p := range quad.Points {
		if p.LatencyUS != q0 {
			t.Fatalf("Quadrics curve not flat under loss-only plan: %v", quad.Points)
		}
	}
}

func TestFaultJitterSweepReachesBothInterconnects(t *testing.T) {
	fig := faultJitterSweep(faultCfg())
	for _, s := range fig.Series {
		clean, ok0 := s.value(0)
		jittery, ok1 := s.value(20)
		if !ok0 || !ok1 {
			t.Fatalf("series %s missing endpoints", s.Name)
		}
		if jittery <= clean {
			t.Fatalf("series %s flat under jitter: %v vs %v", s.Name, clean, jittery)
		}
	}
}

func TestFaultedMeasurementsAreDeterministic(t *testing.T) {
	cfg := faultCfg()
	rules := []fault.Rule{fault.BurstLoss(0.05, 4)}
	xp := hwprofile.LANaiXPCluster()
	measure := func(salt uint64) float64 {
		return measureBarrier(cfg, &xp, 8, 8, nicDS, &faulted{rules, salt})
	}
	a := measure(1)
	b := measure(1)
	if a != b {
		t.Fatalf("faulted measurement not reproducible: %v vs %v", a, b)
	}
	c := measure(2)
	if a == c {
		t.Fatalf("different fault salt produced identical latency %v (suspicious)", a)
	}
}
