package harness

import "testing"

// The crash curves must sit strictly above the clean curves — the
// survival bill is real — but stay bounded: one detection is roughly
// one deadline, so the gap must not balloon past a few deadlines.
func TestCrashRecoveryShape(t *testing.T) {
	fig := crashRecovery(faultCfg())
	if len(fig.Series) != 4 {
		t.Fatalf("%d series", len(fig.Series))
	}
	bySeries := map[string]Series{}
	for _, s := range fig.Series {
		bySeries[s.Name] = s
	}
	for _, net := range []string{"Myrinet", "Quadrics"} {
		clean, crash := bySeries[net+"-clean"], bySeries[net+"-crash"]
		for i, p := range clean.Points {
			c := crash.Points[i]
			if c.N != p.N {
				t.Fatalf("%s: misaligned points %d vs %d", net, c.N, p.N)
			}
			gap := c.LatencyUS - p.LatencyUS
			if gap <= 0 {
				t.Errorf("%s n=%d: crash stream (%v us) not slower than clean (%v us)",
					net, p.N, c.LatencyUS, p.LatencyUS)
			}
			if gap > 5000 {
				t.Errorf("%s n=%d: recovery gap %v us not bounded by a few deadlines", net, p.N, gap)
			}
		}
	}
}

// On Quadrics nothing accelerates detection (no NACK traffic to stall),
// so the makespan must grow strictly with the deadline.
func TestRecoveryDeadlineSweepMonotoneOnQuadrics(t *testing.T) {
	fig := recoveryDeadlineSweep(faultCfg())
	for _, s := range fig.Series {
		if s.Name != "Quadrics" {
			continue
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].LatencyUS <= s.Points[i-1].LatencyUS {
				t.Fatalf("Quadrics makespan not increasing with deadline: %v", s.Points)
			}
		}
	}
}

func TestRecoveryMeasurementsDeterministic(t *testing.T) {
	cfg := faultCfg()
	a := measureRecoveryMakespan(cfg, false, 8, 1000, true, 7)
	b := measureRecoveryMakespan(cfg, false, 8, 1000, true, 7)
	if a != b {
		t.Fatalf("recovery point not reproducible: %v vs %v", a, b)
	}
}
