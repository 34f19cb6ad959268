package benchreg

import (
	"fmt"
	"runtime"
	"time"

	"nicbarrier/internal/harness"
	"nicbarrier/internal/sim"
)

// Collect runs each scenario `repeats` times under cfg and aggregates
// every flattened data point into a Report: per-metric median and
// spread across repeats, plus per-scenario simulator-speed metrics —
// "<id>/wall_ns" (total wall clock), "<id>/ns_per_event" and
// "<id>/allocs_per_event" (wall clock and heap allocations divided by
// the number of simulation events the scenario fired, measured as the
// delta of sim.TotalExecuted and runtime.MemStats.Mallocs across the
// run). The per-event pair is how the zero-allocation hot path shows
// up in reports: a change that reintroduces per-packet allocation moves
// allocs_per_event visibly even when wall_ns noise hides it.
//
// Simulated metrics are deterministic per seed, so their spread is zero
// and the median is exact; repeats exist to give wall-clock and
// allocator metrics a noise estimate and to keep the pipeline honest if
// a future scenario introduces nondeterminism.
func Collect(cfg harness.Config, fidelity string, repeats int, scens []harness.Scenario) (*Report, error) {
	if repeats < 1 {
		return nil, fmt.Errorf("benchreg: repeats %d < 1", repeats)
	}
	if len(scens) == 0 {
		return nil, fmt.Errorf("benchreg: no scenarios to collect")
	}
	r := &Report{
		Schema: schema,
		GitRev: gitRev(),
		Seed:   cfg.Seed,
		Config: RunConfig{
			Fidelity: fidelity,
			Warmup:   cfg.Warmup,
			Iters:    cfg.Iters,
			Repeats:  repeats,
		},
	}
	for _, s := range scens {
		r.Config.Scenarios = append(r.Config.Scenarios, s.ID)
		samples := make(map[string][]float64) // metric name -> one value per repeat
		units := make(map[string]string)
		var wall, nsPerEvent, allocsPerEvent []float64
		var order []string // first repeat's metric order, kept for output stability
		for rep := 0; rep < repeats; rep++ {
			var memBefore, memAfter runtime.MemStats
			runtime.ReadMemStats(&memBefore)
			eventsBefore := sim.TotalExecuted()
			start := time.Now()
			pts := s.Points(cfg)
			elapsed := float64(time.Since(start).Nanoseconds())
			events := sim.TotalExecuted() - eventsBefore
			runtime.ReadMemStats(&memAfter)
			wall = append(wall, elapsed)
			if events > 0 {
				nsPerEvent = append(nsPerEvent, elapsed/float64(events))
				allocsPerEvent = append(allocsPerEvent,
					float64(memAfter.Mallocs-memBefore.Mallocs)/float64(events))
			}
			if len(pts) == 0 {
				return nil, fmt.Errorf("benchreg: scenario %q produced no points", s.ID)
			}
			for _, p := range pts {
				if rep == 0 {
					if _, dup := units[p.Name]; dup {
						return nil, fmt.Errorf("benchreg: scenario %q emits duplicate metric %q", s.ID, p.Name)
					}
					order = append(order, p.Name)
					units[p.Name] = p.Unit
				} else if _, known := units[p.Name]; !known {
					return nil, fmt.Errorf("benchreg: scenario %q metric set unstable across repeats (new %q)", s.ID, p.Name)
				}
				samples[p.Name] = append(samples[p.Name], p.Value)
			}
		}
		for _, name := range order {
			vals := samples[name]
			if len(vals) != repeats {
				return nil, fmt.Errorf("benchreg: scenario %q metric %q seen in %d/%d repeats", s.ID, name, len(vals), repeats)
			}
			r.Metrics = append(r.Metrics, Metric{
				Name:   name,
				Unit:   units[name],
				Value:  median(vals),
				Spread: spread(vals),
			})
		}
		r.Metrics = append(r.Metrics, Metric{
			Name:   s.ID + "/wall_ns",
			Unit:   "ns/op",
			Value:  median(wall),
			Spread: spread(wall),
		})
		// Scenarios that never touch the event engine (pure analytic
		// models) have no per-event cost to report.
		if len(nsPerEvent) == repeats {
			r.Metrics = append(r.Metrics,
				Metric{
					Name:   s.ID + "/ns_per_event",
					Unit:   "ns/ev",
					Value:  median(nsPerEvent),
					Spread: spread(nsPerEvent),
				},
				Metric{
					Name:   s.ID + "/allocs_per_event",
					Unit:   "allocs/ev",
					Value:  median(allocsPerEvent),
					Spread: spread(allocsPerEvent),
				})
		}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

func spread(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo
}
