// Package harness defines and runs the paper's experiments: one
// constructor per figure (Figs. 5-8), the Section-8 headline summary
// table, and the two ablations the paper argues from (direct-scheme
// comparison and packet-count halving), plus the reproduction's own
// scenario families, all in one registry (scenarios.go).
//
// Each data point builds a fresh simulated cluster through one
// constructor, Config.commCluster, and runs its groups on the
// communicator layer (internal/comm). A single-group barrier point goes
// through measureBarrier: node placement by permutedIDs, comm.Group.Run
// for warmup plus measured iterations, and core.MeanLatency over the
// completion times, the paper's Section 8 loop. FitScalability fits the
// Section 8.3 model once, for fig8a, fig8b, the summary and the facade.
// Only the skew figure drives a backend session itself, for its
// staggered per-rank entry (elan.Session.RunSkewed).
//
// Data points are independent simulations, so sweeps fan out over a
// bounded pool of goroutines — the one place this repository uses real
// parallelism — while staying bit-deterministic for a given seed.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Config controls the measurement loop.
type Config struct {
	// Warmup iterations are run and discarded; Iters are averaged.
	Warmup, Iters int
	// Seed drives node permutations (and nothing else; the simulators
	// are deterministic).
	Seed uint64
	// Permute randomizes node placement per point, as the paper does.
	Permute bool
	// Parallel fans data points out over a worker pool.
	Parallel bool
	// Trace, when non-nil, collects packet-lifecycle records, NIC
	// events and wire/NIC time attribution from every measured data
	// point (one scope per point). Tracing is observational only, so
	// measured latencies are bit-identical with or without it; scope
	// creation is synchronized, so parallel sweeps may share a tracer.
	Trace *obs.Tracer
}

// Quick is the configuration used by tests and the default CLI: small
// iteration counts, identical shapes.
func Quick() Config {
	return Config{Warmup: 5, Iters: 60, Seed: 1, Permute: true, Parallel: true}
}

// PaperFidelity matches the paper's loop: 100 warmup iterations and
// 10,000 measured iterations (scaled down automatically for very large
// simulated clusters).
func PaperFidelity() Config {
	return Config{Warmup: 100, Iters: 10000, Seed: 1, Permute: true, Parallel: true}
}

// ConfigFor maps a fidelity name to its measurement configuration —
// the one place the fidelity vocabulary is defined, shared by every
// CLI front end.
func ConfigFor(fidelity string) (Config, error) {
	switch fidelity {
	case "quick":
		return Quick(), nil
	case "paper":
		return PaperFidelity(), nil
	default:
		return Config{}, fmt.Errorf("harness: unknown fidelity %q (quick|paper)", fidelity)
	}
}

// itersFor caps the iteration count for big clusters so 1024-node sweeps
// stay tractable; latencies converge within a handful of iterations
// because the simulators are deterministic.
func (c Config) itersFor(n int) (warmup, iters int) {
	warmup, iters = c.Warmup, c.Iters
	if n > 64 {
		scale := n / 64
		if warmup > 20 {
			warmup = 20
		}
		iters = max(8, iters/scale)
	}
	return warmup, iters
}

// Point is one (cluster size, latency) measurement.
type Point struct {
	N         int
	LatencyUS float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
	// Unit overrides the figure's unit for this series — mixed-unit
	// figures (e.g. a throughput curve next to latency percentiles)
	// need per-series units in machine-readable reports.
	Unit string
}

// Figure is a reproduced paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Unit is the measurement unit of every point, used when the figure
	// is flattened into a machine-readable report. Empty means
	// simulated microseconds ("sim_us").
	Unit   string
	Series []Series
	Notes  []string
}

// measure produces the latency (in microseconds) for one cluster size.
type measure func(n int) float64

// forEach runs fn(i) for i in [0, n), fanning out over a GOMAXPROCS
// worker pool when cfg.Parallel is set — the one parallel-dispatch
// primitive every sweep in the package shares.
func forEach(cfg Config, n int, fn func(i int)) {
	if !cfg.Parallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// measureAll evaluates fn at every x, optionally in parallel. Results
// keep the order of xs.
func measureAll[T any](cfg Config, xs []int, fn func(x int) T) []T {
	out := make([]T, len(xs))
	forEach(cfg, len(xs), func(i int) { out[i] = fn(xs[i]) })
	return out
}

// seriesOf builds one series from per-x results: point i is val(pts[i])
// at xs[i]. unit "" inherits the figure's unit.
func seriesOf[T any](name, unit string, xs []int, pts []T, val func(T) float64) Series {
	s := Series{Name: name, Unit: unit, Points: make([]Point, len(pts))}
	for i, p := range pts {
		s.Points[i] = Point{N: xs[i], LatencyUS: val(p)}
	}
	return s
}

// sweep evaluates fn over ns, optionally in parallel. Results keep the
// order of ns.
func sweep(cfg Config, name string, ns []int, fn measure) Series {
	return seriesOf(name, "", ns, measureAll(cfg, ns, fn), func(v float64) float64 { return v })
}

// permutedIDs picks the node IDs for an n-rank group out of a
// clusterSize-node cluster, randomly permuted when cfg.Permute is set.
// The RNG is seeded per (seed, clusterSize, n, salt) so points are
// independent and reproducible.
func permutedIDs(cfg Config, clusterSize, n int, salt uint64) []int {
	if n > clusterSize {
		panic(fmt.Sprintf("harness: %d ranks on a %d-node cluster", n, clusterSize))
	}
	if !cfg.Permute {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	rng := sim.NewRNG(cfg.Seed ^ uint64(clusterSize)<<32 ^ uint64(n)<<16 ^ salt)
	return rng.Perm(clusterSize)[:n]
}

// displayUnit is the unit a rendered table prints: the figure's Unit
// (a series' own Unit where set), with simulated microseconds as "us".
func (f Figure) displayUnit(s Series) string {
	u := s.Unit
	if u == "" {
		u = f.Unit
	}
	if u == "" || u == "sim_us" {
		return "us"
	}
	return u
}

// Table renders the figure as an aligned text table, one row per cluster
// size, one column per series. The header names the unit when every
// series shares one; otherwise a unit row under the series names does.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	unit, mixed := f.displayUnit(Series{}), false
	for i, s := range f.Series {
		if i == 0 {
			unit = f.displayUnit(s)
		}
		mixed = mixed || f.displayUnit(s) != unit
	}
	if mixed {
		fmt.Fprintf(&b, "%s vs %s\n", f.YLabel, f.XLabel)
	} else {
		fmt.Fprintf(&b, "%s vs %s (%s)\n", f.YLabel, f.XLabel, unit)
	}

	fmt.Fprintf(&b, "%6s", "N")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	if mixed {
		fmt.Fprintf(&b, "%6s", "unit")
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %14s", f.displayUnit(s))
		}
		b.WriteByte('\n')
	}
	for _, n := range f.sizes() {
		fmt.Fprintf(&b, "%6d", n)
		for _, s := range f.Series {
			v, ok := s.value(n)
			if !ok {
				fmt.Fprintf(&b, " %14s", "-")
				continue
			}
			fmt.Fprintf(&b, " %14.2f", v)
		}
		b.WriteByte('\n')
	}
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// TSV renders the figure as tab-separated values for plotting tools.
func (f Figure) TSV() string {
	var b strings.Builder
	b.WriteString("N")
	for _, s := range f.Series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for _, n := range f.sizes() {
		fmt.Fprintf(&b, "%d", n)
		for _, s := range f.Series {
			b.WriteByte('\t')
			if v, ok := s.value(n); ok {
				fmt.Fprintf(&b, "%.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sizes is the sorted union of the cluster sizes the series measured:
// the rows of Table and TSV.
func (f Figure) sizes() []int {
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.N] = true
		}
	}
	ns := make([]int, 0, len(set))
	for n := range set {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	return ns
}

func (s Series) value(n int) (float64, bool) {
	for _, p := range s.Points {
		if p.N == n {
			return p.LatencyUS, true
		}
	}
	return 0, false
}

// Stats summarizes per-iteration latencies of one measured run.
type Stats struct {
	MeanUS, MinUS, MaxUS, StdUS float64
	Iterations                  int
}

// LatencyStats derives per-iteration statistics from the completion
// timestamps a session run returns, discarding warmup iterations.
func LatencyStats(doneAt []sim.Time, warmup int) Stats {
	if warmup >= len(doneAt) {
		panic(fmt.Sprintf("harness: warmup %d >= %d iterations", warmup, len(doneAt)))
	}
	var lats []float64
	prev := sim.Time(0)
	if warmup > 0 {
		prev = doneAt[warmup-1]
	}
	for _, at := range doneAt[warmup:] {
		lats = append(lats, at.Sub(prev).Micros())
		prev = at
	}
	st := Stats{Iterations: len(lats), MinUS: math.Inf(1), MaxUS: math.Inf(-1)}
	var sum float64
	for _, l := range lats {
		sum += l
		if l < st.MinUS {
			st.MinUS = l
		}
		if l > st.MaxUS {
			st.MaxUS = l
		}
	}
	st.MeanUS = sum / float64(len(lats))
	var ss float64
	for _, l := range lats {
		d := l - st.MeanUS
		ss += d * d
	}
	st.StdUS = math.Sqrt(ss / float64(len(lats)))
	return st
}
