package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"nicbarrier/internal/sim"
)

// repOut is what one repetition of a workload reports. Host-side fields
// (setup, wall, events, mallocs, liveBytes) vary run to run; simulated
// fields (lat, simSpan, simOps, digest) must repeat exactly for a seed.
type repOut struct {
	setup, wall time.Duration
	// events and mallocs are the sim.TotalExecuted and heap-allocation
	// deltas across the measured run.
	events, mallocs uint64
	// liveBytes is the GC-settled heap the simulation keeps alive; 0 lets
	// the runner measure it while kept is still reachable.
	liveBytes uint64
	endpoints int

	ops, failed int
	errs        []error

	lat     []float64 // per-op simulated latency, eligibility to completion, us
	simSpan float64   // simulated seconds over which simOps completed
	simOps  int
	digest  uint64 // FNV-1a over every simulated output of the rep

	kept any // holds the simulation reachable until liveBytes is read
}

func newRepOut() *repOut { return &repOut{digest: fnvOffset} }

const fnvOffset = 14695981039346656037

// fail records a failed check and the number of ops it invalidates.
func (o *repOut) fail(err error, ops int) {
	o.errs = append(o.errs, err)
	o.failed += ops
}

func (o *repOut) keep(v any) { o.kept = v }

func (o *repOut) hash(ts []sim.Time) {
	h := fnv.New64a()
	var b [8]byte
	for _, t := range ts {
		binary.LittleEndian.PutUint64(b[:], uint64(t))
		h.Write(b[:])
	}
	o.mix(h.Sum64())
}

func (o *repOut) hashFloats(vs ...float64) {
	for _, v := range vs {
		o.mix(math.Float64bits(v))
	}
}

func (o *repOut) mix(v uint64) {
	o.digest ^= v
	o.digest *= 1099511628211
}

// measure times fn as the rep's simulated run and records the
// process-wide event and allocation deltas across it.
func (o *repOut) measure(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	e0 := sim.TotalExecuted()
	o.wall = timeIt(fn)
	o.events = sim.TotalExecuted() - e0
	runtime.ReadMemStats(&m1)
	o.mallocs = m1.Mallocs - m0.Mallocs
}

func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// runRep runs one repetition from a collected heap and, unless the
// workload measured it itself, reads the GC-settled heap the simulation
// keeps alive.
func runRep(w workload, p params, tr *tracing) *repOut {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc
	out := w.rep(p, tr)
	if out.liveBytes == 0 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > base {
			out.liveBytes = m.HeapAlloc - base
		}
	}
	out.kept = nil
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank q-quantile of sorted values.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
