package sim

import "testing"

// BenchmarkEngineSchedule measures the schedule+fire round trip of a
// single event. The steady-state invariant is 0 allocs/op (gated in
// CI): the callback is hoisted out of the loop so the engine itself is
// the only thing on trial.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, fn)
		eng.Step()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule+cancel round trip
// (the retransmission-timer pattern: armed every operation, almost
// always cancelled before firing).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eng.After(1000, fn)
		t.Cancel()
	}
}

// BenchmarkEngineDepth64 keeps 64 events pending so sift costs at a
// realistic queue depth are visible, not just the depth-1 happy path.
func BenchmarkEngineDepth64(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.After(Duration(i+1), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(65, fn)
		eng.Step()
	}
}

// depthDelays is tenant-mix's schedule-delay mix: ~90% short hops of at
// most 8 µs (wire, NIC and host steps), ~6% ~0.5 ms retransmission and
// pacing timers, and the rest in between.
func depthDelays() []Duration {
	rng := NewRNG(4096)
	d := make([]Duration, 1024)
	for i := range d {
		switch p := rng.Float64(); {
		case p < 0.90:
			d[i] = Duration(1 + rng.Intn(8000))
		case p < 0.96:
			d[i] = Duration(490_000 + rng.Intn(20_000))
		default:
			d[i] = Duration(8000 + rng.Intn(100_000))
		}
	}
	return d
}

// BenchmarkEngineDepth4k is a hold model at tenant-mix's depth: ~4k
// pending events, each fired event replaced by one drawn from the
// simulator's delay mix, so refills walk the buckets of a queue that is
// mostly far-future timers.
func BenchmarkEngineDepth4k(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	delays := depthDelays()
	for i := 0; i < 4096; i++ {
		eng.After(delays[i%len(delays)], fn)
	}
	for i := 0; i < 1<<16; i++ { // reach the steady-state delay spread
		eng.After(delays[i%len(delays)], fn)
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(delays[i%len(delays)], fn)
		eng.Step()
	}
}
