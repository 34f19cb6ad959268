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
		eng.step()
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
		eng.step()
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
		eng.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(delays[i%len(delays)], fn)
		eng.step()
	}
}

// BenchmarkEngineSameInstant32k is core.Session.Launch's burst at the
// hier-64k scale (32,768 ranks per shard): one op schedules 32,768
// entries for a single instant and fires them, in seq order. The queue
// takes the instant out of its buckets as one sorted front run.
func BenchmarkEngineSameInstant32k(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	burst := func() {
		at := eng.Now().Add(1)
		for j := 0; j < 1<<15; j++ {
			eng.Schedule(at, fn)
		}
		eng.Run()
	}
	burst() // grow the slot arrays and the front to the burst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}

// BenchmarkEngineWindowed is the shard worker's window pattern
// (internal/shard/runner.go): each window schedules two short events,
// runs to the window's end with RunUntil(end-1) and asks NextAt for the
// next event, while a far-future timer stays pending. Neither call may
// take the timer's instant out of the queue, or every event of the
// next window would land before the front.
func BenchmarkEngineWindowed(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	eng.Schedule(1<<50, fn)
	const window = 1000
	end := eng.Now()
	step := func() {
		end += window
		eng.After(window/4, fn)
		eng.After(window/2, fn)
		eng.RunUntil(end - 1)
		eng.NextAt()
	}
	step() // grow the slot arrays and the front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkChunkedFreeListGetPut measures a warm Get/Put pair on the
// chunked free list the NIC models take their handler records from. The
// steady state is 0 allocs/op (gated in CI); Get inlines into its
// callers (go build -gcflags=-m ./internal/myrinet).
func BenchmarkChunkedFreeListGetPut(b *testing.B) {
	var f ChunkedFreeList[poolRec]
	f.Put(f.Get())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := f.Get()
		x.a = i
		f.Put(x)
	}
}
