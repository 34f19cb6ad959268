package netsim

import (
	"testing"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// BenchmarkTraceOverheadDisabled measures the unicast hot path with no
// tracer attached — the path every untraced run takes. It must match
// BenchmarkNetsimSendDeliver: the instrumentation's disabled cost is
// one nil check per site, and 0 allocs/op (gated in CI).
func BenchmarkTraceOverheadDisabled(b *testing.B) {
	eng, net := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(Packet{Src: 0, Dst: 1 + i%15, Size: 64, Kind: "data"})
		eng.Run()
	}
}

// BenchmarkTraceOverheadEnabled measures the same path with a live
// tracer: ring-buffer records per inject/hop/deliver plus wire-time
// attribution. Still 0 allocs/op after warmup (gated in CI) — the
// enabled cost is time, never allocation.
func BenchmarkTraceOverheadEnabled(b *testing.B) {
	eng, net := benchNet(b)
	tr := obs.NewTracer()
	net.SetTracer(tr.NewScope("bench"))
	// Warm the tracer's tracks and group accumulators.
	for dst := 1; dst < 16; dst++ {
		net.Send(Packet{Src: 0, Dst: dst, Size: 64, Kind: "data"})
		eng.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(Packet{Src: 0, Dst: 1 + i%15, Size: 64, Kind: "data"})
		eng.Run()
	}
}

// TestTraceEnabledZeroAlloc pins the enabled-tracer warm path at zero
// allocations per operation.
func TestTraceEnabledZeroAlloc(t *testing.T) {
	eng, net := warmNet(t)
	tr := obs.NewTracer()
	net.SetTracer(tr.NewScope("alloc"))
	for dst := 1; dst < 16; dst++ {
		net.Send(Packet{Src: 0, Dst: dst, Size: 64, Kind: "data"})
		eng.Run()
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		net.Send(Packet{Src: 0, Dst: 1 + i%15, Size: 64, Kind: "data"})
		eng.Run()
		i++
	})
	if allocs != 0 {
		t.Fatalf("traced send/deliver allocates %.1f/op, want 0", allocs)
	}
}

// TestTraceRecordsLifecycle checks the records a short run produces:
// inject, at least one hop, and delivery for a delivered packet; a
// drop record with the right reason for a lost one.
func TestTraceRecordsLifecycle(t *testing.T) {
	eng, net := warmNet(t)
	tr := obs.NewTracer()
	sc := tr.NewScope("lifecycle")
	net.SetTracer(sc)

	net.Send(Packet{Src: 0, Dst: 5, Size: 64, Kind: "data", Group: 3})
	eng.Run()

	snap := tr.Snapshot()
	if len(snap.Scopes) != 1 {
		t.Fatalf("scopes: %d", len(snap.Scopes))
	}
	var g *obs.GroupSnapshot
	for i := range snap.Scopes[0].Groups {
		if snap.Scopes[0].Groups[i].Group == 3 {
			g = &snap.Scopes[0].Groups[i]
		}
	}
	if g == nil || g.Sent != 1 || g.WireUS <= 0 {
		t.Fatalf("group 3 snapshot missing or wrong: %+v", snap.Scopes[0].Groups)
	}

	// Virtual time must be identical with tracing off.
	eng2, net2 := warmNet(t)
	net2.Send(Packet{Src: 0, Dst: 5, Size: 64, Kind: "data", Group: 3})
	eng2.Run()
	if eng.Now() != eng2.Now() {
		t.Fatalf("tracing changed virtual time: %v vs %v", eng.Now(), eng2.Now())
	}
}

// TestTraceDropReasons checks that an injection-time discard reaches
// the trace as one drop classified as injected.
func TestTraceDropReasons(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewFatTree(4, 2), testParams())
	net.SetImpairment(dropNth("data", 0))
	for h := 0; h < net.Topology().Hosts(); h++ {
		net.Attach(h, ReceiverFunc(func(Packet) {}))
	}
	tr := obs.NewTracer()
	sc := tr.NewScope("drops")
	net.SetTracer(sc)

	net.Send(Packet{Src: 0, Dst: 1, Size: 64, Kind: "data", Group: 1})
	eng.Run()
	if c := net.Counters(); c.Dropped != 1 {
		t.Fatalf("counters %+v, want one drop", c)
	}
	snap := tr.Snapshot()
	var drops obs.DropCounts
	for _, g := range snap.Scopes[0].Groups {
		drops.Injected += g.Drops.Injected
		drops.MidRoute += g.Drops.MidRoute
		drops.Rejected += g.Drops.Rejected
		drops.FailStop += g.Drops.FailStop
	}
	if drops != (obs.DropCounts{Injected: 1}) {
		t.Fatalf("drop reasons %+v, want one injected drop", drops)
	}
}
