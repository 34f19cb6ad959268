package elan

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// allocNodes and allocWarmup mirror the Myrinet allocation gates: a
// 16-node cluster, warmed until the handler and payload pools and the
// engine's slot table have grown to their steady size.
const (
	allocNodes  = 16
	allocWarmup = 20
)

func schemeSession(n int, scheme Scheme) *Session {
	cl := NewCluster(sim.NewEngine(), hwprofile.Elan3Cluster(), n)
	return NewSession(cl, identity(n), scheme, barrier.PairwiseExchange, barrier.Options{})
}

// steadyIter launches iters barriers on s and returns a function that
// drives the engine until one more iteration has completed on every
// member.
func steadyIter(tb testing.TB, s *Session, iters int) func() {
	tb.Helper()
	s.Launch(iters)
	next := 0
	done := func() bool { return s.DoneAt()[next] != 0 }
	return func() {
		if !s.cl.Eng.RunCondition(done) {
			tb.Fatalf("iteration %d never completed", next)
		}
		next++
	}
}

// Chained and gsync barriers schedule pooled handler records and carry
// pooled RDMA payloads, so once warm a whole barrier — doorbell PIO,
// descriptor RDMAs, remote events, gsync bookkeeping and completion
// events — allocates nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	const runs = 100
	for _, scheme := range []Scheme{SchemeChained, SchemeGsync} {
		step := steadyIter(t, schemeSession(allocNodes, scheme), allocWarmup+runs+2)
		for i := 0; i < allocWarmup; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Errorf("%v: %.2f allocations per barrier, want 0", scheme, allocs)
		}
	}
}

// holdOne delays the hold-th chained RDMA by far longer than a barrier
// takes, and records every distinct RDMA payload put on the wire.
type holdOne struct {
	hold, seen int
	delay      sim.Duration
	payloads   map[*rdmaMsg]bool
}

func (h *holdOne) Inject(pkt netsim.Packet, _ sim.Time) netsim.Outcome {
	h.payloads[pkt.Payload.(*rdmaMsg)] = true
	h.seen++
	if h.seen-1 == h.hold {
		return netsim.Outcome{Delay: h.delay}
	}
	return netsim.Outcome{}
}

func (h *holdOne) Hop(netsim.Packet, int, int, int, sim.Time) netsim.Outcome {
	return netsim.Outcome{}
}

// A delay fault holds one RDMA while its barrier is aborted and its
// chains disarmed. The held RDMA arrives at a disarmed chain and counts
// stale, and the card still returns its payload: once the engine drains,
// every payload ever injected is back in the pool.
func TestStaleRDMAReturnsPayload(t *testing.T) {
	const n = 4
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), n)
	imp := &holdOne{hold: 2, delay: sim.Micros(1000), payloads: map[*rdmaMsg]bool{}}
	cl.SetFaults(imp)
	s := NewSession(cl, identity(n), SchemeChained, barrier.Dissemination, barrier.Options{})
	s.Launch(1)
	eng.RunUntil(sim.Time(0).Add(sim.Micros(100)))
	if s.Done() {
		t.Fatal("barrier completed while one of its RDMAs was held")
	}
	s.Abort()
	s.Close()
	eng.Run()
	if got := cl.Stats().StaleRDMAs; got != 1 {
		t.Fatalf("StaleRDMAs %d, want 1 (the held RDMA)", got)
	}
	if free, sent := cl.pool.payloads.Len(), len(imp.payloads); free != sent {
		t.Fatalf("%d of %d RDMA payloads returned to the pool", free, sent)
	}
}

// BenchmarkElanChainedBarrier is one steady-state 16-node chained-RDMA
// barrier per op; CI's bench-smoke gates it at 0 allocs/op.
func BenchmarkElanChainedBarrier(b *testing.B) {
	benchSteady(b, schemeSession(allocNodes, SchemeChained))
}

// BenchmarkElanGsyncBarrier is one steady-state 16-node elan_gsync
// barrier per op, gated like BenchmarkElanChainedBarrier.
func BenchmarkElanGsyncBarrier(b *testing.B) {
	benchSteady(b, schemeSession(allocNodes, SchemeGsync))
}

func benchSteady(b *testing.B, s *Session) {
	step := steadyIter(b, s, allocWarmup+b.N)
	for i := 0; i < allocWarmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
