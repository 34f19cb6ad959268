package netsim

import (
	"testing"

	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// warmNet returns a network whose steady state is fully warmed: every
// host attached, every route out of host 0 memoized, the packet-event
// pool primed, and the packet kinds interned.
func warmNet(t testing.TB) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 16), testParams())
	sink := func(Packet) {}
	for h := 0; h < 16; h++ {
		net.Attach(h, receiverFunc(sink))
	}
	for dst := 1; dst < 16; dst++ {
		net.Send(Packet{Src: 0, Dst: dst, Size: 64, Kind: "data"})
		eng.Run()
	}
	return eng, net
}

// The wire simulator's unicast hot path — inject, route, schedule,
// deliver — must not allocate in steady state; paper-fidelity sweeps
// push hundreds of millions of packets through it.
func TestSendDeliverZeroAlloc(t *testing.T) {
	eng, net := warmNet(t)
	allocs := testing.AllocsPerRun(500, func() {
		net.Send(Packet{Src: 0, Dst: 5, Size: 64, Kind: "data"})
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("send+deliver allocates %.1f objects per packet, want 0", allocs)
	}
}

// Multicast replication reuses epoch-stamped scratch instead of
// per-call maps; only the engine may allocate transiently while its
// queue first grows, so the multicast path must be allocation-free
// once warm.
func TestMulticastZeroAlloc(t *testing.T) {
	eng, net := warmNet(t)
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i
	}
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 64, Kind: "bcast"}, dsts)
	eng.Run()
	allocs := testing.AllocsPerRun(500, func() {
		net.Multicast(Packet{Src: 0, Dst: -1, Size: 64, Kind: "bcast"}, dsts)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("multicast allocates %.1f objects per call, want 0", allocs)
	}
}

// A lossy workload arms and cancels retransmission-style timers through
// the pooled event path; dropping at injection must not leak pool
// entries or allocate either.
func TestSendDropZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 4), testParams())
	seen := 0
	net.SetImpairment(hookImp{inject: func(Packet, sim.Time) Outcome {
		seen++
		return Outcome{Drop: seen%2 == 0} // every other packet
	}})
	net.Attach(1, receiverFunc(func(Packet) {}))
	for i := 0; i < 32; i++ {
		net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "data"})
		eng.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "data"})
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("send under injection drops allocates %.1f objects per packet, want 0", allocs)
	}
	if c := net.Counters(); c.Dropped == 0 || c.Delivered == 0 {
		t.Fatalf("counters %+v, want both drops and deliveries", c)
	}
}
