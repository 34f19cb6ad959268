package netsim

import (
	"testing"

	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// benchNet builds a warmed-up 16-host fat-tree network: every host is
// attached and every route out of host 0 has been walked once, so the
// measured loop exercises the steady state (cached routes, pooled
// events, interned kinds) and nothing else.
func benchNet(b *testing.B) (*sim.Engine, *Network) {
	b.Helper()
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

// BenchmarkNetsimSendDeliver measures the unicast hot path end to end:
// inject, walk the route, schedule, fire the delivery event. The
// steady-state invariant is 0 allocs/op (gated in CI).
func BenchmarkNetsimSendDeliver(b *testing.B) {
	eng, net := benchNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(Packet{Src: 0, Dst: 1 + i%15, Size: 64, Kind: "data"})
		eng.Run()
	}
}

// BenchmarkNetsimMulticast measures the hardware-replication path with
// its shared-trunk deduplication across all 16 hosts.
func BenchmarkNetsimMulticast(b *testing.B) {
	eng, net := benchNet(b)
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i
	}
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 64, Kind: "bcast"}, dsts)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Multicast(Packet{Src: 0, Dst: -1, Size: 64, Kind: "bcast"}, dsts)
		eng.Run()
	}
}
