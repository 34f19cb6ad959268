package myrinet

import (
	"testing"

	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

func TestBroadcastSessionCompletes(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 16} {
		eng, cl := xpCluster(n, nil)
		s := newBroadcast(cl, identity(n), 0, 4)
		doneAt := s.Run(4)
		for i := 1; i < len(doneAt); i++ {
			if doneAt[i] < doneAt[i-1] {
				t.Fatalf("n=%d: time went backwards", n)
			}
		}
		_ = eng
	}
}

func TestBroadcastMessageCount(t *testing.T) {
	eng, cl := xpCluster(8, nil)
	s := newBroadcast(cl, identity(8), 0, 2)
	const iters = 3
	s.Run(iters)
	eng.Run()
	c := cl.Net.Counters()
	// Binary tree over 8 ranks: 7 notifications per broadcast, no ACKs.
	if got := c.ByKind["barrier-coll"]; got != 7*iters {
		t.Fatalf("broadcast packets %d, want %d", got, 7*iters)
	}
	if c.ByKind["ack"] != 0 {
		t.Fatalf("broadcast produced ACKs")
	}
}

func TestBroadcastLatencyScalesWithDepth(t *testing.T) {
	measure := func(n, degree int) sim.Duration {
		eng := sim.NewEngine()
		cl := NewCluster(eng, hwprofile.LANaiXPCluster(), n, nil)
		s := newBroadcast(cl, identity(n), 0, degree)
		return s.MeanLatency(3, 20)
	}
	// Classic fan-out trade-off: a binary tree pays depth (more
	// store-and-forward hops), an 8-ary tree pays root serialization
	// (the NIC fires its sends one after another); a middle degree
	// beats both at 16 ranks.
	deep := measure(16, 2) // depth 4
	mid := measure(16, 4)  // depth 2, moderate fan-out
	wide := measure(16, 8) // depth 2, heavy fan-out
	if mid >= deep || mid >= wide {
		t.Fatalf("4-ary broadcast (%v) should beat binary (%v) and 8-ary (%v)", mid, deep, wide)
	}
	// Wider cluster at fixed degree grows latency.
	small := measure(4, 2)
	big := measure(16, 2)
	if big <= small {
		t.Fatalf("16-rank broadcast (%v) not slower than 4-rank (%v)", big, small)
	}
}

func TestBroadcastNonZeroRootAndPermutation(t *testing.T) {
	eng, cl := xpCluster(8, nil)
	perm := []int{3, 1, 4, 0, 6, 2, 7, 5}
	s := newBroadcast(cl, perm, 5, 4)
	s.Run(3)
	_ = eng
}

// Loss of a forwarded notification is recovered by the receiver-driven
// NACK path, exactly as for barriers.
func TestBroadcastLossRecovery(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 8, dropNth("barrier-coll", 1))
	s := newBroadcast(cl, identity(8), 0, 2)
	s.Run(2)
	if cl.Stats().NacksSent == 0 || cl.Stats().CollResent == 0 {
		t.Fatalf("broadcast loss not recovered via NACK: %+v", cl.Stats())
	}
}
