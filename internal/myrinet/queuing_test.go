package myrinet

import (
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

// floodTraffic keeps every node sending background p2p data to its next
// neighbor for the duration of the run: each completed send immediately
// posts another (driven off the send-done event).
func floodTraffic(cl *Cluster, msgSize int, onEvent func(node int, ev Event)) {
	n := len(cl.Nodes)
	for i, node := range cl.Nodes {
		i, node := i, node
		dst := (i + 1) % n
		node.Host.postRecvTokens(64)
		prev := node.Host.OnEvent
		node.Host.OnEvent = func(ev Event) {
			if ev.Kind == EvSendDone {
				node.Host.send(dst, msgSize, "bg", true)
			}
			if ev.Kind == EvRecv {
				if _, isBG := ev.Tag.(string); isBG {
					node.Host.postRecvTokens(1)
					return
				}
			}
			if prev != nil {
				prev(ev)
			}
			if onEvent != nil {
				onEvent(i, ev)
			}
		}
		// Prime the pump with a few outstanding sends.
		for k := 0; k < 3; k++ {
			node.Host.send(dst, msgSize, "bg", true)
		}
	}
}

// barrierUnderLoad measures barrier latency with the p2p send queues kept
// busy by background traffic.
func barrierUnderLoad(t *testing.T, scheme Scheme, load bool) sim.Duration {
	t.Helper()
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 8, nil)
	s := newSession(cl, identity(8), scheme, barrier.Dissemination, barrier.Options{})
	if load {
		// Installing flood traffic wraps the session's event hooks.
		floodTraffic(cl, 1024, nil)
	}
	return core.MeanLatency(s.Run(5+40), 5)
}

// The paper's queuing argument (Sections 3 and 6.1): with a dedicated
// per-group queue, barrier messages "do not have to go through the queues
// for multiple destinations". Under heavy background point-to-point
// traffic, the direct scheme's barrier messages wait behind data tokens
// in the per-destination queues and behind data packets in the send
// packet pool; the collective protocol's do not.
func TestDedicatedQueueSkipsBackgroundTraffic(t *testing.T) {
	collIdle := barrierUnderLoad(t, SchemeCollective, false)
	collLoad := barrierUnderLoad(t, SchemeCollective, true)
	directIdle := barrierUnderLoad(t, SchemeDirect, false)
	directLoad := barrierUnderLoad(t, SchemeDirect, true)

	collSlowdown := float64(collLoad) / float64(collIdle)
	directSlowdown := float64(directLoad) / float64(directIdle)
	t.Logf("collective: %v -> %v (%.2fx); direct: %v -> %v (%.2fx)",
		collIdle, collLoad, collSlowdown, directIdle, directLoad, directSlowdown)

	if directSlowdown < collSlowdown*3 {
		t.Errorf("direct slowdown %.2fx not clearly above collective %.2fx — "+
			"the dedicated group queue shows no benefit", directSlowdown, collSlowdown)
	}
	// The collective barrier still shares the NIC processor, the PCI bus
	// and the wire with the background load — a moderate slowdown is
	// physical — but it must never queue behind data tokens or stall on
	// the packet pool the way the direct scheme does (which lands around
	// an order of magnitude worse).
	if collSlowdown > 6 {
		t.Errorf("collective slowdown %.2fx too large; group queue not isolating", collSlowdown)
	}
}

// Barriers and background traffic must coexist without protocol errors,
// drops from sequence confusion, or deadlock, for all schemes.
func TestBarrierCoexistsWithTraffic(t *testing.T) {
	for _, scheme := range barrierSchemes() {
		eng := sim.NewEngine()
		cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 6, nil)
		s := newSession(cl, identity(6), scheme, barrier.Dissemination, barrier.Options{})
		floodTraffic(cl, 256, nil)
		s.Run(10) // panics on deadlock or protocol error
		if drops := cl.Stats().SeqDrops; drops != 0 {
			t.Errorf("%v: %d sequence drops under load", scheme, drops)
		}
	}
}
