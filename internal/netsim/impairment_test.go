package netsim

import (
	"slices"
	"testing"

	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// hookImp is a scriptable Impairment for tests.
type hookImp struct {
	inject func(Packet, sim.Time) Outcome
	hop    func(Packet, int, int, int, sim.Time) Outcome
}

func (h hookImp) Inject(pkt Packet, now sim.Time) Outcome {
	if h.inject == nil {
		return Outcome{}
	}
	return h.inject(pkt, now)
}

func (h hookImp) Hop(pkt Packet, link, hop, hops int, headAt sim.Time) Outcome {
	if h.hop == nil {
		return Outcome{}
	}
	return h.hop(pkt, link, hop, hops, headAt)
}

// dropNth drops, at injection, the packets of the given kind whose
// 0-based index among that kind's packets is listed in nth: a
// deterministic single-loss script.
func dropNth(kind string, nth ...int) hookImp {
	seen := 0
	return hookImp{inject: func(pkt Packet, _ sim.Time) Outcome {
		if pkt.Kind != kind {
			return Outcome{}
		}
		seen++
		return Outcome{Drop: slices.Contains(nth, seen-1)}
	}}
}

func TestInjectDelayPostponesWholeTransmission(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewCrossbar(4), testParams())
	net.SetImpairment(hookImp{inject: func(Packet, sim.Time) Outcome {
		return Outcome{Delay: 1000}
	}})
	var at sim.Time
	net.Attach(1, receiverFunc(func(Packet) { at = eng.Now() }))
	net.Send(Packet{Src: 0, Dst: 1, Size: 100, Kind: "data"})
	eng.Run()
	// Unimpaired arrival is 500ns (see TestSendLatencyCrossbar); the
	// injection delay shifts everything by 1000ns.
	if at != 1500 {
		t.Fatalf("arrival at %v, want 1500ns", at)
	}
}

func TestHopDelayAddsAtThatHop(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewCrossbar(4), testParams())
	net.SetImpairment(hookImp{hop: func(_ Packet, _ int, hop, _ int, _ sim.Time) Outcome {
		if hop == 1 {
			return Outcome{Delay: 700}
		}
		return Outcome{}
	}})
	var at sim.Time
	net.Attach(1, receiverFunc(func(Packet) { at = eng.Now() }))
	net.Send(Packet{Src: 0, Dst: 1, Size: 100, Kind: "data"})
	eng.Run()
	if at != 1200 {
		t.Fatalf("arrival at %v, want 500 + 700 = 1200ns", at)
	}
}

// A packet discarded mid-route must still have occupied the links before
// the faulty hop: a second worm sharing the first link queues behind the
// dead packet's serialization.
func TestHopDropKeepsUpstreamOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewCrossbar(4), testParams())
	net.SetImpairment(hookImp{hop: func(pkt Packet, _ int, hop, _ int, _ sim.Time) Outcome {
		if pkt.Kind == "doomed" && hop == 1 {
			return Outcome{Drop: true}
		}
		return Outcome{}
	}})
	var arrivals []sim.Time
	net.Attach(1, receiverFunc(func(Packet) { arrivals = append(arrivals, eng.Now()) }))
	net.Attach(2, receiverFunc(func(Packet) { arrivals = append(arrivals, eng.Now()) }))
	// 1000B doomed packet: occupies host 0's uplink for 4000ns, then dies
	// at hop 1 (host 1's downlink) without delivery.
	net.Send(Packet{Src: 0, Dst: 1, Size: 1000, Kind: "doomed"})
	// A second packet from host 0 must queue behind the corpse on the
	// shared uplink: head start 4000, +25+50+25 wire/switch, +32 body.
	net.Send(Packet{Src: 0, Dst: 2, Size: 8, Kind: "after"})
	eng.Run()
	if len(arrivals) != 1 {
		t.Fatalf("delivered %d packets, want 1 (doomed dropped)", len(arrivals))
	}
	if arrivals[0] != 4132 {
		t.Fatalf("survivor arrived at %v, want 4132ns (queued behind dropped worm)", arrivals[0])
	}
	c := net.Counters()
	if c.Dropped != 1 || c.HopDropped != 1 || c.Delivered != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestRejectSemanticsNotifyObserver(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewCrossbar(4), testParams())
	net.SetImpairment(hookImp{inject: func(pkt Packet, _ sim.Time) Outcome {
		return Outcome{Reject: pkt.Kind == "blocked"}
	}})
	net.Attach(1, receiverFunc(func(Packet) {}))
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "blocked"})
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "ok"})
	eng.Run()
	c := net.Counters()
	if c.Dropped != 1 || c.Rejected != 1 || c.Delivered != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestDelayOnlyStripsDiscards(t *testing.T) {
	inner := hookImp{
		inject: func(Packet, sim.Time) Outcome { return Outcome{Drop: true, Delay: 111} },
		hop:    func(Packet, int, int, int, sim.Time) Outcome { return Outcome{Reject: true, Delay: 222} },
	}
	d := DelayOnly{Inner: inner}
	if out := d.Inject(Packet{}, 0); out.Drop || out.Reject || out.Delay != 111 {
		t.Fatalf("Inject outcome %+v", out)
	}
	if out := d.Hop(Packet{}, 0, 0, 1, 0); out.Drop || out.Reject || out.Delay != 222 {
		t.Fatalf("Hop outcome %+v", out)
	}
}

// Multicast with a dead trunk link loses exactly the destinations behind
// it; the rest deliver.
func TestMulticastHopDropPrunesSubtree(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.MinFatTree(4, 16)
	net := New(eng, ft, testParams())
	// Kill host 5's final downlink: route hop == last for dst 5 only.
	net.SetImpairment(hookImp{hop: func(pkt Packet, _ int, hop, hops int, _ sim.Time) Outcome {
		return Outcome{}
	}})
	delivered := map[int]bool{}
	for h := 0; h < 16; h++ {
		h := h
		net.Attach(h, receiverFunc(func(Packet) { delivered[h] = true }))
	}
	// First, sanity: all 15 deliver unimpaired.
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i
	}
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	eng.Run()
	if len(delivered) != 15 {
		t.Fatalf("clean multicast reached %d, want 15", len(delivered))
	}
	// Now a fresh network whose leaf-1 subtree (hosts 4..7) is cut by
	// dropping on any link whose head crosses into it. We detect those
	// links as the ones only 4..7 routes use: drop per-destination is not
	// expressible per-link here, so cut at the last hop for those hosts.
	eng2 := sim.NewEngine()
	net2 := New(eng2, topo.MinFatTree(4, 16), testParams())
	cut := map[int]bool{}
	for _, h := range []int{4, 5, 6, 7} {
		r := net2.Topology().Route(0, h)
		cut[r[len(r)-1]] = true // the host downlink
	}
	net2.SetImpairment(hookImp{hop: func(_ Packet, link, _, _ int, _ sim.Time) Outcome {
		return Outcome{Drop: cut[link]}
	}})
	delivered2 := map[int]bool{}
	for h := 0; h < 16; h++ {
		h := h
		net2.Attach(h, receiverFunc(func(Packet) { delivered2[h] = true }))
	}
	net2.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	eng2.Run()
	if len(delivered2) != 11 {
		t.Fatalf("pruned multicast reached %d hosts, want 11", len(delivered2))
	}
	for _, h := range []int{4, 5, 6, 7} {
		if delivered2[h] {
			t.Fatalf("host %d behind the cut still reached", h)
		}
	}
	if c := net2.Counters().Dropped; c != 4 {
		t.Fatalf("dropped %d, want 4 (one per lost destination)", c)
	}
}

// Multicast per-hop consultations must see the per-destination packet
// (Dst filled in), so destination-scoped fault rules can prune exactly
// the branch serving that destination.
func TestMulticastHopSeesPerDestinationPacket(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.NewCrossbar(4), testParams())
	seenDsts := map[int]bool{}
	net.SetImpairment(hookImp{hop: func(pkt Packet, _ int, _, _ int, _ sim.Time) Outcome {
		seenDsts[pkt.Dst] = true
		return Outcome{Drop: pkt.Dst == 2} // dst-scoped prune
	}})
	delivered := map[int]bool{}
	for h := 0; h < 4; h++ {
		h := h
		net.Attach(h, receiverFunc(func(Packet) { delivered[h] = true }))
	}
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, []int{1, 2, 3})
	eng.Run()
	if seenDsts[-1] {
		t.Fatal("hop consultation saw the Dst=-1 template packet")
	}
	for _, d := range []int{1, 3} {
		if !delivered[d] {
			t.Fatalf("unscoped destination %d lost", d)
		}
	}
	if delivered[2] {
		t.Fatal("dst-scoped drop rule did not prune destination 2")
	}
	if c := net.Counters(); c.Dropped != 1 || c.HopDropped != 1 || c.Delivered != 2 {
		t.Fatalf("counters %+v", c)
	}
}
