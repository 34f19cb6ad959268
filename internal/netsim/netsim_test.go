package netsim

import (
	"testing"
	"testing/quick"

	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// receiverFunc adapts a plain function to Receiver.
type receiverFunc func(Packet)

func (f receiverFunc) Receive(pkt Packet) { f(pkt) }

func testParams() Params {
	return Params{
		WirePerHop:    sim.Nanos(25),
		SwitchLatency: sim.Nanos(50),
		BandwidthMBps: 250, // 1 byte = 4ns
	}
}

func TestSendLatencyCrossbar(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 4), testParams())
	var at sim.Time
	net.Attach(1, receiverFunc(func(Packet) { at = eng.Now() }))
	net.Send(Packet{Src: 0, Dst: 1, Size: 100, Kind: "data"})
	eng.Run()
	// Route has 2 links: head = 25 + 50 (switch) + 25 = 100ns;
	// body = 100B * 4ns = 400ns; arrival = 500ns.
	if at != 500 {
		t.Fatalf("arrival at %v, want 500ns", at)
	}
}

func TestSendLatencyScalesWithHops(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.MinFatTree(4, 16)
	net := New(eng, ft, testParams())
	var near, far sim.Time
	net.Attach(1, receiverFunc(func(Packet) { near = eng.Now() }))
	net.Attach(15, receiverFunc(func(Packet) { far = eng.Now() }))
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "x"})
	eng.Run()
	base := eng.Now()
	eng.Schedule(base, func() {
		net.Send(Packet{Src: 0, Dst: 15, Size: 8, Kind: "x"})
	})
	eng.Run()
	nearLat := sim.Duration(near)
	farLat := far.Sub(base)
	// 1-switch route: 2*25 + 1*50 + 32 = 132; 3-switch: 4*25 + 3*50 + 32 = 282.
	if nearLat != 132 {
		t.Fatalf("near latency %v, want 132ns", nearLat)
	}
	if farLat != 282 {
		t.Fatalf("far latency %v, want 282ns", farLat)
	}
}

func TestOutputPortContention(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 4), testParams())
	var arrivals []sim.Time
	net.Attach(3, receiverFunc(func(Packet) { arrivals = append(arrivals, eng.Now()) }))
	// Two senders target host 3 at the same instant; the second worm must
	// queue behind the first on host 3's down-link.
	net.Send(Packet{Src: 0, Dst: 3, Size: 100, Kind: "a"})
	net.Send(Packet{Src: 1, Dst: 3, Size: 100, Kind: "b"})
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(arrivals))
	}
	if arrivals[0] != 500 {
		t.Fatalf("first arrival %v, want 500", arrivals[0])
	}
	// Second head reaches the shared link at 75ns but the link is busy
	// until 75+400; head then pays 25ns wire, body 400ns.
	if arrivals[1] <= arrivals[0] {
		t.Fatalf("no serialization at contended port: %v", arrivals)
	}
	if got := arrivals[1] - arrivals[0]; sim.Duration(got) != 400 {
		t.Fatalf("contention spacing = %v, want one serialization (400ns)", got)
	}
}

func TestDistinctDestinationsDoNotContend(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 4), testParams())
	var a2, a3 sim.Time
	net.Attach(2, receiverFunc(func(Packet) { a2 = eng.Now() }))
	net.Attach(3, receiverFunc(func(Packet) { a3 = eng.Now() }))
	net.Send(Packet{Src: 0, Dst: 2, Size: 100, Kind: "a"})
	net.Send(Packet{Src: 1, Dst: 3, Size: 100, Kind: "b"})
	eng.Run()
	if a2 != 500 || a3 != 500 {
		t.Fatalf("independent flows interfered: %v %v", a2, a3)
	}
}

func TestCountersAndKinds(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 4), testParams())
	net.Attach(1, receiverFunc(func(Packet) {}))
	net.Attach(2, receiverFunc(func(Packet) {}))
	net.Send(Packet{Src: 0, Dst: 1, Size: 10, Kind: "data"})
	net.Send(Packet{Src: 0, Dst: 2, Size: 20, Kind: "ack"})
	net.Send(Packet{Src: 0, Dst: 1, Size: 30, Kind: "data"})
	eng.Run()
	c := net.Counters()
	if c.Sent != 3 || c.Delivered != 3 || c.Dropped != 0 {
		t.Fatalf("counters %+v", c)
	}
	if c.Bytes != 60 {
		t.Fatalf("bytes = %d", c.Bytes)
	}
	if c.ByKind["data"] != 2 || c.ByKind["ack"] != 1 {
		t.Fatalf("by kind: %v", c.ByKind)
	}
}

func TestScriptedLoss(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 4), testParams())
	net.SetImpairment(dropNth("data", 1))
	var got []string
	net.Attach(1, receiverFunc(func(p Packet) { got = append(got, p.Kind) }))
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "data"}) // idx 0: kept
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "ack"})  // not matching
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "data"}) // idx 1: dropped
	net.Send(Packet{Src: 0, Dst: 1, Size: 8, Kind: "data"}) // idx 2: kept
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("delivered %d packets: %v", len(got), got)
	}
	c := net.Counters()
	if c.Dropped != 1 || c.Delivered != 3 || c.Sent != 4 || c.HopDropped != 0 {
		t.Fatalf("counters %+v", c)
	}
}

func TestMulticastSharedTrunk(t *testing.T) {
	eng := sim.NewEngine()
	ft := topo.MinFatTree(4, 16)
	net := New(eng, ft, testParams())
	arrivals := map[int]sim.Time{}
	for h := 0; h < 16; h++ {
		h := h
		net.Attach(h, receiverFunc(func(Packet) { arrivals[h] = eng.Now() }))
	}
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i
	}
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	eng.Run()
	if len(arrivals) != 15 {
		t.Fatalf("multicast reached %d hosts, want 15 (src skipped)", len(arrivals))
	}
	if _, self := arrivals[0]; self {
		t.Fatal("multicast delivered to source")
	}
	// Same-leaf hosts (1..3) arrive before far hosts (4..15).
	for far := 4; far < 16; far++ {
		if arrivals[far] <= arrivals[1] {
			t.Fatalf("far host %d (%v) not after near host (%v)", far, arrivals[far], arrivals[1])
		}
	}
	// A single multicast counts once at injection, 15 deliveries.
	c := net.Counters()
	if c.Sent != 1 || c.Delivered != 15 {
		t.Fatalf("counters %+v", c)
	}
}

// Shared-trunk deduplication must hold on the cached-route path: a
// second multicast (every route now memoized, scratch arrays reused)
// must replicate with exactly the same relative timing and accounting
// as the first.
func TestMulticastSharedTrunkCachedRoutes(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 16), testParams())
	arrivals := map[int]sim.Time{}
	for h := 0; h < 16; h++ {
		h := h
		net.Attach(h, receiverFunc(func(Packet) { arrivals[h] = eng.Now() }))
	}
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i
	}
	relative := func(start sim.Time) map[int]sim.Duration {
		rel := make(map[int]sim.Duration, len(arrivals))
		for h, at := range arrivals {
			rel[h] = at.Sub(start)
		}
		return rel
	}

	net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	eng.Run()
	first := relative(0)

	// Re-issue far enough in the future that every link has gone idle;
	// only the cached routes and reused scratch differ from run one.
	start := eng.Now().Add(sim.Micros(100))
	eng.Schedule(start, func() {
		net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	})
	eng.Run()
	second := relative(start)

	if len(first) != 15 || len(second) != 15 {
		t.Fatalf("reached %d then %d hosts, want 15 both times", len(first), len(second))
	}
	for h, d := range first {
		if second[h] != d {
			t.Fatalf("host %d: cached-route multicast latency %v, first run %v", h, second[h], d)
		}
	}
	c := net.Counters()
	if c.Sent != 2 || c.Delivered != 30 || c.Dropped != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// Dead-link pruning must hold on the cached-route path: after a clean
// multicast has memoized every route, cutting a shared descend link
// loses exactly the destinations behind it, one drop each.
func TestMulticastDeadLinkPrunesCachedRoutes(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(4, 16), testParams())
	delivered := map[int]bool{}
	for h := 0; h < 16; h++ {
		h := h
		net.Attach(h, receiverFunc(func(Packet) { delivered[h] = true }))
	}
	dsts := make([]int, 16)
	for i := range dsts {
		dsts[i] = i
	}
	// Warm every cache with an unimpaired replication.
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	eng.Run()
	if len(delivered) != 15 {
		t.Fatalf("clean multicast reached %d hosts, want 15", len(delivered))
	}
	base := net.Counters()

	// The top-switch -> leaf-1 descend link serves hosts 4..7 from
	// src 0; killing it must prune exactly that subtree.
	trunk := net.Topology().Route(0, 4)[2]
	net.SetImpairment(dropLink{link: trunk})
	delivered = map[int]bool{}
	net.Multicast(Packet{Src: 0, Dst: -1, Size: 8, Kind: "bcast"}, dsts)
	eng.Run()

	if len(delivered) != 11 {
		t.Fatalf("pruned multicast reached %d hosts, want 11", len(delivered))
	}
	for _, h := range []int{4, 5, 6, 7} {
		if delivered[h] {
			t.Fatalf("host %d behind the dead link was delivered", h)
		}
	}
	c := net.Counters()
	if got := c.Dropped - base.Dropped; got != 4 {
		t.Fatalf("dropped %d, want 4 (one per destination behind the dead link)", got)
	}
	if got := c.HopDropped - base.HopDropped; got != 4 {
		t.Fatalf("hop-dropped %d, want 4", got)
	}
}

// dropLink discards any packet whose head reaches the given link.
type dropLink struct{ link int }

func (d dropLink) Inject(Packet, sim.Time) Outcome { return Outcome{} }

func (d dropLink) Hop(_ Packet, link, _, _ int, _ sim.Time) Outcome {
	return Outcome{Drop: link == d.link}
}

func TestAttachGuards(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(2, 2), testParams())
	net.Attach(0, receiverFunc(func(Packet) {}))
	for name, fn := range map[string]func(){
		"double attach":  func() { net.Attach(0, receiverFunc(func(Packet) {})) },
		"range":          func() { net.Attach(5, receiverFunc(func(Packet) {})) },
		"nil receiver":   func() { net.Attach(1, nil) },
		"loopback":       func() { net.Send(Packet{Src: 1, Dst: 1, Size: 1}) },
		"zero bandwidth": func() { New(eng, topo.MinFatTree(2, 2), Params{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUnattachedDeliveryPanics(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, topo.MinFatTree(2, 2), testParams())
	net.Send(Packet{Src: 0, Dst: 1, Size: 1, Kind: "x"})
	defer func() {
		if recover() == nil {
			t.Error("delivery to unattached host did not panic")
		}
	}()
	eng.Run()
}

// Property: latency is deterministic, positive and monotone in size for
// any (src, dst, size) on an uncontended network.
func TestLatencyMonotoneProperty(t *testing.T) {
	f := func(srcRaw, dstRaw uint8, sizeRaw uint16) bool {
		src := int(srcRaw) % 16
		dst := int(dstRaw) % 16
		if src == dst {
			return true
		}
		size := int(sizeRaw)%4096 + 1
		lat := func(sz int) sim.Duration {
			eng := sim.NewEngine()
			net := New(eng, topo.MinFatTree(4, 16), testParams())
			var at sim.Time
			net.Attach(dst, receiverFunc(func(Packet) { at = eng.Now() }))
			net.Send(Packet{Src: src, Dst: dst, Size: sz, Kind: "p"})
			eng.Run()
			return sim.Duration(at)
		}
		l1, l2, l1Again := lat(size), lat(size+100), lat(size)
		return l1 > 0 && l2 > l1 && l1 == l1Again
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
