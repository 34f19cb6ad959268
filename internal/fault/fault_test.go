package fault

import (
	"strings"
	"testing"

	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

func gpkt(src, dst, group int) netsim.Packet {
	return netsim.Packet{Src: src, Dst: dst, Size: 64, Kind: "barrier-coll", Group: group}
}

func pkt(src, dst int, kind string) netsim.Packet {
	return netsim.Packet{Src: src, Dst: dst, Size: 20, Kind: kind}
}

func TestMatchScoping(t *testing.T) {
	cases := []struct {
		name string
		m    Match
		pkt  netsim.Packet
		want bool
	}{
		{"zero matches all", Match{}, pkt(0, 1, "data"), true},
		{"kind hit", Match{Kinds: Kinds("ack")}, pkt(0, 1, "ack"), true},
		{"kind miss", Match{Kinds: Kinds("ack")}, pkt(0, 1, "data"), false},
		{"src hit", from(3), pkt(3, 9, "x"), true},
		{"src miss", from(3), pkt(4, 9, "x"), false},
		{"dst only", Match{Dst: Nodes(9)}, pkt(4, 9, "x"), true},
		{"link forward", link(3, 7), pkt(3, 7, "x"), true},
		{"link reverse", link(3, 7), pkt(7, 3, "x"), true},
		{"link miss", link(3, 7), pkt(3, 8, "x"), false},
		{"node sends", node(5), pkt(5, 1, "x"), true},
		{"node receives", node(5), pkt(1, 5, "x"), true},
		{"node uninvolved", node(5), pkt(1, 2, "x"), false},
		{"group hit", Match{Groups: Groups(2)}, gpkt(0, 1, 2), true},
		{"group miss", Match{Groups: Groups(2)}, gpkt(0, 1, 3), false},
		{"group and src", Match{Groups: Groups(2), Src: Nodes(0)}, gpkt(4, 1, 2), false},
	}
	for _, c := range cases {
		if got := c.m.Matches(c.pkt); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWindowActivation(t *testing.T) {
	w := Between(1, 2) // [1000ns, 2000ns)
	for at, want := range map[sim.Time]bool{
		0: false, 999: false, 1000: true, 1999: true, 2000: false, 5000: false,
	} {
		if got := w.Contains(at); got != want {
			t.Errorf("Contains(%v) = %v, want %v", at, got, want)
		}
	}
	// Zero window is always active; open-ended window never deactivates.
	if !(Window{}).Contains(12345) {
		t.Error("zero window inactive")
	}
	open := Between(1, 0)
	if !open.Contains(sim.Time(sim.Micros(1e9))) {
		t.Error("open-ended window deactivated")
	}
	if open.Contains(0) {
		t.Error("open-ended window active before From")
	}
}

func TestEveryNthCounting(t *testing.T) {
	e := &EveryNth{N: 3}
	rng := sim.NewRNG(1)
	var drops []int
	for i := 1; i <= 9; i++ {
		if e.Apply(pkt(0, 1, "x"), 0, rng).Drop {
			drops = append(drops, i)
		}
	}
	if len(drops) != 3 || drops[0] != 3 || drops[1] != 6 || drops[2] != 9 {
		t.Fatalf("EveryNth(3) dropped %v, want [3 6 9]", drops)
	}
	// Offset shifts the phase; N <= 0 never drops.
	off := &EveryNth{N: 3, Offset: 1}
	drops = nil
	for i := 1; i <= 6; i++ {
		if off.Apply(pkt(0, 1, "x"), 0, rng).Drop {
			drops = append(drops, i)
		}
	}
	if len(drops) != 2 || drops[0] != 2 || drops[1] != 5 {
		t.Fatalf("EveryNth(3,+1) dropped %v, want [2 5]", drops)
	}
	none := &EveryNth{}
	for i := 0; i < 10; i++ {
		if none.Apply(pkt(0, 1, "x"), 0, rng).Drop {
			t.Fatal("EveryNth(0) dropped")
		}
	}
}

// Every-Nth counts per src->dst flow: interleaving a second flow must not
// disturb the first flow's phase, and a retried packet on a flow always
// lands on a different phase than the drop that killed its predecessor.
func TestEveryNthCountsPerFlow(t *testing.T) {
	e := &EveryNth{N: 2}
	rng := sim.NewRNG(1)
	type probe struct {
		src, dst int
		want     bool
	}
	seq := []probe{
		{0, 1, false}, // flow 0->1 #1
		{2, 3, false}, // flow 2->3 #1
		{0, 1, true},  // flow 0->1 #2: dropped
		{0, 1, false}, // flow 0->1 #3: the "retry" gets through
		{2, 3, true},  // flow 2->3 #2: dropped
		{1, 0, false}, // reverse direction is its own flow
	}
	for i, p := range seq {
		if got := e.Apply(pkt(p.src, p.dst, "x"), 0, rng).Drop; got != p.want {
			t.Fatalf("step %d (%d->%d): drop = %v, want %v", i, p.src, p.dst, got, p.want)
		}
	}
}

// Flows are keyed by group as well: when two tenants share a node pair,
// one tenant's traffic must not advance (and thereby skew) the other
// tenant's every-Nth phase.
func TestEveryNthCountsPerGroupFlow(t *testing.T) {
	e := &EveryNth{N: 2}
	rng := sim.NewRNG(1)
	type probe struct {
		group int
		want  bool
	}
	// Same (src, dst) pair throughout; groups interleave.
	seq := []probe{
		{1, false}, // group 1 flow #1
		{2, false}, // group 2 flow #1: NOT the pair's 2nd packet
		{1, true},  // group 1 flow #2: dropped
		{2, true},  // group 2 flow #2: dropped on its own count
		{1, false}, // group 1 flow #3
		{0, false}, // ungrouped traffic is its own flow
		{0, true},  // ungrouped flow #2: dropped
	}
	for i, p := range seq {
		if got := e.Apply(gpkt(0, 1, p.group), 0, rng).Drop; got != p.want {
			t.Fatalf("step %d (group %d): drop = %v, want %v", i, p.group, got, p.want)
		}
	}
}

// With unit transition probabilities the Gilbert–Elliott channel is fully
// deterministic whatever the RNG: transition happens before the drop
// decision, so the first packet lands in the bad state and the channel
// alternates from there.
func TestGilbertElliottDeterministicAlternation(t *testing.T) {
	ge := &gilbertElliott{PGoodToBad: 1, PBadToGood: 1, DropBad: 1}
	rng := sim.NewRNG(42)
	for i := 0; i < 10; i++ {
		got := ge.Apply(pkt(0, 1, "x"), 0, rng).Drop
		want := i%2 == 0
		if got != want {
			t.Fatalf("packet %d: drop = %v, want %v", i, got, want)
		}
	}
}

func TestGilbertElliottBurstStatistics(t *testing.T) {
	const lossRate, meanBurst = 0.1, 4.0
	ge := burst(lossRate, meanBurst)
	rng := sim.NewRNG(7)
	const total = 200000
	drops, bursts, run := 0, 0, 0
	for i := 0; i < total; i++ {
		if ge.Apply(pkt(0, 1, "x"), 0, rng).Drop {
			drops++
			run++
		} else if run > 0 {
			bursts++
			run = 0
		}
	}
	frac := float64(drops) / total
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("loss fraction %v, want ~%v", frac, lossRate)
	}
	meanLen := float64(drops) / float64(bursts)
	if meanLen < 3.2 || meanLen > 4.8 {
		t.Fatalf("mean burst length %v, want ~%v", meanLen, meanBurst)
	}
	// Same seed, same sequence: the channel is reproducible.
	a, b := burst(lossRate, meanBurst), burst(lossRate, meanBurst)
	ra, rb := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 1000; i++ {
		if a.Apply(pkt(0, 1, "x"), 0, ra).Drop != b.Apply(pkt(0, 1, "x"), 0, rb).Drop {
			t.Fatal("seeded GE channels diverged")
		}
	}
}

func TestDelayAndThrottle(t *testing.T) {
	rng := sim.NewRNG(1)
	d := Delay{Fixed: sim.Micros(2)}
	if got := d.Apply(pkt(0, 1, "x"), 0, rng).Delay; got != sim.Micros(2) {
		t.Fatalf("fixed delay %v", got)
	}
	j := Delay{Jitter: sim.Micros(3)}
	for i := 0; i < 100; i++ {
		got := j.Apply(pkt(0, 1, "x"), 0, rng).Delay
		if got < 0 || got >= sim.Micros(3) {
			t.Fatalf("jitter %v outside [0, 3us)", got)
		}
	}
	// 20-byte packet: 20B at 10 MB/s = 2000ns, minus 20B at 250 MB/s = 80ns.
	th := Throttle{BandwidthMBps: 10, LineRateMBps: 250}
	if got := th.Apply(pkt(0, 1, "x"), 0, rng).Delay; got != 1920 {
		t.Fatalf("throttle delay %v, want 1920ns", got)
	}
	// A limit above the line rate costs nothing.
	free := Throttle{BandwidthMBps: 500, LineRateMBps: 250}
	if got := free.Apply(pkt(0, 1, "x"), 0, rng).Delay; got != 0 {
		t.Fatalf("over-line throttle delay %v, want 0", got)
	}
}

// discard is a host receiver that drops every packet it is handed.
type discard struct{}

func (discard) Receive(netsim.Packet) {}

// A kind-scoped random-loss plan on a live network drops its kinds at
// the configured rate and leaves every other kind alone.
func TestRandomLossRate(t *testing.T) {
	eng := sim.NewEngine()
	net := netsim.New(eng, topo.NewCrossbar(4), netsim.Params{BandwidthMBps: 250})
	net.SetImpairment(NewPlan(1, Rule{Match: Match{Kinds: Kinds("data")}, Effect: RandomLoss{Rate: 0.3}}))
	net.Attach(1, discard{})
	const total = 20000
	for i := 0; i < total; i++ {
		net.Send(netsim.Packet{Src: 0, Dst: 1, Size: 1, Kind: "data"})
		eng.Run() // drain so link occupancy does not grow unboundedly
	}
	frac := float64(net.Counters().Dropped) / total
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("drop fraction %v, want ~0.3", frac)
	}
	before := net.Counters().Dropped
	for i := 0; i < 1000; i++ {
		net.Send(netsim.Packet{Src: 0, Dst: 1, Size: 1, Kind: "ctl"})
	}
	eng.Run()
	if net.Counters().Dropped != before {
		t.Fatal("out-of-scope packets were dropped")
	}
}

// A non-positive loss rate never drops and never draws from the RNG.
func TestRandomLossZeroRateNeedsNoRNG(t *testing.T) {
	for _, rate := range []float64{0, -0.5} {
		if (RandomLoss{Rate: rate}).Apply(pkt(0, 1, "data"), 0, nil).Drop { // nil RNG: must not be touched
			t.Fatalf("rate %v dropped", rate)
		}
	}
}

func TestPlanComposesAndAccounts(t *testing.T) {
	p := NewPlan(1,
		Rule{Name: "d1", Effect: Delay{Fixed: 100}},
		Rule{Name: "d2", Effect: Delay{Fixed: 200}, Match: Match{Kinds: Kinds("data")}},
		Rule{Name: "blk", Effect: block{Reject: true}, Match: from(9)},
	)
	out := p.Inject(pkt(0, 1, "data"), 0)
	if out.Delay != 300 || out.Drop || out.Reject {
		t.Fatalf("merged outcome %+v, want 300ns delay only", out)
	}
	out = p.Inject(pkt(9, 1, "ack"), 0)
	if !out.Reject || out.Delay != 100 {
		t.Fatalf("outcome %+v, want reject with 100ns delay", out)
	}
	st := p.Stats()
	if st[0].Matched != 2 || st[1].Matched != 1 || st[2].Matched != 1 {
		t.Fatalf("matched counts %+v", st)
	}
	if st[2].Rejected != 1 || st[0].TotalDelay != 200 {
		t.Fatalf("stats %+v", st)
	}
	if !strings.Contains(p.String(), "blk") {
		t.Fatalf("stats table missing rule name:\n%s", p)
	}
}

// One Rule value must be reusable across plans: Add clones the effect, so
// stateful effects (counters, channel state) stay independent.
func TestPlanClonesEffects(t *testing.T) {
	r := DropEveryNth(2)
	p1 := NewPlan(1, r)
	p2 := NewPlan(1, r)
	// Advance p1 by one packet; p2's counter must not move.
	if p1.Inject(pkt(0, 1, "x"), 0).Drop {
		t.Fatal("first packet dropped")
	}
	if !p1.Inject(pkt(0, 1, "x"), 0).Drop {
		t.Fatal("second packet kept")
	}
	if p2.Inject(pkt(0, 1, "x"), 0).Drop {
		t.Fatal("p2 shares p1's counter state")
	}
	// The original rule's effect is untouched too.
	if len(r.Effect.(*EveryNth).seen) != 0 {
		t.Fatal("Add mutated the source rule's effect")
	}
}

func TestPlanStageAndWindowGating(t *testing.T) {
	p := NewPlan(1,
		Rule{Name: "part", Match: link(0, 1), Window: Between(1, 2), Where: PerHop, Effect: block{}},
	)
	// Inject-stage consultation never sees a PerHop rule.
	if out := p.Inject(pkt(0, 1, "x"), 1500); out.Drop {
		t.Fatal("per-hop rule applied at inject")
	}
	// Hop consultation honors the window against the head time.
	if out := p.Hop(pkt(0, 1, "x"), 0, 0, 2, 500); out.Drop {
		t.Fatal("dropped before window")
	}
	if out := p.Hop(pkt(0, 1, "x"), 0, 0, 2, 1500); !out.Drop {
		t.Fatal("not dropped inside window")
	}
	if out := p.Hop(pkt(0, 1, "x"), 0, 0, 2, 2500); out.Drop {
		t.Fatal("dropped after window")
	}
}

func TestBurstConstructorValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { burst(0, 4) },
		func() { burst(1, 4) },
		func() { burst(0.1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Burst parameters did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestDescribe(t *testing.T) {
	s := Describe([]Rule{Loss(0.1), Partition(3, 7, Between(50, 200))})
	if !strings.Contains(s, "loss-0.1") || !strings.Contains(s, "partition-3<->7") {
		t.Fatalf("Describe = %q", s)
	}
}
