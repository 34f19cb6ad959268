package myrinet

import (
	"reflect"
	"slices"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

func xpCluster(n int, imp netsim.Impairment) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine()
	return eng, NewCluster(eng, hwprofile.LANaiXPCluster(), n, imp)
}

// lossScript is the recovery tests' deterministic impairment: at
// injection it drops the packets of kind (every kind when empty) whose
// 0-based index among them is in nth. Setting seen back to 0 replays
// the script, so each run of a repeated session sees the same losses.
type lossScript struct {
	kind string
	nth  []int
	seen int
}

// dropNth scripts the loss of the listed packets of kind.
func dropNth(kind string, nth ...int) *lossScript {
	return &lossScript{kind: kind, nth: nth}
}

func (l *lossScript) Inject(pkt netsim.Packet, _ sim.Time) netsim.Outcome {
	if l.kind != "" && pkt.Kind != l.kind {
		return netsim.Outcome{}
	}
	l.seen++
	return netsim.Outcome{Drop: slices.Contains(l.nth, l.seen-1)}
}

func (*lossScript) Hop(netsim.Packet, int, int, int, sim.Time) netsim.Outcome {
	return netsim.Outcome{}
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// newSession installs a barrier session running alg on group
// SessionGroupID over nodeIDs (rank order). It panics on installation
// failure.
func newSession(cl *Cluster, nodeIDs []int, scheme Scheme, alg barrier.Algorithm, opts barrier.Options) *Session {
	s, err := NewGroupSession(cl, SessionGroupID, nodeIDs, scheme,
		barrier.NewPlan(alg, len(nodeIDs), opts), core.Chained, 0, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// newBroadcast installs a broadcast session from root down a degree-ary
// tree on group SessionGroupID, panicking on installation failure.
func newBroadcast(cl *Cluster, nodeIDs []int, root, degree int) *Session {
	s, err := NewGroupSession(cl, SessionGroupID, nodeIDs, SchemeCollective,
		barrier.NewBroadcastPlan(len(nodeIDs), root, degree), core.Gated, 0, nil)
	if err != nil {
		panic(err)
	}
	return s
}

// newAllreduce installs an allreduce session on group SessionGroupID:
// op folded over alg's plan, rank contributions from contrib.
func newAllreduce(cl *Cluster, nodeIDs []int, alg barrier.Algorithm, op core.ReduceOp,
	contrib func(rank, iter int) int64) (*Session, error) {
	return NewGroupSession(cl, SessionGroupID, nodeIDs, SchemeCollective,
		barrier.NewPlan(alg, len(nodeIDs), barrier.Options{}), core.Results, op, contrib)
}

func meanLatency(t *testing.T, prof hwprofile.MyrinetProfile, n int, scheme Scheme, alg barrier.Algorithm, iters int) sim.Duration {
	t.Helper()
	eng := sim.NewEngine()
	cl := NewCluster(eng, prof, n, nil)
	s := newSession(cl, identity(n), scheme, alg, barrier.Options{})
	return core.MeanLatency(s.Run(5+iters), 5)
}

func TestPointToPointDelivery(t *testing.T) {
	eng, cl := xpCluster(4, nil)
	var got []Event
	cl.Nodes[1].Host.OnEvent = func(ev Event) { got = append(got, ev) }
	cl.Nodes[1].Host.PostRecvTokens(2)
	cl.Nodes[0].Host.Send(1, 64, "hello", true)
	cl.Nodes[0].Host.Send(1, 128, "world", true)
	eng.Run()
	var recvs []Event
	for _, ev := range got {
		if ev.Kind == EvRecv {
			recvs = append(recvs, ev)
		}
	}
	if len(recvs) != 2 {
		t.Fatalf("delivered %d messages, want 2 (events: %+v)", len(recvs), got)
	}
	if recvs[0].Tag != "hello" || recvs[1].Tag != "world" {
		t.Fatalf("out of order or corrupted: %+v", recvs)
	}
	if recvs[0].FromNode != 0 {
		t.Fatalf("wrong sender %d", recvs[0].FromNode)
	}
	// Sender should have gotten ACKs and freed its packets.
	s := cl.Nodes[0].NIC.GMStats()
	if s.DataSent != 2 || s.AcksRecv != 2 || s.Retransmits != 0 {
		t.Fatalf("sender stats %+v", s)
	}
	if cl.Nodes[0].NIC.freePackets != cl.Prof.NIC.SendPacketPool {
		t.Fatalf("packet pool leaked: %d free", cl.Nodes[0].NIC.freePackets)
	}
}

func TestPointToPointNoTokenDrops(t *testing.T) {
	eng, cl := xpCluster(2, nil)
	var recvs int
	cl.Nodes[1].Host.OnEvent = func(ev Event) {
		if ev.Kind == EvRecv {
			recvs++
		}
	}
	// No tokens posted: the packet is dropped; after the sender's timeout
	// and a token post, the retransmission lands.
	cl.Nodes[0].Host.Send(1, 64, "x", true)
	eng.RunUntil(eng.Now().Add(sim.Micros(100)))
	if recvs != 0 {
		t.Fatal("message delivered without a receive token")
	}
	if cl.Nodes[1].NIC.GMStats().TokenDrops == 0 {
		t.Fatal("no token drop recorded")
	}
	cl.Nodes[1].Host.PostRecvTokens(1)
	eng.RunUntil(eng.Now().Add(sim.Micros(3000)))
	if recvs != 1 {
		t.Fatalf("retransmission did not deliver (recvs=%d)", recvs)
	}
	if cl.Nodes[0].NIC.GMStats().Retransmits == 0 {
		t.Fatal("no retransmission recorded")
	}
}

func TestPointToPointLossRecovery(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 2, dropNth("data", 0))
	var recvs int
	cl.Nodes[1].Host.OnEvent = func(ev Event) {
		if ev.Kind == EvRecv {
			recvs++
		}
	}
	cl.Nodes[1].Host.PostRecvTokens(1)
	cl.Nodes[0].Host.Send(1, 64, "x", true)
	eng.Run()
	if recvs != 1 {
		t.Fatalf("lost packet never recovered (recvs=%d)", recvs)
	}
	if cl.Nodes[0].NIC.GMStats().Retransmits == 0 {
		t.Fatal("recovery without retransmission?")
	}
}

func TestRoundRobinAcrossDestinations(t *testing.T) {
	eng, cl := xpCluster(4, nil)
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		cl.Nodes[i].Host.OnEvent = func(ev Event) {
			if ev.Kind == EvRecv {
				order = append(order, i)
			}
		}
		cl.Nodes[i].Host.PostRecvTokens(4)
	}
	// Queue 2 sends to node 1, then one each to 2 and 3, all back to back.
	// Round-robin must interleave: 1, 2, 3, 1 — not 1, 1, 2, 3.
	cl.Nodes[0].Host.Send(1, 64, "a", true)
	cl.Nodes[0].Host.Send(1, 64, "b", true)
	cl.Nodes[0].Host.Send(2, 64, "c", true)
	cl.Nodes[0].Host.Send(3, 64, "d", true)
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("delivered %d, want 4", len(order))
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 1 {
		t.Fatalf("dispatch order %v, want [1 2 3 1] (round-robin)", order)
	}
}

func TestPacketPoolStalls(t *testing.T) {
	eng := sim.NewEngine()
	prof := hwprofile.LANaiXPCluster()
	prof.NIC.SendPacketPool = 1
	cl := NewCluster(eng, prof, 2, nil)
	var recvs int
	cl.Nodes[1].Host.OnEvent = func(ev Event) {
		if ev.Kind == EvRecv {
			recvs++
		}
	}
	cl.Nodes[1].Host.PostRecvTokens(8)
	for i := 0; i < 8; i++ {
		cl.Nodes[0].Host.Send(1, 64, i, true)
	}
	eng.Run()
	if recvs != 8 {
		t.Fatalf("delivered %d with pool=1, want 8", recvs)
	}
}

func barrierSchemes() []Scheme {
	return []Scheme{SchemeHost, SchemeDirect, SchemeCollective}
}

func barrierAlgs() []barrier.Algorithm {
	return []barrier.Algorithm{barrier.Dissemination, barrier.PairwiseExchange, barrier.GatherBroadcast}
}

// Every scheme and algorithm must complete consecutive barriers for a
// range of group sizes including non-powers of two.
func TestBarrierCompletionMatrix(t *testing.T) {
	for _, scheme := range barrierSchemes() {
		for _, alg := range barrierAlgs() {
			for _, n := range []int{1, 2, 3, 5, 8, 11, 16} {
				eng, cl := xpCluster(n, nil)
				s := newSession(cl, identity(n), scheme, alg, barrier.Options{})
				doneAt := s.Run(5)
				for i, at := range doneAt {
					if i == 0 {
						continue
					}
					// A single-rank host barrier is free and may complete
					// repeatedly at the same instant.
					if n == 1 && scheme == SchemeHost {
						if at < doneAt[i-1] {
							t.Fatalf("%v/%v n=1: time went backwards", scheme, alg)
						}
						continue
					}
					if at <= doneAt[i-1] {
						t.Fatalf("%v/%v n=%d: iteration %d at %v not after %v",
							scheme, alg, n, i, at, doneAt[i-1])
					}
				}
				if eng.Pending() > 0 {
					// Only cancellable timers (retransmit/NACK) may remain.
					eng.Run()
				}
				stats := cl.Stats()
				if stats.Retransmits != 0 || stats.NacksSent != 0 {
					t.Fatalf("%v/%v n=%d: spurious recovery traffic %+v", scheme, alg, n, stats)
				}
			}
		}
	}
}

// The collective scheme must survive loss of any single barrier message
// via receiver-driven NACK retransmission.
func TestCollectiveBarrierLossRecovery(t *testing.T) {
	for drop := 0; drop < 12; drop++ {
		eng := sim.NewEngine()
		cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 4, dropNth("barrier-coll", drop))
		s := newSession(cl, identity(4), SchemeCollective, barrier.Dissemination, barrier.Options{})
		s.Run(3) // panics on deadlock
		stats := cl.Stats()
		if stats.NacksSent == 0 || stats.CollResent == 0 {
			t.Fatalf("drop %d recovered without NACK path: %+v", drop, stats)
		}
	}
}

// The direct scheme recovers through the p2p sender timeout instead.
func TestDirectBarrierLossRecovery(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 4, dropNth("barrier-direct", 2))
	s := newSession(cl, identity(4), SchemeDirect, barrier.Dissemination, barrier.Options{})
	s.Run(3)
	if cl.Stats().Retransmits == 0 {
		t.Fatal("direct barrier recovered without retransmission")
	}
}

// Host barriers ride the regular reliable p2p path.
func TestHostBarrierLossRecovery(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 4, dropNth("data", 1, 5))
	s := newSession(cl, identity(4), SchemeHost, barrier.Dissemination, barrier.Options{})
	s.Run(3)
	if cl.Stats().Retransmits == 0 {
		t.Fatal("host barrier recovered without retransmission")
	}
}

// Random loss at a high rate: everything still completes, for all schemes.
func TestBarrierRandomLossTorture(t *testing.T) {
	for _, scheme := range barrierSchemes() {
		eng := sim.NewEngine()
		cl := NewCluster(eng, hwprofile.LANaiXPCluster(), 5, fault.NewPlan(99, fault.Loss(0.15)))
		s := newSession(cl, identity(5), scheme, barrier.Dissemination, barrier.Options{})
		s.Run(4)
	}
}

// The headline packet-halving claim (Section 6.3): per barrier message the
// p2p path sends a data packet and an ACK; the collective path sends one
// static packet and nothing else.
func TestCollectiveHalvesPackets(t *testing.T) {
	counters := func(scheme Scheme) (barrierPkts, ackPkts uint64) {
		eng, cl := xpCluster(8, nil)
		s := newSession(cl, identity(8), scheme, barrier.Dissemination, barrier.Options{})
		s.Run(1)
		eng.Run() // drain trailing ACKs/events
		c := cl.Net.Counters()
		return c.ByKind["barrier-coll"] + c.ByKind["barrier-direct"], c.ByKind["ack"]
	}
	collMsgs, collAcks := counters(SchemeCollective)
	directMsgs, directAcks := counters(SchemeDirect)
	// 8-node dissemination: 3 steps * 8 ranks = 24 notifications.
	if collMsgs != 24 || directMsgs != 24 {
		t.Fatalf("notification counts: coll=%d direct=%d, want 24", collMsgs, directMsgs)
	}
	if collAcks != 0 {
		t.Fatalf("collective barrier produced %d ACKs, want 0", collAcks)
	}
	if directAcks != 24 {
		t.Fatalf("direct barrier produced %d ACKs, want 24", directAcks)
	}
}

// Improvement factors and ordering for the XP cluster (Fig. 6 shape).
func TestXPClusterShape(t *testing.T) {
	prof := hwprofile.LANaiXPCluster()
	coll := meanLatency(t, prof, 8, SchemeCollective, barrier.Dissemination, 40)
	host := meanLatency(t, prof, 8, SchemeHost, barrier.Dissemination, 40)
	direct := meanLatency(t, prof, 8, SchemeDirect, barrier.Dissemination, 40)

	// Paper: 14.20us NIC-based barrier at 8 nodes; allow 15%.
	if got := coll.Micros(); got < 12.1 || got > 16.3 {
		t.Errorf("collective@8 = %.2fus, want 14.20 +/- 15%%", got)
	}
	// Paper: 2.64x improvement over host-based; allow a generous band.
	ratio := float64(host) / float64(coll)
	if ratio < 2.2 || ratio > 3.2 {
		t.Errorf("host/collective = %.2f, want ~2.64", ratio)
	}
	if !(coll < direct && direct < host) {
		t.Errorf("ordering violated: coll=%v direct=%v host=%v", coll, direct, host)
	}
}

// Improvement factors for the LANai 9.1 cluster (Fig. 5 shape).
func TestLANai91ClusterShape(t *testing.T) {
	prof := hwprofile.LANai91Cluster()
	coll := meanLatency(t, prof, 16, SchemeCollective, barrier.Dissemination, 40)
	host := meanLatency(t, prof, 16, SchemeHost, barrier.Dissemination, 40)

	// Paper: 25.72us at 16 nodes; allow 15%.
	if got := coll.Micros(); got < 21.9 || got > 29.6 {
		t.Errorf("collective@16 = %.2fus, want 25.72 +/- 15%%", got)
	}
	// Paper: 3.38x improvement; we land lower but must stay in band and
	// above the XP cluster's ratio (slower host => larger win).
	ratio := float64(host) / float64(coll)
	if ratio < 2.7 || ratio > 3.9 {
		t.Errorf("host/collective = %.2f, want ~3.38", ratio)
	}
}

// The slower NIC must make the same firmware slower: 9.1 latencies above
// XP latencies for every scheme.
func TestClockScalingAcrossClusters(t *testing.T) {
	for _, scheme := range barrierSchemes() {
		xp := meanLatency(t, hwprofile.LANaiXPCluster(), 8, scheme, barrier.Dissemination, 20)
		l9 := meanLatency(t, hwprofile.LANai91Cluster(), 8, scheme, barrier.Dissemination, 20)
		if l9 <= xp {
			t.Errorf("%v: LANai9.1 (%v) not slower than XP (%v)", scheme, l9, xp)
		}
	}
}

// Latency grows with ceil(log2 N): equal at {5..8}, steps up at 9.
func TestLatencyStepsWithLog2(t *testing.T) {
	prof := hwprofile.LANaiXPCluster()
	l4 := meanLatency(t, prof, 4, SchemeCollective, barrier.Dissemination, 30)
	l8 := meanLatency(t, prof, 8, SchemeCollective, barrier.Dissemination, 30)
	l16 := meanLatency(t, prof, 16, SchemeCollective, barrier.Dissemination, 30)
	step1 := l8 - l4
	step2 := l16 - l8
	if step1 <= 0 || step2 <= 0 {
		t.Fatalf("latency not increasing: %v %v %v", l4, l8, l16)
	}
	// Dissemination adds ~one trigger per doubling; the two steps should
	// be within 30% of each other.
	r := float64(step2) / float64(step1)
	if r < 0.7 || r > 1.3 {
		t.Errorf("log2 steps uneven: +%v then +%v", step1, step2)
	}
	// Within one log2 bucket the latency is nearly flat.
	l7 := meanLatency(t, prof, 7, SchemeCollective, barrier.Dissemination, 30)
	if diff := float64(l8-l7) / float64(l8); diff > 0.1 || diff < -0.1 {
		t.Errorf("n=7 (%v) deviates from n=8 (%v) beyond 10%%", l7, l8)
	}
}

// Fig. 5/6 shape: pairwise exchange pays for its extra steps at
// non-power-of-two sizes on Myrinet; at powers of two PE == DS.
func TestPEvsDSOnMyrinet(t *testing.T) {
	prof := hwprofile.LANaiXPCluster()
	ds6 := meanLatency(t, prof, 6, SchemeCollective, barrier.Dissemination, 30)
	pe6 := meanLatency(t, prof, 6, SchemeCollective, barrier.PairwiseExchange, 30)
	if float64(pe6) < float64(ds6)*1.1 {
		t.Errorf("PE@6 (%v) not clearly above DS@6 (%v)", pe6, ds6)
	}
	ds8 := meanLatency(t, prof, 8, SchemeCollective, barrier.Dissemination, 30)
	pe8 := meanLatency(t, prof, 8, SchemeCollective, barrier.PairwiseExchange, 30)
	if diff := float64(pe8-ds8) / float64(ds8); diff > 0.05 || diff < -0.05 {
		t.Errorf("PE@8 (%v) != DS@8 (%v) at power of two", pe8, ds8)
	}
}

// Random node permutations must not change barrier latency materially
// (the paper: "we observed only negligible variations").
func TestPermutationInvariance(t *testing.T) {
	prof := hwprofile.LANaiXPCluster()
	rng := sim.NewRNG(5)
	base := meanLatency(t, prof, 8, SchemeCollective, barrier.Dissemination, 30)
	for trial := 0; trial < 3; trial++ {
		eng := sim.NewEngine()
		cl := NewCluster(eng, prof, 8, nil)
		perm := rng.Perm(8)
		s := newSession(cl, perm, SchemeCollective, barrier.Dissemination, barrier.Options{})
		got := core.MeanLatency(s.Run(5+30), 5)
		if diff := float64(got-base) / float64(base); diff > 0.05 || diff < -0.05 {
			t.Errorf("permutation %v latency %v deviates from %v", perm, got, base)
		}
	}
}

// Determinism: identical runs produce identical latencies.
func TestDeterminism(t *testing.T) {
	prof := hwprofile.LANai91Cluster()
	a := meanLatency(t, prof, 8, SchemeCollective, barrier.Dissemination, 25)
	b := meanLatency(t, prof, 8, SchemeCollective, barrier.Dissemination, 25)
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestSessionGuards(t *testing.T) {
	eng, cl := xpCluster(4, nil)
	_ = eng
	for name, fn := range map[string]func(){
		"empty session": func() { newSession(cl, nil, SchemeHost, barrier.Dissemination, barrier.Options{}) },
		"bad node":      func() { newSession(cl, []int{0, 9}, SchemeHost, barrier.Dissemination, barrier.Options{}) },
		"bad cluster":   func() { NewCluster(eng, hwprofile.LANaiXPCluster(), 0, nil) },
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
	s := newSession(cl, identity(4), SchemeCollective, barrier.Dissemination, barrier.Options{})
	defer func() {
		if recover() == nil {
			t.Error("Run(0) did not panic")
		}
	}()
	s.Run(0)
}

// Clusters beyond one crossbar use the Clos fat tree and still work.
func TestLargeClusterCollective(t *testing.T) {
	prof := hwprofile.LANaiXPCluster()
	l32 := meanLatency(t, prof, 32, SchemeCollective, barrier.Dissemination, 10)
	l16 := meanLatency(t, prof, 16, SchemeCollective, barrier.Dissemination, 10)
	if l32 <= l16 {
		t.Fatalf("32-node (%v) not slower than 16-node (%v)", l32, l16)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeHost.String() != "host" || SchemeCollective.String() != "nic-collective" ||
		SchemeDirect.String() != "nic-direct" || Scheme(9).String() != "Scheme(9)" {
		t.Fatal("Scheme.String wrong")
	}
}

// Cluster.Stats sums every counter of every NIC: each NIC gets distinct
// counts in every uint64 field of its GMStats and NICStats, and each
// cluster total must equal their sum, so a counter added to either but
// not summed fails here.
func TestClusterStatsSumsEveryCounter(t *testing.T) {
	_, cl := xpCluster(3, nil)
	want := map[string]uint64{}
	k := uint64(0)
	for _, node := range cl.Nodes {
		node.NIC.gm()
		for _, v := range []reflect.Value{reflect.ValueOf(&node.NIC.gmState.stats).Elem(), reflect.ValueOf(&node.NIC.Stats).Elem()} {
			for f := range v.NumField() {
				if v.Field(f).Kind() == reflect.Uint64 {
					k++
					v.Field(f).SetUint(k)
					want[v.Type().Field(f).Name] += k
				}
			}
		}
	}
	total := reflect.ValueOf(cl.Stats())
	for name, sum := range want {
		if got := total.FieldByName(name).Uint(); got != sum {
			t.Errorf("Stats().%s = %d, want %d", name, got, sum)
		}
	}
}
