package elan

import (
	"reflect"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func meanLatency(t *testing.T, n int, scheme Scheme, alg barrier.Algorithm, iters int) sim.Duration {
	t.Helper()
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), n)
	s := NewSession(cl, identity(n), scheme, alg, barrier.Options{})
	return core.MeanLatency(s.Run(5+iters), 5)
}

func TestRemoteEventDelivery(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 4)
	var got []Event
	cl.Nodes[2].Host.OnEvent = func(ev Event) { got = append(got, ev) }
	cl.Nodes[0].Host.SendRemoteEvent(2, 7, 3)
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("events: %+v", got)
	}
	ev := got[0]
	if ev.Kind != EvRemote || ev.Group != 7 || ev.Seq != 3 || ev.FromNode != 0 {
		t.Fatalf("event %+v", ev)
	}
	if cl.Stats().RDMAsSent != 1 || cl.Stats().EventsFired != 1 {
		t.Fatalf("stats %+v", cl.Stats())
	}
}

func TestChainedBarrierCompletionMatrix(t *testing.T) {
	for _, alg := range []barrier.Algorithm{
		barrier.Dissemination, barrier.PairwiseExchange, barrier.GatherBroadcast,
	} {
		for _, n := range []int{1, 2, 3, 5, 8, 13, 16} {
			eng := sim.NewEngine()
			cl := NewCluster(eng, hwprofile.Elan3Cluster(), n)
			s := NewSession(cl, identity(n), SchemeChained, alg, barrier.Options{})
			doneAt := s.Run(5)
			for i := 1; i < len(doneAt); i++ {
				if doneAt[i] <= doneAt[i-1] {
					t.Fatalf("%v n=%d: iterations not ordered: %v", alg, n, doneAt)
				}
			}
		}
	}
}

func TestGsyncAndHWCompletion(t *testing.T) {
	for _, scheme := range []Scheme{SchemeGsync, SchemeHW} {
		for _, n := range []int{2, 3, 8, 16} {
			eng := sim.NewEngine()
			cl := NewCluster(eng, hwprofile.Elan3Cluster(), n)
			s := NewSession(cl, identity(n), scheme, barrier.Dissemination, barrier.Options{})
			doneAt := s.Run(4)
			for i := 1; i < len(doneAt); i++ {
				if doneAt[i] <= doneAt[i-1] {
					t.Fatalf("%v n=%d: iterations not ordered", scheme, n)
				}
			}
		}
	}
}

// Fig. 7 headline: NIC-based barrier at 8 nodes ~5.60us, a ~2.48x
// improvement over the gsync tree barrier; the hardware barrier lands at
// ~4.20us.
func TestQuadricsHeadlineNumbers(t *testing.T) {
	nic := meanLatency(t, 8, SchemeChained, barrier.Dissemination, 40)
	gsync := meanLatency(t, 8, SchemeGsync, barrier.GatherBroadcast, 40)
	hw := meanLatency(t, 8, SchemeHW, barrier.Dissemination, 40)

	if got := nic.Micros(); got < 4.76 || got > 6.44 {
		t.Errorf("NIC barrier@8 = %.2fus, want 5.60 +/- 15%%", got)
	}
	if got := hw.Micros(); got < 3.57 || got > 4.83 {
		t.Errorf("HW barrier@8 = %.2fus, want 4.20 +/- 15%%", got)
	}
	ratio := float64(gsync) / float64(nic)
	if ratio < 2.1 || ratio > 2.9 {
		t.Errorf("gsync/NIC = %.2f, want ~2.48", ratio)
	}
}

// The crossover the paper describes: the hardware barrier is slower than
// the NIC-based barrier for small node counts (its test-and-set transaction
// has a high fixed cost) and faster at 8 nodes and beyond.
func TestHWBarrierCrossover(t *testing.T) {
	for _, n := range []int{2, 4} {
		nic := meanLatency(t, n, SchemeChained, barrier.Dissemination, 30)
		hw := meanLatency(t, n, SchemeHW, barrier.Dissemination, 30)
		if hw <= nic {
			t.Errorf("n=%d: HW (%v) should be slower than NIC (%v)", n, hw, nic)
		}
	}
	for _, n := range []int{8, 16, 64} {
		nic := meanLatency(t, n, SchemeChained, barrier.Dissemination, 30)
		hw := meanLatency(t, n, SchemeHW, barrier.Dissemination, 30)
		if hw >= nic {
			t.Errorf("n=%d: HW (%v) should beat NIC (%v)", n, hw, nic)
		}
	}
}

// The hardware barrier's latency must be nearly flat in N (it grows only
// with tree depth).
func TestHWBarrierFlatness(t *testing.T) {
	l8 := meanLatency(t, 8, SchemeHW, barrier.Dissemination, 30)
	l1024 := meanLatency(t, 1024, SchemeHW, barrier.Dissemination, 10)
	if ratio := float64(l1024) / float64(l8); ratio > 1.8 {
		t.Errorf("HW barrier grew %vx from 8 to 1024 nodes (%v -> %v)", ratio, l8, l1024)
	}
}

// Poorly synchronized processes force test-and-set retries (the condition
// under which Elanlib falls back to the software tree).
func TestHWBarrierSkewRetries(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 4)
	s := NewSession(cl, identity(4), SchemeHW, barrier.Dissemination, barrier.Options{})
	// Stagger the posts far beyond hwSyncLimit; RunSkewed panics if the
	// barrier never completes.
	skew := make([]sim.Duration, len(s.members))
	for i := range skew {
		skew[i] = sim.Duration(i) * 3 * hwSyncLimit
	}
	if lat := s.RunSkewed(skew); lat <= 0 {
		t.Fatalf("skewed HW barrier completed %v after the last entry", lat)
	}
	if cl.hw.Retries() == 0 {
		t.Fatal("no retries recorded despite heavy skew")
	}
}

// Consecutive barriers in a tight loop must not trigger retries.
func TestHWBarrierNoSpuriousRetries(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 8)
	s := NewSession(cl, identity(8), SchemeHW, barrier.Dissemination, barrier.Options{})
	s.Run(50)
	if cl.hw.Retries() != 0 {
		t.Fatalf("%d spurious retries in a synchronized loop", cl.hw.Retries())
	}
}

// The hardware barrier is a cluster singleton: a second live session
// would overwrite the first's event hooks (and closing either would
// detach the other's), so construction fails until the first closes.
func TestHWSessionExclusive(t *testing.T) {
	cl := NewCluster(sim.NewEngine(), hwprofile.Elan3Cluster(), 8)
	first := NewSession(cl, identity(4), SchemeHW, barrier.Dissemination, barrier.Options{})
	if _, err := NewGroupSession(cl, 2, []int{4, 5, 6, 7}, SchemeHW, nil); err == nil {
		t.Fatal("second live HW session constructed")
	}
	first.Run(3) // its completions still arrive
	first.Close()
	second, err := NewGroupSession(cl, 2, []int{4, 5, 6, 7}, SchemeHW, nil)
	if err != nil {
		t.Fatalf("HW session after the first closed: %v", err)
	}
	second.Run(3)
}

// The scalability trend of Fig. 8a: stepwise growth with ceil(log2 N) up
// to 1024 nodes, landing in the neighborhood of the paper's 22.13us model
// value.
func TestChainedBarrierScalability(t *testing.T) {
	l8 := meanLatency(t, 8, SchemeChained, barrier.Dissemination, 30)
	l64 := meanLatency(t, 64, SchemeChained, barrier.Dissemination, 15)
	l1024 := meanLatency(t, 1024, SchemeChained, barrier.Dissemination, 8)
	if !(l8 < l64 && l64 < l1024) {
		t.Fatalf("not growing: %v %v %v", l8, l64, l1024)
	}
	if got := l1024.Micros(); got < 16 || got > 26 {
		t.Errorf("NIC barrier@1024 = %.2fus, want in [16,26] (paper model: 22.13)", got)
	}
	// Per-step cost (Ttrig) from 8 -> 64 (3 extra steps).
	ttrig := (l64 - l8).Micros() / 3
	if ttrig < 1.4 || ttrig > 2.9 {
		t.Errorf("Ttrig = %.2fus, want ~2.32 +/- band", ttrig)
	}
}

// No retransmission machinery exists on Quadrics: every notification is
// sent exactly once (hardware reliability).
func TestExactlyOnceRDMAs(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 8)
	s := NewSession(cl, identity(8), SchemeChained, barrier.Dissemination, barrier.Options{})
	s.Run(2)
	eng.Run()
	c := cl.Net.Counters()
	// 8 ranks * 3 steps * 2 iterations = 48 notifications, nothing else.
	if c.ByKind["rdma-event"] != 48 {
		t.Fatalf("rdma count %d, want 48 (counters %+v)", c.ByKind["rdma-event"], c.ByKind)
	}
	if c.Dropped != 0 {
		t.Fatalf("%d drops on a reliable network", c.Dropped)
	}
}

func TestElanDeterminism(t *testing.T) {
	a := meanLatency(t, 8, SchemeChained, barrier.Dissemination, 25)
	b := meanLatency(t, 8, SchemeChained, barrier.Dissemination, 25)
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestElanSessionGuards(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 4)
	for name, fn := range map[string]func(){
		"empty":       func() { NewSession(cl, nil, SchemeChained, barrier.Dissemination, barrier.Options{}) },
		"bad node":    func() { NewSession(cl, []int{0, 99}, SchemeChained, barrier.Dissemination, barrier.Options{}) },
		"bad cluster": func() { NewCluster(eng, hwprofile.Elan3Cluster(), 0) },
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

func TestElanSchemeString(t *testing.T) {
	if SchemeChained.String() != "nic-chained-rdma" || SchemeGsync.String() != "elan-gsync" ||
		SchemeHW.String() != "elan-hw" || Scheme(7).String() != "Scheme(7)" {
		t.Fatal("Scheme.String wrong")
	}
}

// Double-arming a chain must panic (groups are immutable).
func TestArmChainTwicePanics(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 2)
	NewSession(cl, identity(2), SchemeChained, barrier.Dissemination, barrier.Options{})
	defer func() {
		if recover() == nil {
			t.Error("second session on same cluster did not panic")
		}
	}()
	NewSession(cl, identity(2), SchemeChained, barrier.Dissemination, barrier.Options{})
}

// Every member card of a chained dissemination session arms its chain
// over the session plan's one step table.
func TestSessionSharesPlan(t *testing.T) {
	eng := sim.NewEngine()
	cl := NewCluster(eng, hwprofile.Elan3Cluster(), 16)
	plan := barrier.NewPlan(barrier.Dissemination, 16, barrier.Options{})
	s, err := NewGroupSession(cl, SessionGroupID, identity(16), SchemeChained, plan)
	if err != nil {
		t.Fatal(err)
	}
	for rank, m := range s.members {
		if sched := m.node.NIC.mustChain(s.gid).state.Schedule(); sched != plan.Rank(rank) {
			t.Fatalf("rank %d arms its own table (view of rank %d)", rank, sched.Rank())
		}
	}
	s.Run(3)
}

// Cluster.Stats sums every counter of every NIC: each NIC gets distinct
// counts in every uint64 field of its Stats, and each cluster total must
// equal their sum, so a counter added but not summed fails here.
func TestClusterStatsSumsEveryCounter(t *testing.T) {
	cl := NewCluster(sim.NewEngine(), hwprofile.Elan3Cluster(), 3)
	want := map[string]uint64{}
	k := uint64(0)
	for _, node := range cl.Nodes {
		v := reflect.ValueOf(&node.NIC.Stats).Elem()
		for f := range v.NumField() {
			if v.Field(f).Kind() == reflect.Uint64 {
				k++
				v.Field(f).SetUint(k)
				want[v.Type().Field(f).Name] += k
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
