package myrinet

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
)

// allocNodes is the cluster size of the steady-state allocation gates:
// a full 16-port crossbar, the paper's testbed shape.
const allocNodes = 16

// allocWarmup iterations fill the handler and payload pools and grow the
// engine's slot table before anything is measured.
const allocWarmup = 20

// steadyIter launches iters operations on s and returns a function that
// drives the engine until one more iteration has completed on every
// member. Barrier members chain their next post on their own completion
// and broadcast iterations are gated, so each call covers one
// steady-state operation of the whole group.
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

func barrierSession(n int) *Session { return schemeSession(n, SchemeCollective) }

func schemeSession(n int, scheme Scheme) *Session {
	_, cl := xpCluster(n, nil)
	return newSession(cl, identity(n), scheme, barrier.PairwiseExchange, barrier.Options{})
}

func broadcastSession(n int) *Session {
	_, cl := xpCluster(n, nil)
	return newBroadcast(cl, identity(n), 0, barrier.DefaultTreeDegree)
}

func allreduceSession(tb testing.TB, n int, imp netsim.Impairment) *Session {
	tb.Helper()
	_, cl := xpCluster(n, imp)
	s, err := newAllreduce(cl, identity(n), barrier.PairwiseExchange, core.ReduceSum, contribFn)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// The collective protocol and the host event path schedule pooled
// handler records and carry pooled payloads, and core reuses its send
// and snapshot buffers, so once the pools are warm a whole operation —
// doorbell, static-packet sends, arrivals, NACK timer arm/cancel,
// completion event DMA and host poll — allocates nothing.
func TestCollectiveSteadyStateZeroAlloc(t *testing.T) {
	const runs = 100
	cases := []struct {
		name string
		s    *Session
	}{
		{"barrier", barrierSession(allocNodes)},
		{"broadcast", broadcastSession(allocNodes)},
		{"allreduce", allreduceSession(t, allocNodes, nil)},
	}
	for _, c := range cases {
		step := steadyIter(t, c.s, allocWarmup+runs+2)
		for i := 0; i < allocWarmup; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Errorf("%s: %.2f allocations per operation, want 0", c.name, allocs)
		}
	}
	// The allreduce results stayed exact through the pooled path.
	s := cases[2].s
	for iter := 0; iter < allocWarmup+runs+1; iter++ {
		want := expectReduce(core.ReduceSum, allocNodes, iter)
		for rank, got := range s.Results()[iter] {
			if got != want {
				t.Fatalf("iter %d rank %d: got %d want %d", iter, rank, got, want)
			}
		}
	}
}

// The GM point-to-point path pools its send tokens, send records (each
// its own retransmit timer) and data and ACK payloads, and reuses each
// destination queue's storage, so the host-based and direct-scheme
// barriers, which send every notification through it, allocate nothing
// per operation once warm either.
func TestGMSteadyStateZeroAlloc(t *testing.T) {
	const runs = 100
	for _, scheme := range []Scheme{SchemeHost, SchemeDirect} {
		step := steadyIter(t, schemeSession(allocNodes, scheme), allocWarmup+runs+2)
		for i := 0; i < allocWarmup; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Errorf("%v: %.2f allocations per operation, want 0", scheme, allocs)
		}
	}
}

// freeLens reports the sizes of the pool's collective free lists.
func (p *pool) freeLens() (handlers, payloads int) {
	return freeLen(&p.handlers), freeLen(&p.payloads)
}

// freeLen counts the records a sim free list holds. Only tests need the
// count, so the lists export no accessor for it: reflection reads n of
// a ChunkedFreeList, or the length of a FreeList's free slice.
func freeLen(list any) int {
	v := reflect.ValueOf(list).Elem()
	if n := v.FieldByName("n"); n.IsValid() {
		return int(n.Int())
	}
	return v.FieldByName("free").Len()
}

// Payload ownership under loss: notification 3 of each run is dropped,
// the receiver NACKs, and the single resend (notification 25) is dropped
// too, so the second NACK escalates to a two-copy reply. Every Send
// takes its own payload, a dropped one is left to the GC, and the
// receiver returns the rest. Results must stay exact, the protocol
// counters must keep their pinned values for this script (6 resends and
// 4 stale copies per run, the escalated two-copy reply among them), and
// the free lists must not grow past their first run's size however
// often the script repeats.
func TestPayloadOwnershipUnderNackEscalation(t *testing.T) {
	const (
		nodes = 8
		iters = 4
		runs  = 5
	)
	loss := dropNth("barrier-coll", 3, 25)
	s := allreduceSession(t, nodes, loss)
	cl := s.cl
	var firstH, firstP int
	for run := 0; run < runs; run++ {
		loss.seen = 0
		if run > 0 {
			s.Reset()
		}
		s.Run(iters)
		cl.Eng.Run() // drain stragglers: every handler is back in the pool
		for iter, row := range s.Results() {
			want := expectReduce(core.ReduceSum, nodes, iter) // contributions are run-local
			for rank, got := range row {
				if got != want {
					t.Fatalf("run %d iter %d rank %d: got %d want %d", run, iter, rank, got, want)
				}
			}
		}
		st := cl.Stats()
		if want := uint64(6 * (run + 1)); st.CollResent != want {
			t.Errorf("run %d: CollResent %d, want %d", run, st.CollResent, want)
		}
		if want := uint64(4 * (run + 1)); st.StaleColl != want {
			t.Errorf("run %d: StaleColl %d, want %d", run, st.StaleColl, want)
		}
		h, p := cl.pool.freeLens()
		if run == 0 {
			firstH, firstP = h, p
			if h == 0 || p == 0 {
				t.Fatalf("pools empty after a run: %d handlers, %d payloads", h, p)
			}
			continue
		}
		if h > firstH || p > firstP {
			t.Errorf("run %d: free lists grew to %d handlers, %d payloads (first run: %d, %d)",
				run, h, p, firstH, firstP)
		}
	}
}

// BenchmarkMyrinetBarrier is one steady-state 16-node collective barrier
// per op; CI's bench-smoke gates it at 0 allocs/op.
func BenchmarkMyrinetBarrier(b *testing.B) {
	benchSteady(b, barrierSession(allocNodes))
}

// BenchmarkMyrinetAllreduce is one steady-state 16-node sum-allreduce
// per op, gated like BenchmarkMyrinetBarrier.
func BenchmarkMyrinetAllreduce(b *testing.B) {
	benchSteady(b, allreduceSession(b, allocNodes, nil))
}

// BenchmarkMyrinetHostBarrier is one steady-state 16-node host-based
// barrier per op: every notification is a GM send, receive event and
// ACK. Gated like BenchmarkMyrinetBarrier.
func BenchmarkMyrinetHostBarrier(b *testing.B) {
	benchSteady(b, schemeSession(allocNodes, SchemeHost))
}

// BenchmarkMyrinetDirectBarrier is one steady-state 16-node
// direct-scheme barrier per op (NIC-triggered GM sends), gated like
// BenchmarkMyrinetBarrier.
func BenchmarkMyrinetDirectBarrier(b *testing.B) {
	benchSteady(b, schemeSession(allocNodes, SchemeDirect))
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

// Reinstalling groups on a NIC reuses its group table: once the table
// and its tombstones have grown, an uninstall and a reinstall —
// whichever module serves the group, reviving a released ID — allocate
// nothing and leave the slot count where it was.
func TestReinstallReusesGroupTable(t *testing.T) {
	eng, cl := xpCluster(4, nil)
	nic := cl.Nodes[0].NIC
	arena := core.NewArena(barrier.NewPlan(barrier.Dissemination, 4, barrier.Options{}))
	ops := make([]*member, 4)
	for i := range ops {
		s := &Session{scheme: SchemeCollective}
		if i%2 == 1 {
			s.scheme = SchemeDirect
		}
		ops[i] = &member{nic: nic, s: s, group: core.NewGroup(core.GroupID(i+1), identity(4)), state: arena.Op(0)}
	}
	install := func(op *member) {
		if err := nic.install(op); err != nil {
			t.Fatal(err)
		}
	}
	install(ops[0])
	install(ops[1])
	next := 2
	cycle := func() {
		nic.uninstallGroup(ops[(next+2)%4].group.ID)
		install(ops[next%4])
		next++
		eng.Run() // the uninstall charge
		if free := nic.GroupSlotsFree(); free != cl.Prof.NIC.GroupQueueSlots-2 {
			t.Fatalf("after cycle %d: %d slots free", next, free)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("reinstall cycle allocates %.1f objects, want 0", allocs)
	}
}

// Every member of a session reads its view of the session's one plan,
// through the state machine its NIC entry (or, for the host scheme, its
// host-side schedule) runs.
func TestSessionSharesPlan(t *testing.T) {
	_, cl := xpCluster(16, nil)
	ds := barrier.NewPlan(barrier.Dissemination, 16, barrier.Options{})
	for i, c := range []struct {
		scheme Scheme
		plan   *barrier.Plan
		mode   core.Mode
	}{
		{SchemeHost, ds, core.Chained},
		{SchemeDirect, ds, core.Chained},
		{SchemeCollective, ds, core.Chained},
		{SchemeCollective, barrier.NewBroadcastPlan(16, 0, barrier.DefaultTreeDegree), core.Gated},
	} {
		s, err := NewGroupSession(cl, core.GroupID(10+i), identity(16), c.scheme, c.plan, c.mode, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.members {
			m := &s.members[i]
			state := m.state
			if c.scheme != SchemeHost {
				op, _ := m.nic.groups.Get(s.gid)
				state = op.state
			}
			if state != m.state || state.Schedule() != c.plan.Rank(int(m.rank)) {
				t.Fatalf("%v: rank %d does not read its view of the session plan", c.scheme, m.rank)
			}
		}
		s.Run(3)
		s.Close()
	}
}

// Building a cluster allocates its node, host, NIC and bus records as
// one slice each, so NewCluster's allocation count grows with the node
// count only by the O(log n) growth of the network's and topology's
// tables, not by one record per node.
func TestClusterBuildAllocsIndependentOfSize(t *testing.T) {
	const slack = 16
	build := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { xpCluster(n, nil) })
	}
	if small, large := build(64), build(1024); large-small > slack {
		t.Errorf("NewCluster allocates %.0f objects at 64 nodes and %.0f at 1024, want at most %d more",
			small, large, slack)
	}
}

// Installing a group costs the same allocations at any group size: the
// members' group-table entries and host bindings take their room from
// one allocation each (core.ReserveTables, core.ReserveBindings), and
// the session's members and state machines are a fixed number more. Two
// groups per node, as the hierarchical barrier installs, make every
// table and binding list grow twice. The count is the fewest of a few
// tries, since the process-wide counter also sees the runtime's own
// allocations.
func TestGroupInstallAllocsIndependentOfSize(t *testing.T) {
	const slack = 4
	install := func(n int) uint64 {
		fewest := uint64(math.MaxUint64)
		for range 3 {
			_, cl := xpCluster(n, nil)
			nodes := identity(n)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for gid := core.GroupID(1); gid <= 2; gid++ {
				_, err := NewGroupSession(cl, gid, nodes, SchemeCollective,
					barrier.NewPlan(barrier.Dissemination, n, barrier.Options{}), core.Chained, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			fewest = min(fewest, m1.Mallocs-m0.Mallocs)
		}
		return fewest
	}
	if small, large := install(64), install(1024); large > small+slack {
		t.Errorf("installing two groups allocates %d objects on 64 nodes and %d on 1024, want at most %d more",
			small, large, slack)
	}
}
