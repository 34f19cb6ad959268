package myrinet

import (
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
	return NewSession(cl, identity(n), scheme, barrier.PairwiseExchange, barrier.Options{})
}

func broadcastSession(n int) *Session {
	_, cl := xpCluster(n, nil)
	return NewBroadcastSession(cl, identity(n), 0, barrier.DefaultTreeDegree)
}

func allreduceSession(tb testing.TB, n int, loss netsim.LossModel) *Session {
	tb.Helper()
	_, cl := xpCluster(n, loss)
	s, err := NewAllreduceSession(cl, identity(n), barrier.PairwiseExchange, barrier.Options{},
		core.ReduceSum, contribFn)
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

// perRunLoss drops the listed indices of the barrier-coll packets sent
// since the last reset, so every run of a repeated session sees the same
// losses.
type perRunLoss struct {
	drop map[int]bool
	seen int
}

func (l *perRunLoss) Drop(pkt netsim.Packet) bool {
	if pkt.Kind != "barrier-coll" {
		return false
	}
	k := l.seen
	l.seen++
	return l.drop[k]
}

// freeLens reports the sizes of the pool's collective free lists.
func (p *pool) freeLens() (handlers, payloads int) {
	return p.handlers.Len(), p.payloads.Len()
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
	loss := &perRunLoss{drop: map[int]bool{3: true, 25: true}}
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

// Reinstalling groups on a NIC reuses its group table: the table is one
// slice holding at most GroupQueueSlots entries, grown once and then
// shared by every later install, whichever module serves the group.
func TestReinstallReusesGroupTable(t *testing.T) {
	_, cl := xpCluster(4, nil)
	nic := cl.Nodes[0].NIC
	arena := core.NewArena(barrier.NewPlan(barrier.Dissemination, 4, barrier.Options{}))
	install := func(id core.GroupID) {
		t.Helper()
		op := &groupOp{nic: nic, group: core.NewGroup(id, identity(4)), state: arena.Op(0), direct: id%2 == 1}
		if err := nic.install(op); err != nil {
			t.Fatal(err)
		}
	}
	install(1)
	install(2)
	table := &nic.slots[:1][0]
	for id := core.GroupID(3); id < 40; id++ {
		nic.UninstallGroup(id - 2)
		install(id)
		if &nic.slots[:1][0] != table {
			t.Fatalf("install of group %d rebuilt the group table", id)
		}
		if free := nic.GroupSlotsFree(); free != cl.Prof.NIC.GroupQueueSlots-2 {
			t.Fatalf("after group %d: %d slots free", id, free)
		}
	}
}

// Every member of a session reads its view of the session's one plan,
// through the state machine its NIC entry (or, for the host scheme, its
// host-side schedule) runs.
func TestSessionSharesPlan(t *testing.T) {
	_, cl := xpCluster(16, nil)
	for _, scheme := range []Scheme{SchemeHost, SchemeDirect, SchemeCollective} {
		s, err := NewSessionWithID(cl, core.GroupID(10+scheme), identity(16), scheme, barrier.Dissemination, barrier.Options{})
		if err != nil {
			t.Fatal(err)
		}
		first := s.members[0].state.Schedule()
		for i := range s.members {
			m := &s.members[i]
			state := m.state
			if scheme != SchemeHost {
				state = m.nic.slots[m.nic.slot(s.gid)].op.state
			}
			if state != m.state || !state.Schedule().Shares(first) {
				t.Fatalf("%v: rank %d reads its own schedule", scheme, m.rank)
			}
			if state.Schedule().Rank() != m.rank {
				t.Fatalf("%v: rank %d holds rank %d's view", scheme, m.rank, state.Schedule().Rank())
			}
		}
		s.Run(3)
		s.Close()
	}
	b := broadcastSession(16)
	if !b.members[1].state.Schedule().Shares(b.members[2].state.Schedule()) {
		t.Fatal("broadcast members read different plans")
	}
}
