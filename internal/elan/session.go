package elan

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/sim"
)

// Scheme selects a Quadrics barrier implementation.
type Scheme int

// The barrier implementations of Fig. 7.
const (
	// SchemeChained is the paper's NIC-based barrier: chained RDMA
	// descriptors, each triggered by a remote event.
	SchemeChained Scheme = iota
	// SchemeGsync is Elanlib's tree-based elan_gsync() (host-driven
	// gather-broadcast, hardware broadcast disabled).
	SchemeGsync
	// SchemeHW is elan_hgsync()'s hardware-broadcast barrier.
	SchemeHW
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeChained:
		return "nic-chained-rdma"
	case SchemeGsync:
		return "elan-gsync"
	case SchemeHW:
		return "elan-hw"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SessionGroupID is the group ID single-session constructors install.
const SessionGroupID = 1

// Session runs consecutive barriers over a subset of an Elan cluster.
// Chained and gsync sessions carry their own group ID and can coexist
// on one cluster; the hardware barrier is a cluster-singleton network
// transaction and supports one session at a time.
type Session struct {
	cl      *Cluster
	gid     core.GroupID
	nodeIDs []int
	scheme  Scheme

	members []*member
	iters   int
	doneAt  []sim.Time
	// startAt holds, per iteration of this run, the virtual time the
	// first member posted it (-1 until posted); startAt..doneAt is the
	// in-flight phase, what precedes startAt is queue wait.
	startAt []sim.Time
	pending []int
	// base is the absolute operation sequence this run starts at (see
	// the Myrinet session's Reset).
	base int
	// closed marks a torn-down session.
	closed bool
	// aborted marks a run cancelled mid-flight (deadline expiry); the
	// only legal next step is Close (see the Myrinet session's Abort).
	aborted bool
	// gen counts run generations; see the Myrinet session's gen for why
	// complete guards its chained posts with it.
	gen int

	// NextAt and OnIterDone mirror the Myrinet session's workload hooks:
	// NextAt gates when a member may post iteration `next`; OnIterDone
	// observes each iteration's global completion.
	NextAt     func(rank, next int) sim.Time
	OnIterDone func(iter int, at sim.Time)
}

type member struct {
	s     *Session
	rank  int
	node  *Node
	group *core.Group
	// hostOp drives the gsync tree from the host; nil otherwise.
	hostOp *core.OpState
	// hwSeq tracks hardware-barrier rounds for this member.
	hwSeq int
	// deferSeq is the iteration a NextAt-deferred start posts on Fire.
	deferSeq int
	// deferTimer holds the pending NextAt deferral so Abort can cancel
	// it (a fired or zero timer cancels as a no-op).
	deferTimer sim.Timer
}

// Fire implements sim.Event (allocation-free deferred starts).
func (m *member) Fire() { m.start(m.deferSeq) }

// NewSession prepares a barrier session on group SessionGroupID over
// nodeIDs (rank order; the harness passes a random permutation).
// alg/opts select the schedule for SchemeChained; SchemeGsync always
// uses the gather-broadcast tree (that is what elan_gsync is) and
// SchemeHW uses none. It panics on installation failure.
func NewSession(cl *Cluster, nodeIDs []int, scheme Scheme, alg barrier.Algorithm, opts barrier.Options) *Session {
	s, err := NewSessionWithID(cl, SessionGroupID, nodeIDs, scheme, alg, opts)
	if err != nil {
		panic(fmt.Sprintf("elan: %v", err))
	}
	return s
}

// NewSessionWithID prepares a barrier session on an explicit group ID,
// failing cleanly when a member card's chain slots are exhausted or the
// ID is already armed on a member.
func NewSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	alg barrier.Algorithm, opts barrier.Options) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("elan: empty session")
	}
	// Pre-validate the whole membership before touching any card or host
	// state, so failed constructions leave the cluster untouched.
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("elan: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		switch scheme {
		case SchemeChained:
			if node.NIC.ChainSlotsFree() <= 0 {
				return nil, fmt.Errorf("elan: node %d: chain slots: %w (%d in use)",
					id, core.ErrSlotsExhausted, node.Prof.NIC.ChainSlots)
			}
			fallthrough
		case SchemeGsync:
			if node.Host.bound(int(gid)) {
				return nil, fmt.Errorf("elan: node %d: group %d already bound", id, gid)
			}
			if node.NIC.chain(gid) >= 0 {
				return nil, fmt.Errorf("elan: chain for group %d already armed on node %d", gid, id)
			}
		}
	}
	s := &Session{cl: cl, gid: gid, nodeIDs: append([]int(nil), nodeIDs...), scheme: scheme}
	if scheme == SchemeHW {
		cl.hw.configure(s.nodeIDs)
	}
	var plan *barrier.Plan
	switch scheme {
	case SchemeChained:
		plan = barrier.NewPlan(alg, len(nodeIDs), opts)
	case SchemeGsync:
		plan = barrier.NewPlan(barrier.GatherBroadcast, len(nodeIDs), opts)
	}
	base := core.NewGroup(gid, s.nodeIDs, 0)
	for rank := range s.nodeIDs {
		id := s.nodeIDs[rank]
		m := &member{
			s:     s,
			rank:  rank,
			node:  cl.Nodes[id],
			group: base.WithRank(rank),
		}
		switch scheme {
		case SchemeChained:
			if err := m.node.NIC.TryArmChain(m.group, core.NewOpState(plan.Rank(rank))); err != nil {
				return nil, err
			}
			m.node.Host.Bind(int(gid), m)
		case SchemeGsync:
			m.hostOp = core.NewOpState(plan.Rank(rank))
			m.node.Host.Bind(int(gid), m)
		case SchemeHW:
			// No schedule: one network transaction synchronizes all. HW
			// completions carry no group, so they flow through the plain
			// event hook — one HW session per cluster, like the hardware.
			m.node.Host.OnEvent = m.HandleEvent
		default:
			panic(fmt.Sprintf("elan: unknown scheme %d", int(scheme)))
		}
		s.members = append(s.members, m)
	}
	return s, nil
}

// Launch prepares iters consecutive barriers and posts iteration 0 on
// every member without driving the engine (see the Myrinet session for
// the multiplexed-run pattern).
func (s *Session) Launch(iters int) {
	if iters < 1 {
		panic(fmt.Sprintf("elan: iterations %d", iters))
	}
	if s.closed {
		panic("elan: Launch on a closed session")
	}
	if s.aborted {
		panic("elan: Launch on an aborted session (install a new one)")
	}
	if s.iters != 0 {
		panic("elan: session launched twice (Reset between runs)")
	}
	s.gen++
	s.iters = iters
	s.doneAt = make([]sim.Time, iters)
	s.startAt = make([]sim.Time, iters)
	for i := range s.startAt {
		s.startAt[i] = -1
	}
	s.pending = make([]int, iters)
	for i := range s.pending {
		s.pending[i] = len(s.members)
	}
	for _, m := range s.members {
		s.post(m, s.base)
	}
}

// Reset readies a finished session for another Launch; the chains stay
// armed and their sequence space continues.
func (s *Session) Reset() {
	if s.aborted {
		panic("elan: Reset on an aborted session (install a new one)")
	}
	if s.iters > 0 && !s.Done() {
		panic("elan: Reset mid-run")
	}
	s.gen++
	s.base += s.iters
	s.iters = 0
	s.doneAt, s.startAt, s.pending = nil, nil, nil
}

// Close tears the session down. Chained sessions disarm every member's
// descriptor list (freeing the Elan SRAM slot, the disarm cost charged
// on the card) and release the host binding; gsync sessions only release
// the binding (the tree lives in host memory); hardware-barrier sessions
// detach the singleton event hook, making the network transaction
// available to a future session. The session must have drained — Close
// mid-run panics. A closed session cannot be relaunched.
func (s *Session) Close() {
	if s.closed {
		panic("elan: session closed twice")
	}
	if s.iters > 0 && !s.Done() {
		panic("elan: Close mid-run (drain the launched iterations first)")
	}
	for _, m := range s.members {
		switch s.scheme {
		case SchemeChained:
			m.node.NIC.DisarmChain(core.GroupID(s.gid))
			m.node.Host.Unbind(int(s.gid))
		case SchemeGsync:
			m.node.Host.Unbind(int(s.gid))
		case SchemeHW:
			m.node.Host.OnEvent = nil
		}
	}
	s.closed = true
}

// Closed reports whether the session has been torn down.
func (s *Session) Closed() bool { return s.closed }

// Abort cancels the current run mid-flight: pending NextAt deferrals
// are cancelled, gsync host-side schedule state is quiesced, and each
// member card's chain is frozen, leaving descriptor-slot accounting
// consistent for the Close that must follow. Idle, finished, and
// closed sessions abort as a no-op.
func (s *Session) Abort() {
	if s.closed || s.iters == 0 || s.Done() {
		return
	}
	s.aborted = true
	s.gen++ // void any in-flight OnIterDone-chained posts
	for _, m := range s.members {
		m.deferTimer.Cancel()
		m.deferTimer = sim.Timer{}
		if m.hostOp != nil {
			m.hostOp.Abort()
		}
		if s.scheme == SchemeChained {
			m.node.NIC.AbortChain(s.gid)
		}
	}
	s.iters = 0
	s.doneAt, s.startAt, s.pending = nil, nil, nil
}

// Aborted reports whether the session was cancelled mid-run.
func (s *Session) Aborted() bool { return s.aborted }

// ChargeInstall charges every member card's chain-install cost on the
// simulated timeline (chained sessions only; the other schemes keep no
// NIC-resident per-group state). See the Myrinet session's ChargeInstall
// for the setup-phase-vs-lifecycle distinction.
func (s *Session) ChargeInstall() {
	if s.scheme != SchemeChained {
		return
	}
	for _, m := range s.members {
		m.node.NIC.ChargeChainInstall(core.GroupID(s.gid))
	}
}

// post starts absolute operation seq on member m, honoring the NextAt
// gate (which sees run-local iteration numbers).
func (s *Session) post(m *member, seq int) {
	if s.NextAt != nil {
		if at := s.NextAt(m.rank, seq-s.base); at > s.cl.Eng.Now() {
			m.deferSeq = seq
			m.deferTimer = s.cl.Eng.ScheduleEvent(at, m)
			return
		}
	}
	m.start(seq)
}

// Done reports whether every launched iteration completed everywhere.
func (s *Session) Done() bool {
	return s.iters > 0 && s.pending[s.iters-1] == 0
}

// DoneAt returns the completion time per iteration (valid once Done).
func (s *Session) DoneAt() []sim.Time { return s.doneAt }

// StartAt returns, per iteration of the current run, the virtual time
// the first member posted it (-1 if not yet posted). Together with
// DoneAt it decomposes an operation's latency into queue wait (before
// start) and in-flight time (start to done).
func (s *Session) StartAt() []sim.Time { return s.startAt }

// Size reports the number of participating ranks.
func (s *Session) Size() int { return len(s.members) }

// Run executes iters consecutive barriers, returning the completion time
// of each iteration.
func (s *Session) Run(iters int) []sim.Time {
	s.Launch(iters)
	if !s.cl.Eng.RunCondition(s.Done) {
		panic(fmt.Sprintf("elan: %s barrier deadlocked (%d nodes, pending %v)",
			s.scheme, len(s.members), s.pending))
	}
	return s.doneAt
}

// MeanLatency mirrors the paper's methodology: warmup iterations followed
// by averaged measured iterations.
func (s *Session) MeanLatency(warmup, iters int) sim.Duration {
	doneAt := s.Run(warmup + iters)
	var start sim.Time
	if warmup > 0 {
		start = doneAt[warmup-1]
	}
	return doneAt[warmup+iters-1].Sub(start) / sim.Duration(iters)
}

// RunSkewed runs a single barrier whose members enter with the given
// per-rank offsets and reports the time from the LAST entry to global
// completion — the cost visible to the last process, which is what an
// application's critical path sees. The paper's point about elan_hgsync
// ("it requires that the involving processes be well synchronized...
// hardly the case for parallel programs over large size clusters") shows
// up here as test-and-set retries once the skew exceeds the sync window,
// while the NIC-based barrier simply buffers early notifications.
func (s *Session) RunSkewed(skew []sim.Duration) sim.Duration {
	if len(skew) != len(s.members) {
		panic(fmt.Sprintf("elan: %d offsets for %d members", len(skew), len(s.members)))
	}
	s.iters = 1
	s.doneAt = make([]sim.Time, 1)
	s.startAt = []sim.Time{-1}
	s.pending = []int{len(s.members)}
	var last sim.Time
	for i, m := range s.members {
		m := m
		if at := sim.Time(0).Add(skew[i]); at > last {
			last = at
		}
		s.cl.Eng.After(skew[i], func() { m.start(0) })
	}
	if !s.cl.Eng.RunCondition(func() bool { return s.pending[0] == 0 }) {
		panic(fmt.Sprintf("elan: skewed %s barrier deadlocked", s.scheme))
	}
	return s.doneAt[0].Sub(last)
}

// complete records one member's completion of absolute operation seq.
func (s *Session) complete(rank, seq int) {
	if s.aborted {
		return // late completion racing the abort; the run is void
	}
	rel := seq - s.base
	if rel >= s.iters {
		panic(fmt.Sprintf("elan: completion for iteration %d beyond %d", rel, s.iters))
	}
	s.pending[rel]--
	if s.pending[rel] < 0 {
		panic(fmt.Sprintf("elan: double completion of iteration %d by rank %d", rel, rank))
	}
	gen := s.gen
	if s.pending[rel] == 0 {
		s.doneAt[rel] = s.cl.Eng.Now()
		if s.OnIterDone != nil {
			s.OnIterDone(rel, s.doneAt[rel])
		}
		if s.gen != gen {
			return // the callback reset the session; this run's posts are void
		}
	}
	if next := rel + 1; next < s.iters {
		s.post(s.members[rank], seq+1)
	}
}

// markStart stamps the first member's post time for operation seq.
func (s *Session) markStart(seq int) {
	if rel := seq - s.base; rel >= 0 && rel < len(s.startAt) && s.startAt[rel] < 0 {
		s.startAt[rel] = s.cl.Eng.Now()
	}
}

func (m *member) start(seq int) {
	m.s.markStart(seq)
	switch m.s.scheme {
	case SchemeChained:
		m.node.Host.TriggerChain(int(m.s.gid))
	case SchemeHW:
		m.node.Host.PostHWBarrier()
	case SchemeGsync:
		sends, done, err := m.hostOp.Start(seq)
		if err != nil {
			panic(fmt.Sprintf("elan: rank %d: %v", m.rank, err))
		}
		m.gsyncSend(seq, sends)
		if done {
			m.s.complete(m.rank, seq)
		}
	}
}

func (m *member) gsyncSend(seq int, ranks []int) {
	for _, r := range ranks {
		m.node.Host.SendRemoteEvent(m.group.NodeOf(r), int(m.s.gid), seq)
	}
}

// HandleEvent implements EventHandler: the member's host events for the
// session's group (all events, for the hardware barrier).
func (m *member) HandleEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		m.s.complete(m.rank, ev.Seq)
	case EvHWBarrier:
		seq := m.hwSeq
		m.hwSeq++
		m.s.complete(m.rank, seq)
	case EvRemote:
		fromRank, ok := m.group.RankOf(ev.FromNode)
		if !ok {
			panic(fmt.Sprintf("elan: gsync event from non-member node %d", ev.FromNode))
		}
		// Elanlib's tree bookkeeping is heavier than the bare poll
		// already charged by event delivery.
		h := m.node.NIC.get(hGsync)
		h.m = m
		h.msg.seq, h.msg.fromRank = ev.Seq, fromRank
		m.node.Host.Exec(m.node.Prof.GsyncPollExtraCycles, 0, h)
	}
}

// gsyncArrive is the host's gsync tree step for a remote event from
// fromRank, once its bookkeeping cost has been charged.
func (m *member) gsyncArrive(seq, fromRank int) {
	sends, done, err := m.hostOp.Arrive(seq, fromRank)
	if err != nil {
		panic(fmt.Sprintf("elan: rank %d: %v", m.rank, err))
	}
	m.gsyncSend(m.hostOp.Seq(), sends)
	if done {
		m.s.complete(m.rank, m.hostOp.Seq())
	}
}
