package myrinet

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/sim"
)

// Scheme selects how barriers are executed on a Myrinet cluster.
type Scheme int

// The three schemes the paper evaluates on Myrinet.
const (
	// SchemeHost: the host drives every step through plain GM
	// point-to-point sends and receive events (the baseline of
	// Figs. 5 and 6).
	SchemeHost Scheme = iota
	// SchemeDirect: the earlier NIC-based barrier on top of the p2p
	// protocol (Buntinas et al.), the ablation baseline.
	SchemeDirect
	// SchemeCollective: the paper's NIC-based collective protocol.
	SchemeCollective
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeHost:
		return "host"
	case SchemeDirect:
		return "nic-direct"
	case SchemeCollective:
		return "nic-collective"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Session runs consecutive collective operations over a subset of a
// cluster's nodes — the measurement loop of the paper's Section 8
// ("processes execute consecutive barrier operations"). Each session
// owns one group ID; several sessions with distinct IDs can coexist on
// one cluster (the communicator layer builds multi-tenant workloads
// that way), with per-node event routing keyed on the group ID.
type Session struct {
	cl      *Cluster
	gid     core.GroupID
	nodeIDs []int // participating nodes; index is the rank
	scheme  Scheme
	// gated sessions start iteration k+1 only once every member has
	// completed k (used for broadcast, which does not self-synchronize);
	// barrier sessions chain per member, as real benchmark loops do.
	gated bool

	members []*member
	iters   int
	doneAt  []sim.Time // completion time per iteration of this run
	// startAt holds, per iteration of this run, the virtual time the
	// first member posted it (-1 until posted). The span startAt..doneAt
	// is the operation's in-flight phase; what precedes startAt is queue
	// wait, which workload engines attribute separately.
	startAt []sim.Time
	pending []int // per iteration of this run, members not yet complete
	// base is the absolute operation sequence this run starts at: NIC
	// group queues number operations monotonically across runs, so after
	// Reset a relaunched session maps absolute sequence s to run-local
	// iteration s-base.
	base int
	// closed marks a torn-down session; launching it again is a
	// programming error (install a new session instead).
	closed bool
	// aborted marks a session whose current run was cancelled mid-flight
	// (deadline expiry). The NIC-side ops are frozen and the run
	// bookkeeping discarded; the only legal next step is Close — recovery
	// installs a fresh session rather than restarting this one, since
	// surviving members' sequence windows may disagree about the aborted
	// operation.
	aborted bool
	// gen counts run generations (bumped by Launch and Reset). complete
	// snapshots it around the OnIterDone callback: a callback that
	// Resets and relaunches the session — the churn engine's
	// depart/reconfigure hooks do — invalidates the old run's chained
	// next-op posts, which must not leak doorbells into the new run.
	gen int

	// results[iter][rank] collects allreduce outcomes; nil otherwise.
	results [][]int64

	// NextAt, when set before Launch, gates when a member may post
	// iteration `next`: the returned virtual time is the earliest post
	// instant (times at or before "now" post immediately, preserving the
	// default back-to-back loop). Workload engines use it to shape
	// open-loop arrival processes and closed-loop think times.
	NextAt func(rank, next int) sim.Time
	// OnIterDone, when set, observes each iteration's global completion
	// (all members done) at the virtual time it happens.
	OnIterDone func(iter int, at sim.Time)
}

type member struct {
	s     *Session
	rank  int
	node  *Node
	group *core.Group
	sched barrier.Schedule
	// Host-side schedule state, used only by SchemeHost.
	hostOp *core.OpState
	// contrib supplies the allreduce contribution per iteration; nil for
	// barriers and broadcasts.
	contrib func(seq int) int64
	// deferSeq is the iteration a NextAt-deferred start will post when
	// the member fires as a sim.Event (at most one outstanding per
	// member: iterations chain).
	deferSeq int
	// deferTimer holds the pending NextAt deferral so Abort can cancel
	// it (a fired or zero timer cancels as a no-op).
	deferTimer sim.Timer
}

// Fire implements sim.Event: post the deferred iteration. Scheduling the
// member itself keeps NextAt-gated loops allocation-free per operation.
func (m *member) Fire() { m.start(m.deferSeq) }

// SessionGroupID is the group ID single-session constructors install,
// mirroring MPI_COMM_WORLD. Multi-group callers pass their own IDs via
// the WithID constructors.
const SessionGroupID = 1

// NewSession prepares a barrier session on group SessionGroupID. nodeIDs
// lists the participating node IDs in rank order (the harness passes a
// random permutation, as the paper does); alg and opts pick the barrier
// algorithm. It panics on installation failure — the single-session
// constructors exist for the one-group measurement loops, where a full
// group table is a programming error.
func NewSession(cl *Cluster, nodeIDs []int, scheme Scheme, alg barrier.Algorithm, opts barrier.Options) *Session {
	s, err := NewSessionWithID(cl, SessionGroupID, nodeIDs, scheme, alg, opts)
	if err != nil {
		panic(fmt.Sprintf("myrinet: %v", err))
	}
	return s
}

// NewSessionWithID prepares a barrier session on an explicit group ID,
// failing cleanly when a member NIC's group-queue slots are exhausted or
// the ID is already installed on a member.
func NewSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	alg barrier.Algorithm, opts barrier.Options) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("myrinet: empty session")
	}
	return newSession(cl, gid, nodeIDs, scheme, barrier.NewPlan(alg, len(nodeIDs), opts), false)
}

// NewBroadcastSession prepares a NIC-based broadcast session (the
// extension of the paper's future-work section) on group SessionGroupID:
// the root's notification fans down a d-ary tree entirely on the NICs
// via the collective protocol. Iterations are globally gated, since a
// broadcast does not synchronize its participants.
func NewBroadcastSession(cl *Cluster, nodeIDs []int, root, degree int) *Session {
	s, err := NewBroadcastSessionWithID(cl, SessionGroupID, nodeIDs, root, degree)
	if err != nil {
		panic(fmt.Sprintf("myrinet: %v", err))
	}
	return s
}

// NewBroadcastSessionWithID is NewBroadcastSession on an explicit group
// ID, with clean errors instead of panics.
func NewBroadcastSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int, root, degree int) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("myrinet: empty session")
	}
	return newSession(cl, gid, nodeIDs, SchemeCollective, barrier.NewBroadcastPlan(len(nodeIDs), root, degree), true)
}

// NewAllreduceSession prepares a NIC-based single-word allreduce over the
// collective protocol on group SessionGroupID. contrib supplies each
// rank's contribution per iteration; results are collected per iteration
// and retrievable with Results after Run.
func NewAllreduceSession(cl *Cluster, nodeIDs []int, alg barrier.Algorithm, opts barrier.Options,
	op core.ReduceOp, contrib func(rank, iter int) int64) (*Session, error) {
	return NewAllreduceSessionWithID(cl, SessionGroupID, nodeIDs, alg, opts, op, contrib)
}

// NewAllreduceSessionWithID is NewAllreduceSession on an explicit group
// ID.
func NewAllreduceSessionWithID(cl *Cluster, gid core.GroupID, nodeIDs []int,
	alg barrier.Algorithm, opts barrier.Options,
	op core.ReduceOp, contrib func(rank, iter int) int64) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("myrinet: empty session")
	}
	plan := barrier.NewPlan(alg, len(nodeIDs), opts)
	// Validate the operator/schedule combination before touching NICs.
	if _, err := core.NewReduceState(op, plan.Rank(0)); err != nil {
		return nil, err
	}
	s, err := newAllreduceSession(cl, gid, nodeIDs, plan, op)
	if err != nil {
		return nil, err
	}
	for rank, m := range s.members {
		rank := rank
		m.contrib = func(iter int) int64 { return contrib(rank, iter) }
	}
	return s, nil
}

func newAllreduceSession(cl *Cluster, gid core.GroupID, nodeIDs []int,
	plan *barrier.Plan, op core.ReduceOp) (*Session, error) {
	if err := validateMembers(cl, gid, nodeIDs, true); err != nil {
		return nil, err
	}
	s := &Session{cl: cl, gid: gid, nodeIDs: append([]int(nil), nodeIDs...), scheme: SchemeCollective}
	base := core.NewGroup(gid, s.nodeIDs, 0)
	for rank := range s.nodeIDs {
		id := s.nodeIDs[rank]
		m := &member{
			s:     s,
			rank:  rank,
			node:  cl.Nodes[id],
			group: base.WithRank(rank),
			sched: plan.Rank(rank),
		}
		if err := m.node.NIC.InstallReduceGroup(m.group, m.sched, op); err != nil {
			return nil, err
		}
		m.node.Host.Bind(int(gid), m)
		s.members = append(s.members, m)
	}
	return s, nil
}

// Results returns the allreduce outcome per iteration and rank; nil for
// barrier and broadcast sessions.
func (s *Session) Results() [][]int64 { return s.results }

// validateMembers pre-checks a whole membership before any NIC or host
// state is touched, so failed constructions leave the cluster exactly as
// it was (no half-installed groups, no dangling event bindings).
func validateMembers(cl *Cluster, gid core.GroupID, nodeIDs []int, needSlot bool) error {
	if len(nodeIDs) == 0 {
		panic("myrinet: empty session")
	}
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("myrinet: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		if node.Host.bound(int(gid)) {
			return fmt.Errorf("myrinet: node %d: group %d already bound", id, gid)
		}
		if needSlot {
			if err := node.NIC.checkSlot(gid); err != nil {
				return err
			}
		}
	}
	return nil
}

// newSession installs one member per node, each reading its view of the
// session's one plan.
func newSession(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	plan *barrier.Plan, gated bool) (*Session, error) {
	if err := validateMembers(cl, gid, nodeIDs, scheme != SchemeHost); err != nil {
		return nil, err
	}
	s := &Session{cl: cl, gid: gid, nodeIDs: append([]int(nil), nodeIDs...), scheme: scheme, gated: gated}
	base := core.NewGroup(gid, s.nodeIDs, 0)
	for rank := range s.nodeIDs {
		id := s.nodeIDs[rank]
		m := &member{
			s:     s,
			rank:  rank,
			node:  cl.Nodes[id],
			group: base.WithRank(rank),
			sched: plan.Rank(rank),
		}
		switch scheme {
		case SchemeHost:
			m.hostOp = core.NewOpState(m.sched)
			// Pre-post a pool of receive buffers; each consumed event
			// is replenished during the run.
			m.node.Host.PostRecvTokens(m.sched.TotalWaits() + 4)
		case SchemeDirect:
			if err := m.node.NIC.InstallDirectGroup(m.group, m.sched); err != nil {
				return nil, err
			}
		case SchemeCollective:
			if err := m.node.NIC.InstallCollectiveGroup(m.group, m.sched); err != nil {
				return nil, err
			}
		default:
			panic(fmt.Sprintf("myrinet: unknown scheme %d", int(scheme)))
		}
		m.node.Host.Bind(int(gid), m)
		s.members = append(s.members, m)
	}
	return s, nil
}

// Launch prepares iters consecutive operations and posts iteration 0 on
// every member, without driving the engine: callers that multiplex
// several sessions over one cluster launch them all, then run the engine
// themselves until every session reports Done.
func (s *Session) Launch(iters int) {
	if iters < 1 {
		panic(fmt.Sprintf("myrinet: iterations %d", iters))
	}
	if s.closed {
		panic("myrinet: Launch on a closed session")
	}
	if s.aborted {
		panic("myrinet: Launch on an aborted session (install a new one)")
	}
	if s.iters != 0 {
		panic("myrinet: session launched twice (Reset between runs)")
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
	if len(s.members) > 0 && s.members[0].contrib != nil {
		s.results = make([][]int64, iters)
		for i := range s.results {
			s.results[i] = make([]int64, len(s.members))
		}
	}
	for _, m := range s.members {
		s.post(m, s.base)
	}
}

// Reset readies a finished session for another Launch. The group stays
// installed on the NICs (its sequence space continues; the protocol's
// group queue is a long-lived resource), only the run bookkeeping is
// cleared.
func (s *Session) Reset() {
	if s.aborted {
		panic("myrinet: Reset on an aborted session (install a new one)")
	}
	if s.iters > 0 && !s.Done() {
		panic("myrinet: Reset mid-run")
	}
	s.gen++
	s.base += s.iters
	s.iters = 0
	s.doneAt, s.startAt, s.pending, s.results = nil, nil, nil, nil
}

// Close tears the session down: every member NIC's group-queue slot is
// freed — the teardown cost charged on its firmware processor, so
// co-resident groups feel it — and the host-side event binding released.
// The session must have drained; closing mid-run panics, since member
// bit vectors still expect arrivals. Host-scheme sessions hold no NIC
// slot, so only the host binding is released (posted receive tokens stay
// with the NIC, as GM's do). A closed session cannot be relaunched.
func (s *Session) Close() {
	if s.closed {
		panic("myrinet: session closed twice")
	}
	if s.iters > 0 && !s.Done() {
		panic("myrinet: Close mid-run (drain the launched iterations first)")
	}
	for _, m := range s.members {
		if s.scheme != SchemeHost {
			m.node.NIC.UninstallGroup(s.gid)
		}
		m.node.Host.Unbind(int(s.gid))
	}
	s.closed = true
}

// Closed reports whether the session has been torn down.
func (s *Session) Closed() bool { return s.closed }

// Abort cancels the current run mid-flight: pending NextAt deferrals
// are cancelled, host-side schedule state is quiesced, and each member
// NIC's group op is frozen (late doorbells, arrivals, and NACKs count
// stale instead of touching state), leaving NIC slot accounting
// consistent for the Close that must follow. Idle, finished, and
// closed sessions abort as a no-op. Abort does not free the NIC slots
// — Close does, exactly as in the orderly path.
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
		if s.scheme != SchemeHost {
			m.node.NIC.AbortGroup(s.gid)
		}
	}
	s.iters = 0
	s.doneAt, s.startAt, s.pending, s.results = nil, nil, nil, nil
}

// Aborted reports whether the session was cancelled mid-run.
func (s *Session) Aborted() bool { return s.aborted }

// ChargeInstall charges every member NIC's group-install cost on the
// simulated timeline. The constructors install for free (setup phase,
// like MPI_Init); lifecycle-aware callers — the communicator layer's
// admission scheduler — call this right after construction so that
// installs performed while the cluster is live delay co-resident
// groups' firmware handlers, as real SRAM writes would.
func (s *Session) ChargeInstall() {
	if s.scheme == SchemeHost {
		return // no NIC-resident state to write
	}
	for _, m := range s.members {
		m.node.NIC.ChargeGroupInstall(s.gid)
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

// Done reports whether every launched iteration has completed on every
// member.
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

// Run executes iters consecutive barriers and returns the virtual time at
// which each iteration completed on every node. It panics if the
// simulation deadlocks before finishing.
func (s *Session) Run(iters int) []sim.Time {
	s.Launch(iters)
	if !s.cl.Eng.RunCondition(s.Done) {
		panic(fmt.Sprintf("myrinet: %s barrier deadlocked (%d nodes, iter pending %v)",
			s.scheme, len(s.members), s.pending))
	}
	return s.doneAt
}

// MeanLatency runs warmup+iters consecutive barriers and reports the mean
// per-barrier latency over the measured iterations, mirroring the paper's
// methodology (first iterations warm up, the rest are averaged).
func (s *Session) MeanLatency(warmup, iters int) sim.Duration {
	doneAt := s.Run(warmup + iters)
	var start sim.Time
	if warmup > 0 {
		start = doneAt[warmup-1]
	}
	total := doneAt[warmup+iters-1].Sub(start)
	return total / sim.Duration(iters)
}

// complete records one member's completion of absolute operation seq.
func (s *Session) complete(rank, seq int) {
	if s.aborted {
		return // late completion racing the abort; the run is void
	}
	rel := seq - s.base
	if rel >= s.iters {
		panic(fmt.Sprintf("myrinet: completion for iteration %d beyond %d", rel, s.iters))
	}
	s.pending[rel]--
	if s.pending[rel] < 0 {
		panic(fmt.Sprintf("myrinet: double completion of iteration %d by rank %d", rel, rank))
	}
	gen := s.gen
	if s.pending[rel] == 0 {
		s.doneAt[rel] = s.cl.Eng.Now()
		if s.OnIterDone != nil {
			s.OnIterDone(rel, s.doneAt[rel])
		}
		if s.gen != gen {
			// The callback reset (and possibly relaunched) the session;
			// this run's chained posts are void — the new run posted its
			// own openers.
			return
		}
		if s.gated {
			if next := rel + 1; next < s.iters {
				for _, m := range s.members {
					s.post(m, seq+1)
				}
			}
		}
	}
	if !s.gated {
		if next := rel + 1; next < s.iters {
			s.post(s.members[rank], seq+1)
		}
	}
}

// markStart stamps the first member's post time for operation seq.
func (s *Session) markStart(seq int) {
	if rel := seq - s.base; rel >= 0 && rel < len(s.startAt) && s.startAt[rel] < 0 {
		s.startAt[rel] = s.cl.Eng.Now()
	}
}

// start posts absolute operation #seq on this member's node.
func (m *member) start(seq int) {
	m.s.markStart(seq)
	if m.contrib != nil {
		m.node.Host.PostReduce(int(m.s.gid), m.contrib(seq-m.s.base))
		return
	}
	switch m.s.scheme {
	case SchemeHost:
		sends, done, err := m.hostOp.Start(seq)
		if err != nil {
			panic(fmt.Sprintf("myrinet: rank %d: %v", m.rank, err))
		}
		m.hostSend(seq, sends)
		if done {
			m.s.complete(m.rank, seq)
		}
	default:
		m.node.Host.PostBarrier(int(m.s.gid))
	}
}

func (m *member) hostSend(seq int, ranks []int) {
	for _, r := range ranks {
		m.node.Host.sendBarrier(m.group.NodeOf(r), collPayload{group: m.group.ID, seq: seq})
	}
}

// HandleEvent implements EventHandler: the member's host events for the
// session's group.
func (m *member) HandleEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		if rel := ev.Seq - m.s.base; m.s.results != nil && rel < len(m.s.results) {
			m.s.results[rel][m.rank] = ev.Value
		}
		m.s.complete(m.rank, ev.Seq)
	case EvBarrierMsg:
		// Replenish the receive buffer consumed by this message.
		m.node.Host.PostRecvTokens(1)
		fromRank, ok := m.group.RankOf(ev.FromNode)
		if !ok {
			panic(fmt.Sprintf("myrinet: barrier message from non-member node %d", ev.FromNode))
		}
		sends, done, err := m.hostOp.Arrive(ev.Seq, fromRank)
		if err != nil {
			panic(fmt.Sprintf("myrinet: rank %d: %v", m.rank, err))
		}
		m.hostSend(m.hostOp.Seq(), sends)
		if done {
			m.s.complete(m.rank, m.hostOp.Seq())
		}
	}
}
