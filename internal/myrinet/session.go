package myrinet

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
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
// cluster's nodes on the shared run driver (core.Session, embedded: its
// Launch, Run, Reset, Abort, Close and the NextAt/OnIterDone hooks are
// the session's). Each session owns one group ID; several sessions with
// distinct IDs can coexist on one cluster (the communicator layer builds
// multi-tenant workloads that way), with per-node event routing keyed on
// the group ID.
type Session struct {
	*core.Session
	cl     *Cluster
	gid    core.GroupID
	scheme Scheme
	// members holds every member in one slice, in rank order; NIC group
	// tables and host bindings point into it.
	members []member
	// contrib supplies each rank's allreduce contribution per run-local
	// iteration; nil for barriers and broadcasts.
	contrib func(rank, iter int) int64
}

// member is one rank of a session: its group-queue entry, installed on
// its node's NIC by the NIC-based schemes, whose state machine drives
// the host-side schedule under SchemeHost instead.
type member struct {
	s *Session
	groupOp
}

// node returns the member's node.
func (m *member) node() *Node { return m.nic.node }

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
	return newSession(cl, gid, nodeIDs, scheme, barrier.NewPlan(alg, len(nodeIDs), opts), core.Chained, 0)
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
	return newSession(cl, gid, nodeIDs, SchemeCollective, barrier.NewBroadcastPlan(len(nodeIDs), root, degree), core.Gated, 0)
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
	// An operator/schedule combination that cannot be exact fails rank
	// 0's install, before any NIC state is touched.
	s, err := newSession(cl, gid, nodeIDs, SchemeCollective, barrier.NewPlan(alg, len(nodeIDs), opts), core.Results, op)
	if err != nil {
		return nil, err
	}
	s.contrib = contrib
	return s, nil
}

// newSession installs one member per node, each reading its view of the
// session's one plan; Results sessions install op's reduce records. The
// members, their state machines and their group share a fixed number of
// allocations whatever the group size (see core.Arena). The whole
// membership is pre-checked before any NIC or host state is touched, so
// failed constructions leave the cluster exactly as it was (no
// half-installed groups, no dangling event bindings).
func newSession(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	plan *barrier.Plan, mode core.Mode, op core.ReduceOp) (*Session, error) {
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("myrinet: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		if node.Host.bound(int(gid)) {
			return nil, fmt.Errorf("myrinet: node %d: group %d already bound", id, gid)
		}
		if scheme != SchemeHost {
			if err := node.NIC.checkSlot(gid); err != nil {
				return nil, err
			}
		}
	}
	if scheme < SchemeHost || scheme > SchemeCollective {
		panic(fmt.Sprintf("myrinet: unknown scheme %d", int(scheme)))
	}
	var arena *core.Arena
	if mode == core.Results {
		var err error
		if arena, err = core.NewReduceArena(op, plan); err != nil {
			return nil, err
		}
	} else {
		arena = core.NewArena(plan)
	}
	s := &Session{cl: cl, gid: gid, scheme: scheme, members: make([]member, len(nodeIDs))}
	s.Session = core.NewSession(cl.Eng, len(nodeIDs), hooks{s}, mode)
	group := core.NewGroup(gid, nodeIDs)
	for rank, id := range group.Nodes {
		m := &s.members[rank]
		m.s = s
		m.groupOp = groupOp{
			nic:    cl.Nodes[id].NIC,
			group:  group,
			rank:   rank,
			state:  arena.Op(rank),
			reduce: arena.Reduce(rank),
			direct: scheme == SchemeDirect,
		}
		if scheme == SchemeHost {
			// Pre-post a pool of receive buffers; each consumed event
			// is replenished during the run.
			m.node().Host.PostRecvTokens(m.state.Schedule().TotalWaits() + 4)
		} else if err := m.nic.install(&m.groupOp); err != nil {
			return nil, err
		}
		m.node().Host.Bind(int(gid), m)
	}
	return s, nil
}

// hooks is the session's core.Backend: the per-member actions behind
// the driver's run bookkeeping.
type hooks struct{ s *Session }

func (h hooks) String() string {
	return fmt.Sprintf("myrinet: %v group %d", h.s.scheme, h.s.gid)
}

// Start posts absolute operation seq on rank's node: an allreduce
// contribution, a doorbell, or the host scheme's first sends.
func (h hooks) Start(rank, seq, iter int) {
	m := &h.s.members[rank]
	if h.s.contrib != nil {
		m.node().Host.PostReduce(int(h.s.gid), h.s.contrib(rank, iter))
		return
	}
	if h.s.scheme != SchemeHost {
		m.node().Host.PostBarrier(int(h.s.gid))
		return
	}
	sends, done, err := m.state.Start(seq)
	if err != nil {
		panic(fmt.Sprintf("myrinet: rank %d: %v", rank, err))
	}
	m.hostSend(seq, sends)
	if done {
		h.s.Complete(rank, seq)
	}
}

// Abort quiesces rank's host-side schedule state and freezes its NIC's
// group op: late doorbells, arrivals and NACKs count stale instead of
// touching state.
func (h hooks) Abort(rank int) {
	m := &h.s.members[rank]
	if h.s.scheme == SchemeHost {
		m.state.Abort()
	} else {
		m.nic.AbortGroup(h.s.gid)
	}
}

// Uninstall frees every member NIC's group-queue slot and releases the
// host-side event binding. Host-scheme sessions hold no NIC slot (posted
// receive tokens stay with the NIC, as GM's do). The session then drops
// its members, so a closed session its caller keeps for its results
// holds no member, NIC entry or state machine.
func (h hooks) Uninstall() {
	for i := range h.s.members {
		m := &h.s.members[i]
		if h.s.scheme != SchemeHost {
			m.nic.UninstallGroup(h.s.gid)
		}
		m.node().Host.Unbind(int(h.s.gid))
	}
	h.s.members = nil
}

// ChargeInstall charges every member NIC's group-install cost; the host
// scheme keeps no NIC-resident state to write.
func (h hooks) ChargeInstall() {
	if h.s.scheme == SchemeHost {
		return
	}
	for i := range h.s.members {
		h.s.members[i].nic.ChargeGroupInstall(h.s.gid)
	}
}

func (m *member) hostSend(seq int, ranks []int) {
	for _, r := range ranks {
		m.node().Host.sendBarrier(m.group.NodeOf(r), collPayload{group: m.group.ID, seq: seq})
	}
}

// HandleEvent implements EventHandler: the member's host events for the
// session's group.
func (m *member) HandleEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		m.s.SetResult(m.rank, ev.Seq, ev.Value)
		m.s.Complete(m.rank, ev.Seq)
	case EvBarrierMsg:
		// Replenish the receive buffer consumed by this message.
		m.node().Host.PostRecvTokens(1)
		fromRank, ok := m.group.RankOf(ev.FromNode)
		if !ok {
			panic(fmt.Sprintf("myrinet: barrier message from non-member node %d", ev.FromNode))
		}
		sends, done, err := m.state.Arrive(ev.Seq, fromRank)
		if err != nil {
			panic(fmt.Sprintf("myrinet: rank %d: %v", m.rank, err))
		}
		m.hostSend(m.state.Seq(), sends)
		if done {
			m.s.Complete(m.rank, m.state.Seq())
		}
	}
}
