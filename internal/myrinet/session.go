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
	// contrib supplies each rank's fold contribution per run-local
	// iteration; nil unless the session folds.
	contrib func(rank, iter int) int64
}

// member is one rank of a session: its group-queue entry, installed on
// its node's NIC by the NIC-based schemes, whose state machine drives
// the host-side schedule under SchemeHost instead. The NIC group table
// points at it, and it is the sim.Event of its own NACK timer
// (collective entries only; at most one is armed at a time), for
// operation nackSeq. It holds only what differs between the members of
// a session and what every operation writes: the scheme is its
// session's, and the allreduce state and NACK counts live with its
// state machine in the session's arena. TestRecordSizes pins its size.
type member struct {
	nic       *NIC
	s         *Session
	group     *core.Group // shared by every member of the session
	state     *core.OpState
	nackTimer sim.Timer
	nackSeq   int32
	rank      int32 // this member's rank in group
	// nackRound counts consecutive fruitless NACK timer rounds for the
	// active operation (reset by any accepted arrival); past
	// nackStallRounds the NIC raises OnNackStall — NACK recovery repairs
	// lost packets, not dead peers, so an escalating count is the
	// protocol-level smell of a fail-stop failure.
	nackRound int32
	// frozen marks an aborted entry: the slot stays claimed until
	// UninstallGroup, but late doorbells, arrivals and NACKs count as
	// stale instead of touching protocol state — an aborted operation
	// must not restart from a straggler packet.
	frozen bool
}

// node returns the member's node.
func (m *member) node() *Node { return m.nic.node }

// direct reports whether the member is an entry of the direct scheme
// (Buntinas et al.), which rides the point-to-point machinery and never
// NACKs.
func (m *member) direct() bool { return m.s.scheme == SchemeDirect }

// reduce returns the member's allreduce state machine, nil unless the
// session folds.
func (m *member) reduce() *core.ReduceState { return m.state.Reduce() }

// SessionGroupID is the group ID of a cluster's first group, mirroring
// MPI_COMM_WORLD. Multi-group callers pass their own IDs to
// NewGroupSession.
const SessionGroupID = 1

// NewGroupSession prepares a session running plan on group gid, one
// member per node of nodeIDs (rank order). scheme picks who executes the
// plan and mode how operations follow each other (core.Gated for a
// broadcast, which does not synchronize its participants). A non-nil
// contrib makes it a fold over the collective protocol: rank r
// contributes contrib(r, iter), combined under op. The members share a
// fixed number of allocations whatever the group size (see core.Arena),
// and the whole membership is checked before any NIC or host state is
// touched, so a failed construction leaves the cluster as it was.
func NewGroupSession(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme,
	plan *barrier.Plan, mode core.Mode, op core.ReduceOp, contrib func(rank, iter int) int64) (*Session, error) {
	if scheme < SchemeHost || scheme > SchemeCollective {
		return nil, fmt.Errorf("myrinet: unknown scheme %d", int(scheme))
	}
	if contrib != nil && scheme != SchemeCollective {
		return nil, fmt.Errorf("myrinet: a fold needs the %v scheme, not %v", SchemeCollective, scheme)
	}
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("myrinet: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		if _, bound := node.Host.groups.Get(gid); bound {
			return nil, fmt.Errorf("myrinet: node %d: group %d already bound", id, gid)
		}
		if scheme != SchemeHost {
			if err := node.NIC.groups.Check(gid, node.Prof.NIC.GroupQueueSlots); err != nil {
				return nil, fmt.Errorf("myrinet: node %d: %w", id, err)
			}
		}
	}
	var arena *core.Arena
	if contrib != nil {
		var err error
		if arena, err = core.NewReduceArena(op, plan); err != nil {
			return nil, err
		}
	} else {
		arena = core.NewArena(plan)
	}
	group := core.NewGroup(gid, nodeIDs)
	s := &Session{cl: cl, gid: gid, scheme: scheme, members: make([]member, len(nodeIDs)), contrib: contrib}
	s.Session = core.NewSession(cl.Eng, len(nodeIDs), hooks{s}, mode)
	// Room for the new entry in every member's group table and host
	// bindings, from one allocation each.
	node := func(rank int) *Node { return cl.Nodes[group.Nodes[rank]] }
	if scheme != SchemeHost {
		core.ReserveTables(len(nodeIDs), func(r int) *core.Table[*member] { return &node(r).NIC.groups })
	}
	core.ReserveBindings(len(nodeIDs), func(r int) *core.Bindings[EventHandler] { return &node(r).Host.groups })
	for rank := range s.members {
		m := &s.members[rank]
		*m = member{nic: node(rank).NIC, s: s, group: group, state: arena.Op(rank), rank: int32(rank)}
		if scheme == SchemeHost {
			// Pre-post a pool of receive buffers; each consumed event
			// is replenished during the run.
			m.node().Host.PostRecvTokens(m.state.Schedule().TotalWaits() + 4)
		} else if err := m.nic.install(m); err != nil {
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
	g := m.group
	for _, r := range ranks {
		m.node().Host.sendBarrier(g.NodeOf(r), collPayload{group: g.ID, seq: seq})
	}
}

// HandleEvent implements EventHandler: the member's host events for the
// session's group.
func (m *member) HandleEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		m.s.SetResult(int(m.rank), ev.Seq, ev.Value)
		m.s.Complete(int(m.rank), ev.Seq)
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
			m.s.Complete(int(m.rank), m.state.Seq())
		}
	}
}
