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

// Session runs consecutive barriers over a subset of an Elan cluster on
// the shared run driver (core.Session, embedded). Chained and gsync
// sessions carry their own group ID and can coexist on one cluster; the
// hardware barrier is a cluster-singleton network transaction and
// supports one live session at a time.
type Session struct {
	*core.Session
	cl     *Cluster
	gid    core.GroupID
	scheme Scheme
	// members holds every member in one slice, in rank order; chain
	// tables and host bindings point into it.
	members []member
}

// member is one rank of a session: its chained-descriptor barrier,
// armed on its node's card by SchemeChained, whose state machine drives
// the host-side gsync tree under SchemeGsync instead (SchemeHW uses
// neither).
type member struct {
	s    *Session
	node *Node
	// hwSeq tracks hardware-barrier rounds for this member.
	hwSeq int
	chainOp
}

// NewSession prepares a barrier session on group SessionGroupID over
// nodeIDs (rank order; the harness passes a random permutation).
// alg/opts select the schedule for SchemeChained; SchemeGsync always
// uses the gather-broadcast tree (that is what elan_gsync is) and
// SchemeHW uses none. It panics on installation failure.
func NewSession(cl *Cluster, nodeIDs []int, scheme Scheme, alg barrier.Algorithm, opts barrier.Options) *Session {
	if scheme == SchemeGsync {
		alg = barrier.GatherBroadcast
	}
	var plan *barrier.Plan
	if scheme != SchemeHW {
		plan = barrier.NewPlan(alg, len(nodeIDs), opts)
	}
	s, err := NewGroupSession(cl, SessionGroupID, nodeIDs, scheme, plan)
	if err != nil {
		panic(fmt.Sprintf("elan: %v", err))
	}
	return s
}

// NewGroupSession prepares a barrier session running plan on group gid,
// one member per node of nodeIDs (rank order). SchemeChained arms plan as
// every member's descriptor list; SchemeGsync runs it on the hosts and
// must be given a gather-broadcast plan, the tree elan_gsync is;
// SchemeHW ignores it. The whole membership is checked before any card
// or host state is touched, so a construction failing on an unknown
// scheme, exhausted chain slots, an ID already armed or bound on a
// member, or (SchemeHW) a live hardware-barrier session holding the
// cluster's network transaction leaves the cluster as it was.
func NewGroupSession(cl *Cluster, gid core.GroupID, nodeIDs []int, scheme Scheme, plan *barrier.Plan) (*Session, error) {
	if len(nodeIDs) == 0 {
		panic("elan: empty session")
	}
	switch scheme {
	case SchemeChained, SchemeHW:
	case SchemeGsync:
		if alg := plan.Rank(0).Algorithm(); alg != barrier.GatherBroadcast {
			return nil, fmt.Errorf("elan: %v runs a %v tree, not %v", scheme, barrier.GatherBroadcast, alg)
		}
	default:
		return nil, fmt.Errorf("elan: unknown scheme %d", int(scheme))
	}
	for _, id := range nodeIDs {
		if id < 0 || id >= len(cl.Nodes) {
			panic(fmt.Sprintf("elan: node %d outside cluster of %d", id, len(cl.Nodes)))
		}
		node := cl.Nodes[id]
		if scheme == SchemeHW {
			continue
		}
		if _, bound := node.Host.groups.Get(gid); bound {
			return nil, fmt.Errorf("elan: node %d: group %d already bound", id, gid)
		}
		if scheme == SchemeChained {
			if err := node.NIC.chains.Check(gid, node.Prof.NIC.ChainSlots); err != nil {
				return nil, fmt.Errorf("elan: node %d: %w", id, err)
			}
		}
	}
	if scheme == SchemeHW && cl.hw.held {
		return nil, fmt.Errorf("elan: hardware barrier held by a live session")
	}
	s := &Session{cl: cl, gid: gid, scheme: scheme}
	s.Session = core.NewSession(cl.Eng, len(nodeIDs), hooks{s}, core.Chained)
	var arena *core.Arena
	if scheme == SchemeHW {
		cl.hw.configure(nodeIDs)
	} else {
		arena = core.NewArena(plan)
	}
	s.members = make([]member, len(nodeIDs))
	group := core.NewGroup(gid, nodeIDs)
	if scheme != SchemeHW {
		// Room for the new entry in every member's chain table and host
		// bindings, from one allocation each.
		node := func(rank int) *Node { return cl.Nodes[group.Nodes[rank]] }
		if scheme == SchemeChained {
			core.ReserveTables(len(nodeIDs), func(r int) *core.Table[*chainOp] { return &node(r).NIC.chains })
		}
		core.ReserveBindings(len(nodeIDs), func(r int) *core.Bindings[*member] { return &node(r).Host.groups })
	}
	for rank, id := range group.Nodes {
		m := &s.members[rank]
		m.s, m.node = s, cl.Nodes[id]
		m.group, m.rank = group, rank
		if scheme == SchemeHW {
			// No schedule: one network transaction synchronizes all. HW
			// completions carry no group, so they flow through the plain
			// event hook — one HW session per cluster, like the hardware.
			m.node.Host.OnEvent = m.handleEvent
			continue
		}
		m.state = arena.Op(rank)
		if scheme == SchemeChained {
			if err := m.node.NIC.armChain(&m.chainOp); err != nil {
				return nil, err
			}
		}
		m.node.Host.bind(int(gid), m)
	}
	return s, nil
}

// RunSkewed runs a single barrier whose members enter with the given
// per-rank offsets and reports the time from the LAST entry to global
// completion — the cost visible to the last process, which is what an
// application's critical path sees. The paper's point about elan_hgsync
// ("it requires that the involving processes be well synchronized...
// hardly the case for parallel programs over large size clusters") shows
// up here as test-and-set retries once the skew exceeds the sync window,
// while the NIC-based barrier simply buffers early notifications. The
// entries are NextAt deferrals of an ordinary one-iteration run, so the
// driver's launch guards and sequence bookkeeping apply.
func (s *Session) RunSkewed(skew []sim.Duration) sim.Duration {
	if len(skew) != s.Size() {
		panic(fmt.Sprintf("elan: %d offsets for %d members", len(skew), s.Size()))
	}
	now := s.cl.Eng.Now()
	last := now
	for _, d := range skew {
		if at := now.Add(d); at > last {
			last = at
		}
	}
	nextAt := s.NextAt
	s.NextAt = func(rank, _ int) sim.Time { return now.Add(skew[rank]) }
	doneAt := s.Run(1)
	s.NextAt = nextAt
	return doneAt[0].Sub(last)
}

// hooks is the session's core.Backend: the per-member actions behind
// the driver's run bookkeeping.
type hooks struct{ s *Session }

func (h hooks) String() string {
	return fmt.Sprintf("elan: %v group %d", h.s.scheme, h.s.gid)
}

// Start posts absolute operation seq on rank's node: a chain doorbell,
// a hardware-barrier entry, or the gsync tree's first sends.
func (h hooks) Start(rank, seq, _ int) {
	m := &h.s.members[rank]
	switch h.s.scheme {
	case SchemeChained:
		m.node.Host.triggerChain(int(h.s.gid))
	case SchemeHW:
		m.node.Host.postHWBarrier()
	case SchemeGsync:
		sends, done, err := m.state.Start(seq)
		if err != nil {
			panic(fmt.Sprintf("elan: rank %d: %v", rank, err))
		}
		m.gsyncSend(seq, sends)
		if done {
			h.s.Complete(rank, seq)
		}
	}
}

// Abort quiesces rank's gsync host-side schedule state and freezes its
// card's chain, leaving descriptor-slot accounting consistent for the
// Close that must follow.
func (h hooks) Abort(rank int) {
	m := &h.s.members[rank]
	switch h.s.scheme {
	case SchemeChained:
		m.node.NIC.abortChain(h.s.gid)
	case SchemeGsync:
		m.state.Abort()
	}
}

// Uninstall disarms every chained member's descriptor list (freeing the
// Elan SRAM slot, the disarm cost charged on the card) and releases the
// host binding; gsync sessions only release the binding (the tree lives
// in host memory); hardware-barrier sessions detach the singleton event
// hook and release the network transaction for a future session. The
// session then drops its members, so a closed session its caller keeps
// for its results holds no member, chain or state machine.
func (h hooks) Uninstall() {
	for i := range h.s.members {
		m := &h.s.members[i]
		switch h.s.scheme {
		case SchemeChained:
			m.node.NIC.disarmChain(h.s.gid)
			m.node.Host.unbind(int(h.s.gid))
		case SchemeGsync:
			m.node.Host.unbind(int(h.s.gid))
		case SchemeHW:
			m.node.Host.OnEvent = nil
		}
	}
	if h.s.scheme == SchemeHW {
		h.s.cl.hw.held = false
	}
	h.s.members = nil
}

// ChargeInstall charges every member card's chain-install cost (chained
// sessions only; the other schemes keep no NIC-resident per-group
// state).
func (h hooks) ChargeInstall() {
	if h.s.scheme != SchemeChained {
		return
	}
	for i := range h.s.members {
		h.s.members[i].node.NIC.chargeChainInstall(h.s.gid)
	}
}

func (m *member) gsyncSend(seq int, ranks []int) {
	for _, r := range ranks {
		m.node.Host.sendRemoteEvent(m.group.NodeOf(r), int(m.s.gid), seq)
	}
}

// handleEvent consumes the member's host events for the
// session's group (all events, for the hardware barrier).
func (m *member) handleEvent(ev Event) {
	switch ev.Kind {
	case EvBarrierDone:
		m.s.Complete(m.rank, ev.Seq)
	case EvHWBarrier:
		seq := m.hwSeq
		m.hwSeq++
		m.s.Complete(m.rank, seq)
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
	sends, done, err := m.state.Arrive(seq, fromRank)
	if err != nil {
		panic(fmt.Sprintf("elan: rank %d: %v", m.rank, err))
	}
	m.gsyncSend(m.state.Seq(), sends)
	if done {
		m.s.Complete(m.rank, m.state.Seq())
	}
}
