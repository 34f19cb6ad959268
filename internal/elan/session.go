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
	s, err := NewSessionWithID(cl, SessionGroupID, nodeIDs, scheme, alg, opts)
	if err != nil {
		panic(fmt.Sprintf("elan: %v", err))
	}
	return s
}

// NewSessionWithID prepares a barrier session on an explicit group ID,
// failing cleanly when a member card's chain slots are exhausted, the ID
// is already armed on a member, or (SchemeHW) a live hardware-barrier
// session holds the cluster's network transaction.
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
	if scheme == SchemeHW && cl.hw.held {
		return nil, fmt.Errorf("elan: hardware barrier held by a live session")
	}
	s := &Session{cl: cl, gid: gid, scheme: scheme}
	s.Session = core.NewSession(cl.Eng, len(nodeIDs), hooks{s}, core.Chained)
	if scheme == SchemeHW {
		cl.hw.configure(nodeIDs)
	}
	var arena *core.Arena
	switch scheme {
	case SchemeChained:
		arena = core.NewArena(barrier.NewPlan(alg, len(nodeIDs), opts))
	case SchemeGsync:
		arena = core.NewArena(barrier.NewPlan(barrier.GatherBroadcast, len(nodeIDs), opts))
	case SchemeHW:
	default:
		panic(fmt.Sprintf("elan: unknown scheme %d", int(scheme)))
	}
	s.members = make([]member, len(nodeIDs))
	group := core.NewGroup(gid, nodeIDs)
	for rank, id := range group.Nodes {
		m := &s.members[rank]
		m.s, m.node = s, cl.Nodes[id]
		m.group, m.rank = group, rank
		if scheme == SchemeHW {
			// No schedule: one network transaction synchronizes all. HW
			// completions carry no group, so they flow through the plain
			// event hook — one HW session per cluster, like the hardware.
			m.node.Host.OnEvent = m.HandleEvent
			continue
		}
		m.state = arena.Op(rank)
		if scheme == SchemeChained {
			if err := m.node.NIC.armChain(&m.chainOp); err != nil {
				return nil, err
			}
		}
		m.node.Host.Bind(int(gid), m)
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
		m.node.Host.TriggerChain(int(h.s.gid))
	case SchemeHW:
		m.node.Host.PostHWBarrier()
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
		m.node.NIC.AbortChain(h.s.gid)
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
			m.node.NIC.DisarmChain(h.s.gid)
			m.node.Host.Unbind(int(h.s.gid))
		case SchemeGsync:
			m.node.Host.Unbind(int(h.s.gid))
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
		h.s.members[i].node.NIC.ChargeChainInstall(h.s.gid)
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
