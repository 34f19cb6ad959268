// Package elan models a Quadrics QsNet cluster node: the Elan3 network
// interface (RDMA engine, events, chained RDMA descriptors) under an
// Elanlib-like host interface. Three barrier implementations from the
// paper's Section 7 and 8.2 are provided:
//
//   - the paper's NIC-based barrier: a list of chained RDMA descriptors
//     armed from user level, each triggered by the arrival of a remote
//     event, no NIC thread (Section 7);
//   - elan_gsync(): the tree-based gather-broadcast barrier driven by the
//     host at every step (the baseline the 2.48x improvement is against);
//   - elan_hgsync(): the hardware-broadcast barrier (an atomic
//     test-and-set network transaction down the NIC with switch-level
//     combining), which beats everything at scale but requires the
//     processes to be closely synchronized.
//
// QsNet provides hardware-level reliable delivery, so unlike the Myrinet
// substrate there are no ACKs, NACKs or retransmission here at all.
package elan

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/pci"
	"nicbarrier/internal/sim"
	"nicbarrier/internal/topo"
)

// rdmaMsg is a zero-byte RDMA whose only effect is firing a remote event
// — "all messages communicated between processes just serve as a form of
// notification" (Section 7).
type rdmaMsg struct {
	group    core.GroupID
	seq      int
	fromRank int
	// hostLevel marks gsync-style RDMAs whose arrival must be surfaced
	// to the host rather than consumed by a NIC-resident chain.
	hostLevel bool
}

// hwBarrierMsg is the broadcast phase of the hardware barrier.
type hwBarrierMsg struct {
	round int
}

// Event is a host-visible completion.
type Event struct {
	Kind     EventKind
	Group    int
	Seq      int
	FromNode int
}

// EventKind classifies host events.
type EventKind int

// Host event kinds.
const (
	EvBarrierDone EventKind = iota + 1
	EvRemote                // a host-level remote event fired (gsync step)
	EvHWBarrier             // hardware barrier round completed
)

// Node is one QsNet cluster node.
type Node struct {
	ID   int
	Prof *hwprofile.QuadricsProfile
	Bus  *pci.Bus
	Host *Host
	NIC  *NIC

	cluster *Cluster // set by NewCluster; needed by the hardware barrier
}

// Host models the host CPU side of Elanlib.
type Host struct {
	sim.Proc
	node *Node
	// OnEvent receives every host event not claimed by a group binding.
	OnEvent func(Event)
	// groups routes group-addressed events (chain completions, gsync
	// remote events) to the session driving that group, so concurrent
	// communicators can share one node.
	groups core.Bindings[EventHandler]
}

// EventHandler consumes the host events of one bound group. Session
// members implement it, so binding a member stores the member itself
// rather than a method value built per bind.
type EventHandler interface {
	HandleEvent(Event)
}

// Bind routes this node's events for one group ID to eh; duplicate
// bindings panic (two drivers for one group is a programming error).
func (h *Host) Bind(groupID int, eh EventHandler) {
	if eh == nil {
		panic("elan: nil group event handler")
	}
	if !h.groups.Bind(core.GroupID(groupID), eh) {
		panic(fmt.Sprintf("elan: node %d: group %d already bound", h.node.ID, groupID))
	}
}

// Unbind releases a group's event routing (the host half of teardown).
// Unbinding a group that was never bound panics. Late events for the
// group fall through to OnEvent afterwards, like any unbound group's.
func (h *Host) Unbind(groupID int) {
	if !h.groups.Unbind(core.GroupID(groupID)) {
		panic(fmt.Sprintf("elan: node %d: unbinding group %d that is not bound", h.node.ID, groupID))
	}
}

// NIC is the Elan3 model.
//
// The Elan3's event unit and DMA engine are much cheaper per operation
// than a LANai firmware handler, which is why it absorbs hot-spot
// arrivals gracefully (the paper's observation on PE vs DS).
type NIC struct {
	sim.Proc
	node *Node
	net  *netsim.Network
	pool *pool // the cluster's shared handler and payload free lists

	// chains is the card's descriptor-list table, at most ChainSlots
	// entries. QsNet delivers reliably, so arrivals for a disarmed chain
	// happen only when a delay-type fault holds an RDMA in flight; its
	// tombstones make those droppable.
	chains core.Table[*chainOp]

	// OnHeartbeat, when set, observes liveness heartbeats addressed to
	// this node (communicator-layer failure detection). Routed here, at
	// the NIC, so heartbeats ride the simulated wire and are silenced by
	// the same crashes and partitions that stall the collectives.
	OnHeartbeat func(group core.GroupID, fromRank int)

	// tr, when non-nil, receives card-level trace events (doorbells,
	// completions, installs, stale arrivals) and per-group NIC-time
	// attribution. Disabled cost: one nil check per site.
	tr *obs.Scope

	Stats Stats
}

// traceEvent records a card-level event on this NIC's trace track.
func (n *NIC) traceEvent(group int, k obs.Kind, arg int64) {
	if n.tr != nil {
		n.tr.NICEvent(n.Eng.Now(), n.node.ID, group, k, arg)
	}
}

// traceTime attributes one handler's service time to group's NIC
// decomposition bucket; call it alongside the exec charging that work.
func (n *NIC) traceTime(group int, cycles int64, fixed sim.Duration) {
	if n.tr != nil {
		n.tr.NICTime(group, sim.Cycles(cycles, n.ClockMHz)+fixed)
	}
}

// Stats counts Elan activity.
type Stats struct {
	RDMAsSent   uint64
	EventsFired uint64
	ChainsRun   uint64
	HWBarriers  uint64
	// StaleRDMAs counts arrivals addressed to a disarmed chain (possible
	// only when a delay-type fault holds an RDMA past its group's drain).
	StaleRDMAs uint64
	// Failure-detection and abort accounting (zero unless a recovery
	// config is active on some group).
	HeartbeatsSent  uint64
	HeartbeatsRecvd uint64
	AbortedOps      uint64
}

// chainOp is a NIC-resident chained-descriptor barrier: the compiled form
// of a barrier schedule where each RDMA descriptor is triggered by the
// arrival of the remote event it waits on. Session members embed it, so
// the descriptor-list table points into their session's member slice.
type chainOp struct {
	group   *core.Group // shared by every member of the session
	rank    int         // this member's rank in group
	state   *core.OpState
	nextSeq int
	// frozen marks a chain aborted mid-operation (deadline expiry): late
	// doorbells and arrivals count stale instead of touching state, so
	// the chain can be disarmed without waiting out in-flight RDMAs.
	frozen bool
}

// port is a NIC seen as its host's receiver on the network.
type port NIC

// Receive implements netsim.Receiver.
func (p *port) Receive(pkt netsim.Packet) { (*NIC)(p).onPacket(pkt) }

// newNodes builds the cluster's nodes attached to its network,
// scheduling their per-message handlers from the cluster's pool. The
// nodes, hosts, NICs and buses are one slice each, and every node points
// into them, so a cluster's per-node records cost four allocations in
// all.
func newNodes(cl *Cluster, n int) []*Node {
	eng, prof := cl.Eng, &cl.Prof
	nodes, hosts, nics := make([]Node, n), make([]Host, n), make([]NIC, n)
	buses := pci.NewBuses(eng, prof.PCI, n)
	ptrs := make([]*Node, n)
	for i := range nodes {
		node := &nodes[i]
		*node = Node{ID: i, Prof: prof, Bus: &buses[i], Host: &hosts[i], NIC: &nics[i], cluster: cl}
		hosts[i] = Host{Proc: sim.Proc{Eng: eng, ClockMHz: prof.Host.ClockMHz}, node: node}
		nics[i] = NIC{
			Proc: sim.Proc{Eng: eng, ClockMHz: prof.NIC.ClockMHz},
			node: node,
			net:  cl.Net,
			pool: &cl.pool,
		}
		cl.Net.Attach(i, (*port)(&nics[i]))
		ptrs[i] = node
	}
	return ptrs
}

// deliver hands an event the card wrote to the host, charging the
// host's poll cost before dispatch sees it.
func (h *Host) deliver(ev Event) {
	r := h.node.NIC.get(hDeliver)
	r.ev = ev
	h.Exec(h.node.Prof.Host.RecvPollCycles, 0, r)
}

// dispatch routes a polled event: group-addressed events to their bound
// handler, everything else (and events for unbound groups) to OnEvent.
func (h *Host) dispatch(ev Event) {
	if ev.Kind == EvBarrierDone || ev.Kind == EvRemote {
		if eh, ok := h.groups.Get(core.GroupID(ev.Group)); ok {
			eh.HandleEvent(ev)
			return
		}
	}
	if h.OnEvent != nil {
		h.OnEvent(ev)
	}
}

// armChain installs the chained-descriptor barrier op for its group. The
// host sets up the descriptor list once from user level; afterwards each
// TriggerChain doorbell runs one barrier entirely on the NICs. Arming
// fails when the group's ID is already armed or the card's
// descriptor-list slots are exhausted.
func (n *NIC) armChain(op *chainOp) error {
	if err := n.chains.Claim(op.group.ID, op, n.node.Prof.NIC.ChainSlots); err != nil {
		return fmt.Errorf("elan: node %d: %w", n.node.ID, err)
	}
	return nil
}

// ChainSlotsFree reports how many chained-descriptor slots remain.
func (n *NIC) ChainSlotsFree() int {
	return n.node.Prof.NIC.ChainSlots - n.chains.Len()
}

// DisarmChain retires a group's chained-descriptor list, freeing its
// Elan SRAM slot, and charges the disarm cost on the card (descriptor
// invalidation serializes with the event unit). The chain must be idle:
// disarming mid-operation panics, as armed descriptors still wait on
// remote events. Disarming an unknown chain panics — a double free.
func (n *NIC) DisarmChain(id core.GroupID) {
	op, ok := n.chains.Get(id)
	if !ok {
		panic(fmt.Sprintf("elan: node %d: disarming unknown chain %d", n.node.ID, id))
	}
	if op.state.Active() {
		panic(fmt.Sprintf("elan: node %d: disarming chain %d mid-operation", n.node.ID, id))
	}
	// QsNet has no retransmission, so stale arrivals exist only under
	// delay-type faults, and 10ms of virtual time dwarfs any jitter the
	// fault models inject.
	n.chains.Release(id, n.Eng.Now(), sim.Micros(10000))
	n.traceEvent(int(id), obs.KindUninstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupUninstallCost)
	n.Exec(0, n.node.Prof.NIC.GroupUninstallCost, sim.Nop{})
}

// ChargeChainInstall charges the cost of arming a descriptor list on the
// simulated timeline; see the Myrinet NIC's ChargeGroupInstall for the
// setup-phase-vs-lifecycle distinction.
func (n *NIC) ChargeChainInstall(id core.GroupID) {
	n.traceEvent(int(id), obs.KindInstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupInstallCost)
	n.Exec(0, n.node.Prof.NIC.GroupInstallCost, sim.Nop{})
}

// TriggerChain is the host-side barrier entry: post the doorbell that
// fires the first RDMA descriptor of the armed chain.
func (h *Host) TriggerChain(groupID int) {
	r := h.node.NIC.get(hTrigger)
	r.msg.group = core.GroupID(groupID)
	h.Exec(h.node.Prof.Host.SendPostCycles, 0, r)
}

func (n *NIC) mustChain(id core.GroupID) *chainOp {
	op, ok := n.chains.Get(id)
	if !ok {
		panic(fmt.Sprintf("elan: node %d: no chain for group %d", n.node.ID, id))
	}
	return op
}

// AbortChain cancels a group's in-flight chained operation: the
// schedule state is quiesced (so DisarmChain's idle check passes) and
// the chain frozen — late doorbells and arrivals for it count stale.
// The SRAM slot stays occupied until DisarmChain, exactly as in the
// orderly path. Aborting an unknown chain panics.
func (n *NIC) AbortChain(id core.GroupID) {
	op, ok := n.chains.Get(id)
	if !ok {
		panic(fmt.Sprintf("elan: node %d: aborting unknown chain %d", n.node.ID, id))
	}
	op.state.Abort()
	op.frozen = true
	n.Stats.AbortedOps++
	n.traceEvent(int(id), obs.KindOpTimeout, 0)
}

// SendHeartbeat emits one zero-payload liveness probe to dstNode over
// the simulated network. No NIC time is charged: the probe models a
// periodic event-unit write far below the simulator's cost resolution,
// and heartbeats must not perturb gated timelines.
func (n *NIC) SendHeartbeat(group core.GroupID, fromRank, dstNode int) {
	n.net.Send(netsim.Packet{
		Src:     n.node.ID,
		Dst:     dstNode,
		Size:    8,
		Kind:    "heartbeat",
		Group:   int(group),
		Payload: core.Heartbeat{Group: group, Rank: fromRank},
	})
	n.Stats.HeartbeatsSent++
}

func (n *NIC) startChain(id core.GroupID) {
	op := n.mustChain(id)
	if op.frozen {
		// A doorbell posted before the abort landed after it.
		n.Stats.StaleRDMAs++
		n.traceEvent(int(id), obs.KindStale, int64(op.nextSeq))
		return
	}
	seq := op.nextSeq
	op.nextSeq++
	n.traceEvent(int(id), obs.KindDoorbell, int64(seq))
	sends, done, err := op.state.Start(seq)
	if err != nil {
		panic(fmt.Sprintf("elan: node %d: %v", n.node.ID, err))
	}
	n.Stats.ChainsRun++
	n.fireRDMAs(op, seq, sends)
	if done {
		n.completeChain(op, seq)
	}
}

// fireRDMAs queues one descriptor per notification on the DMA engine.
func (n *NIC) fireRDMAs(op *chainOp, seq int, ranks []int) {
	p := n.node.Prof.NIC
	for _, r := range ranks {
		h := n.get(hRDMASend)
		h.op, h.dst = op, op.group.NodeOf(r)
		h.msg = rdmaMsg{group: op.group.ID, seq: seq, fromRank: op.rank}
		n.traceTime(int(op.group.ID), p.DMADescCycles, p.SendFixed)
		n.Exec(p.DMADescCycles, p.SendFixed, h)
	}
}

// sendRDMA injects one zero-byte RDMA to node dst on its own pooled
// payload.
func (n *NIC) sendRDMA(dst int, kind string, m rdmaMsg) {
	pl := n.pool.payloads.Get()
	*pl = m
	n.net.Send(netsim.Packet{
		Src:     n.node.ID,
		Dst:     dst,
		Size:    n.node.Prof.BarrierBytes,
		Kind:    kind,
		Group:   int(m.group),
		Payload: pl,
	})
	n.Stats.RDMAsSent++
}

func (n *NIC) onPacket(pkt netsim.Packet) {
	switch m := pkt.Payload.(type) {
	case *rdmaMsg:
		msg := *m
		n.pool.payloads.Put(m)
		n.onRDMA(msg, pkt.Src)
	case hwBarrierMsg:
		n.completeHW(m)
	case core.Heartbeat:
		// Liveness probes bypass the event unit: no NIC time charged.
		n.Stats.HeartbeatsRecvd++
		if n.OnHeartbeat != nil {
			n.OnHeartbeat(m.Group, m.Rank)
		}
	default:
		panic(fmt.Sprintf("elan: node %d: unknown payload %T", n.node.ID, pkt.Payload))
	}
}

// onRDMA fires the event a zero-byte RDMA addresses. For chained barriers
// the event triggers the next descriptors; for host-level RDMAs (gsync)
// the event surfaces to the host.
func (n *NIC) onRDMA(m rdmaMsg, fromNode int) {
	p := n.node.Prof.NIC
	n.traceTime(int(m.group), p.EventFireCycles, 0)
	h := n.get(hRDMARecv)
	h.msg, h.dst = m, fromNode
	n.Exec(p.EventFireCycles, 0, h)
}

// fireEvent is onRDMA's handler body.
func (n *NIC) fireEvent(m rdmaMsg, fromNode int) {
	p := n.node.Prof.NIC
	n.Stats.EventsFired++
	if m.hostLevel {
		n.traceTime(int(m.group), 0, p.HostEventWrite)
		h := n.get(hHostEvent)
		h.ev = Event{Kind: EvRemote, Group: int(m.group), Seq: m.seq, FromNode: fromNode}
		n.Exec(0, p.HostEventWrite, h)
		return
	}
	// A live chain is never retired, so the tombstones are read only
	// on a miss.
	op, ok := n.chains.Get(m.group)
	if !ok && !n.chains.Retired(m.group) {
		panic(fmt.Sprintf("elan: node %d: no chain for group %d", n.node.ID, m.group))
	}
	if !ok || op.frozen {
		n.Stats.StaleRDMAs++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	sends, done, err := op.state.Arrive(m.seq, m.fromRank)
	if err != nil {
		panic(fmt.Sprintf("elan: node %d: %v", n.node.ID, err))
	}
	if len(sends) > 0 {
		// The chained event triggers the next descriptors.
		n.traceTime(int(m.group), p.ChainCycles, 0)
		n.Exec(p.ChainCycles, 0, sim.Nop{})
		n.fireRDMAs(op, op.state.Seq(), sends)
	}
	if done {
		n.completeChain(op, op.state.Seq())
	}
}

// completeChain fires the local host event of the last descriptor: "the
// completion of the very last RDMA operation will trigger a local event
// to the host process".
func (n *NIC) completeChain(op *chainOp, seq int) {
	p := n.node.Prof.NIC
	n.traceEvent(int(op.group.ID), obs.KindComplete, int64(seq))
	n.traceTime(int(op.group.ID), 0, p.HostEventWrite)
	h := n.get(hComplete)
	h.op = op
	h.ev = Event{Kind: EvBarrierDone, Group: int(op.group.ID), Seq: seq}
	n.Exec(0, p.HostEventWrite, h)
}

// SendRemoteEvent issues one host-initiated zero-byte RDMA that fires a
// host-visible event on the destination — the building block of the
// host-driven gsync tree barrier. It charges Elanlib's heavier gsync
// post cost.
func (h *Host) SendRemoteEvent(dstNode int, groupID, seq int) {
	if dstNode == h.node.ID {
		panic("elan: self RDMA not modeled")
	}
	r := h.node.NIC.get(hRemotePost)
	r.dst = dstNode
	r.msg = rdmaMsg{group: core.GroupID(groupID), seq: seq, fromRank: -1, hostLevel: true}
	h.Exec(h.node.Prof.GsyncPostCycles, 0, r)
}

// Cluster is a set of Elan nodes on a quaternary fat tree.
type Cluster struct {
	Eng   *sim.Engine
	Prof  hwprofile.QuadricsProfile
	Net   *netsim.Network
	Nodes []*Node

	hw *hwBarrier

	// pool is the one free list of handler records and RDMA payloads
	// that every node's NIC and host schedule from.
	pool pool
}

// NewCluster builds an n-node QsNet cluster on the smallest quaternary
// fat tree that fits.
func NewCluster(eng *sim.Engine, prof hwprofile.QuadricsProfile, n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("elan: cluster size %d", n))
	}
	t := topo.MinFatTree(prof.FatTreeArity, n)
	eng.Reserve(2 * n)
	cl := &Cluster{Eng: eng, Prof: prof, Net: netsim.New(eng, t, prof.Net)}
	cl.Nodes = newNodes(cl, n)
	cl.hw = newHWBarrier(cl)
	return cl
}

// SetTracer attaches an observability scope: the network records packet
// lifecycle events on it and every NIC records card-level events plus
// per-group NIC-time attribution. nil detaches. Tracing never alters
// the simulated timeline; untraced cost is one nil check per site.
func (cl *Cluster) SetTracer(sc *obs.Scope) {
	cl.Net.SetTracer(sc)
	for _, node := range cl.Nodes {
		node.NIC.tr = sc
	}
}

// SetFaults installs a fault-injection impairment on the cluster's
// network, wrapped in netsim.DelayOnly: QsNet provides hardware-level
// reliable delivery, so link-loss effects (drop, reject, blocking) are
// stripped and only latency-type effects (delay, jitter, throttling)
// take hold. Fail-stop outcomes (fault.Crash) pass through — hardware
// reliability recovers lost packets, not dead endpoints — so a crashed
// node silences a Quadrics cluster exactly as it does a Myrinet one.
// A link-loss-only plan still leaves a Quadrics cluster's behavior
// bit-identical to the fault-free run.
func (cl *Cluster) SetFaults(imp netsim.Impairment) {
	if imp == nil {
		cl.Net.SetImpairment(nil)
		return
	}
	cl.Net.SetImpairment(netsim.DelayOnly{Inner: imp})
}

// Levels reports the fat-tree depth, which the hardware barrier's cost
// scales with.
func (cl *Cluster) Levels() int { return cl.Net.Topology().Levels() }

// Stats sums NIC statistics over all nodes.
func (cl *Cluster) Stats() Stats {
	var total Stats
	for _, node := range cl.Nodes {
		total.RDMAsSent += node.NIC.Stats.RDMAsSent
		total.EventsFired += node.NIC.Stats.EventsFired
		total.ChainsRun += node.NIC.Stats.ChainsRun
		total.HWBarriers += node.NIC.Stats.HWBarriers
		total.StaleRDMAs += node.NIC.Stats.StaleRDMAs
		total.HeartbeatsSent += node.NIC.Stats.HeartbeatsSent
		total.HeartbeatsRecvd += node.NIC.Stats.HeartbeatsRecvd
		total.AbortedOps += node.NIC.Stats.AbortedOps
	}
	return total
}
