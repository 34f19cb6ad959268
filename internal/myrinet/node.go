// Package myrinet models a Myrinet/GM cluster node pair: the host side of
// the GM user-level protocol and the LANai NIC running the Myrinet Control
// Program (MCP). It implements the full point-to-point protocol the paper
// describes in Section 4.2 — send events translated to send tokens,
// per-destination queues drained round-robin, send packet claiming and
// filling, per-packet send records with ACK/timeout retransmission,
// receiver sequence checks, receive tokens and host events — plus the
// paper's three barrier schemes on top of it:
//
//   - host-based barriers (the baseline: the host drives every step
//     through plain GM sends and receive events);
//   - the "direct" NIC-based scheme of Buntinas et al. (the NIC triggers
//     the next barrier message on arrival, but every message still rides
//     the p2p machinery);
//   - the paper's collective protocol (internal/core): dedicated group
//     queue, static send packet, one bit-vector send record per barrier,
//     receiver-driven NACK retransmission.
package myrinet

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

// EventKind classifies host events (the records the NIC DMAs into host
// memory for the host to poll).
type EventKind uint8

// Host event kinds.
const (
	EvRecv EventKind = iota + 1
	EvSendDone
	EvBarrierDone
	// EvBarrierMsg is a received host-scheme barrier message: a GM
	// receive whose payload is group Group's notification for operation
	// Seq.
	EvBarrierMsg
)

// Event is one host event record.
type Event struct {
	Kind     EventKind
	FromNode int   // EvRecv, EvBarrierMsg: sender node
	Tag      any   // EvRecv: application tag
	Group    int   // EvBarrierDone, EvBarrierMsg: group ID
	Seq      int   // EvBarrierDone, EvBarrierMsg: operation sequence
	Value    int64 // EvBarrierDone: allreduce result, when applicable
}

// Node is one cluster node: host + PCI bus + NIC. The bus is a
// clockless sim.Proc: PIO writes and DMAs hold it at the profile's PCI
// costs and serialize on it.
type Node struct {
	ID   int
	Prof *hwprofile.MyrinetProfile
	Bus  *sim.Proc
	Host *Host
	NIC  *NIC
}

// dma moves bytes across the node's bus (either direction; the model is
// symmetric) and fires ev at completion: the DMA setup plus the bytes at
// the bus bandwidth.
func (nd *Node) dma(bytes int, ev sim.Event) {
	pci := &nd.Prof.PCI
	nd.Bus.Hold(pci.DMASetup+sim.BytesAt(int64(bytes), pci.BandwidthMBps), ev)
}

// Host models the host CPU side of GM.
type Host struct {
	sim.Proc
	node *Node
	// OnEvent receives every host event not claimed by a group binding,
	// after the host has paid the poll/consume cost.
	OnEvent func(Event)
	// groups routes group-addressed events (barrier completions,
	// host-scheme barrier messages) to the session driving that group, so
	// concurrent communicators can share one node without clobbering each
	// other's event hook.
	groups core.Bindings[*member]
}

// bind routes this node's events for one group ID to session member m.
// It panics on a duplicate binding: two drivers polling the same group's
// completions is a programming error, exactly like double-attaching a
// NIC.
func (h *Host) bind(groupID int, m *member) {
	if !h.groups.Bind(core.GroupID(groupID), m) {
		panic(fmt.Sprintf("myrinet: node %d: group %d already bound", h.node.ID, groupID))
	}
}

// unbind releases a group's event routing, the host half of group
// teardown. Unbinding a group that was never bound panics — it means two
// drivers disagree about who owns the group. Events for the group that
// are still in flight afterwards fall through to OnEvent (usually nil),
// exactly like events for a group that was never installed.
func (h *Host) unbind(groupID int) {
	if !h.groups.Unbind(core.GroupID(groupID)) {
		panic(fmt.Sprintf("myrinet: node %d: unbinding group %d that is not bound", h.node.ID, groupID))
	}
}

// newNodes builds the cluster's nodes attached to its network,
// scheduling their per-message handlers from the cluster's pool. The
// nodes, hosts, NICs and buses are one slice each, and every node points
// into them, so a cluster's per-node records cost four allocations in
// all; every NIC points at the cluster's one nicShared record.
func newNodes(cl *Cluster, n int) []*Node {
	eng, prof := cl.Eng, &cl.Prof
	nodes, hosts, nics := make([]Node, n), make([]Host, n), make([]NIC, n)
	buses := make([]sim.Proc, n)
	ptrs := make([]*Node, n)
	for i := range nodes {
		node := &nodes[i]
		*node = Node{ID: i, Prof: prof, Bus: &buses[i], Host: &hosts[i], NIC: &nics[i]}
		buses[i].Eng = eng
		hosts[i] = Host{Proc: sim.Proc{Eng: eng, ClockMHz: prof.Host.ClockMHz}, node: node}
		nic := &nics[i]
		*nic = NIC{
			Proc:      sim.Proc{Eng: eng, ClockMHz: prof.NIC.ClockMHz},
			node:      node,
			nicShared: &cl.nicShared,
		}
		cl.Net.Attach(i, (*port)(nic))
		ptrs[i] = node
	}
	return ptrs
}

// dispatch routes a consumed event record. Group-addressed events go to
// their bound handler; everything else (and events for unbound groups)
// falls through to OnEvent. Routing is free in virtual time — it models
// the host poll loop demultiplexing its event queue.
func (h *Host) dispatch(ev Event) {
	if ev.Kind == EvBarrierDone || ev.Kind == EvBarrierMsg {
		if m, ok := h.groups.Get(core.GroupID(ev.Group)); ok {
			m.handleEvent(ev)
			return
		}
	}
	if h.OnEvent != nil {
		h.OnEvent(ev)
	}
}

// sendBarrier posts a host-scheme barrier message: an 8-byte GM send
// from host memory whose payload is notification m.
func (h *Host) sendBarrier(dst int, m collPayload) {
	h.postSend(dataMsg{dst: dst, size: 8, route: routeHost, hostData: true, barrier: m})
}

// postSend builds a send token for m and rings the NIC's send doorbell
// (the hSendPost and hSendDoorbell handlers).
func (h *Host) postSend(m dataMsg) {
	nic := h.node.NIC
	tok := nic.pool.data.Get()
	*tok = m
	h.Exec(h.node.Prof.Host.SendPostCycles, 0, nic.with(hSendPost, tok))
}

// postRecvTokens replenishes k receive buffers, one PIO each (GM posts
// each receive buffer separately).
func (h *Host) postRecvTokens(k int) {
	for i := 0; i < k; i++ {
		h.Exec(h.node.Prof.Host.TokenPostCycles, 0, h.node.NIC.pool.get(hRecvTokenPost, h.node.NIC))
	}
}

// postBarrier initiates a NIC-based barrier on a previously installed
// group (collective scheme or direct scheme, fixed per group at install
// time). Completion arrives as an EvBarrierDone host event.
func (h *Host) postBarrier(groupID int) { h.postReduce(groupID, 0) }

// postReduce initiates a NIC-based allreduce on a group installed by an
// allreduce session, contributing value: the host builds the descriptor
// and rings the doorbell over PCI (the hPost and hDoorbell handlers). The
// EvBarrierDone completion event carries the combined result.
func (h *Host) postReduce(groupID int, value int64) {
	r := h.node.NIC.pool.get(hPost, h.node.NIC)
	r.msg.group, r.msg.value = core.GroupID(groupID), value
	h.Exec(h.node.Prof.Host.SendPostCycles, 0, r)
}
