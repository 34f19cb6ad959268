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
	"slices"

	"nicbarrier/internal/core"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/pci"
	"nicbarrier/internal/sim"
)

// EventKind classifies host events (the records the NIC DMAs into host
// memory for the host to poll).
type EventKind int

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

// Node is one cluster node: host + PCI bus + NIC.
type Node struct {
	ID   int
	Prof *hwprofile.MyrinetProfile
	Bus  *pci.Bus
	Host *Host
	NIC  *NIC
}

// Host models the host CPU side of GM.
type Host struct {
	sim.Proc
	node *Node
	// OnEvent receives every host event not claimed by a group binding,
	// after the host has paid the poll/consume cost.
	OnEvent func(Event)
	// groupHandlers routes group-addressed events (barrier completions,
	// host-scheme barrier messages) to the session driving that group, so
	// concurrent communicators can share one node without clobbering each
	// other's event hook. It holds one entry per bound group and is
	// scanned linearly.
	groupHandlers []groupHandler
}

// groupHandler is one group's event binding on a host.
type groupHandler struct {
	gid int
	h   EventHandler
}

// EventHandler consumes the host events of one bound group. Session
// members implement it, so binding a member stores the member itself
// rather than a method value built per bind.
type EventHandler interface {
	HandleEvent(Event)
}

// handler returns the index of group gid's binding, or -1.
func (h *Host) handler(gid int) int {
	for i := range h.groupHandlers {
		if h.groupHandlers[i].gid == gid {
			return i
		}
	}
	return -1
}

// Bind routes this node's events for one group ID to eh. It panics on a
// duplicate binding: two drivers polling the same group's completions is
// a programming error, exactly like double-attaching a NIC.
func (h *Host) Bind(groupID int, eh EventHandler) {
	if eh == nil {
		panic("myrinet: nil group event handler")
	}
	if h.bound(groupID) {
		panic(fmt.Sprintf("myrinet: node %d: group %d already bound", h.node.ID, groupID))
	}
	h.groupHandlers = append(h.groupHandlers, groupHandler{groupID, eh})
}

// bound reports whether a handler is already bound for the group.
func (h *Host) bound(groupID int) bool { return h.handler(groupID) >= 0 }

// Unbind releases a group's event routing, the host half of group
// teardown. Unbinding a group that was never bound panics — it means two
// drivers disagree about who owns the group. Events for the group that
// are still in flight afterwards fall through to OnEvent (usually nil),
// exactly like events for a group that was never installed.
func (h *Host) Unbind(groupID int) {
	i := h.handler(groupID)
	if i < 0 {
		panic(fmt.Sprintf("myrinet: node %d: unbinding group %d that is not bound", h.node.ID, groupID))
	}
	h.groupHandlers = slices.Delete(h.groupHandlers, i, i+1)
}

// newNode builds a node attached to net, scheduling its per-message
// handlers from the cluster's pool.
func newNode(eng *sim.Engine, id int, prof *hwprofile.MyrinetProfile, net *netsim.Network, pl *pool) *Node {
	n := &Node{
		ID:   id,
		Prof: prof,
		Bus:  pci.New(eng, prof.PCI),
	}
	n.Host = &Host{
		Proc: sim.Proc{Eng: eng, ClockMHz: prof.Host.ClockMHz},
		node: n,
	}
	n.NIC = newNIC(eng, n, net, pl)
	net.Attach(id, n.NIC.onPacket)
	return n
}

// deliver hands a DMAed event record to the host, charging the host's
// poll-and-consume cost before dispatch sees it.
func (h *Host) deliver(ev Event) {
	r := h.node.NIC.pool.get(hDeliver, h.node.NIC)
	r.ev = ev
	h.Exec(h.node.Prof.Host.RecvPollCycles, 0, r)
}

// dispatch routes a consumed event record. Group-addressed events go to
// their bound handler; everything else (and events for unbound groups)
// falls through to OnEvent. Routing is free in virtual time — it models
// the host poll loop demultiplexing its event queue.
func (h *Host) dispatch(ev Event) {
	if ev.Kind == EvBarrierDone || ev.Kind == EvBarrierMsg {
		if i := h.handler(ev.Group); i >= 0 {
			h.groupHandlers[i].h.HandleEvent(ev)
			return
		}
	}
	if h.OnEvent != nil {
		h.OnEvent(ev)
	}
}

// Send posts one GM send: host builds the descriptor, rings the doorbell
// over PCI, and the NIC takes over. hostData selects whether the payload
// lives in host memory (true: the NIC must DMA it into the send packet).
func (h *Host) Send(dst, size int, tag any, hostData bool) {
	if dst == h.node.ID {
		panic("myrinet: self-send not modeled")
	}
	if size < 0 {
		panic(fmt.Sprintf("myrinet: negative send size %d", size))
	}
	h.postSend(dataMsg{dst: dst, size: size, tag: tag, hostData: hostData})
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

// PostRecvTokens replenishes k receive buffers, one PIO each (GM posts
// each receive buffer separately).
func (h *Host) PostRecvTokens(k int) {
	for i := 0; i < k; i++ {
		h.Exec(h.node.Prof.Host.TokenPostCycles, 0, h.node.NIC.pool.get(hRecvTokenPost, h.node.NIC))
	}
}

// PostBarrier initiates a NIC-based barrier on a previously installed
// group (collective scheme or direct scheme, fixed per group at install
// time). Completion arrives as an EvBarrierDone host event.
func (h *Host) PostBarrier(groupID int) { h.PostReduce(groupID, 0) }

// PostReduce initiates a NIC-based allreduce on a group installed by an
// allreduce session, contributing value: the host builds the descriptor
// and rings the doorbell over PCI (the hPost and hDoorbell handlers). The
// EvBarrierDone completion event carries the combined result.
func (h *Host) PostReduce(groupID int, value int64) {
	r := h.node.NIC.pool.get(hPost, h.node.NIC)
	r.msg.group, r.msg.value = core.GroupID(groupID), value
	h.Exec(h.node.Prof.Host.SendPostCycles, 0, r)
}
