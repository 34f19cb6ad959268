package elan

import "nicbarrier/internal/sim"

// handler is the pooled, closure-free form of one per-message handler of
// the Elan card and the host: both schedule a handler record through
// sim.Event instead of a closure built per message, and kind selects
// what runs when it fires. The fields are what the handlers read: the
// NIC (the host is its node's), a chain, a session member, a node, an
// RDMA message and a host event record.
type handler struct {
	kind handlerKind
	nic  *NIC
	op   *chainOp
	m    *member
	dst  int
	msg  rdmaMsg
	ev   Event
}

type handlerKind uint8

const (
	hDeliver        handlerKind = iota // host poll consumed event ev: dispatch it
	hTrigger                           // host post of group msg.group's chain doorbell
	hChainDoorbell                     // the doorbell landed: start group msg.group's chain
	hRDMASend                          // chained descriptor: RDMA msg to node dst unless op froze
	hRDMARecv                          // arrived RDMA msg from node dst: fire its event
	hHostEvent                         // the card wrote event ev: the host polls it
	hComplete                          // chain op finished: write ev to the host unless op froze
	hGsync                             // member m's gsync bookkeeping of arrival msg
	hRemotePost                        // host post of host-level RDMA msg to node dst
	hRemoteDoorbell                    // its PIO landed: queue the descriptor
	hRemoteSend                        // the descriptor runs: RDMA msg to node dst
	hHWPost                            // host post of a hardware barrier entry
	hHWDoorbell                        // its PIO landed: enter the test-and-set round
	hHWDone                            // hardware barrier round msg.seq completed on this card
)

// pool holds the free lists of one cluster: handler records and RDMA
// payloads. All nodes of a cluster share one engine, so one pool serves
// them all and its size tracks the cluster's peak in flight. Handler
// records always come back, so they are carved from chunks; payloads are
// allocated one per record, because one lost with a packet would pin its
// whole chunk.
//
// RDMA payloads follow the Myrinet model's ownership rule: each Send
// carries its own payload, the receiving card copies it out and returns
// it (stale arrivals for a disarmed or frozen chain included), and a
// payload lost with a dropped packet is left to the garbage collector.
// The hardware barrier's multicast payload stays boxed: every receiver
// shares it.
type pool struct {
	handlers sim.ChunkedFreeList[handler]
	payloads sim.FreeList[rdmaMsg]
}

// get returns a handler record of kind k on this NIC, with its other
// fields zeroed.
func (n *NIC) get(k handlerKind) *handler {
	h := n.pool.handlers.Get()
	h.kind, h.nic = k, n
	return h
}

// relay returns a handler record of kind k carrying r's fields: the next
// stage of r's pipeline.
func (n *NIC) relay(k handlerKind, r handler) *handler {
	h := n.pool.handlers.Get()
	*h = r
	h.kind = k
	return h
}

// Fire implements sim.Event. The record returns to the free list before
// its handler runs: handlers schedule further handlers, which may reuse
// it.
func (h *handler) Fire() {
	r := *h
	n := r.nic
	n.pool.handlers.Put(h)
	switch r.kind {
	case hDeliver:
		n.node.Host.dispatch(r.ev)
	case hTrigger:
		n.node.Bus.Hold(n.node.Prof.PCI.PIOWrite, n.relay(hChainDoorbell, r))
	case hChainDoorbell:
		n.startChain(r.msg.group)
	case hRDMASend:
		if r.op.frozen {
			return // descriptor invalidated by an abort while queued
		}
		n.sendRDMA(r.dst, "rdma-event", r.msg)
	case hRDMARecv:
		n.fireEvent(r.msg, r.dst)
	case hHostEvent:
		n.node.Host.deliver(r.ev)
	case hComplete:
		if r.op.frozen {
			return // completion overtaken by an abort
		}
		n.node.Host.deliver(r.ev)
	case hGsync:
		r.m.gsyncArrive(r.msg.seq, r.msg.fromRank)
	case hRemotePost:
		n.node.Bus.Hold(n.node.Prof.PCI.PIOWrite, n.relay(hRemoteDoorbell, r))
	case hRemoteDoorbell:
		p := &n.node.Prof.NIC
		n.Exec(p.DMADescCycles, p.SendFixed, n.relay(hRemoteSend, r))
	case hRemoteSend:
		n.sendRDMA(r.dst, "rdma-host", r.msg)
	case hHWPost:
		n.node.Bus.Hold(n.node.Prof.PCI.PIOWrite, n.relay(hHWDoorbell, r))
	case hHWDoorbell:
		n.node.hwPost()
	case hHWDone:
		n.Stats.HWBarriers++
		n.node.Host.deliver(Event{Kind: EvHWBarrier, Seq: r.msg.seq})
	}
}
