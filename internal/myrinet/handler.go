package myrinet

import (
	"nicbarrier/internal/core"
	"nicbarrier/internal/sim"
)

// handler is the pooled, closure-free form of one per-message handler of
// the NIC firmware and the host: the NIC, bus and host schedule a
// handler record through sim.Event instead of a closure built per
// message, and kind selects what runs when it fires. The fields are what
// the handlers read: the NIC (the host is its node's), the group entry,
// a GM send token or arrived data payload, a node, and a collective
// notification (or a GM sequence number in msg.seq).
//
// A host event record rides in the same fields rather than as an Event
// (see event): its kind in evKind, the node it came from in dst, its
// group, sequence and value in msg, and an EvRecv's received message,
// which holds its tag, in data. TestRecordSizes pins the record's size.
type handler struct {
	kind   handlerKind
	evKind EventKind
	nic    *NIC
	m      *member
	data   *dataMsg
	dst    int
	msg    collPayload
}

type handlerKind uint8

const (
	// NIC firmware handlers of the collective protocol.
	hCollStart  handlerKind = iota // operation doorbell: msg.value is the contribution
	hCollSend                      // static-packet notification msg to node dst
	hCollResend                    // NACK-served copy of msg to node dst
	hCollRecv                      // arrived notification msg
	hComplete                      // operation done: post the event to the host
	hNackSend                      // NACK msg (this NIC's rank wants a resend) to node dst
	hNackRecv                      // arrived NACK msg from node dst
	// The direct scheme's translated doorbell of entry m, and its
	// arrived notification msg.
	hDirectStart
	hDirectRecv
	// GM send pipeline, carrying the send token: host post -> PIO -> token
	// translation -> per-destination queue -> packet claim -> fill DMA ->
	// send record and injection.
	hSendPost
	hSendDoorbell
	hTokenEnqueue
	hClaim
	hFilled
	hInject
	// GM receive-buffer posts: host post -> PIO -> NIC token count.
	hRecvTokenPost
	hRecvTokenDoorbell
	hRecvToken
	// GM receive pipeline, carrying the arrived data payload until the
	// chain ends: sequence check -> receive token match -> DMA to host.
	hDataRecv
	hRecvMatch
	hRecvDMA
	// GM acknowledgements and retransmission, keyed (dst, msg.seq).
	hAckSend    // ACK of sequence msg.seq to node dst; msg.group is its trace group
	hAckRecv    // ACK from node dst of sequence msg.seq
	hRetransmit // re-inject the send record keyed (dst, msg.seq) if still live
	// Host event path: NIC event post -> DMA -> host poll.
	hPostEvent
	hEventDMA
	hDeliver
	// Doorbell path: host post -> PIO -> NIC doorbell (msg.group, msg.value).
	hPost
	hDoorbell
)

// pool holds the free lists of one cluster: handler records, collective
// and GM wire payloads (GM send tokens among them) and GM send records.
// All nodes of a cluster share one engine, so one pool serves them all
// and its size tracks the cluster's peak in flight, not its endpoint
// count. Handler records always come back, so they are carved from
// chunks; wire payloads are allocated one per record, because a payload
// lost with a dropped packet would pin its whole chunk.
//
// Wire payloads follow one ownership rule. Ownership passes with the
// packet: each Send carries its own payload (a NACK's duplicated reply
// takes two, and every GM injection, retransmissions included, takes
// its own copy of the send record's message), the receiving NIC copies
// it out or holds it until its handlers are done and then returns it,
// also when it drops the packet (a received data message is held until
// the host consumes its EvRecv event), and a payload lost with a dropped
// packet is left to the garbage collector. This is sound only because
// netsim never duplicates a unicast packet and this model never
// multicasts.
type pool struct {
	handlers sim.ChunkedFreeList[handler]
	payloads sim.FreeList[collPayload]
	data     sim.FreeList[dataMsg]
	acks     sim.FreeList[ackMsg]
	records  sim.FreeList[sendRecord]
}

// get returns a handler record of kind k on NIC n, with its other fields
// zeroed.
func (p *pool) get(k handlerKind, n *NIC) *handler {
	h := p.handlers.Get()
	h.kind, h.nic = k, n
	return h
}

// next returns a handler record of kind k carrying what r carries: the
// next handler of r's chain.
func (p *pool) next(k handlerKind, r *handler) *handler {
	h := p.handlers.Get()
	*h = *r
	h.kind = k
	return h
}

// setDone makes h carry the EvBarrierDone event of group id's operation
// seq, with allreduce result value.
func (h *handler) setDone(id core.GroupID, seq int, value int64) {
	h.evKind = EvBarrierDone
	h.msg = collPayload{group: id, seq: seq, value: value}
}

// event returns the host event record h carries.
func (h *handler) event() Event {
	ev := Event{Kind: h.evKind, FromNode: h.dst, Group: int(h.msg.group), Seq: h.msg.seq, Value: h.msg.value}
	if h.data != nil {
		ev.Tag = h.data.tag
	}
	return ev
}

// payload returns a wire payload holding m, for a collective
// notification or (converted to *nackMsg) a NACK.
func (p *pool) payload(m collPayload) *collPayload {
	pl := p.payloads.Get()
	*pl = m
	return pl
}

// Fire implements sim.Event. Like netsim's packet events, the record
// returns to the free list before its handler runs: handlers schedule
// further handlers, which may reuse it.
func (h *handler) Fire() {
	r := *h
	n := r.nic
	n.pool.handlers.Put(h)
	switch r.kind {
	case hCollStart:
		r.m.begin(r.msg.value)
	case hCollSend:
		n.sendColl(r.dst, r.msg)
		n.Stats.CollSent++
	case hCollResend:
		n.sendColl(r.dst, r.msg)
		n.Stats.CollResent++
	case hCollRecv:
		n.arrive(r.msg)
	case hComplete:
		n.postEvent(n.pool.next(hPostEvent, &r))
	case hNackSend:
		n.sendNack(r.dst, r.msg)
	case hNackRecv:
		n.serveNack(r.msg, r.dst)
	case hDirectStart:
		r.m.beginDirect()
	case hDirectRecv:
		n.arriveDirect(r.msg)
	case hSendPost:
		n.node.Bus.Hold(n.node.Prof.PCI.PIOWrite, n.pool.next(hSendDoorbell, &r))
	case hSendDoorbell:
		n.Exec(n.node.Prof.NIC.TokenTranslate, 0, n.pool.next(hTokenEnqueue, &r))
	case hTokenEnqueue:
		n.enqueueToken(r.data)
		n.kick()
	case hClaim:
		n.fillPacket(r.data)
	case hFilled:
		n.injectData(r.data)
	case hInject:
		n.inject(r.data)
	case hRecvTokenPost:
		n.node.Bus.Hold(n.node.Prof.PCI.PIOWrite, n.pool.get(hRecvTokenDoorbell, n))
	case hRecvTokenDoorbell:
		n.Exec(n.node.Prof.NIC.TokenPost, 0, n.pool.get(hRecvToken, n))
	case hRecvToken:
		n.gm()
		n.recvTokens++
	case hDataRecv:
		n.checkData(r.data)
	case hRecvMatch:
		n.node.dma(r.data.size, n.pool.next(hRecvDMA, &r))
	case hRecvDMA:
		n.deliverData(r.data)
	case hAckSend:
		n.sendAckPacket(r.dst, uint32(r.msg.seq), r.msg.group)
	case hAckRecv:
		n.ackRecord(recordKey{r.dst, uint32(r.msg.seq)})
	case hRetransmit:
		n.reinject(recordKey{r.dst, uint32(r.msg.seq)})
	case hPostEvent:
		n.Stats.EventsPosted++
		n.node.dma(n.node.Prof.EventBytes, n.pool.next(hEventDMA, &r))
	case hEventDMA:
		n.node.Host.Exec(n.node.Prof.Host.RecvPollCycles, 0, n.pool.next(hDeliver, &r))
	case hDeliver:
		// An EvRecv's message was held for its tag; the host has
		// consumed the event, so the message goes back to the pool.
		ev := r.event()
		if r.data != nil {
			n.pool.data.Put(r.data)
		}
		n.node.Host.dispatch(ev)
	case hPost:
		n.node.Bus.Hold(n.node.Prof.PCI.PIOWrite, n.pool.next(hDoorbell, &r))
	case hDoorbell:
		n.onBarrierDoorbell(int(r.msg.group), r.msg.value)
	}
}

// with returns a handler record of kind k on NIC n carrying send token
// tok through the GM send pipeline.
func (n *NIC) with(k handlerKind, tok *dataMsg) *handler {
	h := n.pool.get(k, n)
	h.data = tok
	return h
}
