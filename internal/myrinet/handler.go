package myrinet

import "nicbarrier/internal/sim"

// handler is the pooled, closure-free form of one per-message handler of
// the NIC firmware and the host: the NIC, bus and host schedule a
// handler record through sim.Event instead of a closure built per
// message, and kind selects what runs when it fires. The fields are what
// the handlers read: the NIC (the host is its node's), the group entry,
// a GM send token or arrived data payload, a node, a collective
// notification (or a GM sequence number in msg.seq) and a host event
// record.
type handler struct {
	kind handlerKind
	nic  *NIC
	op   *groupOp
	data *dataMsg
	dst  int
	msg  collPayload
	ev   Event
}

type handlerKind uint8

const (
	// NIC firmware handlers of the collective protocol.
	hCollStart  handlerKind = iota // operation doorbell: msg.value is the contribution
	hCollSend                      // static-packet notification msg to node dst
	hCollResend                    // NACK-served copy of msg to node dst
	hCollRecv                      // arrived notification msg
	hComplete                      // operation done: post ev to the host
	hNackSend                      // NACK msg (this NIC's rank wants a resend) to node dst
	hNackRecv                      // arrived NACK msg from node dst
	// The direct scheme's translated doorbell of entry op, and its
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
// count.
//
// Wire payloads follow one ownership rule. Ownership passes with the
// packet: each Send carries its own payload (a NACK's duplicated reply
// takes two, and every GM injection, retransmissions included, takes
// its own copy of the send record's message), the receiving NIC copies
// it out or holds it until its handlers are done and then returns it,
// also when it drops the packet, and a payload lost with a dropped
// packet is left to the garbage collector. This is sound only because
// netsim never duplicates a unicast packet and this model never
// multicasts.
type pool struct {
	handlers sim.FreeList[handler]
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
	c := &n.coll
	switch r.kind {
	case hCollStart:
		c.begin(r.op, r.msg.value)
	case hCollSend:
		n.sendColl(r.dst, r.msg)
		n.Stats.CollSent++
	case hCollResend:
		n.sendColl(r.dst, r.msg)
		n.Stats.CollResent++
	case hCollRecv:
		c.arrive(r.msg)
	case hComplete:
		n.postEvent(r.ev)
	case hNackSend:
		n.sendNack(r.dst, r.msg)
	case hNackRecv:
		c.serveNack(r.msg, r.dst)
	case hDirectStart:
		n.direct.begin(r.op)
	case hDirectRecv:
		n.direct.arrive(r.msg)
	case hSendPost:
		n.node.Bus.PIOWrite(n.with(hSendDoorbell, r.data))
	case hSendDoorbell:
		n.Exec(n.node.Prof.NIC.TokenTranslate, 0, n.with(hTokenEnqueue, r.data))
	case hTokenEnqueue:
		n.Stats.TokensEnqueued++
		n.enqueueToken(r.data)
		n.kick()
	case hClaim:
		n.fillPacket(r.data)
	case hFilled:
		n.injectData(r.data)
	case hInject:
		n.inject(r.data)
	case hRecvTokenPost:
		n.node.Bus.PIOWrite(n.pool.get(hRecvTokenDoorbell, n))
	case hRecvTokenDoorbell:
		n.Exec(n.node.Prof.NIC.TokenPost, 0, n.pool.get(hRecvToken, n))
	case hRecvToken:
		n.recvTokens++
	case hDataRecv:
		n.checkData(r.data)
	case hRecvMatch:
		dma := n.pool.get(hRecvDMA, n)
		dma.data = r.data
		n.node.Bus.DMA(r.data.size, dma)
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
		dma := n.pool.get(hEventDMA, n)
		dma.ev = r.ev
		n.node.Bus.DMA(n.node.Prof.EventBytes, dma)
	case hEventDMA:
		n.node.Host.deliver(r.ev)
	case hDeliver:
		n.node.Host.dispatch(r.ev)
	case hPost:
		db := n.pool.get(hDoorbell, n)
		db.msg = r.msg
		n.node.Bus.PIOWrite(db)
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
