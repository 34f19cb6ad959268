package myrinet

// handler is the pooled, closure-free form of one per-message handler of
// the collective protocol and of the host event path: the NIC, bus and
// host schedule a handler record through sim.Event instead of a closure
// built per message, and kind selects what runs when it fires. The
// fields are what the handlers read: the NIC (the host is its node's),
// the group entry, a destination node, a wire payload and a host event
// record.
type handler struct {
	kind handlerKind
	nic  *NIC
	op   *collOp
	dst  int
	msg  collPayload
	ev   Event
	next *handler // free-list link
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
	// Host event path: NIC event post -> DMA -> host poll.
	hPostEvent
	hEventDMA
	hDeliver
	// Doorbell path: host post -> PIO -> NIC doorbell (msg.group, msg.value).
	hPost
	hDoorbell
)

// pool holds the free lists of one cluster: handler records and wire
// payloads. All nodes of a cluster share one engine, so one pool serves
// them all and its size tracks the cluster's peak in-flight handlers,
// not its endpoint count. It is owned by the engine's goroutine.
type pool struct {
	handlers *handler
	payloads []*collPayload
}

// get returns a handler record of kind k on NIC n, with its other fields
// zeroed.
func (p *pool) get(k handlerKind, n *NIC) *handler {
	h := p.handlers
	if h == nil {
		h = new(handler)
	} else {
		p.handlers = h.next
	}
	h.kind, h.nic = k, n
	return h
}

// put returns h to the free list, dropping its references.
func (p *pool) put(h *handler) {
	*h = handler{next: p.handlers}
	p.handlers = h
}

// payload returns a wire payload holding m, for a collective
// notification or (converted to *nackMsg) a NACK. Ownership passes with
// the packet: each Send carries its own payload (a NACK's duplicated
// reply takes two), the receiving NIC copies it out and returns it with
// putPayload, and a payload lost with a dropped packet is left to the
// garbage collector. This is sound only because netsim never duplicates
// a unicast packet and this model never multicasts; the GM p2p path,
// whose send records re-send the very same packet, keeps boxed values.
func (p *pool) payload(m collPayload) *collPayload {
	var pl *collPayload
	if k := len(p.payloads); k > 0 {
		pl = p.payloads[k-1]
		p.payloads = p.payloads[:k-1]
	} else {
		pl = new(collPayload)
	}
	*pl = m
	return pl
}

func (p *pool) putPayload(pl *collPayload) { p.payloads = append(p.payloads, pl) }

// Fire implements sim.Event. Like netsim's packet events, the record
// returns to the free list before its handler runs: handlers schedule
// further handlers, which may reuse it.
func (h *handler) Fire() {
	r := *h
	n := r.nic
	n.pool.put(h)
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
	case hPostEvent:
		n.Stats.EventsPosted++
		dma := n.pool.get(hEventDMA, n)
		dma.ev = r.ev
		n.node.Bus.DMAEvent(n.node.Prof.EventBytes, dma)
	case hEventDMA:
		n.node.Host.deliver(r.ev)
	case hDeliver:
		n.node.Host.dispatch(r.ev)
	case hPost:
		db := n.pool.get(hDoorbell, n)
		db.msg = r.msg
		n.node.Bus.PIOWriteEvent(db)
	case hDoorbell:
		n.onBarrierDoorbell(int(r.msg.group), r.msg.value)
	}
}
