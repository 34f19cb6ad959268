package myrinet

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Wire payloads.

// dataMsg is a GM data packet. Host- and direct-scheme barrier messages
// ride the same path carrying barrier, which is exactly the redundancy
// the paper's collective protocol removes. Before injection the same
// record is the NIC-side form of the send request (GM's "send token"):
// a message whose source and sequence number are not yet set.
type dataMsg struct {
	src, dst int
	seq      uint32
	size     int
	tag      any // application tag (routeData)
	route    dataRoute
	hostData bool        // token: the payload lives in host memory, fill by DMA
	barrier  collPayload // the notification (routeHost, routeDirect)
}

// dataRoute says what a GM data packet carries, and so where its
// receiver hands it after the sequence check.
type dataRoute uint8

const (
	// routeData is application data: receive token, DMA, EvRecv.
	routeData dataRoute = iota
	// routeHost is a host-scheme barrier message: received like data,
	// posted as EvBarrierMsg.
	routeHost
	// routeDirect is a direct-scheme barrier message, consumed by the NIC.
	routeDirect
)

// ackMsg acknowledges one data packet (sent from the receiver's static
// ACK packet).
type ackMsg struct {
	src, dst int
	seq      uint32
}

// collPayload is the one integer a barrier message carries, plus
// addressing (group, operation sequence, sender rank). For allreduce
// operations the integer is the sender's partial value; for barriers and
// broadcasts it is unused. Collective packets carry it as a pointer from
// the cluster's pool (see pool.payload for the ownership rule).
type collPayload struct {
	group    core.GroupID
	seq      int
	fromRank int
	value    int64
}

// nackMsg is the receiver-driven retransmission request of the collective
// protocol: "I am fromRank in group; resend your operation-seq message".
// It shares collPayload's layout (value unused), so NACKs ride pooled
// payloads under the same ownership rule.
type nackMsg collPayload

// tokenQueue is one destination's FIFO of send tokens. It keeps its
// storage across drains, so a steady stream of sends reuses it.
type tokenQueue struct {
	toks []*dataMsg
	head int
}

func (q *tokenQueue) empty() bool { return q.head == len(q.toks) }

func (q *tokenQueue) push(t *dataMsg) {
	if len(q.toks) == cap(q.toks) && q.head > 0 {
		// Full with a consumed prefix: slide the backlog down rather
		// than grow.
		k := copy(q.toks, q.toks[q.head:])
		clear(q.toks[k:])
		q.toks, q.head = q.toks[:k], 0
	}
	q.toks = append(q.toks, t)
}

func (q *tokenQueue) pop() *dataMsg {
	t := q.toks[q.head]
	q.toks[q.head] = nil
	q.head++
	if q.empty() {
		q.toks, q.head = q.toks[:0], 0
	}
	return t
}

type recordKey struct {
	dst int
	seq uint32
}

// sendRecord is the per-packet bookkeeping entry of the p2p protocol; the
// collective protocol replaces a set of these with one bit vector. The
// record keeps its message by value and is its own retransmit timer.
type sendRecord struct {
	nic   *NIC
	key   recordKey
	msg   dataMsg
	timer sim.Timer
}

// Fire implements sim.Event: the retransmit timeout expired.
func (r *sendRecord) Fire() { r.nic.retransmit(r.key) }

// GMStats counts one NIC's GM point-to-point protocol activity. It lives
// in the NIC's GM state, so a NIC that never uses GM carries none of it.
type GMStats struct {
	TokensEnqueued uint64
	DataSent       uint64
	AcksSent       uint64
	AcksRecv       uint64
	Retransmits    uint64
	SeqDrops       uint64
	TokenDrops     uint64
	DupAcks        uint64
}

// NICStats counts the NIC-level activity every NIC may see: host events,
// the collective protocol and failure detection. Experiments and tests
// read these to verify claims like "receiver-driven retransmission
// halves the packet count".
type NICStats struct {
	EventsPosted uint64

	CollSent    uint64
	CollRecvd   uint64
	CollResent  uint64
	NacksSent   uint64
	NacksRecvd  uint64
	StaleColl   uint64
	BarriersRun uint64

	HeartbeatsSent  uint64
	HeartbeatsRecvd uint64
	AbortedOps      uint64
}

// NIC is the LANai model: one sequential firmware processor plus the MCP
// protocol state. A NIC record holds only what is its own and what the
// collective protocol touches: what all NICs of a cluster share is one
// record they point to, and the GM point-to-point state is built on
// first use. TestRecordSizes pins its size.
type NIC struct {
	sim.Proc
	node *Node

	// *nicShared is the cluster's network, handler pool, tracer and
	// failure hooks, one record for all its NICs.
	*nicShared

	// *gmState is the GM point-to-point protocol state, built on the
	// NIC's first p2p send, receive or receive-buffer post (see gm): most
	// NICs of a collective-only run never touch it.
	*gmState

	// groups is the group table both NIC-based schemes share: the
	// SRAM-resident group-queue entries, at most GroupQueueSlots. Its
	// tombstones let late traffic — NACK-resent duplicates still in
	// flight when the last member completed and the group tore down —
	// count as stale instead of panicking as "unknown group".
	groups core.Table[*member]

	Stats NICStats
}

// nicShared is what every NIC of a cluster shares, kept once in the
// cluster.
type nicShared struct {
	net  *netsim.Network
	pool pool // the free lists every node schedules from

	// tr, when non-nil, receives firmware-level trace events
	// (doorbells, NACKs, resends, stale duplicates, installs) and
	// per-group NIC-time attribution. Disabled cost: one nil check.
	tr *obs.Scope

	// The failure hooks are the cluster's: setting one through any of
	// its NICs sets it for all of them, as the communicator layer does.
	//
	// OnHeartbeat, when set, receives failure-detector keepalives
	// addressed to a node. The communicator layer installs it when a
	// group enables recovery; nil (the default) drops heartbeats, and no
	// heartbeat traffic exists unless a detector is sending it.
	OnHeartbeat func(group core.GroupID, fromRank int)
	// OnNackStall, when set, is notified when a collective operation's
	// receiver-driven NACK recovery stops making progress (several
	// consecutive fruitless NACK rounds) — the escalating-retransmission
	// signal the failure detector uses to check suspicions early instead
	// of waiting out the full op deadline.
	OnNackStall func(group core.GroupID, round int)
}

// gmState is one NIC's GM point-to-point protocol state.
type gmState struct {
	// Send side.
	queues      map[int]*tokenQueue
	rr          []int // destinations with queued tokens, sorted
	lastDst     int   // round-robin cursor over the destination space
	dispatching bool
	freePackets int
	nextSeq     map[int]uint32
	records     map[recordKey]*sendRecord

	// Receive side.
	expectSeq  map[int]uint32
	recvTokens int

	stats GMStats
}

// gmStats returns the NIC's GM point-to-point counters, zero for a NIC
// that never used GM.
func (n *NIC) gmStats() GMStats {
	if n.gmState == nil {
		return GMStats{}
	}
	return n.gmState.stats
}

// port is a NIC seen as its host's receiver on the network.
type port NIC

// Receive implements netsim.Receiver.
func (p *port) Receive(pkt netsim.Packet) { (*NIC)(p).onPacket(pkt) }

// traceEvent records a firmware-level event on this NIC's trace track.
func (n *NIC) traceEvent(group int, k obs.Kind, arg int64) {
	if n.tr != nil {
		n.tr.NICEvent(n.Eng.Now(), n.node.ID, group, k, arg)
	}
}

// traceTime attributes one handler's service time (cycles at the
// firmware clock plus a fixed latency) to group's NIC decomposition
// bucket; call it alongside the exec that charges the same work.
func (n *NIC) traceTime(group int, cycles int64, fixed sim.Duration) {
	if n.tr != nil {
		n.tr.NICTime(group, sim.Cycles(cycles, n.ClockMHz)+fixed)
	}
}

// gm builds the point-to-point protocol state on first use.
func (n *NIC) gm() {
	if n.gmState == nil {
		n.gmState = &gmState{
			queues:      make(map[int]*tokenQueue),
			freePackets: n.node.Prof.NIC.SendPacketPool,
			nextSeq:     make(map[int]uint32),
			records:     make(map[recordKey]*sendRecord),
			expectSeq:   make(map[int]uint32),
		}
	}
}

// --- doorbell handlers (arrive over PCI from the host) ---

func (n *NIC) onBarrierDoorbell(groupID int, value int64) {
	n.traceEvent(groupID, obs.KindDoorbell, value)
	m, ok := n.groups.Get(core.GroupID(groupID))
	switch {
	case !ok:
		panic(fmt.Sprintf("myrinet: node %d: barrier doorbell for unknown group %d", n.node.ID, groupID))
	case m.direct():
		m.startDirect()
	default:
		m.start(value)
	}
}

// --- p2p send pipeline ---

func (n *NIC) enqueueToken(t *dataMsg) {
	n.gm()
	n.gmState.stats.TokensEnqueued++
	dst := t.dst
	q := n.queues[dst]
	if q == nil {
		q = new(tokenQueue)
		n.queues[dst] = q
	}
	if q.empty() {
		// Insert into the sorted pending-destination ring.
		pos := len(n.rr)
		for i, d := range n.rr {
			if d > dst {
				pos = i
				break
			}
		}
		n.rr = append(n.rr, 0)
		copy(n.rr[pos+1:], n.rr[pos:])
		n.rr[pos] = dst
	}
	q.push(t)
}

// nextToken dequeues round-robin across destination queues (Section 4.2:
// "the NIC processes the tokens to different destinations in a
// round-robin manner"). The cursor cycles the destination space, so after
// serving destination d the next pending destination above d goes first.
func (n *NIC) nextToken() *dataMsg {
	if len(n.rr) == 0 {
		return nil
	}
	pos := 0 // wrap-around default: smallest pending destination
	for i, d := range n.rr {
		if d > n.lastDst {
			pos = i
			break
		}
	}
	dst := n.rr[pos]
	n.lastDst = dst
	q := n.queues[dst]
	tok := q.pop()
	if q.empty() {
		n.rr = append(n.rr[:pos], n.rr[pos+1:]...)
	}
	return tok
}

// kick advances the send pipeline: one token at a time goes through
// schedule -> packet claim -> fill (DMA) -> record -> inject.
func (n *NIC) kick() {
	if n.dispatching {
		return
	}
	if n.freePackets == 0 {
		return // stalls until an ACK frees a packet buffer
	}
	tok := n.nextToken()
	if tok == nil {
		return
	}
	n.dispatching = true
	n.freePackets--
	p := n.node.Prof.NIC
	n.Exec(p.TokenSchedule+p.PacketClaim, 0, n.with(hClaim, tok))
}

func (n *NIC) fillPacket(tok *dataMsg) {
	if tok.hostData && tok.size > 0 {
		n.node.dma(tok.size, n.with(hFilled, tok))
		return
	}
	n.injectData(tok)
}

func (n *NIC) injectData(tok *dataMsg) {
	p := n.node.Prof.NIC
	n.Exec(p.PacketFill+p.SendRecord, p.SendFixed, n.with(hInject, tok))
}

// inject is injectData's handler body: the token becomes a numbered
// message, a send record keeps it and arms its retransmit timer, and the
// first copy goes on the wire.
func (n *NIC) inject(tok *dataMsg) {
	m := *tok
	n.pool.data.Put(tok)
	m.src = n.node.ID
	m.seq = n.nextSeq[m.dst]
	n.nextSeq[m.dst] = m.seq + 1
	rec := n.pool.records.Get()
	rec.nic, rec.key, rec.msg = n, recordKey{m.dst, m.seq}, m
	n.records[rec.key] = rec
	rec.timer = n.Eng.AfterEvent(n.node.Prof.NIC.RetransmitTimeout, rec)
	n.sendData(m)
	n.gmState.stats.DataSent++
	n.dispatching = false
	n.kick()
}

// sendData injects one copy of a GM data packet on its own pooled
// payload.
func (n *NIC) sendData(m dataMsg) {
	kind, group := "data", 0
	if m.route == routeDirect {
		kind, group = "barrier-direct", int(m.barrier.group)
	}
	pl := n.pool.data.Get()
	*pl = m
	n.net.Send(netsim.Packet{
		Src:     n.node.ID,
		Dst:     m.dst,
		Size:    m.size + n.node.Prof.DataHeaderBytes,
		Kind:    kind,
		Group:   group,
		Payload: pl,
	})
}

// retransmit handles a send record's timeout. The record is looked up by
// key, here and again when the retransmit handler runs, so a record
// recycled after its ACK is never re-injected.
func (n *NIC) retransmit(key recordKey) {
	if _, ok := n.records[key]; !ok {
		return
	}
	p := n.node.Prof.NIC
	n.gmState.stats.Retransmits++
	h := n.pool.get(hRetransmit, n)
	h.dst, h.msg.seq = key.dst, int(key.seq)
	n.Exec(p.SendRecord, p.SendFixed, h)
}

// reinject is the retransmit handler body. The packet buffer is still
// held (not released until ACK), so retransmission is a re-injection of
// the record's message, on a fresh payload.
func (n *NIC) reinject(key recordKey) {
	rec, live := n.records[key]
	if !live {
		return // ACK raced the retransmit handler
	}
	n.sendData(rec.msg)
	rec.timer = n.Eng.AfterEvent(n.node.Prof.NIC.RetransmitTimeout, rec)
}

// --- receive path ---

func (n *NIC) onPacket(pkt netsim.Packet) {
	switch m := pkt.Payload.(type) {
	case *dataMsg:
		n.gm()
		h := n.pool.get(hDataRecv, n)
		h.data = m
		p := n.node.Prof.NIC
		n.Exec(p.SeqCheck, p.RecvFixed, h)
	case *ackMsg:
		h := n.pool.get(hAckRecv, n)
		h.dst, h.msg.seq = m.src, int(m.seq)
		n.pool.acks.Put(m)
		p := n.node.Prof.NIC
		n.Exec(p.AckProcess, p.RecvFixed, h)
	case *collPayload:
		msg := *m
		n.pool.payloads.Put(m)
		n.onColl(msg)
	case *nackMsg:
		msg := collPayload(*m)
		n.pool.payloads.Put((*collPayload)(m))
		n.onNack(msg, pkt.Src)
	case core.Heartbeat:
		// Keepalive filtering is a header compare in the firmware's
		// receive fast path; its cost is negligible next to a handler
		// dispatch, so none is charged.
		n.Stats.HeartbeatsRecvd++
		if n.OnHeartbeat != nil {
			n.OnHeartbeat(m.Group, m.Rank)
		}
	default:
		panic(fmt.Sprintf("myrinet: node %d: unknown payload %T", n.node.ID, pkt.Payload))
	}
}

// checkData is the sequence-check handler of an arrived data packet. The
// NIC holds the packet's payload until its handlers are done with it and
// returns it to the pool, whether it accepts the packet or drops it.
func (n *NIC) checkData(m *dataMsg) {
	switch {
	case m.seq != n.expectSeq[m.src]:
		// "An unexpected packet is dropped immediately."
		n.gmState.stats.SeqDrops++
	case m.route == routeDirect:
		n.expectSeq[m.src] = m.seq + 1
		n.sendAck(m)
		n.onDirect(m.barrier)
	case n.recvTokens == 0:
		// No posted receive buffer: drop without bumping the sequence;
		// the sender's timeout recovers.
		n.gmState.stats.TokenDrops++
	default:
		n.recvTokens--
		n.expectSeq[m.src] = m.seq + 1
		h := n.pool.get(hRecvMatch, n)
		h.data = m
		n.Exec(n.node.Prof.NIC.RecvTokenMatch, 0, h)
		return // deliverData returns the payload
	}
	n.pool.data.Put(m)
}

// deliverData runs once an accepted packet's payload has been DMAed into
// host memory: ACK it and post the receive event. An EvRecv event keeps
// the message, which holds its tag, until the host consumes it.
func (n *NIC) deliverData(m *dataMsg) {
	n.sendAck(m)
	ev := n.pool.get(hPostEvent, n)
	ev.dst = m.src
	if m.route == routeHost {
		ev.evKind, ev.msg = EvBarrierMsg, collPayload{group: m.barrier.group, seq: m.barrier.seq}
		n.pool.data.Put(m)
	} else {
		ev.evKind, ev.data = EvRecv, m
	}
	n.postEvent(ev)
}

// sendAck replies from the NIC's static ACK packet (no claim/fill cycle) —
// the very packet the collective protocol pads with an integer to carry
// barrier notifications.
func (n *NIC) sendAck(m *dataMsg) {
	p := n.node.Prof.NIC
	h := n.pool.get(hAckSend, n)
	h.dst, h.msg.seq = m.src, int(m.seq)
	if m.route == routeDirect {
		h.msg.group = m.barrier.group
	}
	n.Exec(p.AckBuild, p.SendFixed, h)
}

// sendAckPacket is sendAck's handler body: the ACK of sequence seq to
// node dst, on its own pooled payload.
func (n *NIC) sendAckPacket(dst int, seq uint32, group core.GroupID) {
	a := n.pool.acks.Get()
	*a = ackMsg{src: n.node.ID, dst: dst, seq: seq}
	n.net.Send(netsim.Packet{
		Src:     n.node.ID,
		Dst:     dst,
		Size:    n.node.Prof.AckBytes,
		Kind:    "ack",
		Group:   int(group),
		Payload: a,
	})
	n.gmState.stats.AcksSent++
}

// ackRecord is the handler body of an arrived ACK: retire its send
// record, free the packet buffer and pass the send token back to the
// host.
func (n *NIC) ackRecord(key recordKey) {
	rec, ok := n.records[key]
	if !ok {
		n.gmState.stats.DupAcks++ // retransmission already acked
		return
	}
	rec.timer.Cancel()
	delete(n.records, key)
	n.pool.records.Put(rec)
	n.freePackets++
	n.gmState.stats.AcksRecv++
	// GM passes the send token back to the host.
	ev := n.pool.get(hPostEvent, n)
	ev.evKind = EvSendDone
	n.postEvent(ev)
	n.kick()
}

// SendHeartbeat injects one failure-detector keepalive addressed to
// dstNode. The packet rides netsim like protocol traffic — crashes and
// partitions silence it exactly as they silence barrier messages — but
// charges no firmware time: keepalives are generated from a static
// packet outside the handler queue, and they exist only when a group
// runs with recovery enabled.
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

// postEvent DMAs the event record ev carries into host memory for the
// host to poll (the hPostEvent, hEventDMA and hDeliver handlers). ev is
// a handler record of kind hPostEvent.
func (n *NIC) postEvent(ev *handler) {
	n.Exec(n.node.Prof.NIC.EventPost, 0, ev)
}
