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

// NICStats counts NIC-level protocol activity; experiments and tests read
// these to verify claims like "receiver-driven retransmission halves the
// packet count".
type NICStats struct {
	TokensEnqueued uint64
	DataSent       uint64
	AcksSent       uint64
	AcksRecv       uint64
	Retransmits    uint64
	SeqDrops       uint64
	TokenDrops     uint64
	DupAcks        uint64
	EventsPosted   uint64

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
// protocol state.
type NIC struct {
	sim.Proc
	node *Node
	net  *netsim.Network
	pool *pool // the cluster's shared free lists

	// p2p send side. The GM maps (queues, nextSeq, records, expectSeq)
	// are built on the NIC's first p2p send or receive (see gm): most
	// NICs of a collective-only run never touch them.
	queues      map[int]*tokenQueue
	rr          []int // destinations with queued tokens, sorted
	lastDst     int   // round-robin cursor over the destination space
	dispatching bool
	freePackets int
	nextSeq     map[int]uint32
	records     map[recordKey]*sendRecord

	// p2p receive side.
	expectSeq  map[int]uint32
	recvTokens int

	coll   collModule
	direct directModule
	// slots is the group table both modules share (see groupSlot).
	slots []groupSlot

	// retired remembers recently uninstalled group IDs (keyed to their
	// teardown time) so that late traffic — NACK-resent duplicates that
	// were still in flight when the last member completed and the group
	// tore down — is counted as stale and dropped instead of panicking
	// as "unknown group". Entries age out once no packet for the group
	// can still exist (16 × NackTimeout, see pruneRetired), so churning
	// clusters do not accumulate tombstones without bound.
	retired map[core.GroupID]sim.Time

	// tr, when non-nil, receives firmware-level trace events
	// (doorbells, NACKs, resends, stale duplicates, installs) and
	// per-group NIC-time attribution. Disabled cost: one nil check.
	tr *obs.Scope

	// OnHeartbeat, when set, receives failure-detector keepalives
	// addressed to this node. The communicator layer installs it when a
	// group enables recovery; nil (the default) drops heartbeats, and no
	// heartbeat traffic exists unless a detector is sending it.
	OnHeartbeat func(group core.GroupID, fromRank int)
	// OnNackStall, when set, is notified when a collective operation's
	// receiver-driven NACK recovery stops making progress (several
	// consecutive fruitless NACK rounds) — the escalating-retransmission
	// signal the failure detector uses to check suspicions early instead
	// of waiting out the full op deadline.
	OnNackStall func(group core.GroupID, round int)

	Stats NICStats
}

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

func newNIC(eng *sim.Engine, node *Node, net *netsim.Network, pl *pool) *NIC {
	n := &NIC{
		Proc:        sim.Proc{Eng: eng, ClockMHz: node.Prof.NIC.ClockMHz},
		node:        node,
		net:         net,
		pool:        pl,
		freePackets: node.Prof.NIC.SendPacketPool,
	}
	n.coll.nic, n.direct.nic = n, n
	return n
}

// gm builds the point-to-point protocol's maps on first use.
func (n *NIC) gm() {
	if n.queues == nil {
		n.queues = make(map[int]*tokenQueue)
		n.nextSeq = make(map[int]uint32)
		n.records = make(map[recordKey]*sendRecord)
		n.expectSeq = make(map[int]uint32)
	}
}

// --- doorbell handlers (arrive over PCI from the host) ---

func (n *NIC) onBarrierDoorbell(groupID int, value int64) {
	n.traceEvent(groupID, obs.KindDoorbell, value)
	i := n.slot(core.GroupID(groupID))
	switch {
	case i < 0:
		panic(fmt.Sprintf("myrinet: node %d: barrier doorbell for unknown group %d", n.node.ID, groupID))
	case n.slots[i].op.direct:
		n.direct.start(n.slots[i].op)
	default:
		n.coll.start(n.slots[i].op, value)
	}
}

// --- p2p send pipeline ---

func (n *NIC) enqueueToken(t *dataMsg) {
	n.gm()
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
		n.node.Bus.DMA(tok.size, n.with(hFilled, tok))
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
	n.Stats.DataSent++
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
	n.Stats.Retransmits++
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
		n.coll.onMsg(msg)
	case *nackMsg:
		msg := collPayload(*m)
		n.pool.payloads.Put((*collPayload)(m))
		n.coll.onNack(msg, pkt.Src)
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
		n.Stats.SeqDrops++
	case m.route == routeDirect:
		n.expectSeq[m.src] = m.seq + 1
		n.sendAck(m)
		n.direct.onArrive(m.barrier)
	case n.recvTokens == 0:
		// No posted receive buffer: drop without bumping the sequence;
		// the sender's timeout recovers.
		n.Stats.TokenDrops++
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
// host memory: ACK it and post the receive event.
func (n *NIC) deliverData(m *dataMsg) {
	n.sendAck(m)
	ev := Event{Kind: EvRecv, FromNode: m.src, Tag: m.tag}
	if m.route == routeHost {
		ev = Event{Kind: EvBarrierMsg, FromNode: m.src, Group: int(m.barrier.group), Seq: m.barrier.seq}
	}
	n.pool.data.Put(m)
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
	n.Stats.AcksSent++
}

// ackRecord is the handler body of an arrived ACK: retire its send
// record, free the packet buffer and pass the send token back to the
// host.
func (n *NIC) ackRecord(key recordKey) {
	rec, ok := n.records[key]
	if !ok {
		n.Stats.DupAcks++ // retransmission already acked
		return
	}
	rec.timer.Cancel()
	delete(n.records, key)
	n.pool.records.Put(rec)
	n.freePackets++
	n.Stats.AcksRecv++
	// GM passes the send token back to the host.
	n.postEvent(Event{Kind: EvSendDone})
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

// postEvent DMAs an event record into host memory for the host to poll
// (the hPostEvent and hEventDMA handlers).
func (n *NIC) postEvent(ev Event) {
	h := n.pool.get(hPostEvent, n)
	h.ev = ev
	n.Exec(n.node.Prof.NIC.EventPost, 0, h)
}
