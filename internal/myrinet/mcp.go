package myrinet

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Wire payloads.

// dataMsg is a GM data packet. Direct-scheme barrier messages ride the
// same path with barrier set, which is exactly the redundancy the paper's
// collective protocol removes.
type dataMsg struct {
	src, dst int
	seq      uint32
	size     int
	tag      any
	barrier  *collPayload // non-nil: direct-scheme barrier notification
}

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

// sendToken is the NIC-side form of a send request (GM's "send token").
type sendToken struct {
	dst      int
	size     int
	tag      any
	hostData bool
	barrier  *collPayload
}

type recordKey struct {
	dst int
	seq uint32
}

// sendRecord is the per-packet bookkeeping entry of the p2p protocol; the
// collective protocol replaces a set of these with one bit vector.
type sendRecord struct {
	pkt   netsim.Packet
	timer sim.Timer
}

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
	proc
	node *Node
	net  *netsim.Network
	pool *pool // the cluster's shared handler and payload free lists

	// p2p send side. The GM maps (queues, nextSeq, records, expectSeq)
	// are built on the NIC's first p2p send or receive (see gm): most
	// NICs of a collective-only run never touch them.
	queues      map[int][]*sendToken
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
		n.tr.NICEvent(n.eng.Now(), n.node.ID, group, k, arg)
	}
}

// traceTime attributes one handler's service time (cycles at the
// firmware clock plus a fixed latency) to group's NIC decomposition
// bucket; call it alongside the exec that charges the same work.
func (n *NIC) traceTime(group int, cycles int64, fixed sim.Duration) {
	if n.tr != nil {
		n.tr.NICTime(group, sim.Cycles(cycles, n.clockMHz)+fixed)
	}
}

func newNIC(eng *sim.Engine, node *Node, net *netsim.Network, pl *pool) *NIC {
	n := &NIC{
		proc:        proc{eng: eng, clockMHz: node.Prof.NIC.ClockMHz},
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
		n.queues = make(map[int][]*sendToken)
		n.nextSeq = make(map[int]uint32)
		n.records = make(map[recordKey]*sendRecord)
		n.expectSeq = make(map[int]uint32)
	}
}

// --- doorbell handlers (arrive over PCI from the host) ---

func (n *NIC) onSendDoorbell(tok *sendToken) {
	n.exec(n.node.Prof.NIC.TokenTranslate, 0, func() {
		n.Stats.TokensEnqueued++
		n.enqueueToken(tok)
		n.kick()
	})
}

func (n *NIC) onTokenPost() {
	n.exec(n.node.Prof.NIC.TokenPost, 0, func() {
		n.recvTokens++
	})
}

func (n *NIC) onBarrierDoorbell(groupID int, value int64) {
	n.traceEvent(groupID, obs.KindDoorbell, value)
	i := n.slot(core.GroupID(groupID))
	switch {
	case i < 0:
		panic(fmt.Sprintf("myrinet: node %d: barrier doorbell for unknown group %d", n.node.ID, groupID))
	case n.slots[i].coll != nil:
		n.coll.start(n.slots[i].coll, value)
	default:
		n.direct.start(n.slots[i].direct)
	}
}

// --- p2p send pipeline ---

func (n *NIC) enqueueToken(t *sendToken) {
	n.gm()
	q := n.queues[t.dst]
	if len(q) == 0 {
		// Insert into the sorted pending-destination ring.
		pos := len(n.rr)
		for i, d := range n.rr {
			if d > t.dst {
				pos = i
				break
			}
		}
		n.rr = append(n.rr, 0)
		copy(n.rr[pos+1:], n.rr[pos:])
		n.rr[pos] = t.dst
	}
	n.queues[t.dst] = append(q, t)
}

// nextToken dequeues round-robin across destination queues (Section 4.2:
// "the NIC processes the tokens to different destinations in a
// round-robin manner"). The cursor cycles the destination space, so after
// serving destination d the next pending destination above d goes first.
func (n *NIC) nextToken() *sendToken {
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
	tok := q[0]
	if len(q) == 1 {
		delete(n.queues, dst)
		n.rr = append(n.rr[:pos], n.rr[pos+1:]...)
	} else {
		n.queues[dst] = q[1:]
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
	n.exec(p.TokenSchedule+p.PacketClaim, 0, func() { n.fillPacket(tok) })
}

func (n *NIC) fillPacket(tok *sendToken) {
	if tok.hostData && tok.size > 0 {
		n.node.Bus.DMA(tok.size, func() { n.injectData(tok) })
		return
	}
	n.injectData(tok)
}

func (n *NIC) injectData(tok *sendToken) {
	p := n.node.Prof.NIC
	n.exec(p.PacketFill+p.SendRecord, p.SendFixed, func() {
		seq := n.nextSeq[tok.dst]
		n.nextSeq[tok.dst] = seq + 1
		kind := "data"
		group := 0
		if tok.barrier != nil {
			kind = "barrier-direct"
			group = int(tok.barrier.group)
		}
		pkt := netsim.Packet{
			Src:   n.node.ID,
			Dst:   tok.dst,
			Size:  tok.size + n.node.Prof.DataHeaderBytes,
			Kind:  kind,
			Group: group,
			Payload: dataMsg{
				src: n.node.ID, dst: tok.dst, seq: seq,
				size: tok.size, tag: tok.tag, barrier: tok.barrier,
			},
		}
		key := recordKey{tok.dst, seq}
		rec := &sendRecord{pkt: pkt}
		n.records[key] = rec
		rec.timer = n.eng.After(p.RetransmitTimeout, func() { n.retransmit(key) })
		n.net.Send(pkt)
		n.Stats.DataSent++
		n.dispatching = false
		n.kick()
	})
}

func (n *NIC) retransmit(key recordKey) {
	rec, ok := n.records[key]
	if !ok {
		return
	}
	p := n.node.Prof.NIC
	n.Stats.Retransmits++
	n.exec(p.SendRecord, p.SendFixed, func() {
		// The packet buffer is still held (not released until ACK), so
		// retransmission is a re-injection.
		if _, live := n.records[key]; !live {
			return // ACK raced the retransmit handler
		}
		n.net.Send(rec.pkt)
		rec.timer = n.eng.After(p.RetransmitTimeout, func() { n.retransmit(key) })
	})
}

// --- receive path ---

func (n *NIC) onPacket(pkt netsim.Packet) {
	switch m := pkt.Payload.(type) {
	case dataMsg:
		n.onData(m)
	case ackMsg:
		n.onAck(m)
	case *collPayload:
		msg := *m
		n.pool.putPayload(m)
		n.coll.onMsg(msg)
	case *nackMsg:
		msg := collPayload(*m)
		n.pool.putPayload((*collPayload)(m))
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

func (n *NIC) onData(m dataMsg) {
	n.gm()
	p := n.node.Prof.NIC
	n.exec(p.SeqCheck, p.RecvFixed, func() {
		if m.seq != n.expectSeq[m.src] {
			// "An unexpected packet is dropped immediately."
			n.Stats.SeqDrops++
			return
		}
		if m.barrier != nil {
			n.expectSeq[m.src] = m.seq + 1
			n.sendAck(m)
			n.direct.onArrive(*m.barrier)
			return
		}
		if n.recvTokens == 0 {
			// No posted receive buffer: drop without bumping the
			// sequence; the sender's timeout recovers.
			n.Stats.TokenDrops++
			return
		}
		n.recvTokens--
		n.expectSeq[m.src] = m.seq + 1
		n.exec(p.RecvTokenMatch, 0, func() {
			n.node.Bus.DMA(m.size, func() {
				n.sendAck(m)
				n.postEvent(Event{Kind: EvRecv, FromNode: m.src, Tag: m.tag})
			})
		})
	})
}

// sendAck replies from the NIC's static ACK packet (no claim/fill cycle) —
// the very packet the collective protocol pads with an integer to carry
// barrier notifications.
func (n *NIC) sendAck(m dataMsg) {
	p := n.node.Prof.NIC
	group := 0
	if m.barrier != nil {
		group = int(m.barrier.group)
	}
	n.exec(p.AckBuild, p.SendFixed, func() {
		n.net.Send(netsim.Packet{
			Src:     n.node.ID,
			Dst:     m.src,
			Size:    n.node.Prof.AckBytes,
			Kind:    "ack",
			Group:   group,
			Payload: ackMsg{src: n.node.ID, dst: m.src, seq: m.seq},
		})
		n.Stats.AcksSent++
	})
}

func (n *NIC) onAck(m ackMsg) {
	p := n.node.Prof.NIC
	n.exec(p.AckProcess, p.RecvFixed, func() {
		key := recordKey{m.src, m.seq}
		rec, ok := n.records[key]
		if !ok {
			n.Stats.DupAcks++ // retransmission already acked
			return
		}
		rec.timer.Cancel()
		delete(n.records, key)
		n.freePackets++
		n.Stats.AcksRecv++
		// GM passes the send token back to the host.
		n.postEvent(Event{Kind: EvSendDone})
		n.kick()
	})
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
	n.execHandler(n.node.Prof.NIC.EventPost, 0, h)
}
