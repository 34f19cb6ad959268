package myrinet

import (
	"fmt"

	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// The paper's NIC-based collective message passing protocol, as
// resident on one NIC. Compared with the p2p path it:
//
//   - keeps one dedicated queue entry per group (a session member), so
//     barrier traffic never waits behind per-destination data queues;
//   - transmits from the static (padded-ACK) packet: no packet claim,
//     no fill DMA, no per-packet send record;
//   - tracks the whole operation in one core.OpState (bit vector);
//   - uses receiver-driven NACK retransmission instead of ACK+timeout.

// nackStallRounds is how many consecutive fruitless NACK rounds raise
// OnNackStall. Transient loss is repaired in one or two rounds (the
// second already escalates to duplicated replies); four rounds of
// silence mean the peer is not answering at all.
const nackStallRounds = 4

// sendValue is the integer the static packet carries to toRank for
// operation seq: the recorded partial snapshot for allreduce, zero for
// barriers/broadcasts.
func (m *member) sendValue(seq, toRank int) int64 {
	red := m.reduce()
	if red == nil {
		return 0
	}
	v, ok := red.SentValue(seq, toRank)
	if !ok {
		panic(fmt.Sprintf("myrinet: no reduce snapshot for op %d to rank %d", seq, toRank))
	}
	return v
}

// install claims a group-queue entry for m, failing when the NIC's
// slots are exhausted or m's group is already installed.
func (n *NIC) install(m *member) error {
	if err := n.groups.Claim(m.group.ID, m, n.node.Prof.NIC.GroupQueueSlots); err != nil {
		return fmt.Errorf("myrinet: node %d: %w", n.node.ID, err)
	}
	return nil
}

// GroupSlotsFree reports how many NIC group-queue entries remain.
func (n *NIC) GroupSlotsFree() int {
	return n.node.Prof.NIC.GroupQueueSlots - n.groups.Len()
}

// UninstallGroup retires a group's queue entry, freeing its slot for a
// future install, and charges the firmware teardown cost on the NIC
// processor (co-resident groups' handlers queue behind it). The caller —
// the session layer — guarantees the group's operations have drained;
// uninstalling a group with an active operation panics, since its bit
// vector still expects arrivals. Unknown IDs panic too: freeing a slot
// twice is the host-side bug the real firmware would corrupt SRAM over.
func (n *NIC) UninstallGroup(id core.GroupID) {
	m, ok := n.groups.Get(id)
	if !ok {
		panic(fmt.Sprintf("myrinet: node %d: uninstalling unknown group %d", n.node.ID, id))
	}
	if m.state.Active() {
		panic(fmt.Sprintf("myrinet: node %d: uninstalling group %d mid-operation", n.node.ID, id))
	}
	m.nackTimer.Cancel()
	// The longest-lived stale traffic is a NACK-resent duplicate, bounded
	// by a handful of NackTimeout rounds; a 16x horizon is far beyond any
	// recovery the protocol can stretch to.
	n.groups.Release(id, n.Eng.Now(), 16*n.node.Prof.NIC.NackTimeout)
	n.traceEvent(int(id), obs.KindUninstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupUninstallCost)
	n.Exec(0, n.node.Prof.NIC.GroupUninstallCost, sim.Nop{})
}

// AbortGroup force-quiesces a group's NIC-resident operation after a
// deadline expiry: the NACK timer is cancelled, the bit-vector state
// abandons its active operation, and the entry freezes — late
// doorbells, arrivals and NACKs for it count as stale instead of
// touching protocol state. The slot stays claimed until UninstallGroup
// (which becomes legal, the state no longer being active); recovery
// installs a fresh group rather than restarting a frozen one.
func (n *NIC) AbortGroup(id core.GroupID) {
	m, ok := n.groups.Get(id)
	if !ok {
		panic(fmt.Sprintf("myrinet: node %d: aborting unknown group %d", n.node.ID, id))
	}
	m.nackTimer.Cancel()
	m.nackTimer = sim.Timer{}
	m.state.Abort()
	m.frozen = true
	n.Stats.AbortedOps++
	n.traceEvent(int(id), obs.KindOpTimeout, 0)
}

// ChargeGroupInstall charges the firmware-side cost of writing a fresh
// group-queue entry on the simulated timeline. Installation itself is
// synchronous (the slot is claimed immediately); the charge models the
// SRAM writes occupying the firmware processor, so lifecycle-aware
// callers invoke it right after a successful install.
func (n *NIC) ChargeGroupInstall(id core.GroupID) {
	n.traceEvent(int(id), obs.KindInstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupInstallCost)
	n.Exec(0, n.node.Prof.NIC.GroupInstallCost, sim.Nop{})
}

// liveMember returns group id's entry, whose scheme must be direct or
// collective as direct says, or nil when the group is retired. A live
// group never is, so the tombstones are read only on a miss.
func (n *NIC) liveMember(id core.GroupID, direct bool) *member {
	m, ok := n.groups.Get(id)
	if ok && m.direct() == direct {
		return m
	}
	if !ok && n.groups.Retired(id) {
		return nil
	}
	panic(fmt.Sprintf("myrinet: node %d: message for unknown group %d (direct scheme %v)", n.node.ID, id, direct))
}

// start handles the operation doorbell: one enqueue charge creates the
// operation's send record (begin), then the first sends fire from the
// static packet. value is the allreduce contribution (ignored for
// barriers).
func (m *member) start(value int64) {
	n := m.nic
	n.traceTime(int(m.group.ID), n.node.Prof.NIC.CollEnqueue, 0)
	h := n.pool.get(hCollStart, n)
	h.m, h.msg.value = m, value
	n.Exec(n.node.Prof.NIC.CollEnqueue, 0, h)
}

// begin is the doorbell's handler body. The operation it starts is the
// successor of the state machine's last one.
func (m *member) begin(value int64) {
	n := m.nic
	id := m.group.ID
	seq := m.state.Seq() + 1
	if m.frozen {
		// The group was aborted while this doorbell sat in the handler
		// queue; the host-side run is void.
		n.Stats.StaleColl++
		n.traceEvent(int(id), obs.KindStale, int64(seq))
		return
	}
	m.nackRound = 0
	var sends []int
	var done bool
	var err error
	if red := m.reduce(); red != nil {
		sends, done, err = red.Start(seq, value)
	} else {
		sends, done, err = m.state.Start(seq)
	}
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d group %d: %v", n.node.ID, int(id), err))
	}
	m.armNack(seq)
	m.sendAll(seq, sends)
	if done {
		m.complete(seq)
	}
}

// sendAll fires one CollTrigger handler per outgoing notification; the
// NIC processor serializes them, the static packet eliminates all
// claim/fill work.
func (m *member) sendAll(seq int, ranks []int) {
	n, g := m.nic, m.group
	for _, r := range ranks {
		h := n.pool.get(hCollSend, n)
		h.dst = g.NodeOf(r)
		h.msg = collPayload{
			group: g.ID, seq: seq, fromRank: int(m.rank),
			value: m.sendValue(seq, r),
		}
		n.traceTime(int(g.ID), n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed)
		n.Exec(n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed, h)
	}
}

// sendColl injects one notification from the static packet, carrying a
// pooled payload.
func (n *NIC) sendColl(dst int, m collPayload) {
	n.net.Send(netsim.Packet{
		Src:     n.node.ID,
		Dst:     dst,
		Size:    n.node.Prof.BarrierBytes,
		Kind:    "barrier-coll",
		Group:   int(m.group),
		Payload: n.pool.payload(m),
	})
}

// onColl handles an arrived collective notification: one slim handler
// (arrive) updates the bit vector and triggers whatever the schedule
// unblocks.
func (n *NIC) onColl(m collPayload) {
	n.traceTime(int(m.group), n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed)
	h := n.pool.get(hCollRecv, n)
	h.msg = m
	n.Exec(n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed, h)
}

// arrive is onColl's handler body.
func (n *NIC) arrive(m collPayload) {
	// A retired group (nil) means a NACK-resent duplicate outlived its
	// group: the operation completed (which is why the group could tear
	// down), so the copy is stale by construction.
	e := n.liveMember(m.group, false)
	if e == nil || e.frozen {
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	n.Stats.CollRecvd++
	staleBefore := e.state.Stale() + e.state.Duplicates()
	var sends []int
	var done bool
	var err error
	if red := e.reduce(); red != nil {
		sends, done, err = red.Arrive(m.seq, m.fromRank, m.value)
	} else {
		sends, done, err = e.state.Arrive(m.seq, m.fromRank)
	}
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d: %v", n.node.ID, err))
	}
	if e.state.Stale()+e.state.Duplicates() > staleBefore {
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
	} else {
		e.nackRound = 0 // progress: the NACK rounds were not fruitless
	}
	e.sendAll(e.state.Seq(), sends)
	if done {
		e.complete(e.state.Seq())
	}
}

func (m *member) complete(seq int) {
	m.nackTimer.Cancel() // no-op when never armed or already fired
	m.nackTimer = sim.Timer{}
	n, id := m.nic, m.group.ID
	n.Stats.BarriersRun++
	var value int64
	if red := m.reduce(); red != nil {
		value = red.Value()
	}
	n.traceEvent(int(id), obs.KindComplete, int64(seq))
	n.traceTime(int(id), n.node.Prof.NIC.CollComplete, 0)
	h := n.pool.get(hComplete, n)
	h.setDone(id, seq, value)
	n.Exec(n.node.Prof.NIC.CollComplete, 0, h)
}

// armNack starts the receiver-driven retransmission timer: if the
// operation has not completed when it fires, NACK every sender whose
// notification is missing and re-arm.
func (m *member) armNack(seq int) {
	if !m.state.Active() {
		return
	}
	m.nackSeq = int32(seq)
	m.nackTimer = m.nic.Eng.AfterEvent(m.nic.node.Prof.NIC.NackTimeout, m)
}

// Fire implements sim.Event: the NACK timer armed for operation nackSeq
// expired.
func (m *member) Fire() {
	n, g, seq := m.nic, m.group, int(m.nackSeq)
	if !m.state.Active() || m.state.Seq() != seq {
		return
	}
	m.nackRound++
	if n.OnNackStall != nil && m.nackRound >= nackStallRounds {
		n.OnNackStall(g.ID, int(m.nackRound))
		if m.frozen {
			return // the stall hook aborted the group
		}
	}
	for _, r := range m.state.Missing() {
		h := n.pool.get(hNackSend, n)
		h.dst = g.NodeOf(r)
		h.msg = collPayload{group: g.ID, seq: seq, fromRank: int(m.rank)}
		n.traceEvent(int(g.ID), obs.KindNack, int64(r))
		n.traceTime(int(g.ID), n.node.Prof.NIC.AckBuild, n.node.Prof.NIC.SendFixed)
		n.Exec(n.node.Prof.NIC.AckBuild, n.node.Prof.NIC.SendFixed, h)
	}
	m.armNack(seq) // re-arm until the operation completes
}

// sendNack asks node dst to resend its operation m.seq notification to
// rank m.fromRank of group m.group, on a pooled payload.
func (n *NIC) sendNack(dst int, m collPayload) {
	n.net.Send(netsim.Packet{
		Src:     n.node.ID,
		Dst:     dst,
		Size:    n.node.Prof.BarrierBytes,
		Kind:    "barrier-nack",
		Group:   int(m.group),
		Payload: (*nackMsg)(n.pool.payload(m)),
	})
	n.Stats.NacksSent++
}

// onNack queues a retransmission request (rank m.fromRank on node
// fromNode wants its operation m.seq notification again) for serveNack.
func (n *NIC) onNack(m collPayload, fromNode int) {
	n.traceTime(int(m.group), n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed)
	h := n.pool.get(hNackRecv, n)
	h.dst, h.msg = fromNode, m
	n.Exec(n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed, h)
}

// serveNack serves a retransmission request: if this rank already sent
// the requested notification, fire it again from the static packet.
// Repeat NACKs for the same notification escalate to a duplicated
// reply, each copy with its own payload.
func (n *NIC) serveNack(m collPayload, fromNode int) {
	e := n.liveMember(m.group, false)
	if e == nil || e.frozen { // nil: a NACK for a drained, torn-down group
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	n.Stats.NacksRecvd++
	if !e.state.HasSent(m.seq, m.fromRank) {
		return // not sent yet; the normal path will deliver it
	}
	// A repeat NACK means the first retransmission was lost too, so
	// the reply escalates to two back-to-back copies: under random loss
	// that squares the residual failure probability, and under
	// deterministic every-Nth impairments it breaks retransmission
	// resonance outright (a one-in-N filter cannot discard two
	// consecutive packets on a flow). Peers lag at most one operation
	// behind, so a NACK for an older operation is a delayed duplicate:
	// it gets one copy and is not counted.
	copies := 1
	if m.seq >= e.state.Seq()-1 && e.state.CountNack(m.seq, m.fromRank) > 1 {
		copies = 2
	}
	id := e.group.ID
	payload := collPayload{
		group: id, seq: m.seq, fromRank: int(e.rank),
		value: e.sendValue(m.seq, m.fromRank),
	}
	for i := 0; i < copies; i++ {
		n.traceEvent(int(id), obs.KindResend, int64(m.seq))
		n.traceTime(int(id), n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed)
		h := n.pool.get(hCollResend, n)
		h.dst, h.msg = fromNode, payload
		n.Exec(n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed, h)
	}
}
