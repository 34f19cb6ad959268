package myrinet

import (
	"fmt"
	"slices"

	"nicbarrier/internal/core"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// collModule is the paper's NIC-based collective message passing protocol
// as resident on one NIC. Compared with the p2p path it:
//
//   - keeps one dedicated queue entry per group (groupOp), so barrier
//     traffic never waits behind per-destination data queues;
//   - transmits from the static (padded-ACK) packet: no packet claim,
//     no fill DMA, no per-packet send record;
//   - tracks the whole operation in one core.OpState (bit vector);
//   - uses receiver-driven NACK retransmission instead of ACK+timeout.
type collModule struct {
	nic *NIC
}

// groupOp is one group's queue entry, served by the collective module or,
// when direct is set, by the direct scheme's module. Session members
// embed it, so the group table points into their session's member slice.
// It is also the sim.Event of its own NACK timer (collective entries
// only; at most one is armed at a time), for operation nackSeq.
type groupOp struct {
	nic       *NIC
	group     *core.Group // shared by every member of the session
	rank      int         // this member's rank in group
	state     *core.OpState
	reduce    *core.ReduceState // non-nil for allreduce groups
	nextSeq   int
	nackTimer sim.Timer
	nackSeq   int
	// nackServed counts NACKs answered per requesting rank for the
	// current and previous operation: entry (seq%2)*dests+i, tagged with
	// its seq, belongs to destination i in schedule send order. It is
	// built on the first NACK served. A repeat NACK means the first
	// retransmission was lost too, so the reply escalates to two
	// back-to-back copies: under random loss that squares the residual
	// failure probability, and under deterministic every-Nth impairments
	// it breaks retransmission resonance outright (a one-in-N filter
	// cannot discard two consecutive packets on a flow). Peers lag at
	// most one operation behind, so a NACK for an older operation is a
	// delayed duplicate: it gets one copy and is not counted.
	nackServed []nackCount
	// nackRound counts consecutive fruitless NACK timer rounds for the
	// active operation (reset by any accepted arrival); past
	// nackStallRounds the NIC raises OnNackStall — NACK recovery repairs
	// lost packets, not dead peers, so an escalating count is the
	// protocol-level smell of a fail-stop failure.
	nackRound int
	// frozen marks an aborted entry: the slot stays claimed until
	// UninstallGroup, but late doorbells, arrivals and NACKs count as
	// stale instead of touching protocol state — an aborted operation
	// must not restart from a straggler packet.
	frozen bool
	// direct marks an entry of the direct scheme (Buntinas et al.),
	// which rides the point-to-point machinery and never NACKs.
	direct bool
}

// nackCount is one destination's NACK count for operation seq.
type nackCount struct{ seq, n int }

// nackStallRounds is how many consecutive fruitless NACK rounds raise
// OnNackStall. Transient loss is repaired in one or two rounds (the
// second already escalates to duplicated replies); four rounds of
// silence mean the peer is not answering at all.
const nackStallRounds = 4

// sendValue is the integer the static packet carries to toRank for
// operation seq: the recorded partial snapshot for allreduce, zero for
// barriers/broadcasts.
func (op *groupOp) sendValue(seq, toRank int) int64 {
	if op.reduce == nil {
		return 0
	}
	v, ok := op.reduce.SentValue(seq, toRank)
	if !ok {
		panic(fmt.Sprintf("myrinet: no reduce snapshot for op %d to rank %d", seq, toRank))
	}
	return v
}

// groupSlot is one entry of the NIC's group table, the SRAM-resident
// group-queue slots the collective and direct modules share: the group
// ID, stored inline so a lookup reads only the table, and the entry
// serving the group. The table holds at most GroupQueueSlots entries and
// is scanned linearly.
type groupSlot struct {
	id core.GroupID
	op *groupOp
}

// slot returns the index of group id in the group table, or -1.
func (n *NIC) slot(id core.GroupID) int {
	for i := range n.slots {
		if n.slots[i].id == id {
			return i
		}
	}
	return -1
}

// checkSlot validates that group id can claim a NIC group-queue entry:
// the ID must be fresh and a slot must be free.
func (n *NIC) checkSlot(id core.GroupID) error {
	if n.slot(id) >= 0 {
		return fmt.Errorf("myrinet: group %d already installed on node %d", id, n.node.ID)
	}
	slots := n.node.Prof.NIC.GroupQueueSlots
	if used := len(n.slots); used >= slots {
		return fmt.Errorf("myrinet: node %d: %w (%d of %d in use)",
			n.node.ID, core.ErrSlotsExhausted, used, slots)
	}
	return nil
}

// install claims a group-queue entry for op, failing when the NIC's
// slots are exhausted or op's group is already installed.
func (n *NIC) install(op *groupOp) error {
	id := op.group.ID
	if err := n.checkSlot(id); err != nil {
		return err
	}
	delete(n.retired, id)
	n.slots = append(n.slots, groupSlot{id, op})
	return nil
}

// GroupSlotsFree reports how many NIC group-queue entries remain.
func (n *NIC) GroupSlotsFree() int {
	return n.node.Prof.NIC.GroupQueueSlots - len(n.slots)
}

// UninstallGroup retires a group's queue entry, freeing its slot for a
// future install, and charges the firmware teardown cost on the NIC
// processor (co-resident groups' handlers queue behind it). The caller —
// the session layer — guarantees the group's operations have drained;
// uninstalling a group with an active operation panics, since its bit
// vector still expects arrivals. Unknown IDs panic too: freeing a slot
// twice is the host-side bug the real firmware would corrupt SRAM over.
func (n *NIC) UninstallGroup(id core.GroupID) {
	i := n.slot(id)
	if i < 0 {
		panic(fmt.Sprintf("myrinet: node %d: uninstalling unknown group %d", n.node.ID, id))
	}
	op := n.slots[i].op
	if op.state.Active() {
		panic(fmt.Sprintf("myrinet: node %d: uninstalling group %d mid-operation", n.node.ID, id))
	}
	op.nackTimer.Cancel()
	n.slots = slices.Delete(n.slots, i, i+1)
	if n.retired == nil {
		n.retired = make(map[core.GroupID]sim.Time)
	}
	n.retired[id] = n.Eng.Now()
	n.pruneRetired()
	n.traceEvent(int(id), obs.KindUninstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupUninstallCost)
	n.Exec(0, n.node.Prof.NIC.GroupUninstallCost, sim.Nop{})
}

// retiredSweepLen bounds the tombstone table: pruning only runs once it
// grows past this, keeping the common case (few concurrent teardowns)
// sweep-free.
const retiredSweepLen = 64

// pruneRetired drops tombstones old enough that no packet addressed to
// them can still be in flight. The longest-lived stale traffic is a
// NACK-resent duplicate, bounded by a handful of NackTimeout rounds; a
// 16x horizon is far beyond any recovery the protocol can stretch to.
func (n *NIC) pruneRetired() {
	if len(n.retired) <= retiredSweepLen {
		return
	}
	horizon := 16 * n.node.Prof.NIC.NackTimeout
	cutoff := n.Eng.Now()
	for id, at := range n.retired {
		if cutoff.Sub(at) > horizon {
			delete(n.retired, id)
		}
	}
}

// AbortGroup force-quiesces a group's NIC-resident operation after a
// deadline expiry: the NACK timer is cancelled, the bit-vector state
// abandons its active operation, and the entry freezes — late
// doorbells, arrivals and NACKs for it count as stale instead of
// touching protocol state. The slot stays claimed until UninstallGroup
// (which becomes legal, the state no longer being active); recovery
// installs a fresh group rather than restarting a frozen one.
func (n *NIC) AbortGroup(id core.GroupID) {
	i := n.slot(id)
	if i < 0 {
		panic(fmt.Sprintf("myrinet: node %d: aborting unknown group %d", n.node.ID, id))
	}
	op := n.slots[i].op
	op.nackTimer.Cancel()
	op.nackTimer = sim.Timer{}
	op.state.Abort()
	op.frozen = true
	n.Stats.AbortedOps++
	n.traceEvent(int(id), obs.KindOpTimeout, 0)
}

// ChargeGroupInstall charges the firmware-side cost of writing a fresh
// group-queue entry on the simulated timeline. Installation itself is
// synchronous (the slot is claimed immediately); the charge models the
// SRAM writes occupying the firmware processor, so lifecycle-aware
// callers invoke it right after a successful install. Reinstalling a
// previously retired ID is legal, so the retired mark clears.
func (n *NIC) ChargeGroupInstall(id core.GroupID) {
	delete(n.retired, id)
	n.traceEvent(int(id), obs.KindInstall, 0)
	n.traceTime(int(id), 0, n.node.Prof.NIC.GroupInstallCost)
	n.Exec(0, n.node.Prof.NIC.GroupInstallCost, sim.Nop{})
}

func (c *collModule) mustOp(id core.GroupID) *groupOp {
	if i := c.nic.slot(id); i >= 0 && !c.nic.slots[i].op.direct {
		return c.nic.slots[i].op
	}
	panic(fmt.Sprintf("myrinet: node %d: collective message for unknown group %d", c.nic.node.ID, id))
}

// start handles the operation doorbell: one enqueue charge creates the
// operation's send record (begin), then the first sends fire from the
// static packet. value is the allreduce contribution (ignored for
// barriers).
func (c *collModule) start(op *groupOp, value int64) {
	n := c.nic
	n.traceTime(int(op.group.ID), n.node.Prof.NIC.CollEnqueue, 0)
	h := n.pool.get(hCollStart, n)
	h.op, h.msg.value = op, value
	n.Exec(n.node.Prof.NIC.CollEnqueue, 0, h)
}

// begin is the doorbell's handler body.
func (c *collModule) begin(op *groupOp, value int64) {
	n := c.nic
	id := op.group.ID
	if op.frozen {
		// The group was aborted while this doorbell sat in the handler
		// queue; the host-side run is void.
		n.Stats.StaleColl++
		n.traceEvent(int(id), obs.KindStale, int64(op.nextSeq))
		return
	}
	seq := op.nextSeq
	op.nextSeq++
	op.nackRound = 0
	var sends []int
	var done bool
	var err error
	if op.reduce != nil {
		sends, done, err = op.reduce.Start(seq, value)
	} else {
		sends, done, err = op.state.Start(seq)
	}
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d group %d: %v", n.node.ID, int(id), err))
	}
	c.armNack(op, seq)
	c.sendAll(op, seq, sends)
	if done {
		c.complete(op, seq)
	}
}

// sendAll fires one CollTrigger handler per outgoing notification; the
// NIC processor serializes them, the static packet eliminates all
// claim/fill work.
func (c *collModule) sendAll(op *groupOp, seq int, ranks []int) {
	n := c.nic
	for _, r := range ranks {
		h := n.pool.get(hCollSend, n)
		h.dst = op.group.NodeOf(r)
		h.msg = collPayload{
			group: op.group.ID, seq: seq, fromRank: op.rank,
			value: op.sendValue(seq, r),
		}
		n.traceTime(int(op.group.ID), n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed)
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

// onMsg handles an arrived collective notification: one slim handler
// (arrive) updates the bit vector and triggers whatever the schedule
// unblocks.
func (c *collModule) onMsg(m collPayload) {
	n := c.nic
	n.traceTime(int(m.group), n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed)
	h := n.pool.get(hCollRecv, n)
	h.msg = m
	n.Exec(n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed, h)
}

// arrive is onMsg's handler body.
func (c *collModule) arrive(m collPayload) {
	n := c.nic
	if _, gone := n.retired[m.group]; gone {
		// A NACK-resent duplicate outlived its group: the operation
		// completed (which is why the group could tear down), so the
		// copy is stale by construction.
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	op := c.mustOp(m.group)
	if op.frozen {
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	n.Stats.CollRecvd++
	staleBefore := op.state.Stale + op.state.Duplicates
	var sends []int
	var done bool
	var err error
	if op.reduce != nil {
		sends, done, err = op.reduce.Arrive(m.seq, m.fromRank, m.value)
	} else {
		sends, done, err = op.state.Arrive(m.seq, m.fromRank)
	}
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d: %v", n.node.ID, err))
	}
	if op.state.Stale+op.state.Duplicates > staleBefore {
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
	} else {
		op.nackRound = 0 // progress: the NACK rounds were not fruitless
	}
	c.sendAll(op, op.state.Seq(), sends)
	if done {
		c.complete(op, op.state.Seq())
	}
}

func (c *collModule) complete(op *groupOp, seq int) {
	op.nackTimer.Cancel() // no-op when never armed or already fired
	op.nackTimer = sim.Timer{}
	n := c.nic
	n.Stats.BarriersRun++
	var value int64
	if op.reduce != nil {
		value = op.reduce.Value()
	}
	n.traceEvent(int(op.group.ID), obs.KindComplete, int64(seq))
	n.traceTime(int(op.group.ID), n.node.Prof.NIC.CollComplete, 0)
	h := n.pool.get(hComplete, n)
	h.ev = Event{Kind: EvBarrierDone, Group: int(op.group.ID), Seq: seq, Value: value}
	n.Exec(n.node.Prof.NIC.CollComplete, 0, h)
}

// armNack starts the receiver-driven retransmission timer: if the
// operation has not completed when it fires, NACK every sender whose
// notification is missing and re-arm.
func (c *collModule) armNack(op *groupOp, seq int) {
	if !op.state.Active() {
		return
	}
	op.nackSeq = seq
	op.nackTimer = c.nic.Eng.AfterEvent(c.nic.node.Prof.NIC.NackTimeout, op)
}

// Fire implements sim.Event: the NACK timer armed for operation nackSeq
// expired.
func (op *groupOp) Fire() {
	c, seq := &op.nic.coll, op.nackSeq
	n := c.nic
	if !op.state.Active() || op.state.Seq() != seq {
		return
	}
	op.nackRound++
	if n.OnNackStall != nil && op.nackRound >= nackStallRounds {
		n.OnNackStall(op.group.ID, op.nackRound)
		if op.frozen {
			return // the stall hook aborted the group
		}
	}
	for _, r := range op.state.Missing() {
		h := n.pool.get(hNackSend, n)
		h.dst = op.group.NodeOf(r)
		h.msg = collPayload{group: op.group.ID, seq: seq, fromRank: op.rank}
		n.traceEvent(int(op.group.ID), obs.KindNack, int64(r))
		n.traceTime(int(op.group.ID), n.node.Prof.NIC.AckBuild, n.node.Prof.NIC.SendFixed)
		n.Exec(n.node.Prof.NIC.AckBuild, n.node.Prof.NIC.SendFixed, h)
	}
	c.armNack(op, seq) // re-arm until the operation completes
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
func (c *collModule) onNack(m collPayload, fromNode int) {
	n := c.nic
	n.traceTime(int(m.group), n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed)
	h := n.pool.get(hNackRecv, n)
	h.dst, h.msg = fromNode, m
	n.Exec(n.node.Prof.NIC.CollRecv, n.node.Prof.NIC.RecvFixed, h)
}

// serveNack serves a retransmission request: if this rank already sent
// the requested notification, fire it again from the static packet.
// Repeat NACKs for the same notification escalate to a duplicated reply
// (see groupOp.nackServed), each copy with its own payload.
func (c *collModule) serveNack(m collPayload, fromNode int) {
	n := c.nic
	if _, gone := n.retired[m.group]; gone {
		n.Stats.StaleColl++ // NACK for a drained, torn-down group
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	op := c.mustOp(m.group)
	if op.frozen {
		n.Stats.StaleColl++
		n.traceEvent(int(m.group), obs.KindStale, int64(m.seq))
		return
	}
	n.Stats.NacksRecvd++
	if !op.state.HasSent(m.seq, m.fromRank) {
		return // not sent yet; the normal path will deliver it
	}
	copies := 1
	if m.seq >= op.state.Seq()-1 {
		if op.nackServed == nil {
			op.nackServed = make([]nackCount, 2*op.state.Schedule().TotalSends())
		}
		i, _ := op.state.SendIndex(m.fromRank)
		served := &op.nackServed[(m.seq&1)*(len(op.nackServed)/2)+i]
		if served.seq != m.seq {
			*served = nackCount{seq: m.seq}
		}
		served.n++
		if served.n > 1 {
			copies = 2
		}
	}
	payload := collPayload{
		group: op.group.ID, seq: m.seq, fromRank: op.rank,
		value: op.sendValue(m.seq, m.fromRank),
	}
	for i := 0; i < copies; i++ {
		n.traceEvent(int(op.group.ID), obs.KindResend, int64(m.seq))
		n.traceTime(int(op.group.ID), n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed)
		h := n.pool.get(hCollResend, n)
		h.dst, h.msg = fromNode, payload
		n.Exec(n.node.Prof.NIC.CollTrigger, n.node.Prof.NIC.SendFixed, h)
	}
}
