package myrinet

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
)

// directModule is the earlier NIC-based barrier scheme of Buntinas et al.
// (IPDPS'01), kept as the paper's ablation baseline: the NIC detects
// arrived barrier messages and triggers the next ones without host
// involvement, but every message still traverses the point-to-point
// machinery — per-destination queues, packet claim and fill, per-packet
// send records, ACKs and sender timeouts.
type directModule struct {
	nic *NIC
}

// directOp is one group's entry. It is also the sim.Event of its own
// doorbell translation: the operation it starts is read when it fires.
type directOp struct {
	mod     *directModule
	group   *core.Group
	state   *core.OpState
	nextSeq int
	// frozen marks a group aborted mid-operation; late doorbells and
	// arrivals count stale instead of touching state (see AbortGroup).
	frozen bool
}

func (d *directModule) install(g *core.Group, sched barrier.Schedule) error {
	if err := d.nic.checkSlot(g.ID); err != nil {
		return err
	}
	d.nic.claimSlot(groupSlot{id: g.ID, direct: &directOp{mod: d, group: g, state: core.NewOpState(sched)}})
	return nil
}

func (d *directModule) mustOp(id core.GroupID) *directOp {
	if i := d.nic.slot(id); i >= 0 && d.nic.slots[i].direct != nil {
		return d.nic.slots[i].direct
	}
	panic(fmt.Sprintf("myrinet: node %d: direct barrier message for unknown group %d", d.nic.node.ID, id))
}

func (d *directModule) start(op *directOp) {
	// The doorbell is translated like a regular send event.
	d.nic.Exec(d.nic.node.Prof.NIC.TokenTranslate, 0, op)
}

// Fire implements sim.Event: the translated doorbell starts the group's
// next operation.
func (op *directOp) Fire() {
	d := op.mod
	n := d.nic
	if op.frozen {
		n.Stats.StaleColl++
		return
	}
	seq := op.nextSeq
	op.nextSeq++
	sends, done, err := op.state.Start(seq)
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d: %v", n.node.ID, err))
	}
	d.enqueueSends(op, seq, sends)
	if done {
		d.complete(op, seq)
	}
}

// enqueueSends pushes one regular send token per notification into the
// per-destination p2p queues — the exact queuing/packetizing overhead the
// collective protocol bypasses.
func (d *directModule) enqueueSends(op *directOp, seq int, ranks []int) {
	n := d.nic
	for _, r := range ranks {
		n.Stats.TokensEnqueued++
		tok := n.pool.data.Get()
		*tok = dataMsg{
			dst:     op.group.NodeOf(r),
			size:    8, // the barrier integer, NIC-generated
			route:   routeDirect,
			barrier: collPayload{group: op.group.ID, seq: seq, fromRank: op.group.MyRank},
		}
		n.enqueueToken(tok)
	}
	if len(ranks) > 0 {
		n.kick()
	}
}

// onArrive is called from the p2p receive path after the sequence check
// accepted a barrier-tagged data packet.
func (d *directModule) onArrive(m collPayload) {
	n := d.nic
	h := n.pool.get(hDirectRecv, n)
	h.msg = m
	n.Exec(n.node.Prof.NIC.CollRecv, 0, h)
}

// arrive is onArrive's handler body.
func (d *directModule) arrive(m collPayload) {
	n := d.nic
	if _, gone := n.retired[m.group]; gone {
		n.Stats.StaleColl++ // p2p retransmit outlived the group
		return
	}
	op := d.mustOp(m.group)
	if op.frozen {
		n.Stats.StaleColl++
		return
	}
	sends, done, err := op.state.Arrive(m.seq, m.fromRank)
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d: %v", n.node.ID, err))
	}
	d.enqueueSends(op, op.state.Seq(), sends)
	if done {
		d.complete(op, op.state.Seq())
	}
}

func (d *directModule) complete(op *directOp, seq int) {
	n := d.nic
	n.Stats.BarriersRun++
	h := n.pool.get(hComplete, n)
	h.ev = Event{Kind: EvBarrierDone, Group: int(op.group.ID), Seq: seq}
	n.Exec(n.node.Prof.NIC.CollComplete, 0, h)
}

// --- NIC installation API (shared by both schemes) ---

// InstallCollectiveGroup registers a group for the paper's collective
// protocol barrier on this NIC. It fails when the NIC's group-queue
// slots are exhausted or the ID is already installed.
func (n *NIC) InstallCollectiveGroup(g *core.Group, sched barrier.Schedule) error {
	return n.coll.install(g, sched)
}

// InstallReduceGroup registers a group for NIC-based allreduce over the
// collective protocol. It fails when the (operator, schedule) pair cannot
// produce exact results (sum over non-power-of-two dissemination) or when
// the NIC's group-queue slots are exhausted.
func (n *NIC) InstallReduceGroup(g *core.Group, sched barrier.Schedule, op core.ReduceOp) error {
	return n.coll.installReduce(g, sched, op)
}

// InstallDirectGroup registers a group for the direct-scheme barrier on
// this NIC. It fails when the NIC's group-queue slots are exhausted or
// the ID is already installed.
func (n *NIC) InstallDirectGroup(g *core.Group, sched barrier.Schedule) error {
	return n.direct.install(g, sched)
}
