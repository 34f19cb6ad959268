package myrinet

import (
	"fmt"

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

func (d *directModule) mustOp(id core.GroupID) *groupOp {
	if op, ok := d.nic.groups.Get(id); ok && op.direct {
		return op
	}
	panic(fmt.Sprintf("myrinet: node %d: direct barrier message for unknown group %d", d.nic.node.ID, id))
}

func (d *directModule) start(op *groupOp) {
	// The doorbell is translated like a regular send event.
	h := d.nic.pool.get(hDirectStart, d.nic)
	h.op = op
	d.nic.Exec(d.nic.node.Prof.NIC.TokenTranslate, 0, h)
}

// begin is the translated doorbell's handler body: it starts the
// group's next operation.
func (d *directModule) begin(op *groupOp) {
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
func (d *directModule) enqueueSends(op *groupOp, seq int, ranks []int) {
	n := d.nic
	for _, r := range ranks {
		n.Stats.TokensEnqueued++
		tok := n.pool.data.Get()
		*tok = dataMsg{
			dst:     op.group.NodeOf(r),
			size:    8, // the barrier integer, NIC-generated
			route:   routeDirect,
			barrier: collPayload{group: op.group.ID, seq: seq, fromRank: op.rank},
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
	if n.groups.Retired(m.group) {
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

func (d *directModule) complete(op *groupOp, seq int) {
	n := d.nic
	n.Stats.BarriersRun++
	h := n.pool.get(hComplete, n)
	h.ev = Event{Kind: EvBarrierDone, Group: int(op.group.ID), Seq: seq}
	n.Exec(n.node.Prof.NIC.CollComplete, 0, h)
}
