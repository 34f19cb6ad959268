package myrinet

import "fmt"

// The direct scheme is the earlier NIC-based barrier of Buntinas et al.
// (IPDPS'01), kept as the paper's ablation baseline: the NIC detects
// arrived barrier messages and triggers the next ones without host
// involvement, but every message still traverses the point-to-point
// machinery — per-destination queues, packet claim and fill, per-packet
// send records, ACKs and sender timeouts.

// startDirect handles the operation doorbell: it is translated like a
// regular send event.
func (m *member) startDirect() {
	n := m.nic
	h := n.pool.get(hDirectStart, n)
	h.m = m
	n.Exec(n.node.Prof.NIC.TokenTranslate, 0, h)
}

// beginDirect is the translated doorbell's handler body: it starts the
// group's next operation.
func (m *member) beginDirect() {
	n := m.nic
	if m.frozen {
		n.Stats.StaleColl++
		return
	}
	seq := m.state.Seq() + 1
	sends, done, err := m.state.Start(seq)
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d: %v", n.node.ID, err))
	}
	m.enqueueSends(seq, sends)
	if done {
		m.completeDirect(seq)
	}
}

// enqueueSends pushes one regular send token per notification into the
// per-destination p2p queues — the exact queuing/packetizing overhead the
// collective protocol bypasses.
func (m *member) enqueueSends(seq int, ranks []int) {
	n, g := m.nic, m.group
	for _, r := range ranks {
		tok := n.pool.data.Get()
		*tok = dataMsg{
			dst:     g.NodeOf(r),
			size:    8, // the barrier integer, NIC-generated
			route:   routeDirect,
			barrier: collPayload{group: g.ID, seq: seq, fromRank: int(m.rank)},
		}
		n.enqueueToken(tok)
	}
	if len(ranks) > 0 {
		n.kick()
	}
}

// onDirect is called from the p2p receive path after the sequence check
// accepted a barrier-tagged data packet.
func (n *NIC) onDirect(m collPayload) {
	h := n.pool.get(hDirectRecv, n)
	h.msg = m
	n.Exec(n.node.Prof.NIC.CollRecv, 0, h)
}

// arriveDirect is onDirect's handler body.
func (n *NIC) arriveDirect(m collPayload) {
	e := n.liveMember(m.group, true)
	if e == nil || e.frozen { // nil: a p2p retransmit outlived the group
		n.Stats.StaleColl++
		return
	}
	sends, done, err := e.state.Arrive(m.seq, m.fromRank)
	if err != nil {
		panic(fmt.Sprintf("myrinet: node %d: %v", n.node.ID, err))
	}
	e.enqueueSends(e.state.Seq(), sends)
	if done {
		e.completeDirect(e.state.Seq())
	}
}

func (m *member) completeDirect(seq int) {
	n := m.nic
	n.Stats.BarriersRun++
	h := n.pool.get(hComplete, n)
	h.setDone(m.group.ID, seq, 0)
	n.Exec(n.node.Prof.NIC.CollComplete, 0, h)
}
