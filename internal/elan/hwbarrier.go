package elan

import (
	"fmt"

	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// hwBarrier models elan_hgsync(): the hardware-broadcast barrier built on
// QsNet's atomic test-and-set network transaction. The Elite switches
// combine the replies of a broadcast probe, so one transaction polls every
// NIC; its cost grows only with the tree depth, not the node count. The
// catch the paper highlights: the probe succeeds only when all processes
// have already reached the barrier — poorly synchronized processes force
// retries, and Elanlib then falls back to the software tree (elan_gsync).
type hwBarrier struct {
	cl *Cluster

	members []int // node IDs participating in the current round
	// held marks the transaction owned by a live session; a second
	// hardware-barrier session would overwrite the first's event hooks.
	held    bool
	posted  map[int]bool
	round   int
	firstAt sim.Time
	retries uint64

	// The transaction in flight: hwBarrier is its own sim.Event. At most
	// one is, since participants post the next round only once this one
	// has completed on them.
	fireRound   int
	fireMembers []int
}

// HWSyncLimit is the skew between the first and last arrival above which
// the test-and-set probe fails and is retried.
const HWSyncLimit = sim.Duration(40 * 1000) // 40us

func newHWBarrier(cl *Cluster) *hwBarrier {
	return &hwBarrier{cl: cl, posted: make(map[int]bool)}
}

// configure takes the transaction for a session and sets the
// participating nodes for subsequent rounds.
func (hw *hwBarrier) configure(members []int) {
	if len(hw.posted) != 0 {
		panic("elan: hw barrier reconfigured mid-round")
	}
	hw.members = append([]int(nil), members...)
	hw.held = true
}

// PostHWBarrier enters the hardware barrier from one host. Completion is
// delivered as an EvHWBarrier host event on every participant.
func (h *Host) PostHWBarrier() {
	h.Exec(h.node.Prof.Host.SendPostCycles, 0, h.node.NIC.get(hHWPost))
}

func (n *Node) hwPost() {
	hw := clusterOf(n).hw
	if hw.members == nil {
		panic("elan: hw barrier not configured")
	}
	if hw.posted[n.ID] {
		panic(fmt.Sprintf("elan: node %d double-posted hw barrier round %d", n.ID, hw.round))
	}
	if len(hw.posted) == 0 {
		hw.firstAt = n.NIC.Eng.Now()
	}
	hw.posted[n.ID] = true
	if len(hw.posted) == len(hw.members) {
		hw.fire()
	}
}

// fire runs the test-and-set transaction once every participant has
// arrived. Skew beyond HWSyncLimit models failed probes as retry delay.
func (hw *hwBarrier) fire() {
	eng := hw.cl.Eng
	prof := hw.cl.Prof.NIC
	skew := eng.Now().Sub(hw.firstAt)
	delay := prof.HWBarrierBase +
		sim.Duration(hw.cl.Levels())*prof.HWBarrierPerLevel
	for s := skew; s > HWSyncLimit; s -= HWSyncLimit {
		// Each failed probe costs one more transaction.
		delay += prof.HWBarrierBase
		hw.retries++
	}
	hw.fireRound, hw.fireMembers = hw.round, hw.members
	hw.round++
	clear(hw.posted)
	eng.AfterEvent(delay, hw)
}

// Fire implements sim.Event: the combined reply of the in-flight
// transaction is broadcast back down the tree to every participant
// (hardware replication in the switches).
func (hw *hwBarrier) Fire() {
	root := hw.fireMembers[0]
	m := hwBarrierMsg{round: hw.fireRound}
	hw.cl.Net.Multicast(netsim.Packet{
		Src:     root,
		Dst:     -1,
		Size:    hw.cl.Prof.BarrierBytes,
		Kind:    "hw-barrier",
		Payload: m,
	}, hw.fireMembers)
	// The root does not hear its own multicast; complete it directly.
	hw.cl.Nodes[root].NIC.completeHW(m)
}

// Retries reports how many failed probes (sync fallback penalty) occurred.
func (hw *hwBarrier) Retries() uint64 { return hw.retries }

// completeHW charges the card's event write of a completed round and
// hands the completion to the host.
func (n *NIC) completeHW(m hwBarrierMsg) {
	p := n.node.Prof.NIC
	h := n.get(hHWDone)
	h.msg.seq = m.round
	n.Exec(p.EventFireCycles, p.HostEventWrite, h)
}

func clusterOf(n *Node) *Cluster {
	if n.cluster == nil {
		panic("elan: node not part of a cluster (hw barrier needs one)")
	}
	return n.cluster
}
